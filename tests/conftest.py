import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from swstab import IntegratorConfig, get_entry


@pytest.fixture(scope="session")
def motivating():
    return get_entry("motivating", a=1.0)


@pytest.fixture(scope="session")
def motivating_a2():
    return get_entry("motivating", a=2.0)


@pytest.fixture(scope="session")
def example1():
    return get_entry("example1")


@pytest.fixture(scope="session")
def example4():
    return get_entry("example4")


@pytest.fixture(scope="session")
def inverter():
    return get_entry("inverter")


@pytest.fixture(scope="session")
def all_entries(motivating, example1, example4, inverter):
    return [motivating, example1, example4, inverter]


@pytest.fixture(scope="session")
def cfg_fine():
    return IntegratorConfig(step=1e-3)


@pytest.fixture(scope="session")
def cfg_fast():
    return IntegratorConfig(step=1e-2)

