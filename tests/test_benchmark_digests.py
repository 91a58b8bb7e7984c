"""One round of each perfbench workload at seed 1 gives its pinned output digest.

A performance change keeps every trajectory and verdict bit for bit; the
digests of the benchmark's own rounds pin that for the four workloads.
``perfbench/workloads.py`` is imported as it stands.
"""

from pathlib import Path

import pytest

import swstab

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
DIGESTS = {
    "envelope-motivating": "964e5ef3d14e374b",
    "falsify-wzsd": "b19e83172ad66acb",
    "certify-closed-loop": "b874028dacb93b42",
    "embedding-relaxed": "0041a53c16b2b91f",
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_seed1_round_digest(name, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import WORKLOADS

    rnd = WORKLOADS[name](swstab, 1).run_round(lambda: None)
    assert rnd.failed == 0
    assert rnd.digest == DIGESTS[name]
