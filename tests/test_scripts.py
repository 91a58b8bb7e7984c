"""The measurement scripts under scripts/ still run against the library."""

import importlib.util
import json
import math
from pathlib import Path


def _load(name):
    path = Path(__file__).parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_step_cost_measures_every_row(capsys):
    step_cost = _load("step_cost")
    step_cost.main(["--repeats", "1"])
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    expected = ([f"{run}/{name}" for name in step_cost.SYSTEMS
                 for run in ("simulate", "simulate_relaxed")]
                + ["simulate_with_covering/example4", "simulate_reduced/motivating",
                   "envelope_trial/motivating"])
    for key in ("us_per_step", "speed_scale", "us_per_step_scaled"):
        rows = doc[key]
        assert sorted(rows) == sorted(expected) and len(rows) == 11, key
        assert all(math.isfinite(v) and v > 0.0 for v in rows.values()), (key, rows)


def test_grid_refinement_study_contracts(capsys):
    # the relaxed-vertex run of a switching signal approaches the switched run
    # as the control grid is refined
    _load("grid_refinement_study").run()
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[0].startswith("du")
    errors = [float(r.split()[1]) for r in rows[1:]]
    assert len(errors) == 5 and all(math.isfinite(e) for e in errors)
    assert errors[-1] < errors[0]
