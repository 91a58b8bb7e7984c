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


def test_bench_measures_every_row(tmp_path, capsys):
    bench = _load("bench")
    record = tmp_path / "pb.json"
    record.write_text(json.dumps({
        "workload": "envelope-motivating", "seed": 4, "seconds": 2.0, "trace": 0,
        "correct": True, "failed": 0,
        "metrics": {"ops_per_s": {"value": 40.0}, "peak_rss_mb": {"value": 50.0},
                    "setup_s": {"value": 0.03}}}))
    traced = tmp_path / "pb_traced.json"
    traced.write_text(json.dumps({"workload": "envelope-motivating", "trace": 1}))
    out = tmp_path / "BENCH_0.json"
    bench.main(["--repeats", "1", "--out", str(out), str(record), str(traced)])
    doc = json.loads(out.read_text())
    assert {"nproc", "cpu", "python", "numpy"} <= set(doc["machine"])
    n_modes = {"motivating": 2, "example1": 3, "example4": 3, "inverter": 2}
    l0 = [f"{name}/{i}" for name in bench.SYSTEMS for i in range(1, n_modes[name] + 1)]
    l1 = ([f"{run}/{name}" for name in bench.SYSTEMS
           for run in ("simulate", "simulate_relaxed")]
          + ["simulate_with_covering/example4", "simulate_reduced/motivating",
             "envelope_trial/motivating"])
    for layer, unit, expected in (("L0", "field_evals_per_s", l0), ("L1", "us_per_step", l1)):
        for key in (unit, "speed_scale", unit + "_scaled"):
            rows = doc[layer][key]
            assert sorted(rows) == sorted(expected), (layer, key)
            assert all(math.isfinite(v) and v > 0.0 for v in rows.values()), (layer, key, rows)
    assert len(l1) == 11
    # the traced record is skipped
    assert doc["L3"] == {"envelope-motivating": {"ops_per_s_median": 40.0, "runs": [
        {"seed": 4, "seconds": 2.0, "ops_per_s": 40.0, "peak_rss_mb": 50.0, "setup_s": 0.03,
         "correct": True, "failed": 0}]}}


def test_grid_refinement_study_contracts(capsys):
    # the relaxed-vertex run of a switching signal approaches the switched run
    # as the control grid is refined
    _load("grid_refinement_study").run()
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[0].startswith("du")
    errors = [float(r.split()[1]) for r in rows[1:]]
    assert len(errors) == 5 and all(math.isfinite(e) for e in errors)
    assert errors[-1] < errors[0]
