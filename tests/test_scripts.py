"""The measurement scripts under scripts/ still run against the library."""

import importlib.util
import json
import math
import time
from pathlib import Path


def _load(name):
    path = Path(__file__).parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_measures_every_row(tmp_path, capsys, monkeypatch):
    bench = _load("bench")
    monkeypatch.setattr(bench, "MIN_REPEAT_S", 0.0)  # one call per repeat; looping is tested below
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
             "envelope_trial/motivating", "falsifier_cell/motivating"])
    l2 = ([f"{check}/{name}" for name in ("example4", "motivating")
           for check in ("check_decrease_along", "check_integral_bound")]
          + ["validate_covering_invariance/example4", "validate_measure/motivating",
             "validate_pattern/inverter", "check_control_constraint/motivating",
             "check_control_constraint/inverter"])
    for layer, unit, expected in (("L0", "field_evals_per_s", l0), ("L1", "us_per_step", l1),
                                  ("L2", "ms_per_10k", l2)):
        assert list(doc[layer]) == [unit], layer  # one speed-scaled figure per row
        rows = doc[layer][unit]
        assert sorted(rows) == sorted(expected), layer
        assert all(math.isfinite(v) and v > 0.0 for v in rows.values()), (layer, rows)
    assert len(l1) == 12 and len(l2) == 9
    # the traced record is skipped
    assert doc["L3"] == {"envelope-motivating": {"ops_per_s_median": 40.0, "runs": [
        {"seed": 4, "seconds": 2.0, "ops_per_s": 40.0, "peak_rss_mb": 50.0, "setup_s": 0.03,
         "correct": True, "failed": 0}]}}


def test_bench_repeats_loop_to_the_minimum_duration(monkeypatch):
    # an untimed first call sets the loop count; each repeat then calls the
    # work unit that many times and the figure is time per unit over all of them
    bench = _load("bench")
    monkeypatch.setattr(bench, "MIN_REPEAT_S", 0.05)
    calls = []

    def run():
        calls.append(None)
        time.sleep(0.005)
        return 4

    class Clock:
        def __enter__(self):
            return self

        def __exit__(self, *exc):
            pass

        now = staticmethod(time.perf_counter)

    per_unit = bench._timed(run, 3, Clock)
    loops = (len(calls) - 1) // 3
    assert len(calls) == 1 + 3 * loops and 1 < loops <= 10
    assert 0.005 / 4 <= per_unit < 0.05 / 4


def test_grid_refinement_study_contracts(capsys):
    # the relaxed-vertex run of a switching signal approaches the switched run
    # as the control grid is refined
    _load("grid_refinement_study").run()
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[0].startswith("du")
    errors = [float(r.split()[1]) for r in rows[1:]]
    assert len(errors) == 5 and all(math.isfinite(e) for e in errors)
    assert errors[-1] < errors[0]
