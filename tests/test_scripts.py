"""The measurement scripts under scripts/ still run against the library."""

import importlib.util
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest


def _load(name):
    path = Path(__file__).parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# a Tier-1 report as pytest --junitxml writes it: one failure, two criteria
JUNIT = """<?xml version="1.0" encoding="utf-8"?>
<testsuites>
 <testsuite name="pytest" errors="0" failures="1" skipped="1" tests="5" time="106.25">
  <testcase classname="tests.test_acceptance"
            name="test_criterion_04_motivating_guas_reproduction" time="35.9" />
  <testcase classname="tests.test_acceptance"
            name="test_criterion_01_embedding_equivalence" time="11.875">
   <failure message="x">x</failure>
  </testcase>
  <testcase classname="tests.test_core" name="test_criterion_like" time="0.5" />
  <testcase classname="perfbench.test_checks" name="test_x" time="0.25" />
  <testcase classname="tests.test_acceptance" name="test_report" time="0.0">
   <skipped message="s" />
  </testcase>
 </testsuite>
</testsuites>
"""


def test_bench_measures_every_row(tmp_path, capsys, monkeypatch):
    bench = _load("bench")
    monkeypatch.setattr(bench, "MIN_REPEAT_S", 0.0)  # one call per repeat; looping is tested below
    tier1_runs = []

    def run_tier1(junit):  # the suite itself never runs here
        tier1_runs.append(junit)
        junit.write_text(JUNIT)

    monkeypatch.setattr(bench, "run_tier1", run_tier1)
    reproduced = []  # nor does the CLI

    def run_reproduce(example, out, clock):
        reproduced.append(example)
        return {"wall_s": 2.5 * len(reproduced), "scaled_s": 2.0 * len(reproduced)}

    monkeypatch.setattr(bench, "run_reproduce", run_reproduce)
    rounds = []  # nor does a perfbench round: the record's digest is this tree's

    def round_digest(workload, seed):
        rounds.append((workload, seed))
        return "0123456789abcdef"

    monkeypatch.setattr(bench, "_round_digest", round_digest)
    record = tmp_path / "pb.json"
    record.write_text(json.dumps({
        "workload": "envelope-motivating", "seed": 4, "seconds": 2.0, "trace": 0,
        "digest": "0123456789abcdef", "correct": True, "failed": 0,
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
           for run in ("simulate", "simulate_calling", "simulate_relaxed")]
          + ["simulate_short_segments/motivating", "simulate_with_covering/example4",
             "simulate_with_covering_calling/example4",
             "simulate_reduced/motivating",
             "simulate_reduced_mixed/motivating", "envelope_trial/motivating",
             "falsifier_cell/motivating", "falsifier_candidate/inverter"])
    l2 = ([f"{check}{path}/{name}" for name in ("example4", "motivating")
           for check in ("check_decrease_along", "check_integral_bound")
           for path in ("", "_calling")]
          + ["validate_covering_invariance/example4",
             "validate_covering_invariance_calling/example4", "validate_measure/motivating",
             "validate_pattern/inverter", "check_control_constraint/motivating",
             "check_control_constraint/inverter"]
          + [f"gen_class_signal/{name}" for name in ("motivating", "example1", "inverter")])
    for layer, unit, expected in (("L0", "field_evals_per_s", l0), ("L1", "us_per_step", l1),
                                  ("L2", "ms_per_10k", l2)):
        assert list(doc[layer]) == [unit], layer  # one speed-scaled figure per row
        rows = doc[layer][unit]
        assert sorted(rows) == sorted(expected), layer
        assert all(math.isfinite(v) and v > 0.0 for v in rows.values()), (layer, rows)
    assert len(l1) == 20 and len(l2) == 17
    # the traced record is skipped
    assert rounds == [("envelope-motivating", 4)]
    assert doc["L3"] == {"envelope-motivating": {"ops_per_s_median": 40.0, "runs": [
        {"seed": 4, "seconds": 2.0, "ops_per_s": 40.0, "peak_rss_mb": 50.0, "setup_s": 0.03,
         "correct": True, "failed": 0}]}}
    # L4 from one Tier-1 run: the suite's totals and the acceptance criteria
    # alone; then three rounds of one reproduce run per example
    assert len(tier1_runs) == 1 and reproduced == 3 * list(bench.SYSTEMS)
    assert doc["L4"] == {
        "tier1": {"wall_s": 106.25, "passed": 3, "tests": 5, "failures": 1, "errors": 0,
                  "skipped": 1},
        "criteria_wall_s": {"test_criterion_01_embedding_equivalence": 11.875,
                            "test_criterion_04_motivating_guas_reproduction": 35.9},
        "reproduce_s": {
            name: {"runs": [{"wall_s": 2.5 * n, "scaled_s": 2.0 * n} for n in (k, k + 4, k + 8)],
                   "median_scaled_s": 2.0 * (k + 4)}
            for k, name in enumerate(bench.SYSTEMS, 1)}}
    printed = capsys.readouterr().out
    assert "L4 tier1" in printed and "L4 reproduce inverter" in printed


def test_bench_refuses_records_of_another_tree(tmp_path):
    # one round of each record's workload and seed on this tree: a record whose
    # digest differs, here the seed-1 envelope-motivating digest of a tree whose
    # signals kept their equal neighbours, is refused before anything is measured
    bench = _load("bench")
    digest = bench._round_digest("envelope-motivating", 1)

    def record(name, digest, seed=1):
        path = tmp_path / name
        path.write_text(json.dumps({
            "workload": "envelope-motivating", "seed": seed, "seconds": 2.0, "trace": 0,
            "digest": digest, "correct": True, "failed": 0,
            "metrics": {"ops_per_s": {"value": 40.0}, "peak_rss_mb": {"value": 50.0},
                        "setup_s": {"value": 0.03}}}))
        return path

    ours, theirs = record("ours.json", digest), record("theirs.json", "56c7f50c638c4f2f")
    assert bench.read_l3([ours])["envelope-motivating"]["ops_per_s_median"] == 40.0
    for paths in ([theirs], [ours, theirs], [record("none.json", None)]):
        with pytest.raises(SystemExit, match=rf"^{paths[-1]}: digest .* of envelope-motivating "
                                             rf"seed 1 is not this tree's {digest}"):
            bench.main(["--out", str(tmp_path / "BENCH.json"), *map(str, paths)])
    assert not (tmp_path / "BENCH.json").exists()


def test_bench_reproduce_run_is_speed_scaled(tmp_path, monkeypatch):
    # the clock samples the machine in this process all along the child's
    # run; a busy child of 0.3 s stands in for the CLI
    bench = _load("bench")
    real_run, commands, samples = subprocess.run, [], []
    busy = "import time\nt = time.perf_counter()\nwhile time.perf_counter() - t < 0.3: pass"

    def run(cmd, **kwargs):
        commands.append(cmd)
        return real_run([sys.executable, "-c", busy], check=True)

    monkeypatch.setattr(bench.subprocess, "run", run)

    class Clock(bench._perfbench("run").SpeedClock):
        def _sample(self, signum, frame):
            samples.append(None)
            super()._sample(signum, frame)

    got = bench.run_reproduce("example1", tmp_path, Clock)
    assert commands == [[sys.executable, "-m", "swstab", "reproduce", "example1", "--out",
                         str(tmp_path), "--workers", "1"]]
    assert sorted(got) == ["scaled_s", "wall_s"] and got["wall_s"] >= 0.3
    assert math.isfinite(got["scaled_s"]) and got["scaled_s"] > 0.0
    assert len(samples) >= 5  # one every SPEED_PERIOD of 0.025 s


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
