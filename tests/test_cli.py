"""End-to-end command behavior: files, exit codes, determinism."""

import json
import math

import pytest

from swstab import Trajectory
from swstab.cli import main


def run(args):
    return main([str(a) for a in args])


def manifest_file(tmp_path, doc, name="m.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


def test_simulate_writes_bundle(tmp_path):
    out = tmp_path / "run"
    m = manifest_file(tmp_path, {
        "system": {"id": "motivating", "params": {"a": 1.0}},
        "simulate": {"t0": 0.0, "x0": [1.0, 0.0], "horizon": 2.0},
        "integrator": {"step": 1e-3, "event_bisection_tol": 1e-11},
    })
    rc = run(["simulate", "--manifest", m, "--out", out, "--seed", 7])
    assert rc == 0
    assert (out / "trajectory.csv").exists()
    assert (out / "signal.csv").exists()
    assert (out / "signal.json").exists()
    assert (out / "resolved_manifest.json").exists()
    resolved = json.loads((out / "resolved_manifest.json").read_text())
    assert resolved["seed"] == 7
    traj = Trajectory.from_csv(out / "trajectory.csv")
    assert traj.tf == pytest.approx(2.0)


def test_simulate_deterministic(tmp_path):
    m = manifest_file(tmp_path, {"system": {"id": "motivating"},
                                 "simulate": {"horizon": 3.0}})
    run(["simulate", "--manifest", m, "--out", tmp_path / "a", "--seed", 3])
    run(["simulate", "--manifest", m, "--out", tmp_path / "b", "--seed", 3])
    assert (tmp_path / "a" / "trajectory.csv").read_text() == \
        (tmp_path / "b" / "trajectory.csv").read_text()


def test_simulate_horizon_zero_single_row(tmp_path):
    m = manifest_file(tmp_path, {"system": {"id": "motivating"},
                                 "simulate": {"x0": [1.0, 0.0], "horizon": 0.0}})
    rc = run(["simulate", "--manifest", m, "--out", tmp_path / "o"])
    assert rc == 0
    rows = (tmp_path / "o" / "trajectory.csv").read_text().strip().splitlines()
    assert len(rows) == 2  # header + one row


def test_inverter_class_error_exit2(tmp_path):
    m = manifest_file(tmp_path, {"system": {"id": "inverter",
                                            "params": {"dM": math.pi}}})
    rc = run(["simulate", "--manifest", m, "--out", tmp_path / "o"])
    assert rc == 2


def test_unknown_system_exit2(tmp_path):
    m = manifest_file(tmp_path, {"system": {"id": "nope"}})
    assert run(["simulate", "--manifest", m, "--out", tmp_path / "o"]) == 2


def test_certify_motivating_passes(tmp_path):
    m = manifest_file(tmp_path, {
        "system": {"id": "motivating"},
        "certify": {"trials": 3, "horizon": 8.0, "box": 1.5, "density": 7,
                    "step": 2e-3},
    })
    rc = run(["certify", "--manifest", m, "--out", tmp_path / "o", "--seed", 1])
    assert rc == 0
    rep = json.loads((tmp_path / "o" / "certify_report.json").read_text())
    assert rep["pass"] and rep["sandwich"]["pass"]


def test_certify_flipped_fails_exit1(tmp_path):
    m = manifest_file(tmp_path, {
        "system": {"id": "motivating"},
        "flip_dynamics": True,
        "certify": {"trials": 2, "horizon": 5.0, "box": 1.0, "density": 5,
                    "step": 2e-3},
    })
    rc = run(["certify", "--manifest", m, "--out", tmp_path / "o", "--seed", 1])
    assert rc == 1


def test_certify_empty_batch_exit2(tmp_path):
    m = manifest_file(tmp_path, {"system": {"id": "motivating"},
                                 "certify": {"trials": 0}})
    assert run(["certify", "--manifest", m, "--out", tmp_path / "o"]) == 2


def test_envelope_negative_control_us_only(tmp_path):
    # sigma == 1 keeps the norm: flat rows, exit 1, verdict US-only.
    # forced via mean-dwell-free arbitrary generator on a 1-mode view: use the
    # measure class replaced by a constant signal through flip of trials: the
    # cleanest hook is a manifest with the arbitrary class and a=1 single-mode
    m = manifest_file(tmp_path, {
        "system": {"id": "motivating"},
        "envelope": {"radii": [0.5, 1.0], "horizon": 30.0, "trials": 4,
                     "tau_count": 7, "step": 2e-2, "constant_mode": 1},
    })
    rc = run(["envelope", "--manifest", m, "--out", tmp_path / "o",
              "--seed", 2, "--workers", 1])
    assert rc == 1
    verdict = json.loads((tmp_path / "o" / "envelope_verdict.json").read_text())
    assert verdict["verdict"] == "US-only"


def test_envelope_motivating_guas(tmp_path):
    m = manifest_file(tmp_path, {
        "system": {"id": "motivating"},
        "envelope": {"radii": [0.5, 1.0], "horizon": 80.0, "trials": 6,
                     "tau_count": 9, "step": 2e-2},
    })
    rc = run(["envelope", "--manifest", m, "--out", tmp_path / "o",
              "--seed", 2, "--workers", 1])
    assert rc == 0
    assert (tmp_path / "o" / "envelope.csv").exists()


def test_envelope_worker_count_invariant(tmp_path):
    base = {"system": {"id": "motivating"},
            "envelope": {"radii": [0.5], "horizon": 20.0, "trials": 4,
                         "tau_count": 5, "step": 2e-2}}
    m = manifest_file(tmp_path, base)
    run(["envelope", "--manifest", m, "--out", tmp_path / "w1", "--seed", 4,
         "--workers", 1])
    run(["envelope", "--manifest", m, "--out", tmp_path / "w2", "--seed", 4,
         "--workers", 2])
    assert (tmp_path / "w1" / "envelope.csv").read_text() == \
        (tmp_path / "w2" / "envelope.csv").read_text()


def test_falsify_both_exits(tmp_path):
    m1 = manifest_file(tmp_path, {
        "system": {"id": "motivating"},
        "falsify": {"eps": 0.5, "horizon": 5.0, "residual_tol": 1e-8,
                    "budget": 150, "du": 0.05, "use_constraints": True},
    }, "m1.json")
    assert run(["falsify", "--manifest", m1, "--out", tmp_path / "o1"]) == 0
    m2 = manifest_file(tmp_path, {
        "system": {"id": "motivating"},
        "falsify": {"eps": 0.5, "horizon": 5.0, "residual_tol": 1e-8,
                    "budget": 150, "du": 0.05, "use_constraints": False},
    }, "m2.json")
    assert run(["falsify", "--manifest", m2, "--out", tmp_path / "o2"]) == 1
    doc = json.loads((tmp_path / "o2" / "falsify_verdict.json").read_text())
    assert doc["verdict"] == "counterexample"
    assert (tmp_path / "o2" / "counterexample.csv").exists()
    assert "counterexample_file" in doc


def test_reproduce_motivating_small(tmp_path):
    rc = run(["reproduce", "motivating", "--out", tmp_path / "rep", "--seed", 0,
              "--trials", 6, "--horizon", 100.0, "--workers", 1])
    assert rc == 0
    summary = (tmp_path / "rep" / "summary.txt").read_text()
    assert "GUAS-consistent" in summary and "PASS" in summary


def test_reproduce_inverter_includes_falsifier(tmp_path):
    rc = run(["reproduce", "inverter", "--out", tmp_path / "rep", "--seed", 1,
              "--trials", 8, "--horizon", 120.0, "--workers", 1])
    assert rc == 0
    verdict = json.loads((tmp_path / "rep" / "falsify_verdict.json").read_text())
    assert verdict["verdict"] == "no_counterexample_found"


def test_reproduce_unknown_exit2(tmp_path):
    assert run(["reproduce", "zzz", "--out", tmp_path / "rep"]) == 2


def test_envelope_meta_records_offsets():
    from swstab import IntegratorConfig, estimate_envelope, get_entry, make_driver
    from swstab.cli import DEFAULT_MANIFEST, _deep_merge, run_envelope
    manifest = _deep_merge(DEFAULT_MANIFEST, {
        "seed": 6,
        "envelope": {"radii": [0.5, 1.0], "horizon": 4.0, "trials": 3, "tau_count": 3,
                     "step": 2e-2, "offset_max": 7.0}})
    env1, _ = run_envelope(manifest, workers=1)
    env2, _ = run_envelope(manifest, workers=2)
    driver = make_driver(get_entry("motivating"), IntegratorConfig(step=2e-2))
    ref = estimate_envelope(2, driver, radii=[0.5, 1.0], horizon=4.0, trials=3,
                            tau_count=3, master_seed=6, offset_max=7.0)
    assert len(env1.meta["offsets"]) == 6
    assert env1.meta["offsets"] == env2.meta["offsets"] == ref.meta["offsets"]
    assert env1.meta["offset_min"] == env2.meta["offset_min"] == ref.meta["offset_min"] == 0.0
