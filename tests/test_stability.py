"""Envelope estimation and classification thresholds."""

from dataclasses import replace

import numpy as np
import pytest

from swstab import (
    IntegratorConfig,
    ParameterError,
    StabilityEnvelope,
    SwitchedSystem,
    SwitchingSignal,
    classify,
    estimate_envelope,
    make_driver,
    simulate,
)


def synthetic_env(table, taus=None):
    table = np.asarray(table, dtype=float)
    taus = np.linspace(0.0, 10.0, table.shape[1]) if taus is None else taus
    return StabilityEnvelope(radius_bins=np.array([0.5, 1.0, 2.0])[: table.shape[0]],
                             tau_grid=taus, beta_table=table, trials_per_cell=1)


def test_classify_geometric_decay_guas():
    row = 0.5 ** np.arange(10)
    env = synthetic_env([0.5 * row, 1.0 * row, 2.0 * row])
    v = classify(env)
    assert v.verdict == "GUAS-consistent"
    assert all(r <= 0.05 for r in v.tail_ratios)


def test_classify_flat_us_only():
    env = synthetic_env([0.5 * np.ones(10), np.ones(10), 2 * np.ones(10)])
    v = classify(env)
    assert v.verdict == "US-only"


def test_classify_blowup_unstable():
    t = np.ones((3, 10))
    t[2, 7] = np.inf
    assert classify(synthetic_env(t)).verdict == "unstable-evidence"


def test_classify_nonuniform_inconclusive():
    env = synthetic_env([np.full(10, 50.0), np.ones(10), 2 * np.ones(10)])
    assert classify(env).verdict == "inconclusive"


def test_classify_records_thresholds():
    env = synthetic_env([0.5 ** np.arange(10)])
    d = classify(env, decay_ratio=0.01, tail_fraction=0.3).to_dict()
    assert d["decay_ratio"] == 0.01 and d["tail_fraction"] == 0.3


# --- envelope estimation -----------------------------------------------------


def test_envelope_reproducible(motivating, cfg_fast):
    driver = make_driver(motivating, cfg_fast)
    kw = dict(radii=[0.5, 1.0], horizon=10.0, trials=4, tau_count=6, master_seed=42)
    a = estimate_envelope(2, driver, **kw)
    b = estimate_envelope(2, driver, **kw)
    assert np.array_equal(a.beta_table, b.beta_table)


def test_envelope_rejects_offset_max_below_min(motivating, cfg_fast):
    # an empty start-time range is bad input, not a numpy error in the first trial
    with pytest.raises(ParameterError, match="offset_max"):
        estimate_envelope(2, make_driver(motivating, cfg_fast), radii=[1.0], horizon=2.0,
                          trials=1, tau_count=3, offset_max=-5.0)


def test_envelope_refuses_a_tau_count_over_max_samples(motivating, cfg_fast):
    from swstab.core import MAX_SAMPLES

    driver = make_driver(motivating, cfg_fast)
    with pytest.raises(ParameterError, match=r"^tau_count 1048577 is over 1048576$"):
        estimate_envelope(2, driver, radii=[1.0], horizon=2.0, trials=1,
                          tau_count=MAX_SAMPLES + 1)
    env = estimate_envelope(2, driver, radii=[1.0], horizon=2.0, trials=1,
                            tau_count=MAX_SAMPLES)
    assert env.beta_table.shape == (1, MAX_SAMPLES)


def test_envelope_starts_at_most_one_process_per_task_and_cpu(motivating, cfg_fast,
                                                              monkeypatch, tmp_path):
    # processes: min(workers, tasks, CPUs), serial at 1; a fake pool records the
    # count asked for and maps in this process, so no process is started
    import concurrent.futures
    import json
    import os

    from swstab.cli import main

    asked = []

    class Pool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    kw = dict(radii=[0.5, 1.0], horizon=2.0, trials=2, tau_count=5, master_seed=4)  # 4 tasks
    driver = make_driver(motivating, cfg_fast)
    serial = estimate_envelope(2, driver, **kw)
    for workers, cpus, want in ((100_000, 3, [3]), (100_000, 64, [4]), (2, 64, [2]),
                                (100_000, 1, []), (100_000, None, [])):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        asked.clear()
        env = estimate_envelope(2, driver, workers=workers, **kw)
        assert asked == want, (workers, cpus)
        assert env.beta_table.tobytes() == serial.beta_table.tobytes()
        assert env.meta == serial.meta
    # swstab envelope --workers 100000 on 3 trials of one radius
    m = tmp_path / "m.json"
    m.write_text(json.dumps({"envelope": {"radii": [0.5], "horizon": 1.0, "trials": 3,
                                          "tau_count": 2, "step": 0.1}}))
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    asked.clear()
    assert main(["envelope", "--manifest", str(m), "--out", str(tmp_path / "o"),
                 "--workers", "100000"]) in (0, 1)
    assert asked == [3]


def test_envelope_zero_radius_row(motivating, cfg_fast):
    driver = make_driver(motivating, cfg_fast)
    env = estimate_envelope(2, driver, radii=[0.0], horizon=5.0, trials=3,
                            tau_count=5, master_seed=1)
    assert np.all(env.beta_table == 0.0)


def test_envelope_rows_start_in_bin(motivating, cfg_fast):
    driver = make_driver(motivating, cfg_fast)
    env = estimate_envelope(2, driver, radii=[0.5, 1.0], horizon=5.0, trials=6,
                            tau_count=5, master_seed=7)
    assert env.beta_table[0, 0] <= 0.5 + 1e-12
    assert 0.5 <= env.beta_table[1, 0] <= 1.0 + 1e-12


def test_envelope_blowup_marks_inf():
    sys = SwitchedSystem(n=1, N=1, f=lambda t, x, i: [2.0 * v for v in x],
                         h=lambda t, x, i: np.array([0.0]))

    def driver(t0, x0, tf, seed):
        return simulate(sys, SwitchingSignal.constant(1, t0, tf), t0, x0, tf,
                        IntegratorConfig(step=1e-2, divergence_bound=1e3))

    env = estimate_envelope(1, driver, radii=[1.0], horizon=30.0, trials=2,
                            tau_count=7, master_seed=0)
    assert np.isinf(env.beta_table).any()
    assert classify(env).verdict == "unstable-evidence"


def test_envelope_csv(tmp_path, motivating, cfg_fast):
    driver = make_driver(motivating, cfg_fast)
    env = estimate_envelope(2, driver, radii=[1.0], horizon=5.0, trials=2,
                            tau_count=4, master_seed=3)
    p = tmp_path / "env.csv"
    env.to_csv(p)
    lines = p.read_text().splitlines()
    assert len(lines) == 2 and lines[0].startswith("bin_edge,tau_")


# --- uniform stability -------------------------------------------------------


def test_envelope_inverter_gain_bound(inverter, cfg_fast):
    # with P = I the sandwich gives sup|x(t)| <= sqrt(lamM/lam_m)|x(s)| = |x(s)|,
    # so no envelope row rises above its bin edge
    env = estimate_envelope(4, make_driver(inverter, cfg_fast), radii=[0.25, 0.5, 1.0, 2.0],
                            horizon=40.0, trials=3, tau_count=9, master_seed=8)
    v = classify(env)
    assert max(v.uniform_ratios) <= 1.0 + 1e-6
    assert v.verdict != "inconclusive"


def test_time_shift_uniformity_probe(motivating, cfg_fast):
    # sub-envelopes from disjoint start-offset ranges, [0, 0.5] and [8, 10],
    # agree within 20% of the row scale: the decay bound does not depend on the
    # anchor time
    driver = make_driver(motivating, cfg_fast)

    def late_driver(t0, x0, tf, seed):  # a start drawn in [0, 2] runs from t0 + 8
        traj = driver(t0 + 8.0, x0, tf + 8.0, seed)
        return replace(traj, times=traj.times - 8.0)

    kw = dict(radii=[0.5, 1.0], horizon=60.0, trials=25, tau_count=10)
    early = estimate_envelope(2, driver, master_seed=60, offset_max=0.5, **kw)
    late = estimate_envelope(2, late_driver, master_seed=61, offset_max=2.0, **kw)
    scale = np.maximum(early.beta_table[:, :1], late.beta_table[:, :1])
    assert np.max(np.abs(early.beta_table - late.beta_table) / scale) <= 0.2
