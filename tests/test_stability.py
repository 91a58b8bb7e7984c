"""Envelope estimation and classification thresholds."""

import numpy as np

from swstab import (
    IntegratorConfig,
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
    # sub-envelopes from disjoint start-offset ranges agree within 20% of the
    # row scale: the decay bound does not depend on the anchor time
    driver = make_driver(motivating, cfg_fast)
    kw = dict(radii=[0.5, 1.0], horizon=60.0, trials=25, tau_count=10)
    early = estimate_envelope(2, driver, master_seed=60, offset_min=0.0,
                              offset_max=0.5, **kw)
    late = estimate_envelope(2, driver, master_seed=61, offset_min=8.0,
                             offset_max=10.0, **kw)
    scale = np.maximum(early.beta_table[:, :1], late.beta_table[:, :1])
    assert np.max(np.abs(early.beta_table - late.beta_table) / scale) <= 0.2
