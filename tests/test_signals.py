"""Signal-class generators and validators, cross-checked against dense oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swstab import (
    MeasureConstraint,
    ParameterError,
    PatternConstraint,
    SwitchingSignal,
    gen_arbitrary,
    gen_measure_constrained,
    gen_pattern,
    simulate,
    simulate_with_covering,
    validate_covering_invariance,
    validate_measure,
    validate_pattern,
)
from swstab.signals import signal_from_csv, signal_to_csv

from oracles import measure_oracle, pattern_oracle


def alternating(dwell, mode_pair, t0, tf):
    n = int(np.ceil((tf - t0) / dwell))
    bp = t0 + dwell * np.arange(n)
    modes = np.array([mode_pair[k % 2] for k in range(n)])
    return SwitchingSignal(breakpoints=bp, modes=modes, domain_start=t0, domain_end=tf)


# --- gen_arbitrary -----------------------------------------------------------


def test_arbitrary_reproducible():
    a = gen_arbitrary(3, (0.0, 50.0), 0.4, 123)
    b = gen_arbitrary(3, (0.0, 50.0), 0.4, 123)
    assert np.array_equal(a.breakpoints, b.breakpoints)
    assert np.array_equal(a.modes, b.modes)


def test_arbitrary_single_mode_constant():
    sig = gen_arbitrary(1, (0.0, 10.0), 0.5, 7)
    assert np.all(sig.modes == 1)


def test_arbitrary_mean_dwell_statistic():
    # empirical mean dwell over ~1e4 intervals within 20% of the target
    sig = gen_arbitrary(2, (0.0, 3000.0), 0.3, 99)
    dwells = np.diff(sig.breakpoints)
    assert len(dwells) > 8000
    assert abs(dwells.mean() - 0.3) < 0.06


@pytest.mark.parametrize("span", [(0.0, 1.0), (-1.0, 1.0)])
def test_arbitrary_granularity_too_fine(span):
    # a time over a subnormal granularity is an infinite quotient, either sign,
    # which round() cannot snap: a ParameterError naming the granularity
    with pytest.raises(ParameterError, match="granularity 5e-324"):
        gen_arbitrary(2, span, 0.3, 1, granularity=5e-324)
    assert len(gen_arbitrary(2, span, 0.3, 1, granularity=1e-300).breakpoints) > 1


# --- measure class -----------------------------------------------------------


def test_measure_generator_validates():
    c = MeasureConstraint(T0=1.0, delta0=0.2, mode=2)
    sig = gen_measure_constrained(c, 2, (0.0, 100.0), 5)
    rep = validate_measure(sig, c)
    assert rep.ok and rep.min_measure >= 0.2


def test_measure_forced_full_activation():
    c = MeasureConstraint(T0=1.0, delta0=1.0, mode=2)
    sig = gen_measure_constrained(c, 2, (0.0, 10.0), 5)
    assert np.all(sig.modes == 2)


def test_measure_constant_wrong_mode_fails():
    c = MeasureConstraint(T0=1.0, delta0=0.2, mode=2)
    rep = validate_measure(SwitchingSignal.constant(1, 0.0, 10.0), c)
    assert not rep.ok and rep.min_measure == 0.0


def test_measure_periodic_closed_form():
    # alternating 0.5 s runs: every unit window holds exactly 0.5 of mode 2
    sig = alternating(0.5, (1, 2), 0.0, 20.0)
    rep = validate_measure(sig, MeasureConstraint(T0=1.0, delta0=0.2, mode=2))
    assert rep.ok
    assert abs(rep.min_measure - 0.5) < 1e-12
    rep2 = validate_measure(sig, MeasureConstraint(T0=1.0, delta0=0.6, mode=2))
    assert not rep2.ok


def test_measure_constant_target_mode():
    rep = validate_measure(SwitchingSignal.constant(2, 0.0, 5.0),
                           MeasureConstraint(T0=1.0, delta0=0.2, mode=2))
    assert abs(rep.min_measure - 1.0) < 1e-12


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_measure_roundtrip_random_params(seed):
    rng = np.random.default_rng(seed)
    T0 = round(float(rng.uniform(0.2, 2.0)), 4)
    d0 = min(max(round(float(rng.uniform(0.05, 1.0)) * T0, 4), 1e-4), T0)
    c = MeasureConstraint(T0=T0, delta0=d0, mode=2)
    sig = gen_measure_constrained(c, 2, (0.0, round(5 * T0, 4)), seed)
    rep = validate_measure(sig, c)
    assert rep.ok
    ok_oracle, m_oracle = measure_oracle(sig, T0, d0, 2)
    assert ok_oracle and abs(m_oracle - rep.min_measure) < 1e-8


# --- pattern class -----------------------------------------------------------


def test_pattern_generator_validates():
    c = PatternConstraint(T=10.0, dm=0.5, dM=2.0)
    sig = gen_pattern(c, (0.0, 100.0), 11)
    rep = validate_pattern(sig, c)
    assert rep.ok


def test_pattern_degenerate_period3():
    c = PatternConstraint(T=10.0, dm=1.0, dM=1.0)
    sig = gen_pattern(c, (0.0, 30.0), 0)
    starts, ends, modes = sig.runs()
    # deterministic 1(2)2(1) repetition after merging back-to-back blocks
    assert np.array_equal(modes[:4], [1, 2, 1, 2])
    lengths = (ends - starts)[1:-1]
    assert np.allclose(lengths[modes[1:-1] == 2], 1.0)
    assert np.allclose(lengths[modes[1:-1] == 1], 2.0)
    assert validate_pattern(sig, c).ok


def test_pattern_slow_alternation_fails():
    c = PatternConstraint(T=10.0, dm=0.5, dM=2.0)
    sig = alternating(5.0, (1, 2), 0.0, 60.0)  # dwell 5 > dM
    rep = validate_pattern(sig, c)
    assert not rep.ok
    assert rep.first_violation_t is not None


def test_pattern_generator_infeasible_window():
    with pytest.raises(ParameterError):
        gen_pattern(PatternConstraint(T=4.0, dm=1.0, dM=1.5), (0.0, 30.0), 1)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_pattern_roundtrip_random_params(seed):
    rng = np.random.default_rng(seed)
    dm = round(float(rng.uniform(0.1, 0.8)), 4)
    dM = round(dm + float(rng.uniform(0.0, 1.0)), 4)
    T = round(float(rng.uniform(6 * dm, 6 * dm + 5)), 4)
    c = PatternConstraint(T=T, dm=dm, dM=dM)
    sig = gen_pattern(c, (0.0, round(T + 6 * dM, 4)), seed)
    assert validate_pattern(sig, c).ok
    assert pattern_oracle(sig, T, dm, dM)


def test_pattern_validator_agrees_with_oracle_on_arbitrary():
    c = PatternConstraint(T=6.0, dm=0.4, dM=1.5)
    for seed in range(12):
        sig = gen_arbitrary(2, (0.0, 18.0), 0.6, 500 + seed)
        assert validate_pattern(sig, c).ok == pattern_oracle(sig, 6.0, 0.4, 1.5)


# --- covering invariance -----------------------------------------------------


def test_invariance_closed_loop(example4, cfg_fast):
    traj, sigma = simulate_with_covering(example4.system, example4.covering,
                                         example4.policy, 0.0,
                                         np.array([-1.0, 0.5]), 30.0, cfg_fast)
    assert validate_covering_invariance(traj, sigma, example4.covering).ok


def test_invariance_trivial_always(motivating, cfg_fast):
    sig = gen_arbitrary(2, (0.0, 5.0), 0.3, 3)
    traj = simulate(motivating.system, sig, 0.0, np.array([1.0, 0.0]), 5.0, cfg_fast)
    assert validate_covering_invariance(traj, sig, motivating.covering).ok


def test_invariance_forced_violation(example4, cfg_fast):
    # forcing mode 3 while x1 > 0 must be flagged at the first such node
    sig = SwitchingSignal.constant(3, 0.0, 2.0)
    traj = simulate(example4.system, sig, 0.0, np.array([1.0, 0.0]), 2.0, cfg_fast)
    rep = validate_covering_invariance(traj, sig, example4.covering)
    assert not rep.ok
    t_viol, mode_viol = rep.first_violation
    assert mode_viol == 3 and t_viol == 0.0


# --- serialization -----------------------------------------------------------


def test_signal_csv_roundtrip(tmp_path):
    sig = gen_arbitrary(3, (0.0, 5.0), 0.3, 8)
    csv_p, json_p = tmp_path / "s.csv", tmp_path / "s.json"
    signal_to_csv(sig, csv_p, json_p, params={"mean_dwell": 0.3})
    back = signal_from_csv(csv_p, json_p)
    assert np.array_equal(back.breakpoints, sig.breakpoints)
    assert np.array_equal(back.modes, sig.modes)
    assert back.domain_end == sig.domain_end
