"""Signal-class generators and validators, cross-checked against dense oracles."""

import hashlib
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swstab import (
    DomainError,
    MeasureConstraint,
    ParameterError,
    PatternConstraint,
    SwitchingSignal,
    check_control_constraint,
    gen_arbitrary,
    gen_measure_constrained,
    gen_pattern,
    signal_to_control,
    simulate,
    simulate_with_covering,
    validate_covering_invariance,
    validate_measure,
    validate_pattern,
)
from swstab import signals
from swstab.signals import TIE_TOL, pattern_cover_check, signal_from_csv, signal_to_csv

from oracles import (gen_measure_reference, gen_pattern_reference, measure_oracle,
                     pattern_cover_reference, pattern_oracle)


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
    # mean_dwell is the mean time between draws, and a draw repeats the mode with
    # probability 1/N: the empirical time between switches, over ~1e4 switches,
    # lies within 20% of 0.3 * N / (N - 1)
    for n_modes, span in ((2, 6000.0), (3, 4500.0)):
        sig = gen_arbitrary(n_modes, (0.0, span), 0.3, 99)
        dwells = np.diff(sig.breakpoints)
        assert len(dwells) > 8000
        target = 0.3 * n_modes / (n_modes - 1)
        assert abs(dwells.mean() - target) < 0.2 * target, (n_modes, dwells.mean())


@pytest.mark.parametrize("span", [(0.0, 1.0), (-1.0, 1.0)])
def test_arbitrary_granularity_too_fine(span):
    # a span over a subnormal granularity is an infinite quotient, and one over
    # 1e-300 holds 2**63 granules or more, beyond the int64 draws: a
    # ParameterError naming the span and the granularity; 1e-18 draws a signal
    # (about 20 draws of mean dwell 0.05, so that it surely switches)
    for granularity in (5e-324, 1e-300):
        with pytest.raises(ParameterError, match=rf"^span .* granularity {granularity!r}$"):
            gen_arbitrary(2, span, 0.3, 1, granularity=granularity)
    assert len(gen_arbitrary(2, span, 0.05, 1, granularity=1e-18).breakpoints) > 1


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
    modes = sig.modes
    # deterministic 1(2)2(1) repetition: back-to-back blocks meet as one 1-run
    assert np.array_equal(modes[:4], [1, 2, 1, 2])
    lengths = np.diff(np.append(sig.breakpoints, sig.domain_end))[1:-1]
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


# --- every generator --------------------------------------------------------


def _class_signal(kind, span, seed, granularity):
    """A generated signal of ``kind`` and the validator of its class (None: any
    signal of modes 1..3 belongs to the arbitrary class)."""
    if kind == "arbitrary":
        return gen_arbitrary(3, span, 0.3, seed, granularity), None
    if kind == "measure":
        c = MeasureConstraint(T0=1.0, delta0=0.2, mode=2)
        return gen_measure_constrained(c, 3, span, seed, granularity), partial(validate_measure, c=c)
    c = PatternConstraint(T=3.0, dm=0.1, dM=0.4)
    return gen_pattern(c, span, seed, granularity), partial(validate_pattern, c=c)


@given(st.sampled_from(["arbitrary", "measure", "pattern"]), st.integers(0, 2**32),
       st.floats(4.0, 9.0), st.floats(-5.0, 5.0), st.floats(3.0, 12.0))
@settings(max_examples=200, deadline=None)
def test_generated_signals_are_their_switches(kind, seed, exponent, t0, length):
    # at any granularity from 1e-4 to 1e-9 a generated signal has no equal
    # neighbours, so it switches at every breakpoint after the first, and it
    # belongs to its class
    granularity = 10.0 ** -exponent
    sig, validate = _class_signal(kind, (t0, t0 + length), seed, granularity)
    assert np.all(sig.modes[1:] != sig.modes[:-1])
    edges = np.append(sig.breakpoints, sig.domain_end)
    pieces = sig.modes_at(0.5 * (edges[:-1] + edges[1:]))  # the mode inside each piece
    assert np.array_equal(pieces, sig.modes)
    assert sig.n_switches == np.count_nonzero(np.diff(pieces))
    if validate is None:
        assert set(sig.modes.tolist()) <= {1, 2, 3}
    else:
        assert validate(sig).ok


@pytest.mark.parametrize("span", [(1.0, 1.0), (2.0, 1.0), (0.0, -np.inf)])
def test_generators_refuse_an_empty_span(span):
    for kind in ("arbitrary", "measure", "pattern"):
        with pytest.raises(ParameterError, match=r"^span .* must be finite, nonempty"):
            _class_signal(kind, span, 1, 1e-4)


def test_generators_refuse_a_draw_beyond_the_bound():
    # a span of 1e9 s passes ``_span`` (1e13 granules) but asks each class for
    # billions of pieces (``_width(1e9 / 0.3)`` is 3 333 564 276 for the arbitrary
    # class, about 27 GB an array): a ParameterError naming the span, raised
    # before any array is built
    import tracemalloc

    tracemalloc.start()
    try:
        for kind in ("arbitrary", "measure", "pattern"):
            with pytest.raises(ParameterError, match=r"^span \[0.0, 1000000000.0\] needs a draw "
                                                     r"of \d+ pieces, over the 67108864"):
                _class_signal(kind, (0.0, 1e9), 1, 1e-4)
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()
    # the bound itself: rows of two pieces, MAX_DRAW pieces in all, pass; one more row does not
    assert signals._width(0.0, signals.MAX_DRAW // 2, (0.0, 1.0)) == 2
    with pytest.raises(ParameterError, match=r"^span \[0.0, 1.0\] needs a draw of 67108866"):
        signals._width(0.0, signals.MAX_DRAW // 2 + 1, (0.0, 1.0))


@pytest.mark.parametrize("granularity", [0.0, -1e-4, np.nan, np.inf])
def test_generators_name_a_bad_granularity(granularity):
    # a zero granularity divided the span, and a negative or NaN one was blamed on it
    for kind in ("arbitrary", "measure", "pattern"):
        with pytest.raises(ParameterError, match=r"^granularity must be finite and positive"):
            _class_signal(kind, (0.0, 1.0), 1, granularity)


# sha256 of (breakpoints, modes) of _class_signal over (-1.5, 40): the bulk draws
# of each seed.  The pattern class draws the stream of one scalar draw per gap,
# so its digests are those of the one-draw-per-piece generators before them.
STREAMS = {
    ("arbitrary", 1e-4): ("415c1ce0db6b4f10", "d94db449e45a31a9", "a1e95eec09b0c23b"),
    ("arbitrary", 1e-7): ("1da6ab57efb5f7ed", "19c93b4916712883", "ad865d5d94aecc5d"),
    ("measure", 1e-4): ("3c726dca30d48839", "b92675e41f6fb3fd", "012d2ff50a3a8168"),
    ("measure", 1e-7): ("32ca25887bd3de83", "f032a1a26bd3b5f8", "8f766832aa16e0b6"),
    ("pattern", 1e-4): ("3073d6fd597ef379", "cf0ce8293ad3b27e", "c6862de95e6d1cf6"),
    ("pattern", 1e-7): ("ebc271230d215822", "390536f349c10a57", "8dbb839275b5f01d"),
}


@pytest.mark.parametrize("kind, granularity", sorted(STREAMS))
def test_generator_streams_are_pinned(kind, granularity):
    for seed, want in enumerate(STREAMS[kind, granularity]):
        sig, _ = _class_signal(kind, (-1.5, 40.0), seed, granularity)
        h = hashlib.sha256(sig.breakpoints.tobytes() + sig.modes.tobytes())
        assert h.hexdigest()[:16] == want, seed


def test_short_rows_draw_more(monkeypatch):
    # with no spare pieces in the first draw, most rows of a bulk draw fall
    # short: they draw more, until every row ends in a piece past its length
    # (one that is not kept), and the generated signals stay in their class
    monkeypatch.setattr(signals, "OVERDRAW", 0.0)
    lengths = np.full(200, 0.7)
    starts, modes, keep = signals._cut(np.random.default_rng(3), lengths, 0.3, 3, 1e-4,
                                       (0.0, 0.7))
    assert starts.shape[1] > signals._width(0.7 / 0.3, 1, (0.0, 0.7))
    assert not keep[:, -1].any() and keep[:, 0].all()
    assert np.all(np.diff(starts, axis=1) >= 0.0) and set(modes[keep].tolist()) == {1, 2, 3}
    for kind in ("arbitrary", "measure", "pattern"):
        for seed in range(3):
            sig, validate = _class_signal(kind, (0.0, 60.0), seed, 1e-4)
            assert sig.breakpoints[-1] > 59.0
            assert validate is None or validate(sig).ok


def test_pattern_draws_the_stream_of_one_draw_per_gap():
    # bulk rng.integers draws give the stream of one scalar draw per gap, so the
    # pattern class is bit for bit the one-draw-per-piece loop's
    for c in (PatternConstraint(T=3.0, dm=0.1, dM=0.4), PatternConstraint(T=10.0, dm=0.5, dM=2.0),
              PatternConstraint(T=10.0, dm=1.0, dM=1.0)):
        for granularity in (1e-2, 1e-4, 1e-7):
            for seed in range(10):
                sig = gen_pattern(c, (-1.5, 40.0), seed, granularity)
                ref = gen_pattern_reference(c, (-1.5, 40.0), seed, granularity)
                assert np.array_equal(sig.breakpoints, ref.breakpoints), (c, granularity, seed)
                assert np.array_equal(sig.modes, ref.modes)


def test_measure_bulk_draw_keeps_the_law():
    # the bulk draw moves every signal but not the class's law: over 30 signals
    # of 200 s the mean breakpoint count and mean activation of the constrained
    # mode lie within 2% of the one-draw-per-piece loop's
    c = MeasureConstraint(T0=1.0, delta0=0.2, mode=2)

    def stats(sig):
        lengths = np.diff(np.append(sig.breakpoints, sig.domain_end))
        return len(sig.breakpoints), float(lengths[sig.modes == 2].sum())

    bulk = np.mean([stats(gen_measure_constrained(c, 2, (0.0, 200.0), s)) for s in range(30)], 0)
    loop = np.mean([stats(gen_measure_reference(c, 2, (0.0, 200.0), s, 1e-4))
                    for s in range(30)], 0)
    assert np.all(np.abs(bulk - loop) < 0.02 * loop), (bulk, loop)


@given(st.lists(st.tuples(st.sampled_from([0.25, 0.5 - 5e-10, 0.5, 0.5 + 5e-10, 0.75, 1.0,
                                           1.0 + 5e-10, 1.5, 2.25, 3.0]),
                          st.sampled_from([1, 2, 3])), min_size=1, max_size=16),
       st.sampled_from([0.0, 5e-10, 0.3, 2.0]), st.sampled_from([1.0, 2.5]))
# a tie: the second run's anchors start 5e-10 past those the first covers
@example([(0.5, 1), (1.0, 2), (0.5, 1), (0.5 + 5e-10, 2), (0.5, 1), (1.0, 2), (0.5, 1)], 0.0, 1.0)
# a tie: the one run covers the anchors to 5e-10 short of the last
@example([(0.5, 1), (1.0, 2), (0.5, 1), (1.0 + 5e-10, 3)], 0.0, 1.0)
@settings(max_examples=400, deadline=None)
def test_pattern_cover_check_is_the_interval_loop(pieces, tail, dM):
    # the array cover check returns the per-interval loop's report bit for bit,
    # gaps, ties within TIE_TOL, a span of exactly one window and, at dM = 2.5 >
    # T - 2*dm, 2-runs whose anchor intervals are empty included
    lengths, modes = np.array([p[0] for p in pieces]), np.array([p[1] for p in pieces])
    starts = np.append(0.0, np.cumsum(lengths)[:-1])
    sig = SwitchingSignal(starts, modes, 0.0, max(float(lengths.sum()) - tail, starts[-1] + 0.1))
    c = PatternConstraint(T=3.0, dm=0.5, dM=dM)
    if sig.domain_end - c.T < -TIE_TOL:
        with pytest.raises(DomainError):
            pattern_cover_check(sig, c)
        return
    rep = pattern_cover_check(sig, c)
    assert (rep.ok, rep.first_violation_t, rep.margin) == pattern_cover_reference(sig, c)


def test_measure_delta0_mutation_fails_signal_and_control(motivating):
    # motivating's class signals are drawn at delta0 = 0.2; against a constraint
    # whose delta0 lies above a signal's own worst window, the validator fails the
    # signal and the integral check fails its vertex control (granularity 0.05
    # embeds exactly into cells of 0.05), where both pass the class constraint
    c = motivating.reduced.constraints[0]
    assert c == MeasureConstraint(T0=1.0, delta0=0.2, mode=2)
    for seed in range(6):
        sig = motivating.signal_class.generator((0.0, 30.0), seed, granularity=0.05)
        u = signal_to_control(sig, 0.05, n_modes=2)
        rep = validate_measure(sig, c)
        assert rep.ok and check_control_constraint(u, c)[0]
        mutant = MeasureConstraint(T0=1.0, delta0=rep.min_measure + 0.01, mode=2)
        assert not validate_measure(sig, mutant).ok
        ok, margin = check_control_constraint(u, mutant)
        assert not ok and margin == pytest.approx(-0.01)


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
