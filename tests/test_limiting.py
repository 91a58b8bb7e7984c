"""Reduced limiting systems, inherited constraints, and the WZSD falsifier."""

import decimal
import math

import numpy as np
import pytest
from dataclasses import replace
from functools import partial
from hypothesis import given, settings
from hypothesis import strategies as st

from swstab import (
    IntegratorConfig,
    ParameterError,
    RelaxedControl,
    SwitchingSignal,
    build_reduced,
    check_control_constraint,
    gen_measure_constrained,
    output_residual,
    signal_to_control,
    simulate_reduced,
    trivial_covering,
    validate_measure,
    validate_pattern,
    wzsd_falsify,
)
from swstab import limiting
from swstab.integrate import _mix_rhs
from swstab.signals import MeasureConstraint, PatternConstraint


# --- construction ------------------------------------------------------------


def test_reduced_motivating_matches_hand_equations(motivating):
    # columns: (x2, -x1) and (a*x2, 0); output row (0, |x1|)
    rls = motivating.reduced
    x = np.array([0.7, -1.3])
    F = rls.Fhat(0.0, x)
    np.testing.assert_allclose(F[:, 0], [x[1], -x[0]])
    np.testing.assert_allclose(F[:, 1], [1.0 * x[1], 0.0])
    np.testing.assert_allclose(rls.Hhat(0.0, x), [0.0, abs(x[0])])


def test_reduced_inverter_drops_load_and_coupling(inverter):
    rls = inverter.reduced
    x = np.array([0.0, 1.0, 1.0, 1.0])
    F = rls.Fhat(0.0, x)
    # Ahat1 @ x with P = I: rows (0, x3, -x2, -x2): the (2,4) entry and the
    # load are gone
    np.testing.assert_allclose(F[:, 0], [0.0, 1.0, -1.0, -1.0])
    np.testing.assert_allclose(F[:, 1], [-1.0, 0.0, 0.0, -1.0])
    np.testing.assert_allclose(rls.Hhat(0.0, x), [1.0, 1.0])  # C2 * x4^2


def test_reduced_example1_surrogate_columns(example1):
    rls = example1.reduced
    x = np.array([0.5, -0.8])
    t = 1.3
    F = rls.Fhat(t, x)
    g = np.sin(t)
    np.testing.assert_allclose(F[:, 0], [0.0, g * x[0]])
    np.testing.assert_allclose(F[:, 1], [g * x[1], 0.0])
    np.testing.assert_allclose(F[:, 2], [2.0 * g * x[1], 0.0])
    np.testing.assert_allclose(rls.Hhat(t, x), [x[1] ** 2, x[0] ** 2, x[0] ** 2])


# --- output residual ---------------------------------------------------------


def test_residual_vertex1_zero(motivating, cfg_fast):
    u = RelaxedControl(t0=0.0, step=0.5, values=np.tile([1.0, 0.0], (10, 1)))
    traj = simulate_reduced(motivating.reduced, u, 0.0, np.array([1.0, 0.0]), 5.0, cfg_fast)
    assert output_residual(motivating.reduced, traj) == 0.0


def test_residual_vertex2_positive(motivating, cfg_fast):
    u = RelaxedControl(t0=0.0, step=0.5, values=np.tile([0.0, 1.0], (4, 1)))
    traj = simulate_reduced(motivating.reduced, u, 0.0, np.array([1.0, 0.0]), 2.0, cfg_fast)
    assert output_residual(motivating.reduced, traj) >= 1.0 - 1e-9


def test_residual_zero_state(motivating, cfg_fast):
    u = RelaxedControl(t0=0.0, step=0.5, values=np.tile([0.3, 0.7], (4, 1)))
    traj = simulate_reduced(motivating.reduced, u, 0.0, np.zeros(2), 2.0, cfg_fast)
    assert output_residual(motivating.reduced, traj) == 0.0


def test_residual_nan_at_one_node_is_nan(motivating, cfg_fast):
    # max(0.0, nan) is 0.0, so a running max alone would read a NaN output as zero
    rls = motivating.reduced
    nan_at_one = replace(rls, Hhat=lambda t, x: rls.Hhat(t, x) * (np.nan if t == 1.0 else 1.0))
    u = RelaxedControl(t0=0.0, step=0.5, values=np.tile([1.0, 0.0], (4, 1)))
    traj = simulate_reduced(rls, u, 0.0, np.array([1.0, 0.0]), 2.0, cfg_fast)
    assert output_residual(rls, traj) == 0.0
    assert np.isnan(output_residual(nan_at_one, traj))


def test_falsifier_rejects_nan_output(motivating):
    rls = replace(motivating.reduced, constraints=(),
                  Hhat=lambda t, x: np.full(motivating.reduced.N, np.nan))
    v = wzsd_falsify(rls, eps=0.5, horizon=5.0, budget=20, seed=0)
    assert v.verdict == "no_counterexample_found"
    assert v.counterexample is None


def test_rollout_screen_stops_nan_residual(motivating):
    # a NaN output residual fails the screen at the first cell, so no such
    # candidate is marched to the end and left for the validation
    rls = replace(motivating.reduced, constraints=(),
                  Hhat=lambda t, x: np.full(motivating.reduced.N, np.nan))
    v = wzsd_falsify(rls, eps=0.5, horizon=5.0, budget=20, seed=0)
    assert v.notes["aborts"]["validation"] == 0
    assert v.notes["aborts"]["residual"] == 8
    assert v.notes["cells_marched"] == 0


@pytest.mark.parametrize("weights, x0", [
    ([0.2, 0.3, 0.5], [1.0, 0.0]),   # three modes on a two-mode system
    ([0.3, 0.7], [1.0, 0.0, 0.0]),   # state of the wrong dimension
    ([0.3, 0.7], [1.0]),
])
def test_reduced_input_errors(motivating, cfg_fast, weights, x0):
    u = RelaxedControl(t0=0.0, step=0.5, values=np.tile(weights, (4, 1)))
    with pytest.raises(ParameterError):
        simulate_reduced(motivating.reduced, u, 0.0, np.array(x0), 2.0, cfg_fast)


# --- inherited constraints ---------------------------------------------------


def test_integral_constraint_constant_mix():
    c = MeasureConstraint(T0=1.0, delta0=0.2, mode=2)
    u = RelaxedControl(t0=0.0, step=0.25, values=np.tile([0.8, 0.2], (20, 1)))
    ok, margin = check_control_constraint(u, c)
    assert ok
    assert abs(margin) < 1e-12


def test_integral_constraint_vertex1_fails():
    c = MeasureConstraint(T0=1.0, delta0=0.2, mode=2)
    u = RelaxedControl(t0=0.0, step=0.25, values=np.tile([1.0, 0.0], (20, 1)))
    ok, margin = check_control_constraint(u, c)
    assert not ok and margin == pytest.approx(-0.2)


def test_weak_limit_inherits_integral_constraint():
    # a convex combination of class members satisfies the inherited bound, with
    # the class's own constraint object
    c = MeasureConstraint(T0=1.0, delta0=0.2, mode=2)
    controls = []
    for seed in range(6):
        sig = gen_measure_constrained(c, 2, (0.0, 12.0), 700 + seed, granularity=1e-2)
        controls.append(signal_to_control(sig, 1e-2, span=(0.0, 12.0), n_modes=2))
    avg = RelaxedControl(t0=0.0, step=1e-2, values=np.mean([u.values for u in controls], axis=0))
    ok, margin = check_control_constraint(avg, c)
    assert ok, margin
    # each member's worst window is at least delta0, so the mean's is too
    assert margin >= min(check_control_constraint(u, c)[1] for u in controls) - 1e-12


@given(st.integers(min_value=0, max_value=5000))
@settings(max_examples=25, deadline=None)
def test_average_preserves_simplex(seed):
    # the simplex is convex: the mean of relaxed controls on one grid is one
    rng = np.random.default_rng(seed)
    values = [rng.dirichlet(np.ones(3), size=40) for _ in range(3)]
    avg = RelaxedControl(t0=0.0, step=0.05, values=np.mean(values, axis=0))
    assert np.all(avg.values >= 0)
    np.testing.assert_allclose(avg.values.sum(axis=1), 1.0, atol=1e-9)


@pytest.mark.parametrize("du", [1e-2, 5e-2])
@pytest.mark.parametrize("seed", range(4))
def test_integral_check_agrees_with_measure_validator(du, seed):
    # a class signal at granularity du embeds exactly into cells of width du,
    # so the control check and the signal validator see the same windows
    rng = np.random.default_rng(seed)
    T0 = float(rng.choice([0.5, 1.0, 1.5]))
    mc = MeasureConstraint(T0=T0, delta0=float(rng.uniform(0.05, 0.5)) * T0, mode=2)
    for k in range(3):
        sig = gen_measure_constrained(mc, 2, (0.0, 6.0), 1000 * seed + k, granularity=du)
        # shifted copy: fewer activation blocks than the constraint asks for
        short = SwitchingSignal(breakpoints=sig.breakpoints, modes=3 - sig.modes,
                                domain_start=0.0, domain_end=6.0)
        for s in (sig, short):
            rep = validate_measure(s, mc)
            ok, margin = check_control_constraint(signal_to_control(s, du, n_modes=2), mc)
            assert ok == rep.ok
            assert abs(margin - (rep.min_measure - mc.delta0)) <= 1e-12


def test_pattern_constraint_on_controls(inverter):
    c = inverter.reduced.constraints[0]
    assert c == PatternConstraint(T=10.0, dm=0.5, dM=2.0)
    # compliant vertex schedule: 1(1s) 2(1s) 1(1s) repeated, du = 0.25
    cells = []
    for _ in range(5):
        cells += [[1.0, 0.0]] * 4 + [[0.0, 1.0]] * 4 + [[1.0, 0.0]] * 4
    u = RelaxedControl(t0=0.0, step=0.25, values=np.array(cells))
    ok, _ = check_control_constraint(u, c)
    assert ok
    # constant e1 has no 2-run at all
    u2 = RelaxedControl(t0=0.0, step=0.25, values=np.tile([1.0, 0.0], (60, 1)))
    ok2, margin2 = check_control_constraint(u2, c)
    assert not ok2 and margin2 < 0


def _pattern_schedule(two_run, du, n_blocks=6):
    """A 1-2-1 vertex schedule of 1 s runs whose 2-runs last ``two_run`` seconds."""
    breaks, modes, t = [], [], 0.0
    for _ in range(n_blocks):
        for mode, length in ((1, 1.0), (2, two_run), (1, 1.0)):
            breaks.append(t)
            modes.append(mode)
            t = round((t + length) / du) * du
    return SwitchingSignal(breakpoints=np.array(breaks), modes=np.array(modes),
                           domain_start=0.0, domain_end=t)


@pytest.mark.parametrize("du", [0.25, 0.05])
def test_pattern_check_agrees_with_pattern_validator(du):
    # mutation control: the validator on a 1-2-1 schedule and the control check
    # on its vertex embedding, with one PatternConstraint, pass it, and both
    # flip once its 2-runs are stretched past dM or shrunk below dm
    c = PatternConstraint(T=10.0, dm=0.5, dM=2.0)
    verdicts = []
    for two_run in (1.0, 2.5, 0.25):   # compliant, above dM, below dm
        sig = _pattern_schedule(two_run, du)
        rep = validate_pattern(sig, c)
        ok, margin = check_control_constraint(signal_to_control(sig, du, n_modes=2), c)
        assert ok == rep.ok and abs(margin - rep.margin) <= 1e-12, two_run
        verdicts.append(ok)
    assert verdicts == [True, False, False]


# --- falsifier ---------------------------------------------------------------


def test_falsifier_finds_rotation_counterexample(motivating):
    rls = replace(motivating.reduced, constraints=())
    v = wzsd_falsify(rls, eps=0.5, horizon=5.0, budget=100, seed=0)
    assert v.verdict == "counterexample"
    assert v.budget_used <= 100
    cx = v.counterexample
    assert cx.eps >= 0.5
    assert cx.output_sup <= 1e-8
    # the counterexample is the constant-e1 rotation
    assert np.array_equal(cx.control.values[0], [1.0, 0.0])


def test_falsifier_counterexample_revalidates(motivating, cfg_fast):
    # re-simulating the returned pair through the public API reproduces the claim
    rls = replace(motivating.reduced, constraints=())
    v = wzsd_falsify(rls, eps=0.5, horizon=5.0, budget=50, seed=1)
    cx = v.counterexample
    traj = simulate_reduced(rls, cx.control, 0.0, cx.trajectory.states[0], 5.0,
                            IntegratorConfig(step=0.01))
    assert float(traj.norms().min()) >= 0.5
    assert output_residual(rls, traj) <= 1e-8


def test_falsifier_face_feasibility(motivating):
    # wherever the kept candidate puts weight, the output component vanishes
    rls = replace(motivating.reduced, constraints=())
    v = wzsd_falsify(rls, eps=0.5, horizon=5.0, budget=50, seed=2)
    cx = v.counterexample
    for t, x, w in zip(cx.trajectory.times, cx.trajectory.states, cx.trajectory.controls):
        H = rls.Hhat(t, x)
        assert np.all(w[H > 1e-8] <= 1e-12)


def _count_fhat(rls):
    calls = [0]
    fhat = rls.Fhat

    def counted(t, x):
        calls[0] += 1
        return fhat(t, x)

    return replace(rls, Fhat=counted), calls


def test_open_loop_candidates_checked_before_rollout(inverter, motivating, monkeypatch):
    # every constant-vertex control breaks inverter's pattern constraint, so
    # its battery rolls nothing out
    rls, calls = _count_fhat(inverter.reduced)
    v = wzsd_falsify(rls, eps=0.5, horizon=12.0, budget=16)
    assert v.budget_used == 16 and calls[0] == 0
    # on motivating only the vertex-2 controls meet the integral constraint
    rolled = []
    rollout = limiting._rollout

    def spy(rls, u_cells, *args):
        rolled.append(np.array(u_cells[0]))
        return rollout(rls, u_cells, *args)

    monkeypatch.setattr(limiting, "_rollout", spy)
    rls, calls = _count_fhat(motivating.reduced)
    v = wzsd_falsify(rls, eps=0.5, horizon=5.0, budget=8)
    assert v.verdict == "no_counterexample_found"
    assert len(rolled) == 4 and all(np.array_equal(w, [0.0, 1.0]) for w in rolled)
    assert 0 < calls[0]


def test_falsifier_respects_integral_constraint(motivating):
    v = wzsd_falsify(motivating.reduced, eps=0.5, horizon=5.0, budget=200, seed=0)
    assert v.verdict == "no_counterexample_found"
    assert v.budget_used == 200


def test_falsifier_deterministic(motivating):
    a = wzsd_falsify(motivating.reduced, eps=0.5, horizon=5.0, budget=60, seed=5)
    b = wzsd_falsify(motivating.reduced, eps=0.5, horizon=5.0, budget=60, seed=5)
    assert a.verdict == b.verdict and a.budget_used == b.budget_used


@pytest.mark.parametrize("residual_tol", [-1.0, -1e-300, float("nan")])
def test_falsifier_rejects_negative_residual_tol(motivating, residual_tol):
    # below zero every candidate would fail the residual screen, and the
    # verdict could never be "counterexample"
    free = replace(motivating.reduced, constraints=())
    with pytest.raises(ParameterError, match="residual_tol"):
        wzsd_falsify(free, eps=0.5, horizon=5.0, budget=50, residual_tol=residual_tol)
    v = wzsd_falsify(free, eps=0.5, horizon=5.0, budget=50, residual_tol=0.0)
    assert v.verdict == "counterexample" and v.budget_used == 1


def test_falsifier_verdict_json(motivating):
    v = wzsd_falsify(motivating.reduced, eps=0.5, horizon=2.0, budget=20, seed=0)
    doc = v.to_dict()
    for key in ("verdict", "budget_used", "seed", "eps", "residual_tol"):
        assert key in doc


# --- screen invariants ---------------------------------------------------------


def _probe_states(n, rng):
    states = [rng.uniform(-1.5, 1.5, n) for _ in range(6)]
    for x in states[:3]:
        x[rng.integers(0, n)] = 0.0
    states[3][:] = 0.0
    states[4][0] = -0.0
    return states


def _cell_rhs(Fhat, w):
    """The (rhs, arg) that simulate_reduced and the screen march a cell of weights w on."""
    return _mix_rhs(limiting._limiting_fields(Fhat), w)


def test_vertex_rhs_reads_fhat_column(all_entries):
    # a vertex weight e_i reads Fhat's column i: on a build_reduced system by
    # calling the mode field itself, (fields, i + 1) as integrate._mode_rhs pairs
    # it, and through _fhat_column on any other Fhat.  Either equals the matmul up
    # to the sign of a zero component.  Any other weight takes _mix_rhs's closure,
    # the sum of the nonzero-weight columns in mode order, bit for bit
    rng = np.random.default_rng(31)
    for entry in all_entries:
        rls = entry.reduced
        forwarding = partial(_forward, rls.Fhat)
        for t in (0.0, 0.3, 1.7):
            for x in _probe_states(rls.n, rng):
                x = x.tolist()
                F = rls.Fhat(t, x)
                for i in range(rls.N):
                    w = [0.0] * rls.N
                    w[i] = 1.0
                    rhs, arg = _cell_rhs(rls.Fhat, w)
                    assert rhs is rls.Fhat.fields and arg == i + 1
                    col, col_arg = _cell_rhs(forwarding, w)
                    assert col.func is limiting._fhat_column and col_arg == i + 1
                    direct = np.array(rhs(t, x, arg), dtype=float)
                    assert direct.tobytes() == np.array(col(t, x, col_arg)).tobytes()
                    assert np.array_equal(direct, F @ np.array(w))
                near = [0.0] * rls.N
                near[0], near[-1] = 1.0 - 2.0 ** -53, 2.0 ** -53
                for w in (rng.dirichlet(np.ones(rls.N)).tolist(), near):
                    want = None
                    for j in np.flatnonzero(np.array(w) > 0.0).tolist():
                        want = w[j] * F[:, j] if want is None else want + w[j] * F[:, j]
                    for Fhat in (rls.Fhat, forwarding):
                        rhs, arg = _cell_rhs(Fhat, w)
                        assert rhs.__qualname__ == "_mix_rhs.<locals>.rhs" and arg is None
                        assert np.array(rhs(t, x, arg)).tobytes() == want.tobytes()


def _forward(Fhat, t, x):
    return Fhat(t, x)


def _reduced_signatures(rls, x0, controls, horizon, budget, seed):
    """Bytes of simulate_reduced runs under ``controls`` and of the falsifier's
    verdicts with and without the constraints, on ``rls`` as given."""
    cfg = IntegratorConfig(step=1e-2)
    out = []
    for u in controls:
        traj = simulate_reduced(rls, u, 0.0, x0, horizon, cfg)
        out += [traj.times.tobytes(), traj.states.tobytes(), traj.controls.tobytes()]
    for constraints in (rls.constraints, ()):
        v = wzsd_falsify(replace(rls, constraints=constraints), eps=0.5, horizon=horizon,
                         budget=budget, seed=seed)
        out.append(v.to_json())
        if v.counterexample is not None:
            cx = v.counterexample
            out += [cx.trajectory.states.tobytes(), cx.control.values.tobytes()]
    return out


def test_vertex_fast_path_matches_column_path(all_entries):
    # the oracle of the direct mode-field march is the column read of a
    # forwarding Fhat: trajectories, verdicts and counterexamples byte for byte
    rng = np.random.default_rng(47)
    for entry in all_entries:
        rls = entry.reduced
        n, N = rls.n, rls.N
        horizon = 12.0 if entry.name == "inverter" else 5.0
        n_cells = int(round(horizon / 0.25))
        vertex = np.eye(N)[rng.integers(0, N, n_cells)]
        mixed = vertex.copy()
        mixed[::3] = rng.dirichlet(np.ones(N), size=len(mixed[::3]))
        controls = [RelaxedControl(t0=0.0, step=0.25, values=v) for v in (vertex, mixed)]
        x0 = rng.uniform(-1.5, 1.5, n)
        fast = _reduced_signatures(rls, x0, controls, horizon, 200, 3)
        column = _reduced_signatures(replace(rls, Fhat=partial(_forward, rls.Fhat)), x0,
                                     controls, horizon, 200, 3)
        assert fast == column, entry.name


def test_vertex_march_evaluates_no_other_mode(cfg_fast):
    # a limiting field that cannot be evaluated in mode 2 does not stop a vertex-1
    # march, which is then the switched march of mode 1, bit for bit; stacking
    # every mode, as a forwarding Fhat's column read does, raises
    from swstab import SwitchedSystem, simulate

    def fhat(t, x, i):
        if i == 2:
            raise ZeroDivisionError("mode 2 has no limiting field here")
        return (x[1], -0.5 * x[0])

    system = SwitchedSystem(n=2, N=2, f=fhat, h=lambda t, x, i: (0.0,), p=1)
    rls = build_reduced(system, trivial_covering(2))
    u = RelaxedControl(t0=0.0, step=0.5, values=np.tile([1.0, 0.0], (4, 1)))
    x0 = np.array([1.0, 0.3])
    traj = simulate_reduced(rls, u, 0.0, x0, 2.0, cfg_fast)
    sigma = SwitchingSignal(breakpoints=np.array([0.0]), modes=np.array([1]),
                            domain_start=0.0, domain_end=2.0)
    ref = simulate(system, sigma, 0.0, x0, 2.0, cfg_fast)
    assert traj.times.tobytes() == ref.times.tobytes()
    assert traj.states.tobytes() == ref.states.tobytes()
    with pytest.raises(ZeroDivisionError):
        simulate_reduced(replace(rls, Fhat=partial(_forward, rls.Fhat)), u, 0.0, x0, 2.0,
                         cfg_fast)


def test_single_allowed_mode_is_the_vertex(motivating):
    # a Dirichlet draw over one mode reads 1 - 2**-53 on some draws; the face-random
    # candidate still takes the draw, so its rng stream is unchanged, but puts
    # weight exactly 1.0 on the mode
    rls = replace(motivating.reduced, constraints=())
    rng, ref = np.random.default_rng(0), np.random.default_rng(0)
    choose, _ = limiting._face_random_candidate(rls, [], rng, 10, 0.05, 0.5, 1e-8)
    limiting._face_random_candidate(rls, [], ref, 10, 0.05, 0.5, 1e-8)
    H = {1: np.array([0.0, 1.0]), 2: np.array([1.0, 0.0])}  # only mode 1, only mode 2
    off_vertex = 0
    for k in range(10_000):
        mode = 1 + k % 2
        w = choose(0, 0.0, [1.0, 0.5], H[mode])
        assert list(w) == np.eye(2)[mode - 1].tolist()
        off_vertex += float(ref.dirichlet(np.ones(1))[0]) != 1.0
    assert off_vertex > 0  # the draws this guards against do occur
    assert rng.random() == ref.random()


def test_vertex_rhs_departures_from_matmul(motivating, cfg_fast):
    # the two stated exceptions: a zero component keeps the column's sign, and
    # a non-finite unused column no longer turns into NaN through 0 * inf
    F = np.array([[-0.0, 0.0], [2.0, np.inf]])
    rhs, arg = _cell_rhs(lambda t, x: F, [1.0, 0.0])
    col = rhs(0.0, None, arg)
    assert np.array(col).tobytes() == np.array([-0.0, 2.0]).tobytes()
    with np.errstate(invalid="ignore"):
        assert np.isnan((F @ np.array([1.0, 0.0]))[1])
    # a vertex-1 march ignores a non-finite second column entirely
    fhat = motivating.reduced.Fhat

    def with_column(value):
        def Fhat(t, x):
            out = fhat(t, x)
            out[:, 1] = value
            return out
        return replace(motivating.reduced, Fhat=Fhat)

    u = RelaxedControl(t0=0.0, step=0.5, values=np.tile([1.0, 0.0], (4, 1)))
    x0 = np.array([1.0, 0.0])
    a = simulate_reduced(with_column(np.inf), u, 0.0, x0, 2.0, cfg_fast)
    b = simulate_reduced(with_column(0.0), u, 0.0, x0, 2.0, cfg_fast)
    assert a.states.tobytes() == b.states.tobytes()


def test_reduced_run_is_the_relaxed_run_of_the_limiting_fields(all_entries):
    # the reduced system is the relaxed system of the limiting fields: under
    # mixed controls simulate_reduced is simulate_relaxed on f = fhat, bit for bit
    from swstab import SwitchedSystem, simulate_relaxed

    rng = np.random.default_rng(71)
    cfg = IntegratorConfig(step=1e-2)
    for entry in all_entries:
        system = entry.system
        limiting_system = SwitchedSystem(n=system.n, N=system.N, f=system.fhat or system.f,
                                         h=system.h, p=system.p)
        rls = build_reduced(system, entry.covering)
        for _ in range(3):
            values = rng.dirichlet(np.ones(system.N), size=40)
            values[::4] = np.eye(system.N)[rng.integers(0, system.N, len(values[::4]))]
            u = RelaxedControl(t0=0.0, step=0.05, values=values)
            x0 = rng.uniform(-1.5, 1.5, system.n)
            got = simulate_reduced(rls, u, 0.0, x0, 2.0, cfg)
            want = simulate_relaxed(limiting_system, u, 0.0, x0, 2.0, cfg)
            for a, b in ((got.times, want.times), (got.states, want.states),
                         (got.controls, want.controls)):
                assert a.tobytes() == b.tobytes(), entry.name


def test_mixed_cell_ignores_a_non_finite_unused_column(example1, cfg_fast):
    # weights (1/2, 1/2, 0) read the first two columns only: an inf third column
    # leaves the run finite and equal to the plain one, where 0 * inf would be NaN
    fhat = example1.reduced.Fhat

    def Fhat(t, x):
        out = fhat(t, x)
        out[:, 2] = np.inf
        return out

    u = RelaxedControl(t0=0.0, step=0.05, values=np.tile([0.5, 0.5, 0.0], (40, 1)))
    x0 = np.array([1.0, -0.4])
    got = simulate_reduced(replace(example1.reduced, Fhat=Fhat), u, 0.0, x0, 2.0, cfg_fast)
    want = simulate_reduced(example1.reduced, u, 0.0, x0, 2.0, cfg_fast)
    assert np.isfinite(got.states).all()
    assert got.states.tobytes() == want.states.tobytes()


def test_hhat_matches_linalg_norm():
    # one- and two-component outputs, read from the system's own h: within 2 ulp
    # of np.linalg.norm wherever v . v stays in range, and within 1 ulp of the
    # exact norm (taken in 50-digit decimals) where it does not
    from swstab import SwitchedSystem

    def f(t, x, i):
        return np.array((x[1], -x[0])) if i == 1 else np.array((x[0], 0.0))

    def h(t, x, i):
        return (np.array((np.sin(t) * x[0],)) if i == 1
                else np.array((x[0] * x[1], x[1] ** 3 - 0.1 * t)))

    system = SwitchedSystem(n=2, N=2, f=f, h=h, p=2)
    rls = build_reduced(system, trivial_covering(2))
    rng = np.random.default_rng(41)
    states = ([(x, True) for x in _probe_states(2, rng)]
              + [(np.array([1e-170, 3e-160]), False), (np.array([1e160, -2.0]), False)])
    with decimal.localcontext(prec=50):
        for t in (0.0, 0.4, 2.5):
            for x, in_range in states:
                got = rls.Hhat(t, x)
                for i in (1, 2):
                    v = h(t, x, i).tolist()
                    if in_range:
                        want, ulps = float(np.linalg.norm(v)), 2.0
                    else:
                        want, ulps = float(sum(decimal.Decimal(c) ** 2 for c in v).sqrt()), 1.0
                    assert abs(got[i - 1] - want) <= ulps * np.spacing(want), (t, x, i)


@pytest.mark.parametrize("v", [1e200, 1e-200])
def test_hhat_of_one_output_is_exact_out_of_range(v):
    # an output whose square overflows or underflows reads as its magnitude,
    # not as inf or 0 as sqrt(v * v) would give
    from swstab import SwitchedSystem

    system = SwitchedSystem(n=1, N=2, f=lambda t, x, i: (0.0,),
                            h=lambda t, x, i: (v,) if i == 1 else (-v,))
    assert build_reduced(system, trivial_covering(2)).Hhat(0.0, [1.0]).tolist() == [v, v]


def test_open_loop_rollout_evaluates_hhat_once_per_node(motivating):
    rls = replace(motivating.reduced, constraints=())
    calls = [0]
    hhat = rls.Hhat

    def counted(t, x):
        calls[0] += 1
        return hhat(t, x)

    rls = replace(rls, Hhat=counted)
    x0 = np.array([1.0, 0.0])
    for du in (0.25, 0.05):
        n_cells = int(round(5.0 / du))
        vals = np.tile([1.0, 0.0], (n_cells, 1))
        calls[0] = 0
        tally = limiting._Tally()
        ws = limiting._rollout(rls, vals, x0, 5.0, du, 5, 0.5, 1e-8, 1e9, tally)
        assert np.array_equal(ws, vals) and tally.cells == n_cells
        # a node is evaluated twice only where k*du + du and (k+1)*du round apart
        apart = sum(k * du + du != (k + 1) * du for k in range(n_cells))
        assert calls[0] == n_cells + 1 + apart
        if du == 0.25:
            assert apart == 0


def test_falsifier_counts_aborts(motivating):
    v = wzsd_falsify(motivating.reduced, eps=0.5, horizon=5.0, budget=400, seed=11)
    assert v.verdict == "no_counterexample_found"
    aborts = v.notes["aborts"]
    assert tuple(aborts) == limiting.ABORT_REASONS
    assert sum(aborts.values()) == 400
    assert max(aborts, key=aborts.get) == "window_quota_unreachable"
    assert 0 < v.notes["cells_marched"] < 400 * 100
    doc = v.to_dict()
    assert doc["aborts"] == aborts and doc["cells_marched"] == v.notes["cells_marched"]
    # with a counterexample, every candidate before it was rejected for a reason
    w = wzsd_falsify(replace(motivating.reduced, constraints=()), eps=0.5, horizon=5.0,
                     budget=400, seed=11)
    assert sum(w.notes["aborts"].values()) == w.budget_used - 1


def test_quota_abort_before_the_doomed_cell(motivating):
    # mode 2 off the face: the 0.2 s quota of a 1 s tile is out of reach once
    # the tile has less than 0.2 s left after a cell, i.e. after cell 16 ends
    # at t = 0.85; cell 16 is then refused before it is marched
    rls = motivating.reduced
    c = rls.constraints[0]
    assert (c.T0, c.delta0, c.mode) == (1.0, 0.2, 2)
    rng = np.random.default_rng(0)
    choose, _ = limiting._face_random_candidate(rls, [c], rng, 100, 0.05, 0.5, 1e-8)
    x = np.array([0.7, 0.1])
    off_face = np.array([0.0, 1.0])
    for k in range(16):
        assert choose(k, k * 0.05, x, off_face)[1] == 0.0
    with pytest.raises(limiting._Abort, match="window_quota_unreachable"):
        choose(16, 16 * 0.05, x, off_face)
    # with mode 2 on the face the steering fills every tile's quota
    choose, _ = limiting._face_random_candidate(rls, [c], rng, 100, 0.05, 0.5, 1e-8)
    for k in range(100):
        choose(k, k * 0.05, x, np.zeros(2))


# --- the float-list screen against the ndarray screen -----------------------------


def _recording(factory, log):
    """``factory`` of face-random candidates whose closed loop logs the bytes of
    every state, Hhat value and weight it sees or returns."""
    def make(*args):
        choose, x0 = factory(*args)

        def logged(k, t, x, H):
            w = choose(k, t, x, H)
            log.extend(np.array(v, dtype=float).tobytes() for v in (x, H, w))
            return w

        return logged, x0

    return make


def _search_signatures(all_entries, seeds, budgets, monkeypatch, factory):
    """Verdict dicts and counterexample bytes of seeded searches on every registry
    system, with and without its constraints, and the log of every closed-loop cell."""
    out, log = [], []
    monkeypatch.setattr(limiting, "_face_random_candidate", _recording(factory, log))
    for entry in all_entries:
        horizon = 12.0 if entry.name == "inverter" else 5.0
        for seed in seeds:
            for constraints, budget in zip((entry.reduced.constraints, ()), budgets):
                rls = replace(entry.reduced, constraints=constraints)
                v = wzsd_falsify(rls, eps=0.5, horizon=horizon, budget=budget, seed=seed)
                out.append(v.to_dict())
                if v.counterexample is not None:
                    cx = v.counterexample
                    out += [cx.control.values.tobytes(), cx.trajectory.states.tobytes(),
                            cx.trajectory.outputs.tobytes()]
    return out, log


def test_float_screen_matches_ndarray_screen(all_entries, monkeypatch):
    # the ndarray screen (H @ w, rng.dirichlet, array steering) as the oracle of
    # the float-list one: verdicts, counters, counterexamples and every
    # closed-loop cell's state, Hhat value and weights, bit for bit
    from oracles import face_random_candidate_reference, rollout_reference

    seeds, budgets = (1, 7, 105), (300, 150)
    fast, fast_log = _search_signatures(all_entries, seeds, budgets, monkeypatch,
                                        limiting._face_random_candidate)
    monkeypatch.setattr(limiting, "_rollout", rollout_reference)
    ref, ref_log = _search_signatures(all_entries, seeds, budgets, monkeypatch,
                                      face_random_candidate_reference)
    assert ref == fast
    assert len(ref_log) == len(fast_log) > 0
    assert ref_log == fast_log
    found = sum(isinstance(part, dict) and part["verdict"] == "counterexample" for part in fast)
    assert 0 < found < len(all_entries) * len(seeds) * 2  # both verdicts are compared


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_normalised_exponentials_are_the_dirichlet_draw(k):
    # numpy draws Dirichlet(1, ..., 1) as standard exponentials summed from 0.0
    # and scaled by 1 / sum, so choose's draw has the same bits and leaves the
    # generator at the same point
    from swstab import SwitchedSystem

    rng, ref = np.random.default_rng(100 + k), np.random.default_rng(100 + k)
    for _ in range(10_000):
        draw = rng.standard_exponential(k).tolist()
        acc = 0.0
        for v in draw:
            acc += v
        inv = 1.0 / acc
        assert [v * inv for v in draw] == ref.dirichlet(np.ones(k)).tolist()
    assert rng.random() == ref.random()
    if k == 1:
        return  # choose puts 1.0 on a single mode: test_single_allowed_mode_is_the_vertex
    # choose with every one of k modes on the face
    system = SwitchedSystem(n=2, N=k, f=lambda t, x, i: (0.0, 0.0), h=lambda t, x, i: (0.0,))
    rls = build_reduced(system, trivial_covering(k))
    choose, _ = limiting._face_random_candidate(rls, [], rng, 10, 0.05, 0.5, 1e-8)
    limiting._face_random_candidate(rls, [], ref, 10, 0.05, 0.5, 1e-8)
    for _ in range(10_000):
        assert choose(0, 0.0, [1.0, 0.5], [0.0] * k) == ref.dirichlet(np.ones(k)).tolist()
    assert rng.random() == ref.random()


def _residual_cases(rng):
    """(H, w, tol) on and around the tie H . w == tol."""
    ulp = 2.0 ** -52
    for N in (2, 3, 4):
        for _ in range(300):
            w = rng.dirichlet(np.ones(N)).tolist()
            tol = float(rng.uniform(1e-10, 1.0))
            for j in range(-4, 5):
                yield [tol * (1.0 + j * ulp)] * N, w, tol  # every H_i at or near tol
            H = rng.uniform(0.0, 2.0, N)
            yield H.tolist(), w, float(H @ np.array(w))  # tol the dot itself
            yield H.tolist(), w, float(np.nextafter(H @ np.array(w), 0.0))
        w = [1.0 / N] * N
        for H in ([0.0] * N, [5e-324] * N, [1e-300] * N, [1e-160] * N):
            for tol in (0.0, 5e-324, 1e-320):
                yield H, w, tol  # tol = 0 and subnormal products
        for bad in (np.nan, np.inf, -np.inf):
            H = [0.0] * N
            H[-1] = bad
            yield H, w, 1e-8
            yield H, [1.0] + [0.0] * (N - 1), 1e-8  # 0 * inf


def test_residual_test_matches_the_array_product():
    # the float sum s and numpy's dot each lie within about N * 2**-53 * sum|H_i w_i|
    # of the exact value (a subnormal product adds at most 2**-1074), so s <= tol
    # decides as H @ w <= tol does wherever |s - tol| exceeds
    # 4 N 2**-53 sum|H_i w_i| + 1e-300; inside that band they may part.  A NaN
    # sum, or an infinite one, fails both
    cases = list(_residual_cases(np.random.default_rng(29)))
    decided = 0
    with np.errstate(invalid="ignore"):
        for H, w, tol in cases:
            s = limiting._residual(H, w)
            band = 4.0 * len(H) * 2.0 ** -53 * sum([abs(h * v) for h, v in zip(H, w)]) + 1e-300
            if abs(s - tol) > band or not math.isfinite(s):
                decided += 1
                assert (s <= tol) == (np.array(H) @ np.array(w) <= tol), (H, w, tol)
    assert 0 < decided < len(cases)
    assert limiting._residual([0.5, 0.5], [0.5, 0.5]) == 0.5  # a tie passes at tol 0.5
    assert limiting._residual([0.0, 1.0], [1.0, 0.0]) == 0.0
    assert limiting._residual([1.0, 0.0], [1.0, 0.0]) == 1.0
    assert math.isnan(limiting._residual([np.nan, 0.0], [0.5, 0.5]))
