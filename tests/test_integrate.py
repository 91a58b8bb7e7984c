"""Integrator contracts: determinism, alignment, convergence, events, errors."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swstab import (
    BlowUpError,
    ChatteringError,
    Covering,
    IntegratorConfig,
    PolicyError,
    SwitchedSystem,
    SwitchingSignal,
    Trajectory,
    gen_arbitrary,
    signal_to_control,
    simulate,
    simulate_relaxed,
    simulate_with_covering,
)
from swstab.signals import validate_covering_invariance


def test_conservation_mode1(motivating, cfg_fine):
    # mode 1 is a pure rotation: |x| is a first integral
    sig = SwitchingSignal.constant(1, 0.0, 10.0)
    traj = simulate(motivating.system, sig, 0.0, np.array([1.0, 0.0]), 10.0, cfg_fine)
    assert abs(np.linalg.norm(traj.states[-1]) - 1.0) <= 1e-6
    assert np.max(np.abs(traj.norms() - 1.0)) <= 1e-6


def test_zero_state_stays_zero(all_entries, cfg_fast):
    for entry in all_entries:
        sig = gen_arbitrary(entry.system.N, (0.0, 5.0), 0.4, 3)
        traj = simulate(entry.system, sig, 0.0, np.zeros(entry.system.n), 5.0, cfg_fast)
        assert np.max(np.abs(traj.states)) == 0.0


def test_mode2_against_reference_step(motivating):
    # single-mode integration agrees with a 64x-finer reference; the odd cube
    # root caps the observable order near x1 = 0, measured error 4.6e-7 at
    # step 1e-3, asserted with a 20x margin
    sig = SwitchingSignal.constant(2, 0.0, 5.0)
    x0 = np.array([1.0, 0.0])
    coarse = simulate(motivating.system, sig, 0.0, x0, 5.0, IntegratorConfig(step=1e-3))
    ref = simulate(motivating.system, sig, 0.0, x0, 5.0,
                   IntegratorConfig(step=1e-3 / 64))
    assert np.linalg.norm(coarse.states[-1] - ref.states[-1]) < 1e-5
    # V non-increasing and x1 initially decreasing (dx1/dt(0) = -1)
    V = 0.5 * np.sum(coarse.states**2, axis=1)
    assert np.all(np.diff(V) <= 1e-12)
    assert coarse.states[1, 0] < x0[0]
    h = coarse.times[1] - coarse.times[0]
    assert abs((coarse.states[1, 0] - x0[0]) / h - (-1.0)) < 1e-2


def test_rhs_value_mode2(motivating_a2):
    f = motivating_a2.system.f
    np.testing.assert_allclose(f(0.0, np.array([1.0, 1.0]), 2), [1.0, -2.0])


def test_outputs_right_continuous_at_switch(motivating, cfg_fine):
    sig = SwitchingSignal.constant(1, 0.0, 1.0)
    sig2 = type(sig)(breakpoints=np.array([0.0, 0.5]), modes=np.array([1, 2]),
                     domain_start=0.0, domain_end=1.0)
    traj = simulate(motivating.system, sig2, 0.0, np.array([1.0, 0.0]), 1.0, cfg_fine)
    k = int(np.argmin(np.abs(traj.times - 0.5)))
    assert traj.times[k] == 0.5
    assert traj.modes[k] == 2
    from oracles import switched_outputs_reference
    from swstab.integrate import _switched_outputs
    outputs = _switched_outputs(motivating.system, traj)
    assert outputs.tobytes() == switched_outputs_reference(motivating.system, traj).tobytes()
    assert outputs[k, 0] == abs(traj.states[k, 0])


def test_grid_contains_switch_times(motivating, cfg_fast):
    sig = gen_arbitrary(2, (0.0, 8.0), 0.3, 9)
    traj = simulate(motivating.system, sig, 0.0, np.array([0.7, -0.2]), 8.0, cfg_fast)
    for b in sig.breakpoints:
        if 0.0 < b < 8.0:
            assert np.min(np.abs(traj.times - b)) == 0.0
    # no step straddles a breakpoint: every step lies inside one constancy interval
    mid_modes = sig.modes_at(0.5 * (traj.times[:-1] + traj.times[1:]))
    left_modes = sig.modes_at(traj.times[:-1])
    assert np.array_equal(mid_modes, left_modes)


def test_determinism_bit_identical(motivating, cfg_fast):
    sig = gen_arbitrary(2, (0.0, 5.0), 0.3, 21)
    a = simulate(motivating.system, sig, 0.0, np.array([0.3, 0.4]), 5.0, cfg_fast)
    b = simulate(motivating.system, sig, 0.0, np.array([0.3, 0.4]), 5.0, cfg_fast)
    assert np.array_equal(a.states, b.states) and np.array_equal(a.times, b.times)


def test_self_convergence_order(inverter):
    # smooth single-mode interval: halving the step shrinks the error against
    # a 64x-finer reference by >= 8x (order >= 3 away from events)
    sig = SwitchingSignal.constant(1, 0.0, 2.0)
    x0 = np.array([1.0, 0.5, -0.3, 0.8])
    ref = simulate(inverter.system, sig, 0.0, x0, 2.0,
                   IntegratorConfig(step=4e-2 / 64)).states[-1]
    e1 = np.linalg.norm(simulate(inverter.system, sig, 0.0, x0, 2.0,
                                 IntegratorConfig(step=4e-2)).states[-1] - ref)
    e2 = np.linalg.norm(simulate(inverter.system, sig, 0.0, x0, 2.0,
                                 IntegratorConfig(step=2e-2)).states[-1] - ref)
    assert e2 <= e1 / 8.0


def _observed_orders(system, sig, x0, tf, h0):
    """Pointwise and fitted orders of the sup node error as the step halves three times.

    The error of each run is its largest departure, over the nodes of the
    coarsest grid, from a run at h0 / 256; every grid holds those nodes.
    """
    ref = simulate(system, sig, 0.0, x0, tf, IntegratorConfig(step=h0 / 256))
    steps = [h0 / 2 ** k for k in range(4)]
    errs = []
    for k, h in enumerate(steps):
        run = simulate(system, sig, 0.0, x0, tf, IntegratorConfig(step=h))
        assert np.array_equal(run.times[::2 ** k], ref.times[::256])
        errs.append(float(np.max(np.linalg.norm(run.states[::2 ** k] - ref.states[::256],
                                                axis=1))))
    pointwise = [np.log2(errs[k] / errs[k + 1]) for k in range(3)]
    fitted = np.polyfit(np.log2(steps), np.log2(errs), 1)[0]
    return pointwise, fitted


def test_observed_order_four_on_smooth_modes(motivating, inverter):
    from swstab import PatternConstraint, gen_pattern

    x0 = np.array([1.0, 0.5, -0.3, 0.8])
    cases = [(motivating.system, SwitchingSignal.constant(1, 0.0, 10.0), x0[:2], 10.0, 0.2),
             (inverter.system, SwitchingSignal.constant(1, 0.0, 4.0), x0, 4.0, 0.2),
             (inverter.system, SwitchingSignal.constant(2, 0.0, 4.0), x0, 4.0, 0.2),
             # switch times on the coarsest grid, so every step stays inside one mode
             (inverter.system, gen_pattern(PatternConstraint(T=10.0, dm=0.5, dM=2.0),
                                           (0.0, 10.0), 3, granularity=0.1), x0, 10.0, 0.1)]
    for case in cases:
        pointwise, fitted = _observed_orders(*case)
        assert all(abs(p - 4.0) < 0.1 for p in pointwise), pointwise
        assert abs(fitted - 4.0) < 0.05


def test_observed_order_on_cube_root_mode(motivating):
    # mode 2 is -x1^(1/3) + x2, not Lipschitz at x1 = 0, which the run crosses:
    # the sup error at steps 0.1 .. 0.0125 is 4.6e-3, 3.6e-4, 5.7e-4, 2.5e-4,
    # pointwise orders 3.65, -0.66, 1.20 and a fitted order of 1.19 (measured)
    pointwise, fitted = _observed_orders(motivating.system, SwitchingSignal.constant(2, 0.0, 5.0),
                                         np.array([1.0, 0.0]), 5.0, 0.1)
    assert np.allclose(pointwise, [3.65, -0.66, 1.20], atol=0.01)
    assert abs(fitted - 1.19) < 0.01


def test_evaluation_counts_per_step_and_node(all_entries, cfg_fast):
    # each RK4 step evaluates the field 4 times; the integrators evaluate no
    # output, and the switched output fill evaluates it once per node
    from dataclasses import replace

    from swstab import RelaxedControl
    from swstab.integrate import _switched_outputs

    rng = np.random.default_rng(63)
    for entry in all_entries:
        calls = {"f": 0, "h": 0}
        f, h = entry.system.f, entry.system.h

        def counted_f(t, x, i):
            calls["f"] += 1
            return f(t, x, i)

        def counted_h(t, x, i):
            calls["h"] += 1
            return h(t, x, i)

        system = replace(entry.system, f=counted_f, h=counted_h)
        N = system.N
        x0 = rng.uniform(-1.0, 1.0, system.n)
        sig = gen_arbitrary(N, (0.0, 4.0), 0.4, 5, granularity=1e-2)
        traj = simulate(system, sig, 0.0, x0, 4.0, cfg_fast)
        assert calls == {"f": 4 * (len(traj.times) - 1), "h": 0}
        _switched_outputs(system, traj)
        assert calls == {"f": 4 * (len(traj.times) - 1), "h": len(traj.times)}
        calls.update(f=0, h=0)
        u = signal_to_control(sig, 1e-2, span=(0.0, 4.0), n_modes=N)
        traj = simulate_relaxed(system, u, 0.0, x0, 4.0, cfg_fast)
        assert calls == {"f": 4 * (len(traj.times) - 1), "h": 0}
        calls.update(f=0, h=0)
        values = np.full((8, N), 1.0 / N)
        values[::2] = np.eye(N)[0]
        traj = simulate_relaxed(system, RelaxedControl(t0=0.0, step=0.5, values=values),
                                0.0, x0, 4.0, cfg_fast)
        # a step is taken in the cell its start node carries
        active = (traj.controls > 0.0).sum(axis=1)
        assert calls == {"f": 4 * int(active[:-1].sum()), "h": 0}


# --- relaxed -----------------------------------------------------------------


def test_vertex_control_reproduces_switched(motivating, cfg_fine):
    sig = SwitchingSignal.constant(1, 0.0, 3.0)
    x0 = np.array([1.0, 0.0])
    a = simulate(motivating.system, sig, 0.0, x0, 3.0, cfg_fine)
    u = signal_to_control(sig, 1e-3, n_modes=2)
    b = simulate_relaxed(motivating.system, u, 0.0, x0, 3.0, cfg_fine)
    assert len(a.times) == len(b.times)
    assert np.max(np.abs(a.states - b.states)) <= 1e-10


def test_relaxed_mixture_derivative(motivating, cfg_fine):
    # reduced dynamics under u = (.5, .5) from (0, 1): dx1/dt(0) = u1 + a*u2 = 1
    from swstab import RelaxedControl
    from swstab.limiting import simulate_reduced
    u = RelaxedControl(t0=0.0, step=0.5, values=np.tile([0.5, 0.5], (4, 1)))
    traj = simulate_reduced(motivating.reduced, u, 0.0, np.array([0.0, 1.0]), 2.0, cfg_fine)
    h = traj.times[1] - traj.times[0]
    slope = (traj.states[1, 0] - traj.states[0, 0]) / h
    assert abs(slope - 1.0) < 1e-6


def test_integrators_never_evaluate_the_output_map(all_entries, example4, cfg_fast):
    # outputs are computed where they are read, never by an integrator: with
    # an h that raises, every integrator and the envelope still run
    from dataclasses import replace
    from swstab import RelaxedControl, build_reduced, estimate_envelope, make_driver
    from swstab.limiting import simulate_reduced

    def raising(t, x, i):
        raise AssertionError("an integrator evaluated h")

    for entry in all_entries:
        system = replace(entry.system, h=raising)
        n, N = system.n, system.N
        x0 = np.full(n, 0.5)
        sig = gen_arbitrary(N, (0.0, 3.0), 0.4, 5)
        u = RelaxedControl(t0=0.0, step=0.5, values=np.full((6, N), 1.0 / N))
        for traj in (simulate(system, sig, 0.0, x0, 3.0, cfg_fast),
                     simulate_relaxed(system, u, 0.0, x0, 3.0, cfg_fast),
                     simulate_reduced(build_reduced(system, entry.covering), u, 0.0, x0, 3.0,
                                      cfg_fast)):
            assert traj.outputs is None
        driver = make_driver(replace(entry, system=system), cfg_fast)
        env = estimate_envelope(n, driver, radii=[0.5], horizon=3.0, trials=2, tau_count=3,
                                master_seed=1)
        assert np.all(np.isfinite(env.beta_table))
    system = replace(example4.system, h=raising)
    traj, _ = simulate_with_covering(system, example4.covering, example4.policy, 0.0,
                                     np.array([1.0, -0.5]), 3.0, cfg_fast)
    assert traj.outputs is None


def test_control_grid_refinement_first_order(motivating):
    # control discretization error contracts (at worst stays within 4x) per halving
    sig = gen_arbitrary(2, (0.0, 5.0), 0.7, 5, granularity=1e-4)
    x0 = np.array([1.0, 0.3])
    cfg = IntegratorConfig(step=2e-3)
    finals = []
    for du in (0.5, 0.25, 0.125, 0.0625):
        u = signal_to_control(sig, du, span=(0.0, 5.0), n_modes=2)
        finals.append(simulate_relaxed(motivating.system, u, 0.0, x0, 5.0, cfg).states[-1])
    d1 = np.linalg.norm(finals[1] - finals[0])
    d2 = np.linalg.norm(finals[2] - finals[1])
    d3 = np.linalg.norm(finals[3] - finals[2])
    assert d2 <= 4.0 * d1 + 1e-12
    assert d3 <= 4.0 * d2 + 1e-12


# --- errors ------------------------------------------------------------------


def test_blow_up_reported_with_partial():
    unstable = SwitchedSystem(n=1, N=1, f=lambda t, x, i: [3.0 * v for v in x],
                              h=lambda t, x, i: np.array([0.0]))
    sig = SwitchingSignal.constant(1, 0.0, 20.0)
    with pytest.raises(BlowUpError) as exc:
        simulate(unstable, sig, 0.0, np.array([1.0]), 20.0, IntegratorConfig(step=1e-2))
    assert exc.value.time <= 20.0
    assert exc.value.trajectory is not None
    assert len(exc.value.trajectory.times) > 1


def test_nan_rhs_raises():
    from swstab import DynamicsError
    bad = SwitchedSystem(n=1, N=1, f=lambda t, x, i: np.array([np.nan]),
                         h=lambda t, x, i: np.array([0.0]))
    sig = SwitchingSignal.constant(1, 0.0, 1.0)
    with pytest.raises(DynamicsError):
        simulate(bad, sig, 0.0, np.array([1.0]), 1.0, IntegratorConfig(step=1e-2))


# --- closed-loop covering runs ------------------------------------------------


def test_covering_run_invariance(example4, cfg_fast):
    traj, sigma = simulate_with_covering(example4.system, example4.covering,
                                         example4.policy, 0.0,
                                         np.array([1.0, 0.5]), 50.0, cfg_fast)
    rep = validate_covering_invariance(traj, sigma, example4.covering)
    assert rep.ok, rep.first_violation


def test_covering_run_invariance_simple_policy(example4, cfg_fast):
    # the plain "mode 3 iff x1 < 0, else mode 1" policy also stays invariant
    # on [0, 50], including through forced-sliding stretches
    def policy(t, x, active):
        if x[0] < 0.0 and 3 in active:
            return 3
        return 1 if 1 in active else active[0]

    for x0 in (np.array([1.0, 0.5]), np.array([-0.8, 1.2]), np.array([0.01, 1.0])):
        traj, sigma = simulate_with_covering(example4.system, example4.covering,
                                             policy, 0.0, x0, 50.0, cfg_fast)
        rep = validate_covering_invariance(traj, sigma, example4.covering)
        assert rep.ok, (x0, rep.first_violation)


def test_covering_run_refuses_a_span_of_2_63_steps(example4):
    # the open-loop classes refuse a span of 2**63 granules; a closed loop
    # refuses one of 2**63 steps, or a NaN end, before its first step
    from swstab import IntegratorConfig, ParameterError, make_driver

    drive = make_driver(example4, IntegratorConfig(step=1e-2))
    for tf in (1e300, 2.0**63 * 1e-2, np.nan):
        with pytest.raises(ParameterError, match=r"^span \[0\.0, .+\] must be under 2\*\*63 "
                                                 r"steps of 0\.01$"):
            drive(0.0, np.array([1.0, 0.5]), tf, None)


def test_covering_interior_no_events(example4, cfg_fast):
    # while the state stays interior the mode is never re-decided; the first
    # switch happens only at the boundary arrival
    traj, sigma = simulate_with_covering(example4.system, example4.covering,
                                         example4.policy, 0.0,
                                         np.array([2.0, 0.0]), 0.5, cfg_fast)
    assert sigma.n_switches == 0
    assert np.all(traj.states[:, 0] > 0)
    traj2, sigma2 = simulate_with_covering(example4.system, example4.covering,
                                           example4.policy, 0.0,
                                           np.array([2.0, 0.0]), 1.0, cfg_fast)
    first_switch = sigma2.breakpoints[1]
    before = traj2.states[traj2.times < first_switch]
    assert np.all(before[:, 0] > 0)
    at = traj2.states[np.argmin(np.abs(traj2.times - first_switch))]
    assert abs(at[0]) <= 1e-8  # the event lands on the boundary


def test_covering_boundary_start_accepts_any_piece(example4, cfg_fast):
    traj, sigma = simulate_with_covering(example4.system, example4.covering,
                                         example4.policy, 0.0,
                                         np.array([0.0, 1.0]), 0.5, cfg_fast)
    assert sigma.modes[0] in (1, 2, 3)
    rep = validate_covering_invariance(traj, sigma, example4.covering)
    assert rep.ok


def test_policy_error_surfaces(example4, cfg_fast):
    with pytest.raises(PolicyError):
        simulate_with_covering(example4.system, example4.covering,
                               lambda t, x, active: 3, 0.0,
                               np.array([2.0, 0.0]), 1.0, cfg_fast)


def _sticky():
    """A policy that keeps its mode while that mode is active."""
    held = []

    def policy(t, x, active):
        if not held or held[-1] not in active:
            held.append(active[0])
        return held[-1]

    return policy


@pytest.mark.parametrize("inline", [False, True])
def test_closed_loop_leaves_a_piece_by_the_membership_rule(inline):
    # the exit test, the bisection and the active set read one rule, margin >=
    # -BOUNDARY_TOL: a sticky policy switches where the state crosses x0 = 0, not
    # a grace step later (at 0.51) as when the bisection reads margin >= 0.0
    from swstab import ModeSource
    from swstab.core import BOUNDARY_TOL

    f, margin = ((ModeSource(1, ("1.0,",)).f, ModeSource(1, ("-x0", "x0"), form="margin").f)
                 if inline else (lambda t, x, i: (1.0,), lambda x, i: -x[0] if i == 1 else x[0]))
    system = SwitchedSystem(n=1, N=2, f=f, h=lambda t, x, i: (0.0,))
    covering = Covering(margin=margin, N=2)
    cfg = IntegratorConfig(step=1e-2)
    traj, sigma = simulate_with_covering(system, covering, _sticky(), 0.0, np.array([-0.5]),
                                         1.0, cfg)
    assert sigma.modes.tolist() == [1, 2]
    assert 0.5 < sigma.breakpoints[1] <= 0.5 + BOUNDARY_TOL + cfg.event_bisection_tol
    assert validate_covering_invariance(traj, sigma, covering).ok


def test_closed_loop_leaves_a_piece_whose_margin_turns_nan():
    # a NaN margin counts as outside: the run leaves piece 1 where its margin
    # turns NaN (x0 >= 0.3), instead of marching on in mode 1 to tf
    from swstab.core import BOUNDARY_TOL

    def margin(x, i):
        if i == 2:
            return x[0] - 0.3
        return 0.3 - x[0] if x[0] < 0.3 else math.nan

    system = SwitchedSystem(n=1, N=2, f=lambda t, x, i: (1.0,), h=lambda t, x, i: (0.0,))
    covering = Covering(margin=margin, N=2)
    cfg = IntegratorConfig(step=1e-2)
    traj, sigma = simulate_with_covering(system, covering, _sticky(), 0.0, np.array([0.0]),
                                         1.0, cfg)
    assert sigma.modes.tolist() == [1, 2]
    assert abs(sigma.breakpoints[1] - 0.3) <= BOUNDARY_TOL + cfg.event_bisection_tol
    assert validate_covering_invariance(traj, sigma, covering).ok


def test_chattering_guard():
    # two coverings that exclude each other's mode force a switch per step
    sys = SwitchedSystem(n=1, N=2,
                         f=lambda t, x, i: np.array([1.0 if i == 1 else -1.0]),
                         h=lambda t, x, i: np.array([0.0]))
    chi = Covering(margin=lambda x, i: -x[0] if i == 1 else x[0], N=2)
    cfg = IntegratorConfig(step=1e-2, max_switches=10)
    with pytest.raises(ChatteringError):
        simulate_with_covering(sys, chi, lambda t, x, active: active[0],
                               0.0, np.array([0.0]), 10.0, cfg)


# --- float-list kernel against the ndarray kernel -----------------------------


def _on_both_kernels(monkeypatch, run):
    """run() on the template RK4 kernels, then on the ndarray ones of oracles.py.

    Every integrator fetches its kernels through ``_rk4_kernels``, the inlined
    ones of a ``ModeSource`` field too; replacing it in integrate and in
    limiting, which imports it by name, swaps every RK4 call for one that calls
    the field.  The ndarray march derives each node's time step by step: an
    open-loop trajectory (or a blow-up's partial one) that the ndarray run
    returns must carry those times after t0, bit for bit."""
    from swstab import integrate, limiting
    from oracles import (MARCHED_TIMES, closed_loop_advance_reference,
                         integrate_interval_reference, rk4_step_reference)

    got = run()
    with monkeypatch.context() as m:
        for module in (integrate, limiting):
            m.setattr(module, "_rk4_kernels", lambda n, f, arg, margin=None: (
                rk4_step_reference, integrate_interval_reference, closed_loop_advance_reference))
        MARCHED_TIMES.clear()
        want = run()
    traj = next((v for v in (want if isinstance(want, tuple) else (want,))
                 if isinstance(v, Trajectory)), None)
    if traj is not None and MARCHED_TIMES:  # a closed loop marches nothing
        assert traj.times[1:].tobytes() == np.array(MARCHED_TIMES, dtype=float).tobytes()
    return got, want


def _assert_same_bits(a, b):
    for name in ("times", "states", "modes", "controls", "outputs"):
        u, v = getattr(a, name), getattr(b, name)
        assert (u is None) == (v is None), name
        if u is not None:
            assert u.dtype == v.dtype and u.shape == v.shape, name
            assert u.tobytes() == v.tobytes(), name


def _flipped(system):
    f = system.f
    return SwitchedSystem(n=system.n, N=system.N, p=system.p, h=system.h,
                          f=lambda t, x, i: [-v for v in f(t, x, i)])


def _assert_outputs_match_node_loop(system, traj):
    from oracles import switched_outputs_reference
    from swstab.integrate import _switched_outputs

    assert traj.outputs is None
    if traj.modes is not None:
        assert _switched_outputs(system, traj).tobytes() == \
            switched_outputs_reference(system, traj).tobytes()


def test_kernel_matches_ndarray_kernel_open_loop(all_entries, monkeypatch):
    from swstab import RelaxedControl
    from swstab.limiting import simulate_reduced

    rng = np.random.default_rng(61)
    for entry in all_entries:
        system, n, N = entry.system, entry.system.n, entry.system.N
        for step in (1e-2, 3e-2):
            cfg = IntegratorConfig(step=step)
            x0 = rng.uniform(-1.5, 1.5, n)
            sig = gen_arbitrary(N, (0.0, 6.0), 0.4, int(rng.integers(0, 2**62)),
                                granularity=1e-2)
            vertex = signal_to_control(sig, 1e-2, span=(0.0, 6.0), n_modes=N)
            values = rng.dirichlet(np.ones(N), size=24)
            values[::3] = np.eye(N)[rng.integers(0, N, size=8)]
            mixed = RelaxedControl(t0=0.0, step=0.25, values=values)
            runs = [lambda: simulate(system, sig, 0.0, x0, 6.0, cfg),
                    lambda: simulate_relaxed(system, vertex, 0.0, x0, 6.0, cfg),
                    lambda: simulate_relaxed(system, mixed, 0.0, x0, 6.0, cfg)]
            if entry.signal_class.generator is not None:
                cls = entry.signal_class.generator((1.5, 13.5), int(rng.integers(0, 2**62)))
                runs.append(lambda: simulate(system, cls, 1.5, x0, 13.5, cfg))
            for run in runs:
                got, want = _on_both_kernels(monkeypatch, run)
                _assert_same_bits(got, want)
                _assert_outputs_match_node_loop(system, got)
            for u in (mixed, vertex):
                _assert_same_bits(*_on_both_kernels(monkeypatch, lambda: simulate_reduced(
                    entry.reduced, u, 0.0, x0, 6.0, cfg)))


def test_kernel_matches_ndarray_kernel_closed_loop(example4, monkeypatch):
    rng = np.random.default_rng(62)
    for step in (1e-2, 2e-2):
        cfg = IntegratorConfig(step=step)
        for _ in range(3):
            x0, t0 = rng.uniform(-2.0, 2.0, 2), float(rng.uniform(0.0, 10.0))
            (a, sa), (b, sb) = _on_both_kernels(monkeypatch, lambda: simulate_with_covering(
                example4.system, example4.covering, example4.policy, t0, x0, t0 + 20.0, cfg))
            _assert_same_bits(a, b)
            _assert_outputs_match_node_loop(example4.system, a)
            assert sa.breakpoints.tobytes() == sb.breakpoints.tobytes()
            assert sa.modes.tobytes() == sb.modes.tobytes()


@given(angle=st.floats(0.0, 2.0 * math.pi), offset=st.floats(-1.5, 1.5),
       x0=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
       t0=st.floats(0.0, 10.0), step=st.sampled_from([1e-2, 4e-2]),
       choice_seed=st.integers(0, 2**32 - 1), source=st.booleans())
@settings(max_examples=60, deadline=None)
def test_closed_loop_random_half_planes_and_choices(example4, angle, offset, x0, t0, step,
                                                    choice_seed, source):
    # example4's modes 1 and 2 on the half-plane {n . x >= c}, mode 3 on the
    # other, and a policy drawing any active mode: the run ends, labels every
    # node with a mode whose piece holds it, and equals the ndarray kernels' run.
    # The margin is a function, which advance calls, or a ModeSource margin,
    # whose text advance evaluates inline
    from swstab import ModeSource
    from swstab.integrate import _rk4_kernels

    nx, ny = math.cos(angle), math.sin(angle)

    def margin(x, i):
        d = nx * x[0] + ny * x[1] - offset
        return d if i in (1, 2) else -d

    if source:
        d = "nx * x0 + ny * x1 - offset"
        margin = ModeSource(2, (d, d, f"-({d})"), {"nx": nx, "ny": ny, "offset": offset},
                            form="margin").f
        f = example4.system.f
        assert _rk4_kernels(2, f, 3, margin)[2] is not f.mode_source.kernels(3)[2]
    half = Covering(margin=margin, N=3)
    cfg = IntegratorConfig(step=step)

    def run():
        draw = random.Random(choice_seed)
        return simulate_with_covering(example4.system, half,
                                      lambda t, x, active: draw.choice(active),
                                      t0, np.array(x0), t0 + 3.0, cfg)

    with pytest.MonkeyPatch.context() as mp:
        (a, sa), (b, sb) = _on_both_kernels(mp, run)
    _assert_same_bits(a, b)
    assert sa.breakpoints.tobytes() == sb.breakpoints.tobytes()
    assert sa.modes.tobytes() == sb.modes.tobytes()
    assert abs(a.times[-1] - (t0 + 3.0)) <= 1e-12 * (t0 + 3.0)  # the run's t_stop
    assert validate_covering_invariance(a, sa, half).ok


def test_inline_margin_stays_apart_from_the_field(example4, monkeypatch):
    # a margin text that shares a name other than the state's with the field's
    # text (example4's b or sin), or holds a ``result``, is not pasted beside the
    # field: advance calls it.  Pasted or not, every run equals the ndarray
    # kernels' run, which calls the margin
    from swstab import ModeSource
    from swstab.integrate import _rk4_kernels

    f = example4.system.f
    b = "b = 0.6 * x0 + 0.8 * x1"
    line = ("0.6 * x0 + 0.8 * x1 - 0.1",) * 2 + ("0.1 - 0.6 * x0 - 0.8 * x1",)
    margins = {  # a margin: the modes whose advance calls it
        ModeSource(2, (f"{b}\nb - 0.1", f"{b}\nb - 0.1", f"{b}\n0.1 - b"),
                   form="margin").f: {1, 2},  # mode 3's text binds no b
        ModeSource(2, ("sin(x0) - 0.1",) * 2 + ("0.1 - sin(x0)",), {"sin": math.tan},
                   form="margin").f: {1, 2, 3},
        ModeSource(2, line, result=float, form="margin").f: {1, 2, 3},
        ModeSource(2, ("sin(x0) - 0.1",) * 2 + ("0.1 - sin(x0)",), {"sin": math.sin},
                   form="margin").f: {1, 2, 3},
        ModeSource(2, ("tan(x0) - 0.1",) * 2 + ("0.1 - tan(x0)",), {"tan": math.tan},
                   form="margin").f: set(),
        ModeSource(2, ("c = 0.6 * x0\nc + 0.8 * x1 - 0.1",) * 2 + line[2:],
                   form="margin").f: set()}
    for margin, calls in margins.items():
        for i in (1, 2, 3):
            kernels = _rk4_kernels(2, f, i, margin)
            assert (kernels is f.mode_source.kernels(i)) == (i in calls)
        covering = Covering(margin=margin, N=3)
        (a, sa), (c, sc) = _on_both_kernels(monkeypatch, lambda: simulate_with_covering(
            example4.system, covering, lambda t, x, active: active[-1], 0.3,
            np.array([0.9, -0.7]), 12.3, IntegratorConfig(step=2e-2)))
        assert sa.n_switches > 2
        _assert_same_bits(a, c)
        assert sa.breakpoints.tobytes() == sc.breakpoints.tobytes()


@pytest.mark.parametrize("text, per_step", [
    ("g = sin(t)\nc = g * 0.5\nx1 + c * x0, -x0", 3),  # time-only, and one reading it
    ("w = sin(t) * x0\nx1 + 0.5 * w, -x0", 4),          # reads x
    ("v = 0.5 * x0\nw = sin(t) * v\nx1 + w, -x0", 4),  # reads x through v
    ("g = sin(t)\ng = g * 0.5\nx1 + g * x0, -x0", 4),  # rebound
], ids=["time-only", "reads-x", "reads-x-through", "rebound"])
def test_time_only_bindings_once_per_stage_time(text, per_step, monkeypatch):
    # a time-only binding runs once per stage time: march and step evaluate it
    # at tn, tm (stages q and r) and tn + h, advance at tm and tn + h, which is
    # the next step's tn, plus once on entry.  A binding that reads x, or a
    # rebound name, stays in all four stages.  Every kernel equals the ndarray one
    from swstab import ModeSource
    from swstab.integrate import _rk4_kernels

    times = []

    def sin(t):
        times.append(t)
        return math.sin(t)

    src = ModeSource(2, (text, "x1 - 0.1 * sin(t), -x0"), {"sin": sin})
    margin = ModeSource(2, ("x0 + 0.2", "-0.2 - x0"), form="margin").f
    step, march, _ = src.kernels(1)
    advance = _rk4_kernels(2, src.f, 1, margin)[2]
    times.clear()
    march(src.f, 0.5, [0.6, -0.4], 1.7, 40, 1e9, [], 1)
    assert len(times) == 40 * per_step
    times.clear()
    step(src.f, 0.5, [0.6, -0.4], 0.03, 1)
    assert len(times) == per_step
    nodes = []
    times.clear()
    tf = 1.71  # the last step shortens
    assert advance(src.f, 0.5, [0.6, -0.4], tf - 1e-12, tf, 0.03, 1e9, margin, 1, nodes, [],
                   1)[2] is None
    assert len(nodes) == 41 and len(times) == (2 * 41 + 1 if per_step == 3 else 4 * 41)
    system = SwitchedSystem(n=2, N=2, f=src.f, h=lambda t, x, i: (x[0],))
    sig = gen_arbitrary(2, (0.0, 4.0), 0.3, 9, granularity=1e-2)
    cfg = IntegratorConfig(step=3e-2)
    _assert_same_bits(*_on_both_kernels(monkeypatch, lambda: simulate(
        system, sig, 0.0, np.array([0.6, -0.4]), 4.0, cfg)))
    (a, sa), (b, sb) = _on_both_kernels(monkeypatch, lambda: simulate_with_covering(
        system, Covering(margin=margin, N=2), lambda t, x, active: active[0], 0.1,
        np.array([0.6, -0.4]), 12.0, cfg))
    assert sa.n_switches > 2 and sa.breakpoints.tobytes() == sb.breakpoints.tobytes()
    _assert_same_bits(a, b)


def test_kernel_matches_ndarray_kernel_blow_up_partial(all_entries, example4, monkeypatch):
    cfg = IntegratorConfig(step=1e-2, divergence_bound=2.5)

    def blow_up(run):
        with pytest.raises(BlowUpError) as exc:
            run()
        err = exc.value
        return err.time, str(err), err.trajectory

    for entry in all_entries:
        system, n, N = _flipped(entry.system), entry.system.n, entry.system.N
        x0 = 1.9 * np.ones(n) / np.sqrt(n)
        sig = gen_arbitrary(N, (0.0, 10.0), 0.5, 3, granularity=1e-2)
        u = signal_to_control(sig, 1e-2, span=(0.0, 10.0), n_modes=N)
        for run in (lambda: simulate(system, sig, 0.0, x0, 10.0, cfg),
                    lambda: simulate_relaxed(system, u, 0.0, x0, 10.0, cfg)):
            (ta, ma, a), (tb, mb, b) = _on_both_kernels(monkeypatch, lambda: blow_up(run))
            assert (ta, ma) == (tb, mb) and len(a.times) > 1
            _assert_same_bits(a, b)
    flipped4 = _flipped(example4.system)
    (ta, ma, a), (tb, mb, b) = _on_both_kernels(monkeypatch, lambda: blow_up(
        lambda: simulate_with_covering(flipped4, example4.covering, example4.policy, 0.0,
                                       np.array([1.5, 1.0]), 30.0,
                                       IntegratorConfig(step=1e-2, divergence_bound=3.0))))
    assert (ta, ma) == (tb, mb) and len(a.times) > 1
    _assert_same_bits(a, b)


def test_kernel_matches_ndarray_kernel_falsifier(all_entries, monkeypatch):
    from dataclasses import replace

    from swstab import wzsd_falsify

    def search(rls, horizon, seed):
        # Hhat sees every rolled-out cell end: verdicts alone would not show a
        # rollout that drifted in the last bits
        seen, Hhat = [], rls.Hhat

        def recorded(t, x):
            seen.append((t, np.asarray(x, dtype=float).tobytes()))
            return Hhat(t, x)

        v = wzsd_falsify(replace(rls, Hhat=recorded), eps=0.5, horizon=horizon, budget=400,
                         seed=seed)
        return v.verdict, v.budget_used, v.notes, seen

    for entry in all_entries:
        horizon = 12.0 if entry.name == "inverter" else 5.0
        for seed in (0, 3, 11):
            a, b = _on_both_kernels(monkeypatch, lambda: search(entry.reduced, horizon, seed))
            assert len(a[3]) > 400 and a == b
    # an unconstrained search stops at a validated counterexample
    free = replace(all_entries[0].reduced, constraints=())
    a, b = _on_both_kernels(monkeypatch, lambda: wzsd_falsify(free, eps=0.5, horizon=5.0,
                                                              budget=20, seed=3))
    assert a.verdict == "counterexample"
    _assert_same_bits(a.counterexample.trajectory, b.counterexample.trajectory)


def test_every_kernel_calls_the_field_with_one_argument(all_entries, example4, monkeypatch):
    # on the calling path step, march and advance call their field as
    # f(t, x, arg): three positional arguments, a float time, the state as a
    # list of n floats and the very argument the field's producer paired with
    # it.  The kernels inlined for a registry mode call no field at all.
    import inspect

    from swstab import RelaxedControl, integrate, limiting, wzsd_falsify
    from swstab.limiting import simulate_reduced

    real = integrate._rk4_kernels
    calls = []  # (kernel name, paired argument, positional args, keyword args)
    inline = []  # non-empty: hand out the kernels the integrators would get

    def recording(kernel, n):
        signature = inspect.signature(kernel)

        def run(f, *rest, **kw):
            bound = signature.bind(f, *rest, **kw)
            bound.apply_defaults()
            paired = bound.arguments["arg"]

            def field(*a, **k):
                calls.append((kernel.__name__, n, paired, a, k))
                return f(*a, **k)

            return kernel(field, *rest, **kw)

        return run

    monkeypatch.setattr(integrate, "_rk4_kernels", lambda n, f, arg, margin=None: tuple(
        recording(k, n) for k in (real(n, f, arg, margin) if inline else real(n, None, None))))
    monkeypatch.setattr(limiting, "_rk4_kernels", integrate._rk4_kernels)

    def paired_args(run, kernels):
        calls.clear()
        run()
        assert calls and {c[0] for c in calls} == kernels
        for name, n, paired, a, k in calls:
            assert not k and len(a) == 3 and a[2] is paired, (name, a, k)
            assert type(a[0]) is float and type(a[1]) is list and len(a[1]) == n, (name, a)
            assert all(type(v) is float for v in a[1]), (name, a)
        return [c[2] for c in calls]

    cfg = IntegratorConfig(step=1e-2)
    rng = np.random.default_rng(63)
    for entry in all_entries:
        system, n, N = entry.system, entry.system.n, entry.system.N
        x0 = rng.uniform(-1.5, 1.5, n)
        sig = gen_arbitrary(N, (0.0, 3.0), 0.4, int(rng.integers(0, 2**62)), granularity=1e-2)
        vertex = signal_to_control(sig, 1e-2, span=(0.0, 3.0), n_modes=N)
        mixed = RelaxedControl(t0=0.0, step=0.25, values=rng.dirichlet(np.ones(N), size=12))
        modes = set(range(1, N + 1))
        assert set(paired_args(lambda: simulate(system, sig, 0.0, x0, 3.0, cfg),
                               {"march"})) <= modes
        assert set(paired_args(lambda: simulate_relaxed(system, vertex, 0.0, x0, 3.0, cfg),
                               {"march"})) <= modes
        assert set(paired_args(lambda: simulate_relaxed(system, mixed, 0.0, x0, 3.0, cfg),
                               {"march"})) == {None}
        # a vertex cell of the reduced system calls the limiting mode field, paired
        # with its mode; any other cell pairs None, as a mixed relaxed cell does
        assert set(paired_args(lambda: simulate_reduced(entry.reduced, vertex, 0.0, x0, 3.0,
                                                        cfg), {"march"})) <= modes
        assert set(paired_args(lambda: simulate_reduced(entry.reduced, mixed, 0.0, x0, 3.0,
                                                        cfg), {"march"})) == {None}
        horizon = 12.0 if entry.name == "inverter" else 5.0
        assert all(p is None or p in modes for p in paired_args(
            lambda: wzsd_falsify(entry.reduced, eps=0.5, horizon=horizon, budget=20, seed=5),
            {"march"}))
        # inlined: switched runs and vertex cells call no field, mixed cells do
        inline.append(True)
        for run in (lambda: simulate(system, sig, 0.0, x0, 3.0, cfg),
                    lambda: simulate_relaxed(system, vertex, 0.0, x0, 3.0, cfg),
                    lambda: simulate_reduced(entry.reduced, vertex, 0.0, x0, 3.0, cfg)):
            calls.clear()
            run()
            assert not calls, entry.name
        assert paired_args(lambda: simulate_relaxed(system, mixed, 0.0, x0, 3.0, cfg),
                           {"march"})
        inline.clear()
    # the closed loop's advance, and the step of its event bisection
    closed_loop = lambda: simulate_with_covering(  # noqa: E731
        example4.system, example4.covering, example4.policy, 0.5, np.array([0.8, -1.1]),
        20.5, cfg)
    assert set(paired_args(closed_loop, {"advance", "step"})) <= {1, 2, 3}
    inline.append(True)
    calls.clear()
    assert closed_loop()[1].n_switches > 0 and not calls


def _linear_system(mats):
    """Switched linear system with mode matrices ``mats``, declared as mode source:
    switched runs and closed loops take the inlined kernels, mixed cells call f."""
    from swstab import ModeSource

    n = len(mats[0])
    modes = [", ".join(" + ".join(f"{a!r} * x{j}" for j, a in enumerate(row)) for row in m)
             for m in mats]
    return SwitchedSystem(n=n, N=len(mats), f=ModeSource(n, modes).f,
                          h=lambda t, x, i: (x[0] * x[0],))


@pytest.mark.parametrize("mats", [
    [[[-0.4]], [[0.3]]],
    [[[-0.2, 1.0, 0.0], [-1.0, -0.1, 0.5], [0.0, -0.5, -0.3]],
     [[0.1, 0.0, 2.0], [0.0, -0.6, 0.0], [-2.0, 0.0, 0.1]]],
], ids=["n1", "n3"])
def test_kernel_matches_ndarray_kernel_other_dimensions(mats, monkeypatch):
    # the registry has n = 2 and n = 4 only; n = 1 unpacks a trailing-comma tuple
    from swstab import RelaxedControl

    system = _linear_system(mats)
    n, rng = system.n, np.random.default_rng(63)
    cfg = IntegratorConfig(step=3e-2)
    x0 = rng.uniform(-1.5, 1.5, n)
    sig = gen_arbitrary(2, (0.0, 8.0), 0.4, 5, granularity=1e-2)
    mixed = RelaxedControl(t0=0.0, step=0.25, values=rng.dirichlet(np.ones(2), size=32))
    half = Covering(margin=lambda x, i: x[0] - 0.6 if i == 1 else 0.6 - x[0], N=2)
    for run in (lambda: simulate(system, sig, 0.0, x0, 8.0, cfg),
                lambda: simulate_relaxed(system, mixed, 0.0, x0, 8.0, cfg)):
        got, want = _on_both_kernels(monkeypatch, run)
        assert len(got.times) > 200
        _assert_same_bits(got, want)
    (a, sa), (b, sb) = _on_both_kernels(monkeypatch, lambda: simulate_with_covering(
        system, half, lambda t, x, active: active[0], 0.0, np.ones(n), 8.0, cfg))
    assert sa.n_switches > 0
    _assert_same_bits(a, b)
    assert sa.breakpoints.tobytes() == sb.breakpoints.tobytes()


def test_nan_state_raises_through_inline_check(monkeypatch):
    # the field turns NaN after t = 0.5; the march's sum of squares must stop
    # at the first NaN node, where the ndarray kernel's full check stops
    from swstab import DynamicsError, RelaxedControl

    system = SwitchedSystem(n=2, N=2, h=lambda t, x, i: (0.0,),
                            f=lambda t, x, i: (x[1], np.nan if t > 0.5 else -x[0] / i))
    cfg = IntegratorConfig(step=1e-2)
    u = RelaxedControl(t0=0.0, step=0.25, values=np.array([[1.0, 0.0], [0.5, 0.5]] * 2))
    for run in (lambda: simulate(system, SwitchingSignal.constant(2, 0.0, 1.0), 0.0,
                                 np.array([1.0, 0.0]), 1.0, cfg),
                lambda: simulate_relaxed(system, u, 0.0, np.array([1.0, 0.0]), 1.0, cfg)):
        def message():
            with pytest.raises(DynamicsError) as exc:
                run()
            return str(exc.value)

        got, want = _on_both_kernels(monkeypatch, message)
        assert got == want and got.startswith("NaN state at t=0.51")


# --- node times, modes and cells from the segment table ------------------------


def test_node_table_equals_the_per_step_formula():
    # the integrators derive node times, modes and cells from their segment
    # tables in numpy; the oracles take the march's old per-step formula and
    # scan the control cell by cell
    from oracles import relaxed_nodes_reference, switched_nodes_reference
    from swstab import RelaxedControl

    system = _linear_system([[[-0.4, 1.0], [-1.0, -0.2]], [[0.1, 0.5], [-0.5, 0.1]],
                             [[-1.0, 0.0], [0.3, -1.0]]])
    x0 = np.array([0.7, -0.4])
    # a segment of 4e-4, shorter than one step, and a breakpoint at 1.0
    sig = SwitchingSignal(breakpoints=np.array([0.0, 0.3, 0.3004, 1.0]),
                          modes=np.array([1, 2, 3, 1]), domain_start=0.0, domain_end=2.0)
    for t0, tf, step in ((0.0, 1.7, 1e-2), (0.123, 1.0, 1e-2), (0.0, 1.0, 3e-2),
                         (0.3001, 2.0, 7e-2), (0.5, 0.5, 1e-2)):
        traj = simulate(system, sig, t0, x0, tf, IntegratorConfig(step=step))
        times, modes = switched_nodes_reference(sig, t0, tf, step)
        assert traj.times.tobytes() == times.tobytes(), (t0, tf, step)
        assert traj.modes.tobytes() == modes.tobytes(), (t0, tf, step)
        if tf == 1.0:  # tf takes the mode of its breakpoint, not the last segment's
            assert traj.modes[-2:].tolist() == [3, 1]
    # runs of equal cells; t0 and tf off the grid; 0.25 / 0.03 gives 9 steps a cell
    e1, e2, mix = [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.2, 0.3, 0.5]
    u = RelaxedControl(t0=0.0, step=0.25,
                       values=np.array([e1, e1, mix, mix, e2, e2, e2, mix, e1, e2, e2, e1]))
    # t0 = 25602 * 0.01 lies on a cell edge, but cell_of puts it in cell 25601 (its
    # quotient by the step rounds below 25602 by more than 1e-12): a run of no steps
    edge = RelaxedControl(t0=0.0, step=0.01, values=np.array([e1] * 25602 + [e2] * 8))
    assert edge.cell_of(25602 * 0.01) == 25601
    for u, t0, tf, step in ((u, 0.1, 2.6, 3e-2), (u, 0.0, 3.0, 3e-2), (u, 0.5, 1.6, 1e-1),
                            (u, 0.26, 0.27, 1e-2), (u, 1.0, 1.0, 1e-2),
                            (edge, 25602 * 0.01, 256.07, 3e-3)):
        cfg = IntegratorConfig(step=step)
        times, cells = relaxed_nodes_reference(u, t0, tf, step)
        traj = simulate_relaxed(system, u, t0, x0, tf, cfg)
        assert traj.times.tobytes() == times.tobytes(), (t0, tf, step)
        assert traj.controls.tobytes() == u.values[cells].tobytes(), (t0, tf, step)


def test_blow_up_in_the_second_segment_keeps_the_node_times():
    # a blow-up's partial trajectory carries the node times and the drive labels
    # of its recorded nodes: modes for a switched run, controls for a relaxed one
    from oracles import relaxed_nodes_reference, switched_nodes_reference
    from swstab import ModeSource
    from swstab.core import trivial_covering
    from swstab.limiting import build_reduced, simulate_reduced

    system = SwitchedSystem(n=2, N=2, f=ModeSource(2, ("-x0, -x1", "8.0 * x0, 8.0 * x1")).f,
                            h=lambda t, x, i: (x[0],))
    sig = SwitchingSignal(breakpoints=np.array([0.0, 0.5]), modes=np.array([1, 2]),
                          domain_start=0.0, domain_end=5.0)
    u = signal_to_control(sig, 1e-2, span=(0.0, 5.0), n_modes=2)
    cfg = IntegratorConfig(step=1e-2, divergence_bound=10.0)
    x0 = np.array([1.0, 0.0])
    reduced = build_reduced(system, trivial_covering(2))
    sw_times, modes = switched_nodes_reference(sig, 0.0, 5.0, 1e-2)
    rx_times, cells = relaxed_nodes_reference(u, 0.0, 5.0, 1e-2)
    for run, times, drive, labels in (
            (lambda: simulate(system, sig, 0.0, x0, 5.0, cfg), sw_times, "modes", modes),
            (lambda: simulate_relaxed(system, u, 0.0, x0, 5.0, cfg), rx_times, "controls",
             u.values[cells]),
            (lambda: simulate_reduced(reduced, u, 0.0, x0, 5.0, cfg), rx_times, "controls",
             u.values[cells])):
        with pytest.raises(BlowUpError) as exc:
            run()
        partial = exc.value.trajectory
        m = len(partial.times)
        assert times[m - 1] > 0.5  # into the second segment
        assert partial.times.tobytes() == times[:m].tobytes()
        assert exc.value.time == times[m]
        assert getattr(partial, drive).tobytes() == labels[:m].tobytes()


def test_simulate_rejects_a_mode_outside_the_system(motivating, cfg_fast):
    from swstab import ParameterError

    sig = SwitchingSignal(breakpoints=np.array([0.0, 0.5]), modes=np.array([1, 5]),
                          domain_start=0.0, domain_end=1.0)
    with pytest.raises(ParameterError, match=r"^mode 5 outside 1\.\.2$"):
        simulate(motivating.system, sig, 0.0, np.array([1.0, 0.0]), 1.0, cfg_fast)


@pytest.mark.parametrize("n", [1, 3, 4])
def test_stage_times_only_for_modes_that_read_t(n):
    # a t-free mode's march assigns no time, a t-reading one its stage times;
    # either way every store is one component but the start state's unpacking,
    # and both give the calling path's bits
    import ast

    from swstab import ModeSource, RelaxedControl
    from swstab.integrate import _kernel_source, _rk4_kernels

    free = ", ".join(f"-0.5 * x{j} + 0.25 * x{(j + 1) % n}" for j in range(n))
    timed = ", ".join(f"-0.5 * x{j} + 0.75 * sin(t) * x{(j + 1) % n}" for j in range(n))
    src = ModeSource(n, (free, timed), names={"sin": math.sin})
    for mode, reads_t in zip(src.modes, (False, True)):
        tree = ast.parse(_kernel_source(n, mode))
        march = next(d for d in tree.body if d.name == "march")
        stores = [t for a in ast.walk(march) if isinstance(a, ast.Assign) for t in a.targets]
        names = {t.id for t in stores if isinstance(t, ast.Name)}
        assert ({"t", "tm", "tn"} <= names) if reads_t else not ({"t", "tm", "tn"} & names)
        assert [ast.unparse(t) for t in stores if isinstance(t, ast.Tuple)] == [
            "(" + ", ".join(f"a{j}" for j in range(n)) + (",)" if n == 1 else ")")]
    h = lambda t, x, i: (x[0],)  # noqa: E731
    system = SwitchedSystem(n=n, N=2, f=src.f, h=h)
    calling = SwitchedSystem(n=n, N=2, f=lambda t, x, i: src.f(t, x, i), h=h)
    assert _rk4_kernels(n, system.f, 1) is not _rk4_kernels(n, calling.f, 1)
    rng = np.random.default_rng(65)
    x0 = rng.uniform(-1.5, 1.5, n)
    sig = gen_arbitrary(2, (0.0, 4.0), 0.3, 9, granularity=1e-2)
    vertex = signal_to_control(sig, 1e-2, span=(0.0, 4.0), n_modes=2)
    mixed = RelaxedControl(t0=0.0, step=0.25, values=rng.dirichlet(np.ones(2), size=16))
    half = Covering(margin=lambda x, i: x[0] - 0.5 if i == 1 else 0.5 - x[0], N=2)
    cfg = IntegratorConfig(step=3e-2)
    for run in (lambda s: simulate(s, sig, 0.0, x0, 4.0, cfg),
                lambda s: simulate_relaxed(s, vertex, 0.0, x0, 4.0, cfg),
                lambda s: simulate_relaxed(s, mixed, 0.0, x0, 4.0, cfg)):
        _assert_same_bits(run(system), run(calling))
    (a, sa), (b, sb) = (simulate_with_covering(s, half, lambda t, x, active: active[0], 0.0,
                                               np.ones(n), 4.0, cfg) for s in (system, calling))
    assert sa.n_switches > 0 and sa.breakpoints.tobytes() == sb.breakpoints.tobytes()
    _assert_same_bits(a, b)


# --- inlined mode fields against the calling path -------------------------------


def _calling(system):
    """``system`` with f and fhat wrapped in plain lambdas, which the kernels call."""
    f, fhat = system.f, system.fhat or system.f
    return SwitchedSystem(n=system.n, N=system.N, p=system.p, h=system.h,
                          f=lambda t, x, i: f(t, x, i), fhat=lambda t, x, i: fhat(t, x, i))


def _half_plane(N):
    """Odd modes on {x0 >= 0.1}, even modes on the rest."""
    return Covering(margin=lambda x, i: x[0] - 0.1 if i % 2 else 0.1 - x[0], N=N)


def _every_integrator(system, reduced, x0, cfg, seed):
    """(name, run) pairs: a switched run visiting every mode, vertex relaxed and
    reduced runs of the same signal, and a closed loop that bisects its crossings."""
    from swstab.limiting import simulate_reduced

    N = system.N
    sig = gen_arbitrary(N, (0.0, 6.0), 0.3, seed, granularity=1e-2)
    assert set(sig.modes.tolist()) == set(range(1, N + 1))
    u = signal_to_control(sig, 1e-2, span=(0.0, 6.0), n_modes=N)
    return [("simulate", lambda: simulate(system, sig, 0.0, x0, 6.0, cfg)),
            ("relaxed", lambda: simulate_relaxed(system, u, 0.0, x0, 6.0, cfg)),
            ("reduced", lambda: simulate_reduced(reduced, u, 0.0, x0, 6.0, cfg)),
            ("closed loop", lambda: simulate_with_covering(
                system, _half_plane(N),
                lambda t, x, active: active[int(3.0 * t) % len(active)], 0.0, x0, 6.0, cfg))]


def _outcome(run):
    """run()'s trajectory (and signal), or its error's type, message, time and
    partial trajectory."""
    from swstab import SwstabError

    try:
        return run()
    except SwstabError as err:
        return type(err), str(err), getattr(err, "time", None), getattr(err, "trajectory", None)


def _assert_same_outcome(a, b, label):
    if isinstance(a, tuple) and isinstance(a[0], type):  # an error
        assert a[:3] == b[:3], label
        a, b = a[3], b[3]
        if a is None or b is None:
            assert a is b, label
            return
    if isinstance(a, tuple):  # a closed loop's trajectory and signal
        (a, sa), (b, sb) = a, b
        assert sa.breakpoints.tobytes() == sb.breakpoints.tobytes(), label
        assert sa.modes.tobytes() == sb.modes.tobytes(), label
    _assert_same_bits(a, b)


def test_inlined_fields_equal_the_calling_path(all_entries, example4):
    # every registry system and mode through all four integrators, once on the
    # kernels that evaluate the ModeSource text inline and once with f and fhat
    # wrapped in lambdas; a wrapper made with functools.wraps is called too
    import functools
    from dataclasses import replace

    from swstab import wzsd_falsify
    from swstab.integrate import _rk4_kernels
    from swstab.limiting import build_reduced

    rng = np.random.default_rng(64)
    for entry in all_entries:
        system, n = entry.system, entry.system.n
        calling = _calling(system)
        wrapped = functools.wraps(system.f)(lambda t, x, i: system.f(t, x, i))
        assert _rk4_kernels(n, system.f, 1) is not _rk4_kernels(n, calling.f, 1)
        assert _rk4_kernels(n, wrapped, 1) is _rk4_kernels(n, calling.f, 1)
        reduced = build_reduced(calling, entry.covering, entry.reduced.constraints)
        signed_zeros = rng.uniform(-1.5, 1.5, n)
        signed_zeros[::2] = -0.0
        for x0 in (rng.uniform(-1.5, 1.5, n), signed_zeros, np.array([-0.0, 0.0] * (n // 2))):
            for step in (1e-2, 3e-2):
                cfg, seed = IntegratorConfig(step=step), int(rng.integers(0, 2**62))
                pairs = zip(_every_integrator(system, entry.reduced, x0, cfg, seed),
                            _every_integrator(calling, reduced, x0, cfg, seed))
                for (label, run), (_, run_calling) in pairs:
                    _assert_same_outcome(_outcome(run), _outcome(run_calling),
                                         (entry.name, label, step))
        # the falsifier's screen marches vertex cells; Hhat sees every cell end
        horizon = 12.0 if entry.name == "inverter" else 5.0
        searches = []
        for rls in (entry.reduced, reduced):
            seen, Hhat = [], rls.Hhat

            def recorded(t, x, Hhat=Hhat, seen=seen):
                seen.append((t, np.asarray(x, dtype=float).tobytes()))
                return Hhat(t, x)

            v = wzsd_falsify(replace(rls, Hhat=recorded), eps=0.5, horizon=horizon,
                             budget=150, seed=7)
            free = wzsd_falsify(replace(rls, constraints=()), eps=0.5, horizon=horizon,
                                budget=40, seed=3)
            searches.append((v.verdict, v.budget_used, v.notes, seen, free))
        (*a, free_a), (*b, free_b) = searches
        assert len(a[3]) > 150 and a == b, entry.name
        assert free_a.verdict == free_b.verdict and free_a.budget_used == free_b.budget_used
        if free_a.counterexample is not None:
            _assert_same_bits(free_a.counterexample.trajectory,
                              free_b.counterexample.trajectory)
    # example4 under its own covering and policy bisects every crossing
    calling = _calling(example4.system)
    for x0, t0 in (([0.8, -1.1], 0.5), ([-0.5, -0.0], 2.0), ([1.2, 0.0], 7.25)):
        a, b = (simulate_with_covering(s, example4.covering, example4.policy, t0,
                                       np.array(x0), t0 + 20.0, IntegratorConfig(step=2e-2))
                for s in (example4.system, calling))
        assert a[1].n_switches > 0
        _assert_same_outcome(a, b, x0)


@pytest.mark.parametrize("modes, names, error", [
    (("x0 + x1, x1 - x0", "2.0 * x0, x1"), {}, BlowUpError),
    (("x1, nan if t > 0.5 else -x0", "nan if t > 0.5 else -x1, x0"), {"nan": math.nan}, None),
], ids=["blow-up", "nan"])
def test_inlined_fields_fail_as_the_calling_path(modes, names, error):
    # a growing field and one that turns NaN: each integrator stops with the
    # same error at the same time, and a blow-up keeps the same partial run
    from swstab import DynamicsError
    from swstab.integrate import ModeSource
    from swstab.limiting import build_reduced

    f = ModeSource(2, modes, names).f
    system = SwitchedSystem(n=2, N=2, f=f, h=lambda t, x, i: (0.0,))
    calling = _calling(system)
    cfg = IntegratorConfig(step=1e-2, divergence_bound=3.0)
    x0 = np.array([0.3, -0.0])
    pairs = zip(_every_integrator(system, build_reduced(system, _half_plane(2)), x0, cfg, 5),
                _every_integrator(calling, build_reduced(calling, _half_plane(2)), x0, cfg, 5))
    for (label, run), (_, run_calling) in pairs:
        got, want = _outcome(run), _outcome(run_calling)
        assert issubclass(got[0], error or DynamicsError), (label, got)
        if error is None:
            assert got[1].startswith("NaN state at t=0.5"), (label, got[1])
        else:
            assert len(got[3].times) > 1, label
        _assert_same_outcome(got, want, label)


def test_mode_source_rejects_what_the_kernels_cannot_inline():
    from swstab import ParameterError
    from swstab.integrate import ModeSource

    for modes, names in ((("x1, -x[0]",), {}),            # the state is x0, x1
                         (("x1, -x0 * i",), {}),          # no mode index in the text
                         (("h = 2.0\nh * x1, x0",), {}),  # h is the kernels' step
                         (("x1, k * x0",), {"k": 2.0}),   # so is the counter k
                         (("*v,",), {"v": (1.0, 2.0)}),   # each component is stored alone
                         (("tm = 0.5 * x0\nx1, -tm * t",), {}),  # tm is the stage time
                         (("x1, -tm * t",), {"tm": 2.0}),  # a name a stage time would shadow
                         (("x1 +", ), {})):               # not Python
        with pytest.raises(ParameterError):
            ModeSource(2, modes, names)
    f = ModeSource(1, ("c = 2.0 * x0\n-c",), {}).f  # n = 1: one component
    assert f(0.0, [1.5], 1) == (-3.0,)
    # three components for n = 2 make a callable, an output's, but no RK4 kernels
    src = ModeSource(2, ("x0, x1, x0",))
    assert src.f(0.0, [1.0, 2.0], 1) == (1.0, 2.0, 1.0)
    with pytest.raises(ParameterError):
        src.kernels(1)


@pytest.mark.parametrize("text", [
    "g = range = 0.5 * x0\ng * x1, -x0",     # a chained target the march's loop reads
    "(range := x0) * 1.0, x1",                # a walrus target on the last line
    "g = (range := 0.5) * x0\ng * x1, -x0",  # a walrus target inside a binding
    # g is time-only, so the r stage reuses it, but the last line rebinds it in each stage
    "g = t\n-g + x1, (g := x0) * 0.0 - x0",
])
def test_mode_source_checks_every_name_a_text_binds(text):
    from swstab import ParameterError
    from swstab.integrate import ModeSource

    with pytest.raises(ParameterError, match=r"^mode 2: "):
        ModeSource(2, ("x1, -x0", text))


def test_chained_binding_of_free_names_marches_as_called():
    # every target of a chained binding is bound: the second reads as known, and the
    # inline march keeps the bits of the march that calls f
    from swstab.integrate import ModeSource, _calling_kernels

    src = ModeSource(2, ("g = c = 0.5 * x0 + t\ng * x1, -c",))
    x = [0.7, -0.3]
    called = _calling_kernels(2)[1](lambda t, x, i: src.f(t, x, i), 0.0, x, 0.5, 7, 1e9, [], 1)
    assert src.kernels(1)[1](src.f, 0.0, x, 0.5, 7, 1e9, [], 1) == called


def test_switched_system_checks_text_widths():
    # a field text must list n components in every mode, an output text p,
    # when the system is built, not when a run first reaches the mode
    from swstab import ParameterError, SwitchedSystem
    from swstab.integrate import ModeSource

    field, out = ModeSource(2, ("x1, -x0",)).f, ModeSource(2, ("x0",)).f
    SwitchedSystem(n=2, N=2, f=field, h=out, fhat=field)
    for f, h, fhat in ((ModeSource(2, ("x1, -x0", "x1, -x0, x0")).f, out, None),
                       (field, out, ModeSource(2, ("x1, -x0", "x1")).f),
                       (field, field, None),
                       (field, ModeSource(2, ("x0",), form="float").f, None)):
        with pytest.raises(ParameterError):
            SwitchedSystem(n=2, N=2, f=f, h=h, fhat=fhat)


def _called(fn, times, states, modes):
    """fn at each row by one call, as a float array of its values or components."""
    return np.array([fn(x, i) if times is None else fn(t, x, i) for t, x, i in
                     zip([None] * len(states) if times is None else times.tolist(),
                         states.tolist(), modes.tolist())], dtype=float)


def _special_states(rng, n, count=1000):
    """``count`` states in [-3, 3]^n, then every row of +-0.0, NaN and +-1e200."""
    special = np.array(np.meshgrid(*[[0.0, -0.0, np.nan, 1e200, -1e200]] * n)).reshape(n, -1).T
    return np.vstack([rng.uniform(-3.0, 3.0, (count, n)), special])


def test_columns_equal_the_calling_path(all_entries):
    # V, eta, h and example4's margin on state columns give the bits of one
    # call per row, -0.0 and NaN included, in every mode and under mixed modes
    # (indices out of range fall to the last text, as they do in the callable)
    from swstab.integrate import _at_rows

    rng = np.random.default_rng(71)
    off_columns = set()
    for entry in all_entries:
        n, N = entry.system.n, entry.system.N
        states = _special_states(rng, n)
        times = rng.uniform(0.0, 50.0, len(states))
        fns = {"V": (entry.certificate.V, None, times), "eta": (entry.certificate.eta, None, times),
               "h": (entry.system.h, entry.system.p, times)}
        if entry.covering.name != "trivial":
            fns["margin"] = (entry.covering.margin, None, None)
        for label, (fn, width, ts) in fns.items():
            src = fn.mode_source
            assert src.f is fn, (entry.name, label)
            off_columns |= {(entry.name, label, k) for k in range(1, len(src.modes) + 1)
                            if not src.on_columns(k)}
            mixed = rng.integers(0, N + 2, len(states))
            for modes in [np.full(len(states), i) for i in range(1, N + 1)] + [mixed]:
                got = _at_rows(fn, ts, states, modes, width)
                want = _called(fn, ts, states, modes).reshape(got.shape)
                assert got.view(np.int64).tolist() == want.view(np.int64).tolist(), \
                    (entry.name, label, modes[0])
    # only motivating's |x0| ** (4/3) leaves the grammar
    assert off_columns == {("motivating", "eta", 2)}


@pytest.mark.parametrize("form", ["float", "tuple", "margin"])
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_at_rows_partition_equals_per_row_calls(form, seed):
    # texts 1 and 3 run on columns, 2 and 4 are called; modes skip texts, hold
    # 0, negatives and indices above the last text (which fall to it): every row
    # holds the bits of its own call
    from swstab import ModeSource
    from swstab.integrate import _at_rows

    texts = ["2.0 * x0 - x1 * x1", "sin(x0) - x1", "abs(x1) - x0 * x0", "x0 ** 3.0 + x1"]
    if form != "margin":
        texts = [text.replace("x1 *", "t *") for text in texts]
    if form == "tuple":
        texts = [f"{text}, -x1" for text in texts]
    src = ModeSource(2, texts, {"sin": math.sin}, form=form)
    assert [src.on_columns(k) for k in (1, 2, 3, 4)] == [True, False, True, False]
    rng = np.random.default_rng(seed)
    m = int(rng.integers(0, 400))
    present = rng.choice([-1, 0, 1, 2, 3, 4, 5, 9], size=int(rng.integers(1, 6)), replace=False)
    modes = rng.choice(present, m)
    states = rng.uniform(-3.0, 3.0, (m, 2))
    times = None if form == "margin" else rng.uniform(0.0, 10.0, m)
    got = _at_rows(src.f, times, states, modes, 2 if form == "tuple" else None)
    want = _called(src.f, times, states, modes).reshape(got.shape)
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


@pytest.mark.parametrize("text, names", [
    ("x0 ** 2", {}),
    ("sin(t) * x0", {"sin": math.sin}),
    ("x0 if x0 > 0.0 else -x0", {}),
    ("x1 / x0", {}),
    ("x1 / 2.0", {}),               # no division at all, even by a constant
    ("x1 * 2", {}),                 # an int constant
    ("x1 / 0", {}),
    ("x1 / z", {"z": 0.0}),         # Python raises on /0 where numpy gives inf
    ("c * x1", {"c": 2}),           # a name bound to an int
    ("abs(x0) * x1", {"abs": abs}),  # not the builtin abs
    ("g = min(x0, x1)\ng * 2.0", {}),
    ("True * x0", {}),
])
def test_column_grammar_leaves_out(text, names):
    # outside the grammar a mode has no column form, and its rows are called
    from swstab.integrate import ModeSource, _at_rows

    src = ModeSource(2, (text,), names, form="float")
    assert not src.on_columns(1)
    states = np.random.default_rng(72).uniform(0.5, 3.0, (50, 2))
    times, modes = np.linspace(0.0, 1.0, len(states)), np.ones(len(states), dtype=np.int64)
    if "/ 0" in text or "/ z" in text:  # and the call raises, as numpy would not
        with pytest.raises(ZeroDivisionError):
            _at_rows(src.f, times, states, modes)
        return
    got = _at_rows(src.f, times, states, modes)
    assert got.view(np.int64).tolist() == _called(src.f, times, states, modes).view(
        np.int64).tolist()


@pytest.mark.parametrize("text, names", [
    ("0.5 * (x0 * x0 + x1 * x1)", {}),
    ("x0 * 2.0 - x1 * a", {"a": 3.0}),
    ("g = -x0 * t\nabs(g) - +x1 * a + 1.0", {"a": -0.7}),
    ("0.0", {}),
])
def test_column_grammar_takes(text, names):
    from swstab.integrate import ModeSource, _at_rows

    src = ModeSource(2, (text,), names, form="float")
    assert src.on_columns(1)
    states = _special_states(np.random.default_rng(73), 2, 200)
    times, modes = np.linspace(0.0, 1.0, len(states)), np.ones(len(states), dtype=np.int64)
    got = _at_rows(src.f, times, states, modes)
    assert got.view(np.int64).tolist() == _called(src.f, times, states, modes).view(
        np.int64).tolist()


def test_a_result_wrapper_keeps_its_rows_on_the_calling_path():
    # ``result`` may be any Python callable, so no mode it wraps runs on columns,
    # and every row gets the value f returns, the wrapper applied
    from swstab.integrate import ModeSource, _at_rows

    src = ModeSource(2, ("x0 * 1.0",), form="float", result=lambda v: 2.0 * v)
    assert not src.on_columns(1)
    states = np.random.default_rng(74).uniform(-3.0, 3.0, (40, 2))
    times, modes = np.linspace(0.0, 1.0, len(states)), np.ones(len(states), dtype=np.int64)
    assert _at_rows(src.f, times, states, modes).tolist() == (2.0 * states[:, 0]).tolist()


def test_mode_source_scalar_forms():
    from swstab import ParameterError
    from swstab.integrate import ModeSource

    assert ModeSource(2, ("x0 * x1",), form="float").f(0.5, [2.0, 3.0], 1) == 6.0
    margin = ModeSource(2, ("x0", "-x0"), form="margin").f
    assert (margin([2.0, 3.0], 1), margin([2.0, 3.0], 2)) == (2.0, -2.0)
    for text, form in (("x0, x1", "float"),  # one value
                       ("t * x0", "margin"),  # a margin does not read the time
                       ("x0", "vector")):     # no such form
        with pytest.raises(ParameterError):
            ModeSource(2, (text,), form=form)
    with pytest.raises(ParameterError):  # a value is no field for the kernels
        ModeSource(1, ("x0",), form="float").kernels(1)


def test_closed_loop_blow_up_partial_carries_its_modes(example4):
    # a closed-loop blow-up's partial trajectory carries the node modes the
    # completed run gives its nodes: those of the decisions taken so far
    flipped = _flipped(example4.system)
    x0 = np.array([1.5, 1.0])

    def run(bound):
        return simulate_with_covering(flipped, example4.covering, example4.policy, 0.0, x0,
                                      30.0, IntegratorConfig(step=1e-2, divergence_bound=bound))

    with pytest.raises(BlowUpError) as exc:
        run(1e6)
    partial = exc.value.trajectory
    traj, _ = run(1e300)
    m = len(partial.times)
    assert 1 < m < len(traj.times) and len(np.unique(partial.modes)) > 1
    assert partial.times.tobytes() == traj.times[:m].tobytes()
    assert partial.modes.tobytes() == traj.modes[:m].tobytes()
