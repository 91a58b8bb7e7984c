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

    Every integrator fetches its kernels through ``_rk4_kernels``; replacing it
    in integrate and in limiting, which imports it by name, swaps every RK4 call."""
    from swstab import integrate, limiting
    from oracles import (closed_loop_advance_reference, integrate_interval_reference,
                         rk4_step_reference)

    got = run()
    with monkeypatch.context() as m:
        for module in (integrate, limiting):
            m.setattr(module, "_rk4_kernels", lambda n: (
                rk4_step_reference, integrate_interval_reference, closed_loop_advance_reference))
        want = run()
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
       choice_seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_closed_loop_random_half_planes_and_choices(example4, angle, offset, x0, t0, step,
                                                    choice_seed):
    # example4's modes 1 and 2 on the half-plane {n . x >= c}, mode 3 on the
    # other, and a policy drawing any active mode: the run ends, labels every
    # node with a mode whose piece holds it, and equals the ndarray kernels' run
    nx, ny = math.cos(angle), math.sin(angle)

    def margin(x, i):
        d = nx * x[0] + ny * x[1] - offset
        return d if i in (1, 2) else -d

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
    # step, march and advance call their field as f(t, x, arg): three positional
    # arguments, a float time, the state as a list of n floats and the very
    # argument the field's producer paired with it
    import inspect

    from swstab import RelaxedControl, integrate, limiting, wzsd_falsify
    from swstab.limiting import simulate_reduced

    real = integrate._rk4_kernels
    calls = []  # (kernel name, paired argument, positional args, keyword args)

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

    monkeypatch.setattr(integrate, "_rk4_kernels",
                        lambda n: tuple(recording(k, n) for k in real(n)))
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
        for u in (vertex, mixed):
            assert all(type(p) is tuple and p[0] is entry.reduced.Fhat for p in paired_args(
                lambda: simulate_reduced(entry.reduced, u, 0.0, x0, 3.0, cfg), {"march"}))
        horizon = 12.0 if entry.name == "inverter" else 5.0
        assert all(type(p) is tuple for p in paired_args(
            lambda: wzsd_falsify(entry.reduced, eps=0.5, horizon=horizon, budget=20, seed=5),
            {"march"}))
    # the closed loop's advance, and the step of its event bisection
    assert set(paired_args(lambda: simulate_with_covering(
        example4.system, example4.covering, example4.policy, 0.5, np.array([0.8, -1.1]),
        20.5, cfg), {"advance", "step"})) <= {1, 2, 3}


def _linear_system(mats):
    """Switched linear system with mode matrices ``mats``, fields written as tuples."""
    n = len(mats[0])

    def f(t, x, i):
        return tuple(sum(a * v for a, v in zip(row, x)) for row in mats[i - 1])

    return SwitchedSystem(n=n, N=len(mats), f=f, h=lambda t, x, i: (x[0] * x[0],))


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
