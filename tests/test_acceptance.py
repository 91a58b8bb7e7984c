"""Acceptance gate: one test per criterion, printed as a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here, not configurable.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from swstab import (
    IntegralBoundParams,
    IntegratorConfig,
    MeasureConstraint,
    PatternConstraint,
    StabilityEnvelope,
    SwitchingSignal,
    check_decrease_along,
    check_integral_bound,
    check_sandwich,
    classify,
    estimate_envelope,
    gen_arbitrary,
    gen_measure_constrained,
    gen_pattern,
    get_entry,
    make_driver,
    output_residual,
    signal_to_control,
    simulate,
    simulate_reduced,
    simulate_relaxed,
    simulate_with_covering,
    validate_covering_invariance,
    validate_measure,
    validate_pattern,
    wzsd_falsify,
)

from oracles import measure_oracle, pattern_oracle


def report(num, desc, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.mark.slow
def test_criterion_01_embedding_equivalence(all_entries):
    """Switched vs relaxed-vertex simulation agree to 1e-8 on every registry system."""
    t_start = time.perf_counter()
    cfg = IntegratorConfig(step=1e-3)
    worst = 0.0
    rng = np.random.default_rng(101)
    for entry in all_entries:
        n, N = entry.system.n, entry.system.N
        for k in range(20):
            x0 = rng.uniform(-1.5, 1.5, n)
            sigma = gen_arbitrary(N, (0.0, 20.0), 0.5, int(rng.integers(0, 2**62)),
                                  granularity=1e-3)
            a = simulate(entry.system, sigma, 0.0, x0, 20.0, cfg)
            u = signal_to_control(sigma, 1e-3, span=(0.0, 20.0), n_modes=N)
            b = simulate_relaxed(entry.system, u, 0.0, x0, 20.0, cfg)
            assert len(a.times) == len(b.times)
            worst = max(worst, float(np.max(np.linalg.norm(a.states - b.states, axis=1))))
    elapsed = time.perf_counter() - t_start
    report(1, "embedding equivalence <= 1e-8, runtime < 60 s",
           worst <= 1e-8 and elapsed < 60.0,
           f"worst deviation {worst:.2e}, {elapsed:.0f} s")


def test_criterion_02_conservation_oracle(motivating):
    """Mode 1 conserves |x| to 1e-6 over horizon 100 at step 1e-3."""
    cfg = IntegratorConfig(step=1e-3)
    sigma = SwitchingSignal.constant(1, 0.0, 100.0)
    traj = simulate(motivating.system, sigma, 0.0, np.array([1.0, 0.0]), 100.0, cfg)
    drift = float(np.max(np.abs(traj.norms() - 1.0)))
    report(2, "conservation | |x(t)| - |x0| | <= 1e-6 under sigma == 1",
           drift <= 1e-6, f"drift {drift:.2e}")


@pytest.mark.slow
def test_criterion_03_common_weak_lyapunov_monotonicity(motivating, inverter):
    """100 class signals each: per-step dV within calibrated slack, no hard violations."""
    cfg = IntegratorConfig(step=2e-3)
    hard_violations = 0
    worst_rel = -np.inf
    rng = np.random.default_rng(103)
    for entry in (motivating, inverter):
        n = entry.system.n
        for k in range(100):
            x0 = rng.uniform(-1.5, 1.5, n)
            sigma = entry.signal_class.generator((0.0, 10.0), int(rng.integers(0, 2**62)))
            traj = simulate(entry.system, sigma, 0.0, x0, 10.0, cfg)
            dec = check_decrease_along(entry.certificate, traj, sigma)
            if not (dec.slope.passed and dec.revisit.passed):
                hard_violations += 1
                continue
            V = np.array([entry.certificate.V(t, x, int(m)) for t, x, m in
                          zip(traj.times, traj.states, traj.modes)])
            dV = np.diff(V)
            bound = dec.slope.slack * np.diff(traj.times)
            if np.any(dV > bound):
                hard_violations += 1
            worst_rel = max(worst_rel, float(np.max(dV - bound)))
    report(3, "common-V monotonicity on motivating + inverter, zero hard violations",
           hard_violations == 0, f"worst dV excess {worst_rel:.2e}")


def _motivating_envelope(a, seed, trials=200):
    entry = get_entry("motivating", a=a)
    cfg = IntegratorConfig(step=2e-2)
    driver = make_driver(entry, cfg)
    env = estimate_envelope(2, driver, radii=[0.5, 1.0, 2.0], horizon=200.0,
                            trials=trials, tau_count=21, master_seed=seed)
    return classify(env, decay_ratio=0.05, tail_fraction=0.2), env


@pytest.mark.slow
def test_criterion_04_motivating_guas_reproduction(motivating):
    """a = 1 and a = 2: GUAS-consistent at tail ratio 0.05; sigma == 1 is US-only."""
    t_start = time.perf_counter()
    v1, env1 = _motivating_envelope(1.0, 104)
    v2, env2 = _motivating_envelope(2.0, 204)
    ok = v1.verdict == "GUAS-consistent" and v2.verdict == "GUAS-consistent"
    ok = ok and v1.tau_residual <= 0.05 and v2.tau_residual <= 0.05
    # every regularized row non-increasing in tau and the tail tiny
    for env in (env1, env2):
        from swstab.stability import regularize
        reg, _, _ = regularize(env)
        assert np.all(np.diff(reg, axis=1) <= 1e-15)
        assert np.all(reg[:, -1] <= 0.02 * env.radius_bins)

    # negative control: constant mode 1 conserves the norm
    cfg = IntegratorConfig(step=2e-2)

    def driver_const(t0, x0, tf, seed):
        return simulate(motivating.system, SwitchingSignal.constant(1, t0, tf), t0, x0, tf, cfg)

    env_nc = estimate_envelope(2, driver_const, radii=[0.5, 1.0, 2.0], horizon=60.0,
                               trials=30, tau_count=7, master_seed=304)
    v_nc = classify(env_nc)
    elapsed = time.perf_counter() - t_start
    ok = ok and v_nc.verdict == "US-only" and elapsed < 600.0
    report(4, "motivating GUAS-consistent (a = 1, 2), sigma == 1 US-only, < 10 min",
           ok, f"verdicts {v1.verdict}/{v2.verdict}/{v_nc.verdict}, {elapsed:.0f} s")


@pytest.mark.slow
def test_criterion_05_falsifier_discrimination(motivating):
    """Integral constraint blocks counterexamples; removing it yields one fast."""
    rls = motivating.reduced
    v_with = wzsd_falsify(rls, eps=0.5, horizon=5.0, residual_tol=1e-8,
                          budget=10_000, seed=105)
    v_without = wzsd_falsify(replace(rls, constraints=()), eps=0.5, horizon=5.0,
                             residual_tol=1e-8, budget=10_000, seed=105)
    ok = (v_with.verdict == "no_counterexample_found"
          and v_without.verdict == "counterexample"
          and v_without.budget_used <= 100)
    # re-validation: the no-counterexample verdict replays identically; the
    # counterexample re-simulates through the public integrator
    v_with_replay = wzsd_falsify(rls, eps=0.5, horizon=5.0, residual_tol=1e-8,
                                 budget=10_000, seed=105)
    ok = ok and v_with_replay.verdict == v_with.verdict
    cx = v_without.counterexample
    traj = simulate_reduced(replace(rls, constraints=()), cx.control, 0.0,
                            cx.trajectory.states[0], 5.0, IntegratorConfig(step=0.01))
    ok = ok and float(traj.norms().min()) >= 0.5
    ok = ok and output_residual(rls, traj) <= 1e-8
    report(5, "falsifier: blocked with constraint, counterexample <= 100 without",
           ok, f"budgets {v_with.budget_used}/{v_without.budget_used}, "
               f"min|x| {cx.eps:.3f}")


@pytest.mark.slow
def test_criterion_06_inverter_reproduction(inverter):
    """Pattern-constrained inverter: energy monotone, GUAS-consistent, WZSD holds."""
    cfg = IntegratorConfig(step=1e-2)
    P = np.eye(4)
    rng = np.random.default_rng(106)
    energy_ok = True
    for k in range(100):
        x0 = rng.uniform(-1.5, 1.5, 4)
        sigma = inverter.signal_class.generator((0.0, 30.0), int(rng.integers(0, 2**62)))
        traj = simulate(inverter.system, sigma, 0.0, x0, 30.0, cfg)
        V = 0.5 * np.einsum("ij,jk,ik->i", traj.states, P, traj.states)
        if np.any(np.diff(V) > 1e-10):
            energy_ok = False
    driver = make_driver(inverter, IntegratorConfig(step=2e-2))
    env = estimate_envelope(4, driver, radii=[0.5, 1.0, 2.0], horizon=150.0,
                            trials=34, tau_count=16, master_seed=206)
    verdict = classify(env)
    v_with = wzsd_falsify(inverter.reduced, eps=0.5, horizon=12.0, budget=10_000,
                          seed=106)
    v_without = wzsd_falsify(replace(inverter.reduced, constraints=()), eps=0.5,
                             horizon=12.0, budget=10_000, seed=106)
    ok = (energy_ok and verdict.verdict == "GUAS-consistent"
          and v_with.verdict == "no_counterexample_found"
          and v_without.verdict == "counterexample")
    # the seeded counterexample is the constant-e1 zero-output trajectory
    cx = v_without.counterexample
    ok = ok and np.array_equal(cx.control.values[0], [1.0, 0.0])
    ok = ok and cx.output_sup <= 1e-8
    report(6, "inverter: energy monotone, GUAS-consistent, WZSD discriminates",
           ok, f"verdict {verdict.verdict}, budgets "
               f"{v_with.budget_used}/{v_without.budget_used}")


@pytest.mark.slow
def test_criterion_07_example1_arbitrary_switching(example1):
    """GUAS under arbitrary switching with the certificate suite passing."""
    driver = make_driver(example1, IntegratorConfig(step=2e-2))
    env = estimate_envelope(2, driver, radii=[0.5, 1.0, 2.0], horizon=100.0,
                            trials=67, tau_count=11, master_seed=107)
    verdict = classify(env)
    sw_rep = check_sandwich(example1.certificate, [-2.0, -2.0], [2.0, 2.0],
                            example1.covering, density=9)
    cfg = IntegratorConfig(step=2e-3)
    cert_ok = sw_rep.passed
    rng = np.random.default_rng(107)
    for k in range(20):
        x0 = rng.uniform(-1.5, 1.5, 2)
        sigma = example1.signal_class.generator((0.0, 10.0), int(rng.integers(0, 2**62)))
        traj = simulate(example1.system, sigma, 0.0, x0, 10.0, cfg)
        dec = check_decrease_along(example1.certificate, traj, sigma)
        ib = check_integral_bound(traj, sigma, example1.system,
                                  IntegralBoundParams(alpha=example1.alpha,
                                                      M=example1.integral_M(x0), mu=0.0))
        cert_ok = cert_ok and dec.passed and ib.passed
    ok = verdict.verdict == "GUAS-consistent" and cert_ok
    report(7, "example1 GUAS-consistent under arbitrary switching + certificates",
           ok, f"verdict {verdict.verdict}")


def test_criterion_08_example4_covering_invariant_guas(example4):
    """Closed-loop runs stay covering-invariant, decay, and conserve V3 on mode-3 arcs."""
    cfg = IntegratorConfig(step=1e-2)
    horizon = 80.0
    radii = np.array([0.5, 1.0, 2.0])
    taus = np.linspace(0.0, horizon, 17)
    table = np.zeros((3, len(taus)))
    rng = np.random.default_rng(108)
    invariance_ok = True
    v3_ok = True
    # symbolic oracle: grad(V3) . f3 == 0 identically
    for _ in range(200):
        x = rng.uniform(-3, 3, 2)
        grad = np.array([10 * x[0] - 6 * x[1], -6 * x[0] + 10 * x[1]])
        v3_ok = v3_ok and abs(grad @ example4.system.f(0.0, x, 3)) < 1e-12
    trials_per_bin = 34
    for b, hi in enumerate(radii):
        lo = 0.0 if b == 0 else radii[b - 1]
        for k in range(trials_per_bin):
            d = rng.standard_normal(2)
            x0 = d / np.linalg.norm(d) * rng.uniform(lo, hi)
            t0 = float(rng.uniform(0.0, 10.0))
            traj, sigma = simulate_with_covering(example4.system, example4.covering,
                                                 example4.policy, t0, x0,
                                                 t0 + horizon, cfg)
            rep = validate_covering_invariance(traj, sigma, example4.covering)
            invariance_ok = invariance_ok and rep.ok
            idx = np.clip(np.searchsorted(traj.times, t0 + taus), 0, len(traj.times) - 1)
            np.maximum(table[b], traj.norms()[idx], out=table[b])
            # mode-3 arcs conserve V3 within slack
            V3 = 5 * traj.states[:, 0] ** 2 - 6 * traj.states[:, 0] * traj.states[:, 1] \
                + 5 * traj.states[:, 1] ** 2
            m3 = traj.modes == 3
            edges = np.flatnonzero(np.diff(m3.astype(np.int8)))
            starts = list(edges[~m3[edges]] + 1) + ([0] if m3[0] else [])
            for s in starts:
                e = s
                while e + 1 < len(m3) and m3[e + 1]:
                    e += 1
                if e > s and np.max(np.abs(V3[s:e + 1] - V3[s])) > 1e-6 * (1 + V3[s]):
                    v3_ok = False
    env = StabilityEnvelope(radius_bins=radii, tau_grid=taus, beta_table=table,
                            trials_per_cell=trials_per_bin)
    verdict = classify(env)
    ok = invariance_ok and v3_ok and verdict.verdict == "GUAS-consistent"
    report(8, "example4 closed loop: invariance + GUAS-consistent + V3 conserved",
           ok, f"verdict {verdict.verdict}")


def test_criterion_09_integral_bound_checker(motivating):
    """Output-integral gauge s^(4/3) passes with M = V(x0); doubled output fails."""
    cfg = IntegratorConfig(step=2e-3)
    rng = np.random.default_rng(109)
    ok = True
    for k in range(10):
        x0 = rng.uniform(-1.5, 1.5, 2)
        sigma = motivating.signal_class.generator((0.0, 30.0), int(rng.integers(0, 2**62)))
        traj = simulate(motivating.system, sigma, 0.0, x0, 30.0, cfg)
        good = check_integral_bound(traj, sigma, motivating.system,
                                    IntegralBoundParams(alpha=motivating.alpha,
                                                        M=motivating.integral_M(x0),
                                                        mu=0.0))
        doubled = check_integral_bound(traj, sigma, motivating.system,
                                       IntegralBoundParams(
                                           alpha=lambda s: (2.0 * s) ** (4.0 / 3.0),
                                           M=motivating.integral_M(x0), mu=0.0))
        ok = ok and good.passed and not doubled.passed
    report(9, "integral bound: alpha = s^(4/3) with M = V(x0) passes, doubled fails", ok)


def test_criterion_10_validator_exactness():
    """1000 random parameterizations: validators match the dense-grid oracle exactly."""
    rng = np.random.default_rng(110)
    false_accepts = 0
    false_rejects = 0
    for k in range(500):
        T0 = round(float(rng.uniform(0.2, 2.0)), 4)
        d0 = min(max(round(float(rng.uniform(0.05, 1.0)) * T0, 4), 1e-4), T0)
        c = MeasureConstraint(T0=T0, delta0=d0, mode=2)
        span = (0.0, round(5 * T0, 4))
        gen_sig = gen_measure_constrained(c, 2, span, int(rng.integers(0, 2**62)))
        rep = validate_measure(gen_sig, c)
        ok_oracle, _ = measure_oracle(gen_sig, T0, d0, 2)
        if not rep.ok:
            false_rejects += 1
        if rep.ok != ok_oracle:
            false_accepts += 1
        arb = gen_arbitrary(2, span, T0 / 3.0, int(rng.integers(0, 2**62)))
        rep_a = validate_measure(arb, c)
        ok_a, _ = measure_oracle(arb, T0, d0, 2)
        if rep_a.ok != ok_a:
            false_accepts += 1
    for k in range(500):
        dm = round(float(rng.uniform(0.1, 0.8)), 4)
        dM = round(dm + float(rng.uniform(0.0, 1.0)), 4)
        T = round(float(rng.uniform(6 * dm, 6 * dm + 5)), 4)
        c = PatternConstraint(T=T, dm=dm, dM=dM)
        span = (0.0, round(T + 6 * dM, 4))
        gen_sig = gen_pattern(c, span, int(rng.integers(0, 2**62)))
        rep = validate_pattern(gen_sig, c)
        if not rep.ok:
            false_rejects += 1
        if rep.ok != pattern_oracle(gen_sig, T, dm, dM):
            false_accepts += 1
        arb = gen_arbitrary(2, span, dm * 1.5, int(rng.integers(0, 2**62)))
        if validate_pattern(arb, c).ok != pattern_oracle(arb, T, dm, dM):
            false_accepts += 1
    report(10, "validators exact vs dense-grid oracle over 1000 parameterizations",
           false_accepts == 0 and false_rejects == 0,
           f"false accepts {false_accepts}, false rejects {false_rejects}")
