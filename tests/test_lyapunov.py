"""Certification checks: sandwich, decrease along trajectories, integral bound."""

import numpy as np

from swstab import (
    IntegralBoundParams,
    LyapunovCertificate,
    SwitchedSystem,
    SwitchingSignal,
    check_decrease_along,
    check_integral_bound,
    check_sandwich,
    simulate,
)


def test_certificate_rejects_non_class_k():
    import pytest
    from swstab import ParameterError
    with pytest.raises(ParameterError):
        LyapunovCertificate(V=lambda t, x, i: 0.0, phi1=lambda s: 1.0 + s,
                            phi2=lambda s: s, eta=lambda t, x, i: 0.0)
    with pytest.raises(ParameterError):
        LyapunovCertificate(V=lambda t, x, i: 0.0, phi1=lambda s: 0.0 * s,
                            phi2=lambda s: s, eta=lambda t, x, i: 0.0)


def test_integral_params_reject_indefinite_alpha():
    import pytest
    from swstab import ParameterError
    with pytest.raises(ParameterError):
        IntegralBoundParams(alpha=lambda s: s - 0.5, M=1.0, mu=0.0)
    with pytest.raises(ParameterError):
        IntegralBoundParams(alpha=lambda s: s, M=-1.0, mu=0.0)


def test_sandwich_inverter_quadratic(inverter):
    rep = check_sandwich(inverter.certificate, -2 * np.ones(4), 2 * np.ones(4),
                         inverter.covering, density=5)
    assert rep.passed, rep.worst_margin


def test_sandwich_origin_zero(all_entries):
    for entry in all_entries:
        for i in range(1, entry.system.N + 1):
            assert entry.certificate.V(0.0, np.zeros(entry.system.n), i) == 0.0


def test_sandwich_shrunken_phi2_fails(inverter):
    cert = inverter.certificate
    bad = LyapunovCertificate(V=cert.V, phi1=cert.phi1,
                              phi2=lambda s: 0.5 * cert.phi2(s), eta=cert.eta)
    rep = check_sandwich(bad, -2 * np.ones(4), 2 * np.ones(4), inverter.covering,
                         density=5)
    assert not rep.passed
    assert rep.worst_margin > 1e-3


def test_sandwich_respects_covering_pieces(example4):
    # V3 is only sandwich-bounded on its own half-plane; the check must
    # restrict sampling accordingly and pass
    rep = check_sandwich(example4.certificate, [-2.0, -2.0], [2.0, 2.0],
                         example4.covering, density=9)
    assert rep.passed, (rep.worst_margin, rep.worst_location)


# --- decrease ----------------------------------------------------------------


def test_decrease_motivating_random_signals(motivating, cfg_fine):
    rng = np.random.default_rng(2)
    for k in range(3):
        x0 = rng.uniform(-1.5, 1.5, 2)
        sig = motivating.signal_class.generator((0.0, 15.0), 400 + k)
        traj = simulate(motivating.system, sig, 0.0, x0, 15.0, cfg_fine)
        rep = check_decrease_along(motivating.certificate, traj, sig)
        assert rep.passed, (rep.slope.worst_margin, rep.revisit.worst_margin)
        assert rep.slope.slack < 1e-3  # calibrated slack stays small at this step


def test_decrease_reports_slack(motivating, cfg_fast):
    sig = motivating.signal_class.generator((0.0, 5.0), 9)
    traj = simulate(motivating.system, sig, 0.0, np.array([1.0, 0.2]), 5.0, cfg_fast)
    rep = check_decrease_along(motivating.certificate, traj, sig)
    assert rep.slope.slack > 0
    assert "slack" in rep.slope.to_dict()


def test_mode3_conserves_V3(example4, cfg_fine):
    # grad(V3) . f3 = 0 identically: verify symbolically by sampling, then
    # along a left half-plane arc
    rng = np.random.default_rng(3)
    for _ in range(100):
        x = rng.uniform(-3, 3, 2)
        grad = np.array([10 * x[0] - 6 * x[1], -6 * x[0] + 10 * x[1]])
        assert abs(grad @ example4.system.f(0.0, x, 3)) < 1e-12
    sig = SwitchingSignal.constant(3, 0.0, 0.7)
    traj = simulate(example4.system, sig, 0.0, np.array([-1.0, -0.5]), 0.7, cfg_fine)
    V3 = np.array([example4.certificate.V(t, x, 3)
                   for t, x in zip(traj.times, traj.states)])
    assert np.max(np.abs(V3 - V3[0])) < 1e-9
    rep = check_decrease_along(example4.certificate, traj, sig)
    assert rep.slope.passed  # eta_3 = 0: conservation sits inside the slack


def test_decrease_flipped_sign_fails(motivating, cfg_fast):
    flipped = SwitchedSystem(n=2, N=2,
                             f=lambda t, x, i: -motivating.system.f(t, x, i),
                             h=motivating.system.h, p=1)
    sig = motivating.signal_class.generator((0.0, 8.0), 4)
    traj = simulate(flipped, sig, 0.0, np.array([0.8, 0.3]), 8.0, cfg_fast)
    rep = check_decrease_along(motivating.certificate, traj, sig)
    assert not rep.slope.passed
    assert rep.slope.worst_margin > 0.01


def test_revisit_check_flags_regrowth(motivating):
    # synthetic trajectory where V rises between two mode-1 visits
    times = np.array([0.0, 1.0, 2.0, 3.0])
    states = np.array([[1.0, 0.0], [0.5, 0.0], [0.0, 0.0], [0.9, 0.0]])
    sig = SwitchingSignal.constant(1, 0.0, 3.0)
    traj_modes = np.array([1, 1, 1, 1])
    from swstab import Trajectory
    traj = Trajectory(times=times, states=states, modes=traj_modes)
    rep = check_decrease_along(motivating.certificate, traj, sig)
    assert not rep.revisit.passed


# --- integral bound ----------------------------------------------------------


def test_integral_bound_motivating(motivating, cfg_fine):
    x0 = np.array([1.0, 0.4])
    sig = motivating.signal_class.generator((0.0, 20.0), 6)
    traj = simulate(motivating.system, sig, 0.0, x0, 20.0, cfg_fine)
    params = IntegralBoundParams(alpha=motivating.alpha,
                                 M=motivating.integral_M(x0), mu=0.0)
    rep = check_integral_bound(traj, sig, motivating.system, params)
    assert rep.passed, rep.worst_margin


def test_integral_bound_zero_trajectory(motivating, cfg_fast):
    sig = motivating.signal_class.generator((0.0, 3.0), 6)
    traj = simulate(motivating.system, sig, 0.0, np.zeros(2), 3.0, cfg_fast)
    params = IntegralBoundParams(alpha=motivating.alpha, M=0.1, mu=0.0)
    rep = check_integral_bound(traj, sig, motivating.system, params)
    assert rep.passed
    assert rep.worst_margin <= -0.1 + 1e-12  # integral identically zero


def test_integral_bound_zero_budget_fails(motivating, cfg_fast):
    # M = mu = 0 cannot absorb a nontrivial mode-2 output
    x0 = np.array([1.0, 0.0])
    sig = SwitchingSignal.constant(2, 0.0, 5.0)
    traj = simulate(motivating.system, sig, 0.0, x0, 5.0, cfg_fast)
    params = IntegralBoundParams(alpha=motivating.alpha, M=0.0, mu=0.0)
    rep = check_integral_bound(traj, sig, motivating.system, params)
    assert not rep.passed


def test_gradient_consistency(all_entries):
    # analytic certificate gradients match central differences to 1e-5 relative
    rng = np.random.default_rng(5)
    eps = 1e-6
    for entry in all_entries:
        cert = entry.certificate
        n = entry.system.n
        for _ in range(100):
            x = rng.uniform(-2, 2, n)
            i = int(rng.integers(1, entry.system.N + 1))
            g = cert.dV(0.0, x, i)
            fd = np.zeros(n)
            for j in range(n):
                dp, dm = x.copy(), x.copy()
                dp[j] += eps
                dm[j] -= eps
                fd[j] = (cert.V(0.0, dp, i) - cert.V(0.0, dm, i)) / (2 * eps)
            denom = max(np.linalg.norm(g), 1e-6)
            assert np.linalg.norm(fd - g) / denom < 1e-5
