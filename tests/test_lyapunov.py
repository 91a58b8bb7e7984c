"""Certification checks: sandwich, decrease along trajectories, integral bound."""

import json
from dataclasses import replace

import numpy as np
import pytest

from oracles import check_decrease_along_reference, check_integral_bound_reference
from swstab import (
    IntegralBoundParams,
    IntegratorConfig,
    LyapunovCertificate,
    SwitchedSystem,
    SwitchingSignal,
    Trajectory,
    check_decrease_along,
    check_integral_bound,
    check_sandwich,
    simulate,
    simulate_with_covering,
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
                             f=lambda t, x, i: [-v for v in motivating.system.f(t, x, i)],
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


# --- one evaluation per node, against the per-node reference -----------------


def _closed_loop(entry, x0, t0, horizon, step=1e-2):
    return simulate_with_covering(entry.system, entry.covering, entry.policy, t0,
                                  np.asarray(x0, dtype=float), t0 + horizon,
                                  IntegratorConfig(step=step))


def _without_modes(traj):
    return Trajectory(times=traj.times, states=traj.states)


def _ending_alone(traj):
    """traj cut at its last switch node, which is then alone in its mode."""
    j = int(np.flatnonzero(np.diff(traj.modes))[-1]) + 1
    return Trajectory(times=traj.times[:j + 1], states=traj.states[:j + 1],
                      modes=traj.modes[:j + 1])


def _doubled_output(sys):
    return SwitchedSystem(n=sys.n, N=sys.N, f=sys.f, p=sys.p,
                          h=lambda t, x, i: [2.0 * v for v in sys.h(t, x, i)])


def _assert_matches_reference(entry, traj, sigma, sys=None, cert=None):
    sys = sys or entry.system
    cert = cert or entry.certificate
    params = IntegralBoundParams(alpha=entry.alpha, M=entry.integral_M(traj.states[0]), mu=0.0)
    got = check_decrease_along(cert, traj, sigma)
    want = check_decrease_along_reference(cert, traj, sigma)
    assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())
    got = check_integral_bound(traj, sigma, sys, params)
    want = check_integral_bound_reference(traj, sigma, sys, params)
    assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())


def _switches(modes) -> int:
    return int(np.count_nonzero(np.diff(modes)))


def test_checkers_match_reference_closed_loop(example4):
    for x0, t0 in (([1.5, -0.7], 0.0), ([-1.2, 1.9], 3.3), ([0.4, 0.3], 7.1)):
        traj, sigma = _closed_loop(example4, x0, t0, 20.0)
        assert _switches(traj.modes) > 0
        _assert_matches_reference(example4, traj, sigma)
        _assert_matches_reference(example4, _without_modes(traj), sigma)
        _assert_matches_reference(example4, traj, sigma, _doubled_output(example4.system))


@pytest.mark.parametrize("name", ["motivating", "example1", "inverter"])
def test_checkers_match_reference_open_loop(all_entries, cfg_fast, name):
    entry = next(e for e in all_entries if e.name == name)
    rng = np.random.default_rng(12)
    for k in range(2):
        x0 = rng.uniform(-1.5, 1.5, entry.system.n)
        sig = entry.signal_class.generator((0.0, 8.0), 30 + k)
        traj = simulate(entry.system, sig, 0.0, x0, 8.0, cfg_fast)
        assert _switches(traj.modes) > 0
        _assert_matches_reference(entry, traj, sig)
        _assert_matches_reference(entry, _without_modes(traj), sig)
        _assert_matches_reference(entry, _ending_alone(traj), sig)
        _assert_matches_reference(entry, traj, sig, _doubled_output(entry.system))
        # failing verdicts too: the same signal under reversed dynamics
        flipped = SwitchedSystem(n=entry.system.n, N=entry.system.N, p=entry.system.p,
                                 f=lambda t, x, i: [-v for v in entry.system.f(t, x, i)],
                                 h=entry.system.h)
        _assert_matches_reference(entry, simulate(flipped, sig, 0.0, 0.3 * x0, 3.0, cfg_fast),
                                  sig)


def test_checkers_match_reference_synthetic(motivating):
    sig = SwitchingSignal.constant(1, 0.0, 3.0)
    times = np.array([0.0, 1.0, 2.0, 3.0])
    states = np.array([[1.0, 0.0], [0.5, 0.0], [0.0, 0.0], [0.9, 0.0]])
    # V = t and V = 1 tie every slope and every revisit margin: the first maximum is reported
    ties = [replace(motivating.certificate, V=lambda t, x, i: t, eta=lambda t, x, i: 0.0),
            replace(motivating.certificate, V=lambda t, x, i: 1.0, eta=lambda t, x, i: 1.0)]
    for modes in ([1, 1, 1, 1], [1, 1, 1, 2], [2, 1, 1, 2], [1, 2, 1, 2], [1, 1, 2, 2]):
        traj = Trajectory(times=times, states=states, modes=np.array(modes))
        for cert in [motivating.certificate] + ties:
            _assert_matches_reference(motivating, traj, sig, cert=cert)
    one = Trajectory(times=times[:1], states=states[:1], modes=np.array([2]))
    _assert_matches_reference(motivating, one, sig)


class _Counted:
    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


def test_checkers_evaluate_once_per_node(motivating, example4, cfg_fast):
    sig = motivating.signal_class.generator((0.0, 8.0), 31)
    open_loop = simulate(motivating.system, sig, 0.0, np.array([1.0, -0.4]), 8.0, cfg_fast)
    closed, sigma = _closed_loop(example4, [1.5, -0.7], 0.0, 10.0)
    single = Trajectory(times=open_loop.times[:40], states=open_loop.states[:40],
                        modes=np.full(40, 2))
    cases = [(motivating, open_loop, sig), (motivating, _ending_alone(open_loop), sig),
             (motivating, single, sig), (example4, closed, sigma)]
    for entry, traj, sigma in cases:
        m, n_switch = len(traj.times), _switches(traj.modes)
        V = _Counted(entry.certificate.V)
        check_decrease_along(replace(entry.certificate, V=V), traj, sigma)
        assert V.calls == m + n_switch
        h = _Counted(entry.system.h)
        sys = SwitchedSystem(n=entry.system.n, N=entry.system.N, f=entry.system.f, h=h,
                             p=entry.system.p)
        check_integral_bound(traj, sigma, sys, IntegralBoundParams(alpha=entry.alpha, M=1.0,
                                                                   mu=0.0))
        assert h.calls == m + n_switch
    # the single-mode run has no switch node; a last node alone has one
    assert _switches(single.modes) == 0
    assert _switches(_ending_alone(open_loop).modes) >= 1


# --- NaN fails the part that reads it ----------------------------------------


def _nan_probe_run(motivating, cfg_fast):
    sig = motivating.signal_class.generator((0.0, 5.0), 3)
    return simulate(motivating.system, sig, 0.0, np.array([1.0, 0.2]), 5.0, cfg_fast), sig


def test_decrease_fails_on_nan_V(motivating, cfg_fast):
    traj, sig = _nan_probe_run(motivating, cfg_fast)
    V = motivating.certificate.V
    cert = replace(motivating.certificate,
                   V=lambda t, x, i: np.nan if t > 2.0 else V(t, x, i))
    rep = check_decrease_along(cert, traj, sig)
    first = int(np.argmax(traj.times > 2.0))  # first node with a NaN V
    assert not rep.slope.passed and np.isnan(rep.slope.worst_margin)
    assert rep.slope.worst_location[0] == traj.times[first - 1]
    assert not rep.revisit.passed and np.isnan(rep.revisit.worst_margin)
    assert rep.revisit.worst_location == (traj.times[first], int(traj.modes[first]))
    assert np.isnan(rep.slope.slack)


def test_decrease_fails_on_nan_eta(motivating, cfg_fast):
    traj, sig = _nan_probe_run(motivating, cfg_fast)
    cert = replace(motivating.certificate, eta=lambda t, x, i: np.nan)
    rep = check_decrease_along(cert, traj, sig)
    assert not rep.slope.passed and np.isnan(rep.slope.worst_margin)
    assert rep.slope.worst_location == (0.0, int(traj.modes[0]))
    # the revisit part reads V only
    assert rep.revisit.passed
    want = check_decrease_along_reference(motivating.certificate, traj, sig).revisit
    assert json.dumps(rep.revisit.to_dict()) == json.dumps(want.to_dict())
    # NaN at one node only: the step-mean gauge reads it, the midpoint gauge does not
    j = len(traj.times) // 2
    eta = motivating.certificate.eta
    cert = replace(motivating.certificate,
                   eta=lambda t, x, i: np.nan if t == traj.times[j] else eta(t, x, i))
    rep = check_decrease_along(cert, traj, sig)
    assert not rep.slope.passed and np.isnan(rep.slope.worst_margin)
    assert rep.slope.worst_location[0] == traj.times[j - 1]


# --- mutation controls: a larger gauge must flip the slope verdict ------------


def _scaled_eta(cert, c):
    return replace(cert, eta=lambda t, x, i: c * cert.eta(t, x, i))


@pytest.mark.parametrize("name", ["motivating", "example1", "inverter"])
def test_decrease_flags_inflated_gauge(all_entries, cfg_fast, name):
    # the registry gauges sit within a few percent of -dV/dt: 1.5 eta must fail
    entry = next(e for e in all_entries if e.name == name)
    rng = np.random.default_rng(13)
    for k in range(2):
        x0 = rng.uniform(-1.5, 1.5, entry.system.n)
        sig = entry.signal_class.generator((0.0, 20.0), 60 + k)
        traj = simulate(entry.system, sig, 0.0, x0, 20.0, cfg_fast)
        assert check_decrease_along(entry.certificate, traj, sig).slope.passed
        assert not check_decrease_along(_scaled_eta(entry.certificate, 1.5), traj,
                                        sig).slope.passed


def test_decrease_flags_inflated_gauge_closed_loop(example4):
    # modes 1 and 2 have grad(V).f = -10 x_j^2 against eta = x_j^2, so eta
    # may grow tenfold before the decrease fails; twentyfold must fail
    for x0, t0 in (([1.5, -0.7], 0.0), ([-1.2, 1.9], 3.3)):
        traj, sigma = _closed_loop(example4, x0, t0, 20.0)
        assert check_decrease_along(example4.certificate, traj, sigma).slope.passed
        assert check_decrease_along(_scaled_eta(example4.certificate, 2.0), traj,
                                    sigma).slope.passed
        assert not check_decrease_along(_scaled_eta(example4.certificate, 20.0), traj,
                                        sigma).slope.passed


@pytest.mark.parametrize("v", [1e200, 1e-200, -0.0, float("nan"), -0.7])
def test_output_gauge_of_one_output_is_the_norm(v):
    # the p = 1 gauge squares the output in Python floats; np.linalg.norm's
    # sqrt(v . v) overflows at 1e200 and underflows at 1e-200 the same way
    from swstab.lyapunov import _output_gauge

    got = _output_gauge(lambda t, x, i: (v,), lambda s: s, 1, 0.0, [0.0], 1)
    with np.errstate(over="ignore"):
        want = np.linalg.norm(np.array([v]))
    assert np.float64(got).tobytes() == want.tobytes()
