"""Certification checks: sandwich, decrease along trajectories, integral bound."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from oracles import (check_decrease_along_reference, check_integral_bound_reference,
                     revisit_loop_reference)
from swstab import (
    IntegralBoundParams,
    IntegratorConfig,
    LyapunovCertificate,
    ParameterError,
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


@pytest.mark.parametrize("kw", [
    {"alpha": lambda s: math.nan if s > 0.5 else s},
    {"M": math.nan},
    {"mu": math.nan},
], ids=["alpha", "M", "mu"])
def test_integral_params_reject_nan(kw):
    # NaN compares false both ways, so each check must ask for the good side
    with pytest.raises(ParameterError):
        IntegralBoundParams(**{"alpha": lambda s: s, "M": 1.0, "mu": 0.0, **kw})


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


@pytest.mark.parametrize("nan_where, first", [
    pytest.param(lambda x: True, (-2.0, -2.0), id="everywhere"),
    pytest.param(lambda x: x[0] > 1.0, (4.0 / 3.0, -2.0), id="where_x0_above_1"),
])
def test_sandwich_nan_V_fails(motivating, nan_where, first):
    # a NaN margin fails the check and is reported at the first NaN point of
    # the sampling loop (x0 slowest, then x1, then the mode)
    cert = motivating.certificate
    V = lambda t, x, i: math.nan if nan_where(x) else cert.V(t, x, i)
    rep = check_sandwich(replace(cert, V=V), [-2.0, -2.0], [2.0, 2.0],
                         motivating.covering, density=7)
    assert not rep.passed
    assert math.isnan(rep.worst_margin) and rep.extra == {"points": 100}
    assert rep.worst_location[:2] == (0.0, 1)
    assert rep.worst_location[2] == pytest.approx(math.hypot(*first), rel=1e-15)


def _nan_between(phi, lo, hi):
    """phi with NaN on (lo, hi), an open band that the construction samples miss."""
    return lambda s: math.nan if lo < s < hi else phi(s)


@pytest.mark.parametrize("side", ["phi1", "phi2"])
def test_sandwich_nan_bound_fails(motivating, side):
    # a NaN bound fails the check, from either side, at the first point whose
    # radius falls in the NaN band: x0 slowest, then x1, mode 1 of the trivial
    # covering; builtin max would keep the other side's margin instead
    cert = motivating.certificate
    bad = replace(cert, **{side: _nan_between(getattr(cert, side), 1.0, 2.0)})
    rep = check_sandwich(bad, [-2.0, -2.0], [2.0, 2.0], motivating.covering, density=7)
    grid = np.linspace(-2.0, 2.0, 7)
    first = next(r for r in (math.hypot(a, b) for a in grid for b in grid) if 1.0 < r < 2.0)
    assert not rep.passed and math.isnan(rep.worst_margin)
    assert rep.worst_location[:2] == (0.0, 1)
    assert rep.worst_location[2] == pytest.approx(first, rel=1e-15)


@pytest.mark.parametrize("side", ["phi1", "phi2"])
def test_certificate_rejects_nan_bound_samples(motivating, side):
    cert = motivating.certificate
    phi = getattr(cert, side)
    with pytest.raises(ParameterError):
        replace(cert, **{side: lambda s: math.nan if s > 1.0 else phi(s)})


def test_sandwich_respects_covering_pieces(example4):
    # V3 is only sandwich-bounded on its own half-plane; the check must
    # restrict sampling accordingly and pass
    rep = check_sandwich(example4.certificate, [-2.0, -2.0], [2.0, 2.0],
                         example4.covering, density=9)
    assert rep.passed, (rep.worst_margin, rep.worst_location)


def test_sandwich_samples_each_piece_by_the_membership_rule(motivating):
    # piece 1 holds the points with margin >= -BOUNDARY_TOL: the column x0 = 0 and
    # the origin, at margin -BOUNDARY_TOL / 2, are sampled under mode 1 too
    from swstab import Covering
    from swstab.core import BOUNDARY_TOL

    assert motivating.system.N == 2
    covering = Covering(margin=lambda x, i: x[0] - 0.5 * BOUNDARY_TOL if i == 1 else 1.0, N=2)
    rep = check_sandwich(motivating.certificate, [-1.0, -1.0], [1.0, 1.0], covering, density=3)
    assert rep.extra == {"points": 7 + 10}


def test_sandwich_refuses_a_grid_over_max_samples(motivating):
    # 1025**2 points are over MAX_SAMPLES = 2**20: refused before any is sampled
    from swstab.core import MAX_SAMPLES

    assert 1024 ** 2 == MAX_SAMPLES
    with pytest.raises(ParameterError, match=r"^density 1025 samples over 1048576 points$"):
        check_sandwich(motivating.certificate, [-1.0, -1.0], [1.0, 1.0], motivating.covering,
                       density=1025)


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


def test_integral_bound_matches_reference_out_of_range():
    # an output of 1e170 squares past the float range; both norms are taken
    # by math.hypot, so the whole reports agree and the margin is finite
    sys = SwitchedSystem(n=1, N=1, p=1, f=lambda t, x, i: (-x[0],),
                         h=lambda t, x, i: (1e170 * x[0],))
    sig = SwitchingSignal.constant(1, 0.0, 1.0)
    traj = simulate(sys, sig, 0.0, np.array([1.0]), 1.0, IntegratorConfig(step=0.1))
    params = IntegralBoundParams(alpha=lambda s: s, M=0.0, mu=0.0)
    got = check_integral_bound(traj, sig, sys, params)
    want = check_integral_bound_reference(traj, sig, sys, params)
    assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())
    assert got.worst_margin == pytest.approx(1e170 * (1.0 - math.exp(-1.0)), rel=1e-3)


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
    # a single step ending on a switch node
    two = Trajectory(times=times[:2], states=states[:2], modes=np.array([1, 2]))
    _assert_matches_reference(motivating, two, sig)
    # the revisit scan, also against its node-by-node loop: modes re-entered
    # several times, ties across modes and a +inf V
    for traj, cert, where in _revisit_cases(motivating):
        span = SwitchingSignal.constant(1, 0.0, traj.tf)
        _assert_matches_reference(motivating, traj, span, cert=cert)
        rev = check_decrease_along(cert, traj, span).revisit
        assert json.dumps(rev.to_dict()) == json.dumps(
            revisit_loop_reference(cert, traj, span).to_dict())
        assert rev.worst_location == where and not rev.passed


def _tabled(motivating, table, special=None):
    """motivating's certificate with V read from a table by node time, and
    V(t, x, i) = special[(t, i)] where given; eta is 0."""
    special = special or {}
    return replace(motivating.certificate, eta=lambda t, x, i: 0.0,
                   V=lambda t, x, i: special.get((t, i), table[t]))


def _synthetic(modes):
    m = len(modes)
    return Trajectory(times=np.arange(float(m)), states=np.zeros((m, 2)), modes=np.array(modes))


def _revisit_cases(motivating):
    """(trajectory, certificate, expected revisit location) on unit time steps."""
    # three modes re-entered three times; V falls along each mode except on
    # the re-entries of mode 2, where it jumps up by 0.5 and then 1.0
    table = {float(k): 10.0 - 0.1 * k for k in range(16)}
    table.update({8.0: table[3.0] + 0.5, 9.0: table[3.0] + 0.25, 13.0: table[3.0] + 1.0})
    yield (_synthetic([1, 1, 2, 2, 3, 3, 1, 1, 2, 2, 3, 3, 1, 2, 2, 3]),
           _tabled(motivating, table), (13.0, 2))
    # equal worst margins in modes 2 (at t = 4) and 1 (at t = 6): mode 1 comes
    # first in mode-major order, though later in time
    table = {0.0: 2.0, 1.0: 1.0, 2.0: 3.0, 3.0: 2.0, 4.0: 2.0, 5.0: 1.5, 6.0: 3.0, 7.0: 2.5}
    yield _synthetic([2, 2, 1, 1, 2, 2, 1, 1]), _tabled(motivating, table), (6.0, 1)
    # +inf V on a lone re-entry node of mode 1: an infinite revisit margin,
    # and no infinite second difference, so the slack stays finite
    table = {float(k): 5.0 - 0.1 * k for k in range(5)}
    yield (_synthetic([1, 2, 1, 3, 1]), _tabled(motivating, table, {(2.0, 1): np.inf}),
           (2.0, 1))


class _Recorded:
    def __init__(self, fn, seen):
        self.fn, self.seen = fn, seen

    def __call__(self, t, x, i):
        self.seen.add(type(x))
        return self.fn(t, x, i)


def test_checkers_hand_certificates_lists(all_entries, cfg_fast):
    # the sandwich and decrease checks pass V and eta list states only
    seen = set()
    for entry in all_entries:
        cert = replace(entry.certificate, V=_Recorded(entry.certificate.V, seen),
                       eta=_Recorded(entry.certificate.eta, seen))
        n = entry.system.n
        assert check_sandwich(cert, -np.ones(n), np.ones(n), entry.covering, density=3).passed
        if entry.policy is not None:
            traj, sig = _closed_loop(entry, [1.5, -0.7], 0.0, 5.0)
        else:
            sig = entry.signal_class.generator((0.0, 5.0), 7)
            traj = simulate(entry.system, sig, 0.0, np.full(n, 0.5), 5.0, cfg_fast)
        assert _switches(traj.modes) > 0
        check_decrease_along(cert, traj, sig)
    assert seen == {list}


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
        V, eta = _Counted(entry.certificate.V), _Counted(entry.certificate.eta)
        check_decrease_along(replace(entry.certificate, V=V, eta=eta), traj, sigma)
        assert V.calls == m + n_switch
        assert eta.calls == m + n_switch + (m - 1)  # and once per step midpoint
        h = _Counted(entry.system.h)
        sys = SwitchedSystem(n=entry.system.n, N=entry.system.N, f=entry.system.f, h=h,
                             p=entry.system.p)
        check_integral_bound(traj, sigma, sys, IntegralBoundParams(alpha=entry.alpha, M=1.0,
                                                                   mu=0.0))
        assert h.calls == m + n_switch
    # the single-mode run has no switch node; a last node alone has one
    assert _switches(single.modes) == 0
    assert _switches(_ending_alone(open_loop).modes) >= 1


def _reports(entry, cert, system, traj, sigma):
    params = IntegralBoundParams(alpha=entry.alpha, M=entry.integral_M(traj.states[0]), mu=0.0)
    return (check_decrease_along(cert, traj, sigma).to_dict(),
            check_integral_bound(traj, sigma, system, params).to_dict())


def test_wrapped_certificate_takes_the_calling_path(example4):
    # functools.wraps copies mode_source onto a wrapper, which is still
    # called per node, with lists, and gives the same reports
    import functools

    V, seen = example4.certificate.V, []

    @functools.wraps(V)
    def wrapped(t, x, i):
        seen.append(type(x))
        return V(t, x, i)

    assert wrapped.mode_source is V.mode_source
    traj, sigma = _closed_loop(example4, [1.5, -0.7], 0.0, 10.0)
    cert = replace(example4.certificate, V=wrapped)
    assert (_reports(example4, cert, example4.system, traj, sigma)
            == _reports(example4, example4.certificate, example4.system, traj, sigma))
    assert len(seen) == len(traj.times) + _switches(traj.modes) and set(seen) == {list}


def test_motivating_reports_with_eta_mode2_called(motivating, cfg_fast):
    # eta's mode 2, |x0| ** (4/3), stays on the calling path while mode 1 and
    # V and h go on columns: the reports equal those of plain callables
    eta, h = motivating.certificate.eta, motivating.system.h
    assert eta.mode_source.on_columns(1) and not eta.mode_source.on_columns(2)
    plain = lambda fn: lambda t, x, i: fn(t, x, i)
    cert = motivating.certificate
    calling = replace(cert, V=plain(cert.V), eta=plain(eta))
    system = replace(motivating.system, h=plain(h))
    for seed in (3, 4, 5):
        sig = motivating.signal_class.generator((0.0, 12.0), seed)
        traj = simulate(motivating.system, sig, 0.0, np.array([1.2, -0.3]), 12.0, cfg_fast)
        assert _switches(traj.modes) > 0
        assert (_reports(motivating, cert, motivating.system, traj, sig)
                == _reports(motivating, calling, system, traj, sig))


# --- NaN fails the part that reads it ----------------------------------------


def _nan_probe_run(motivating, cfg_fast):
    sig = motivating.signal_class.generator((0.0, 5.0), 3)
    return simulate(motivating.system, sig, 0.0, np.array([1.0, 0.2]), 5.0, cfg_fast), sig


def _decrease_as_reference(cert, traj, sig):
    """check_decrease_along's report, asserted JSON-equal to the reference's."""
    rep = check_decrease_along(cert, traj, sig)
    assert json.dumps(rep.to_dict()) == json.dumps(
        check_decrease_along_reference(cert, traj, sig).to_dict())
    return rep


def test_decrease_fails_on_nan_V(motivating, cfg_fast):
    traj, sig = _nan_probe_run(motivating, cfg_fast)
    V = motivating.certificate.V
    cert = replace(motivating.certificate,
                   V=lambda t, x, i: np.nan if t > 2.0 else V(t, x, i))
    rep = _decrease_as_reference(cert, traj, sig)
    first = int(np.argmax(traj.times > 2.0))  # first node with a NaN V
    assert not rep.slope.passed and np.isnan(rep.slope.worst_margin)
    assert rep.slope.worst_location[0] == traj.times[first - 1]
    assert not rep.revisit.passed and np.isnan(rep.revisit.worst_margin)
    assert rep.revisit.worst_location == (traj.times[first], int(traj.modes[first]))
    assert np.isnan(rep.slope.slack)
    # NaN V at the first node of mode 3, then a rise in mode 1: the revisit
    # part reports the NaN node, as its node-by-node loop does
    table = {float(k): 10.0 - 0.1 * k for k in range(10)}
    table[7.0] = table[3.0] + 2.0
    traj = _synthetic([1, 1, 2, 2, 3, 3, 1, 1, 3, 3])
    sig = SwitchingSignal.constant(1, 0.0, 9.0)
    cert = _tabled(motivating, table, {(4.0, 3): np.nan})
    rep = _decrease_as_reference(cert, traj, sig)
    assert np.isnan(rep.slope.worst_margin) and np.isnan(rep.revisit.worst_margin)
    assert rep.slope.worst_location == rep.revisit.worst_location == (4.0, 3)
    assert json.dumps(rep.revisit.to_dict()) == json.dumps(
        revisit_loop_reference(cert, traj, sig).to_dict())
    # without the NaN the run matches the per-step reference, mode 1's rise first
    clean = _tabled(motivating, table)
    _assert_matches_reference(motivating, traj, sig, cert=clean)
    assert check_decrease_along(clean, traj, sig).revisit.worst_location == (7.0, 1)


def test_decrease_fails_on_nan_eta(motivating, cfg_fast):
    traj, sig = _nan_probe_run(motivating, cfg_fast)
    cert = replace(motivating.certificate, eta=lambda t, x, i: np.nan)
    rep = _decrease_as_reference(cert, traj, sig)
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
    rep = _decrease_as_reference(cert, traj, sig)
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
    # the norm of one output is |v| exactly, as math.hypot takes it, also where
    # squaring it would overflow (1e200) or underflow (1e-200), as
    # np.linalg.norm's sqrt(v . v) does
    from swstab.lyapunov import _output_gauge

    got = _output_gauge(np.array([[v]]), lambda s: s)[0]
    assert (math.isnan(got) if math.isnan(v) else
            np.float64(got).tobytes() == np.float64(abs(v)).tobytes()
            == np.float64(math.hypot(v)).tobytes())


def test_output_gauge_of_two_outputs_is_the_norm():
    # p = 2: within 2 ulp of np.linalg.norm wherever v . v stays in range
    from swstab.lyapunov import _output_gauge

    rng = np.random.default_rng(43)
    for v in rng.standard_normal((2000, 2)) * 10.0 ** rng.uniform(-100.0, 100.0, (2000, 1)):
        got = _output_gauge(v[None, :], lambda s: s)[0]
        want = np.linalg.norm(v)
        assert abs(got - want) <= 2.0 * np.spacing(want), (v, got, want)
