"""Registry wiring: dynamics values, decompositions, certificates, parameters."""

import math

import numpy as np
import pytest

from swstab import IntegratorConfig, ParameterError, get_entry, simulate, simulate_with_covering
from swstab.lyapunov import check_decrease_along, check_sandwich
from swstab.systems import signed_cbrt


def test_signed_cbrt():
    assert signed_cbrt(-8.0) == -2.0
    assert signed_cbrt(0.0) == 0.0
    assert signed_cbrt(27.0) == 3.0


# --- frozen dynamics values --------------------------------------------------


def test_motivating_field_values(motivating):
    f = motivating.system.f
    np.testing.assert_allclose(f(0.0, np.array([0.0, 1.0]), 1), [1.0, 0.0])
    np.testing.assert_allclose(f(0.0, np.array([1.0, 1.0]), 2), [0.0, -1.0])
    for i in (1, 2):
        np.testing.assert_allclose(f(0.0, np.zeros(2), i), [0.0, 0.0])


def test_motivating_requires_positive_a():
    with pytest.raises(ParameterError):
        get_entry("motivating", a=-1.0)


def test_example1_field_values(example1):
    f = example1.system.f
    t = 0.7
    np.testing.assert_allclose(f(t, np.array([1.0, 0.0]), 1), [0.0, math.sin(t)])
    # gauges vanish exactly where the coordinate does
    h = example1.system.h
    assert h(0.0, np.array([1.0, 0.0]), 1)[0] == 0.0
    assert h(0.0, np.array([0.0, 1.0]), 2)[0] == 0.0
    assert h(0.0, np.array([0.5, 0.0]), 2)[0] > 0.0


def test_example1_pe_integral():
    # default gauge sin(t): integral of |sin| over one window of length pi is 2
    s = np.linspace(0.0, math.pi, 20001)
    assert abs(np.trapezoid(np.abs(np.sin(s)), s) - 2.0) < 1e-6


def test_example4_field_and_V3(example4):
    np.testing.assert_allclose(example4.system.f(0.0, np.array([1.0, 0.0]), 3),
                               [-3.0, -5.0])
    assert example4.certificate.V(0.0, np.array([1.0, 1.0]), 3) == pytest.approx(4.0)


def test_example4_default_hypotheses():
    # defaults satisfy rho_j(v) <= v*alpha_j(t, v) with equality
    e = get_entry("example4")
    for v in np.linspace(-2, 2, 21):
        assert v * v <= v * v + 1e-15


def test_inverter_field_value(inverter):
    f = inverter.system.f
    np.testing.assert_allclose(f(0.0, np.array([0.0, 1.0, 1.0, 1.0]), 1),
                               [0.0, 2.0, -1.0, -2.0])
    for i in (1, 2):
        np.testing.assert_allclose(f(0.0, np.zeros(4), i), np.zeros(4))


def test_inverter_mode_derivative_nonpositive(inverter):
    # V' along each mode is -C2*x4*g(t,x4) <= -C2*ell(x4) <= 0
    rng = np.random.default_rng(4)
    P = np.eye(4)
    for _ in range(200):
        x = rng.uniform(-2, 2, 4)
        i = int(rng.integers(1, 3))
        vdot = x @ (P @ inverter.system.f(0.0, x, i))
        assert vdot <= -x[3] ** 2 + 1e-12


def test_inverter_class_parameter_error():
    with pytest.raises(ParameterError):
        get_entry("inverter", dM=math.pi)  # pi >= pi*sqrt(1*1)


def test_inverter_rejects_bad_load():
    with pytest.raises(ParameterError):
        get_entry("inverter", g1=lambda t, v: -v)  # violates ell <= v*g


def test_decomposition_consistency(all_entries):
    # fields return tuples, lists or arrays; the flip returns lists
    from swstab.cli import _flip_system
    rng = np.random.default_rng(12)
    for entry in all_entries:
        for system in (entry.system, _flip_system(entry.system)):
            worst = system.check_decomposition(rng, n_samples=1000)
            assert worst <= 1e-10, system.name


@pytest.mark.parametrize("params", [{}, {"L1": 0.7, "L2": 1.3, "C1": 0.9, "C2": 1.1},
                                    {"L1": 0.3, "L2": 2.7, "C1": 1.7, "C2": 0.45}])
def test_inverter_field_is_the_matmul(params):
    # the written-out field equals (Pinv @ RAW_i) @ x - e4 * g_i(t, x4) on every
    # state (values compared, so a zero of either sign counts as equal), and a
    # run of it equals a run of the matmul field bit for bit
    from swstab import SwitchedSystem, gen_pattern, PatternConstraint
    entry = get_entry("inverter", **params)
    L1, L2, C1, C2 = (entry.params[k] for k in ("L1", "L2", "C1", "C2"))
    Pinv = np.diag([1.0 / L1, 1.0 / L2, 1.0 / C1, 1.0 / C2])
    A = (Pinv @ np.array([[0, 0, 0, 0], [0, 0, 1, 1], [0, -1, 0, 0], [0, -1, 0, 0]], dtype=float),
         Pinv @ np.array([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]], dtype=float))
    e4 = np.array([0.0, 0.0, 0.0, 1.0])

    def matmul_field(t, x, i):
        return A[i - 1] @ x - e4 * x[3]   # default loads g_i(t, v) = v

    rng = np.random.default_rng(41)
    for _ in range(5000):
        x = rng.uniform(-3.0, 3.0, 4) * 10.0 ** rng.uniform(-3.0, 3.0, 4)
        t = float(rng.uniform(0.0, 20.0))
        for i in (1, 2):
            assert np.array_equal(np.asarray(entry.system.f(t, x.tolist(), i)),
                                  matmul_field(t, x, i))
    reference = SwitchedSystem(n=4, N=2, f=matmul_field, h=entry.system.h)
    sig = gen_pattern(PatternConstraint(T=10.0, dm=0.5, dM=2.0), (0.0, 20.0), 5)
    x0 = np.array([0.9, -0.4, 0.3, 0.7])
    cfg = IntegratorConfig(step=1e-2)
    a = simulate(entry.system, sig, 0.0, x0, 20.0, cfg)
    b = simulate(reference, sig, 0.0, x0, 20.0, cfg)
    assert a.states.tobytes() == b.states.tobytes()


def test_registry_descriptor(all_entries):
    for entry in all_entries:
        d = entry.describe()
        assert d["name"] == entry.name
        assert d["expected_verdict"] == "GUAS-consistent"
        assert d["signal_class"]["kind"] == entry.signal_class.kind


def test_unknown_system_rejected():
    with pytest.raises(ParameterError):
        get_entry("nonexistent")


# --- registry certification invariant ----------------------------------------


@pytest.mark.parametrize("name,seed0", [("motivating", 100), ("example1", 200),
                                        ("inverter", 300)])
def test_entry_passes_own_certification(name, seed0):
    # sandwich plus full decrease check over random class trajectories
    from swstab import IntegratorConfig
    entry = get_entry(name)
    n = entry.system.n
    rep = check_sandwich(entry.certificate, -2 * np.ones(n), 2 * np.ones(n),
                         entry.covering, density=5)
    assert rep.passed
    cfg = IntegratorConfig(step=2e-3)
    rng = np.random.default_rng(seed0)
    for k in range(4):
        x0 = rng.uniform(-1.5, 1.5, n)
        sig = entry.signal_class.generator((0.0, 10.0), seed0 + k)
        traj = simulate(entry.system, sig, 0.0, x0, 10.0, cfg)
        dec = check_decrease_along(entry.certificate, traj, sig)
        assert dec.passed, (name, k, dec.slope.worst_margin, dec.revisit.worst_margin)


def test_example4_closed_loop_certification(example4):
    # slope check passes on closed-loop runs; the revisit inequality is only
    # asserted on runs free of boundary sliding, whose chattering
    # approximation sawtooths V1 (exact family members never slide)
    from swstab import IntegratorConfig
    cfg = IntegratorConfig(step=2e-3)
    n = example4.system.n
    rep = check_sandwich(example4.certificate, -2 * np.ones(n), 2 * np.ones(n),
                         example4.covering, density=7)
    assert rep.passed
    rng = np.random.default_rng(13)
    for k in range(4):
        x0 = rng.uniform(-1.5, 1.5, 2)
        traj, sigma = simulate_with_covering(example4.system, example4.covering,
                                             example4.policy, 0.0, x0, 10.0, cfg)
        dec = check_decrease_along(example4.certificate, traj, sigma)
        assert dec.slope.passed, (k, dec.slope.worst_margin)
