"""Registry wiring: dynamics values, decompositions, certificates, parameters."""

import inspect
import math
import struct

import numpy as np
import pytest

from swstab import (REGISTRY, IntegratorConfig, ParameterError, get_entry, simulate,
                    simulate_with_covering)
from swstab.lyapunov import check_decrease_along, check_sandwich


def test_motivating_mode2_odd_cube_root(motivating):
    # with x1 = 0 the mode-2 field's first component is minus the odd cube root of x0
    f = motivating.system.f
    assert f(0.0, [-8.0, 0.0], 2)[0] == 2.0
    assert f(0.0, [0.0, 0.0], 2)[0] == 0.0
    assert f(0.0, [27.0, 0.0], 2)[0] == -3.0
    # bit for bit the copysign expression; x1 = -0.0 adds a * x1 = -0.0, which
    # leaves every float as it is, signed zeros included
    rng = np.random.default_rng(17)
    values = (rng.standard_normal(10_000) * 10.0 ** rng.uniform(-300, 300, 10_000)).tolist()
    values[:5] = [0.0, -0.0, 5e-324, -5e-324, -math.inf]
    for v in values:
        got = -f(0.0, [v, -0.0], 2)[0]
        want = math.copysign(abs(v) ** (1.0 / 3.0), v)
        assert struct.pack("<d", got) == struct.pack("<d", want), v


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


def _example4_ndarray_fields():
    """example4's f, fhat, h and eta as the ndarray expressions they were, through
    the class functions b1 = sin, b2 = 1 + cos, alpha_j(t, v) = v, rho_j(v) = v*v."""
    b1, b2 = math.sin, lambda t: 1.0 + math.cos(t)
    alpha = lambda t, v: v
    rho = lambda v: v * v
    A3 = np.array([[-3.0, 5.0], [-5.0, 3.0]])

    def f(t, x, i):
        if i == 1:
            b = b1(t)
            return np.array((b * x[1], -b * x[0] - alpha(t, x[1])))
        if i == 2:
            b = b2(t)
            return np.array((-alpha(t, x[0]) - b * x[1], b * x[0]))
        return A3 @ x

    def fhat(t, x, i):
        if i == 1:
            return np.array((0.0, -b1(t) * x[0]))
        if i == 2:
            return np.array((-b2(t) * x[1], 0.0))
        return A3 @ x

    def h(t, x, i):
        return np.array((rho(x[1]) if i == 1 else (rho(x[0]) if i == 2 else 0.0),))

    return f, fhat, h, lambda t, x, i: h(t, x, i)[0]


def _draw_states(rng, n, count):
    """Rows over six decades, with +0.0 and -0.0 components mixed in."""
    rows = rng.uniform(-3.0, 3.0, (count, n)) * 10.0 ** rng.uniform(-3.0, 3.0, (count, n))
    u = rng.random((count, n))
    rows[u < 0.05] = 0.0
    rows[u > 0.95] = -0.0
    return rows


def test_example4_float_fields_equal_ndarray_forms(example4):
    # the tuple fields, the outputs and eta, and the reduced system's columns, hold
    # the ndarray forms' values bit for bit in modes 1 and 2, zero signs included,
    # whether the state is a list or a row.  Mode 3 rounds its two products and
    # their sum as floats, where numpy's A3 @ x may fuse a product into the sum:
    # both share the rounding of 5 x1 or 3 x1, and differ by at most half an ulp
    # of the other product plus one ulp of the result, within 2 ulp of
    # |A3| @ |x| (a zero result is compared without its sign)
    system, Fhat, eta = example4.system, example4.reduced.Fhat, example4.certificate.eta
    old_f, old_fhat, old_h, old_eta = _example4_ndarray_fields()
    A3 = np.array([[-3.0, 5.0], [-5.0, 3.0]])
    rng = np.random.default_rng(44)
    for row in _draw_states(rng, 2, 5000):
        t = float(rng.uniform(0.0, 50.0))
        ulp2 = 2.0 * np.spacing(np.abs(A3) @ np.abs(row))
        for x in (row.tolist(), row):
            columns = Fhat(t, x)
            for i in (1, 2, 3):
                assert np.float64(eta(t, x, i)).tobytes() == old_eta(t, row, i).tobytes()
                assert np.array(system.h(t, x, i)).tobytes() == old_h(t, row, i).tobytes()
            for i in (1, 2):
                for new, old in ((system.f, old_f), (system.fhat, old_fhat)):
                    assert np.array(new(t, x, i)).tobytes() == old(t, row, i).tobytes()
                assert columns[:, i - 1].tobytes() == old_fhat(t, row, i).tobytes()
            want = A3 @ row
            for new in (system.f(t, x, 3), system.fhat(t, x, 3), columns[:, 2]):
                assert np.all(np.abs(np.array(new) - want) <= ulp2), (row, new, want)


def test_registry_V_equals_numpy_forms(all_entries):
    # the certificates are plain float sums of at most four nonnegative terms,
    # within 4 * 2**-53 relative of the numpy forms they stand for,
    # 0.5 * x @ x and 0.5 * x @ (P @ x)
    by_name = {e.name: e for e in all_entries}
    quadratic = lambda P: lambda x: x @ (np.diag(P) @ x)
    cases = [(by_name["motivating"], lambda x: x @ x),
             (by_name["example1"], lambda x: x @ x),
             (by_name["inverter"], quadratic([1.0, 1.0, 1.0, 1.0])),
             (get_entry("inverter", L1=0.3, L2=2.7, C1=1.7, C2=0.45),
              quadratic([0.3, 2.7, 1.7, 0.45]))]
    rng = np.random.default_rng(47)
    for entry, form in cases:
        for row in _draw_states(rng, entry.system.n, 3000):
            want = 0.5 * float(form(row))
            for i in range(1, entry.system.N + 1):
                got = entry.certificate.V(0.0, row.tolist(), i)
                assert abs(got - want) <= 4.0 * 2.0 ** -53 * want, (entry.name, row, got, want)


def test_registry_certificates_same_on_lists_and_rows(all_entries):
    # V, eta and dV give the same bits whichever state type the caller holds
    rng = np.random.default_rng(48)
    for entry in all_entries:
        cert = entry.certificate
        for row in _draw_states(rng, entry.system.n, 1000):
            t = float(rng.uniform(0.0, 50.0))
            for i in range(1, entry.system.N + 1):
                for fn in (cert.V, cert.eta):
                    assert (np.float64(fn(t, row.tolist(), i)).tobytes()
                            == np.float64(fn(t, row, i)).tobytes())
                assert (np.asarray(cert.dV(t, row.tolist(), i), dtype=float).tobytes()
                        == np.asarray(cert.dV(t, row, i), dtype=float).tobytes())


def test_example4_fields_negate_elementwise(example4):
    # -f(t, x, i) is how callers outside swstab reverse the dynamics
    rng = np.random.default_rng(45)
    for x in [[0.0, 0.0], [-0.0, 1.5]] + rng.uniform(-2.0, 2.0, (20, 2)).tolist():
        for field in (example4.system.f, example4.system.fhat):
            for i in (1, 2, 3):
                value = field(0.3, x, i)
                negated = -value
                assert np.array(negated).tobytes() == np.array([-v for v in value]).tobytes()
                assert np.array(-negated).tobytes() == np.array(value).tobytes()


def test_example4_negated_closed_loop_fails_slope_check(example4):
    from dataclasses import replace

    f = example4.system.f
    flipped = replace(example4.system, f=lambda t, x, i: -f(t, x, i))
    traj, sigma = simulate_with_covering(flipped, example4.covering, example4.policy, 1.0,
                                         np.array([0.8, 0.5]), 6.0, IntegratorConfig(step=1e-2))
    assert not check_decrease_along(example4.certificate, traj, sigma).slope.passed


def test_example4_default_hypotheses(example4):
    # rho_j(v) <= v*alpha_j(t, v) holds with equality: along modes 1 and 2,
    # V' = <dV, f> is -10 eta
    rng = np.random.default_rng(46)
    for _ in range(200):
        x = rng.uniform(-2.0, 2.0, 2)
        t = float(rng.uniform(0.0, 30.0))
        for i in (1, 2):
            vdot = example4.certificate.dV(t, x, i) @ np.array(example4.system.f(t, x, i))
            assert vdot == pytest.approx(-10.0 * example4.certificate.eta(t, x, i),
                                         rel=1e-12, abs=1e-12)


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


def check_zeroing_part(system, rng, n_samples=300):
    """Assert the zeroing part f - fhat of every mode vanishes on its zero-output set.

    Each random state is tried as drawn and with one coordinate set to zero;
    the variants where the mode's output is exactly zero are the samples.
    """
    on_set = dict.fromkeys(range(1, system.N + 1), 0)
    for _ in range(n_samples):
        t = float(rng.uniform(0.0, 50.0))
        row = rng.uniform(-2.0, 2.0, system.n)
        for j in range(-1, system.n):
            x = row.copy()
            if j >= 0:
                x[j] = 0.0
            for i in on_set:
                if np.any(np.asarray(system.h(t, x.tolist(), i), dtype=float) != 0.0):
                    continue
                on_set[i] += 1
                zeroing = np.subtract(system.f(t, x.tolist(), i), system.fhat(t, x.tolist(), i))
                assert np.max(np.abs(zeroing)) <= 1e-12, (system.name, i, t, x)
    assert all(on_set.values()), (system.name, on_set)


def test_decomposition_consistency(all_entries):
    # fields return tuples, lists or arrays; the flip returns lists.  The
    # zero-output sets: motivating mode 1 everywhere and mode 2 on x1 = 0,
    # example1 mode 1 on x2 = 0 and modes 2, 3 on x1 = 0, example4 mode 1 on
    # x2 = 0, mode 2 on x1 = 0 and mode 3 everywhere, inverter on x4 = 0
    from swstab.cli import _flip_system
    rng = np.random.default_rng(12)
    for entry in all_entries:
        for system in (entry.system, _flip_system(entry.system)):
            check_zeroing_part(system, rng)


def test_decomposition_mutation_fails(motivating):
    # a precompact part that drops mode 1's rotation leaves a zeroing part
    # (x2, -x1) on mode 1's zero-output set, which is the whole plane
    from dataclasses import replace
    fhat = motivating.system.fhat
    broken = replace(motivating.system,
                     fhat=lambda t, x, i: (0.0, 0.0) if i == 1 else fhat(t, x, i))
    with pytest.raises(AssertionError):
        check_zeroing_part(broken, np.random.default_rng(12))


@pytest.mark.parametrize("params", [{}, {"L1": 0.7, "L2": 1.3, "C1": 0.9, "C2": 1.1},
                                    {"L1": 0.3, "L2": 2.7, "C1": 1.7, "C2": 0.45}])
def test_inverter_field_is_the_matmul(params):
    # the written-out field equals (Pinv @ RAW_i) @ x - e4 * g_i(t, x4) on every
    # state (values compared, so a zero of either sign counts as equal), the
    # output and eta are C2 * ell_i(x4) bit for bit, and a run of the field
    # equals a run of the matmul field bit for bit
    from swstab import SwitchedSystem, gen_pattern, PatternConstraint
    entry = get_entry("inverter", **params)
    L1, L2, C1, C2 = (params.get(k, 1.0) for k in ("L1", "L2", "C1", "C2"))
    Pinv = np.diag([1.0 / L1, 1.0 / L2, 1.0 / C1, 1.0 / C2])
    A = (Pinv @ np.array([[0, 0, 0, 0], [0, 0, 1, 1], [0, -1, 0, 0], [0, -1, 0, 0]], dtype=float),
         Pinv @ np.array([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]], dtype=float))
    e4 = np.array([0.0, 0.0, 0.0, 1.0])

    g = lambda t, v: v       # the load g_i(t, v)
    ell = lambda v: v * v    # its gauge ell_i(v)

    def matmul_field(t, x, i):
        return A[i - 1] @ x - e4 * g(t, x[3])

    rng = np.random.default_rng(41)
    for _ in range(5000):
        x = rng.uniform(-3.0, 3.0, 4) * 10.0 ** rng.uniform(-3.0, 3.0, 4)
        t = float(rng.uniform(0.0, 20.0))
        for i in (1, 2):
            assert np.array_equal(np.asarray(entry.system.f(t, x.tolist(), i)),
                                  matmul_field(t, x, i))
            gauge = np.float64(C2 * ell(x[3])).tobytes()
            assert np.array(entry.system.h(t, x.tolist(), i)).tobytes() == gauge
            assert np.float64(entry.certificate.eta(t, x, i)).tobytes() == gauge
    reference = SwitchedSystem(n=4, N=2, f=matmul_field, h=entry.system.h)
    sig = gen_pattern(PatternConstraint(T=10.0, dm=0.5, dM=2.0), (0.0, 20.0), 5)
    x0 = np.array([0.9, -0.4, 0.3, 0.7])
    cfg = IntegratorConfig(step=1e-2)
    a = simulate(entry.system, sig, 0.0, x0, 20.0, cfg)
    b = simulate(reference, sig, 0.0, x0, 20.0, cfg)
    assert a.states.tobytes() == b.states.tobytes()


def test_unknown_system_rejected():
    with pytest.raises(ParameterError):
        get_entry("nonexistent")


@pytest.mark.parametrize("name, params", [
    ("example1", {"mean_dwell": "x"}),
    ("example1", {"mean_dwell": math.inf}),
    ("example1", {"mean_dwell": math.nan}),
    ("motivating", {"a": True}),
    ("motivating", {"T0": None}),
    ("inverter", {"C2": 10 ** 400}),  # an int beyond the float range
    ("inverter", {"L1": [1.0]}),
])
def test_registry_parameters_must_be_finite_numbers(name, params):
    (key,) = params
    with pytest.raises(ParameterError, match=key):
        get_entry(name, **params)


def test_registry_parameters_take_ints_and_floats():
    assert get_entry("motivating", a=2).system.name == "motivating"
    a = get_entry("inverter", C2=2, L1=3)
    b = get_entry("inverter", C2=2.0, L1=3.0)
    c = get_entry("inverter", C2=np.float64(2.0), L1=np.float64(3.0))  # a numpy sweep's
    x = [0.3, -1.1, 0.7, 1.9]
    for i in (1, 2):
        assert a.system.h(0.0, x, i) == b.system.h(0.0, x, i) == c.system.h(0.0, x, i)
        assert (a.certificate.V(0.0, x, i) == b.certificate.V(0.0, x, i)
                == c.certificate.V(0.0, x, i))


def test_registry_parameters_are_manifest_scalars():
    # a manifest's system.params can set ints and floats only, so every
    # parameter of a registry constructor defaults to one of them
    for name, make in REGISTRY.items():
        for p in inspect.signature(make).parameters.values():
            assert type(p.default) in (int, float), (name, p.name, p.default)


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
