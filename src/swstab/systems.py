"""Registry of the four worked example systems, fully wired.

Each entry bundles the switched dynamics with its weak-Lyapunov certificate,
covering, switching-signal class, and reduced limiting system, which inherits
the class's own constraint object, so the certification / envelope /
falsification pipeline can run end to end.  Default callables are chosen to
satisfy the required hypotheses with margin; overrides are re-checked by
sampling at construction.
"""

from __future__ import annotations

import inspect
import math
from math import copysign
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import Covering, ParameterError, SwitchedSystem, trivial_covering
from .limiting import ReducedLimitingSystem, build_reduced
from .lyapunov import LyapunovCertificate
from . import signals as sig


class FieldTuple(tuple):
    """A field's value as a tuple of floats whose unary minus negates elementwise,
    as it does on an ndarray, so that ``-f(t, x, i)`` keeps working."""

    __slots__ = ()

    def __neg__(self) -> "FieldTuple":
        return FieldTuple([-v for v in self])


@dataclass(frozen=True)
class SignalClass:
    """Descriptor of an entry's switching class with a bound generator.

    kind "policy" marks closed-loop generation through the entry's covering
    policy instead of an open-loop signal generator.
    """

    kind: str                       # "arbitrary" | "measure" | "pattern" | "policy"
    params: dict
    generator: Optional[Callable] = None   # (span, seed) -> SwitchingSignal


@dataclass(frozen=True)
class RegistryEntry:
    name: str
    system: SwitchedSystem
    certificate: LyapunovCertificate
    covering: Covering
    signal_class: SignalClass
    reduced: ReducedLimitingSystem
    expected_verdict: str = "GUAS-consistent"
    policy: Optional[Callable] = None
    alpha: Callable[[float], float] = lambda s: s           # output-integral gauge
    integral_M: Callable[[np.ndarray], float] = lambda x0: 0.0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.covering.N != self.system.N or self.reduced.N != self.system.N:
            raise ParameterError(f"{self.name}: mode counts disagree")
        if self.reduced.n != self.system.n:
            raise ParameterError(f"{self.name}: state dimensions disagree")
        if self.signal_class.kind == "policy" and self.policy is None:
            raise ParameterError(f"{self.name}: policy class without a policy")


def _sample_check(cond: bool, msg: str) -> None:
    if not cond:
        raise ParameterError(msg)


# ---------------------------------------------------------------------------
# motivating example: rotation + weakly damped mode, measure-constrained class
# ---------------------------------------------------------------------------


def motivating(a: float = 1.0, T0: float = 1.0, delta0: float = 0.2) -> RegistryEntry:
    """Two planar modes: a pure rotation and a cube-root damped rotation.

    Mode 1 conserves |x|; mode 2 dissipates through -x1^(4/3).  Stability of
    the family needs mode 2 active at least delta0 per window of length T0.
    """
    if a <= 0:
        raise ParameterError("a must be positive")
    c = sig.MeasureConstraint(T0=T0, delta0=delta0, mode=2)

    def f(t, x, i):
        if i == 1:
            return (x[1], -x[0])
        x0 = x[0]  # the odd cube root of x0 is copysign(|x0|^(1/3), x0)
        return (-copysign(abs(x0) ** (1.0 / 3.0), x0) + a * x[1], -a * x0)

    def h(t, x, i):
        return (0.0,) if i == 1 else (abs(x[0]),)

    def fhat(t, x, i):
        if i == 1:
            return (x[1], -x[0])
        return (a * x[1], 0.0)

    system = SwitchedSystem(n=2, N=2, f=f, h=h, p=1, fhat=fhat, name="motivating")
    cert = LyapunovCertificate(
        V=lambda t, x, i: 0.5 * float(x @ x),
        phi1=lambda s: 0.5 * s * s,
        phi2=lambda s: 0.5 * s * s,
        eta=lambda t, x, i: 0.0 if i == 1 else abs(x[0]) ** (4.0 / 3.0),
        dV=lambda t, x, i: np.asarray(x, dtype=float),
    )
    covering = trivial_covering(2)
    reduced = build_reduced(system, covering, [c])
    klass = SignalClass(
        kind="measure", params={"T0": T0, "delta0": delta0, "mode": 2},
        generator=lambda span, seed, granularity=sig.GRANULARITY:
            sig.gen_measure_constrained(c, 2, span, seed, granularity))
    return RegistryEntry(
        name="motivating", system=system, certificate=cert, covering=covering,
        signal_class=klass, reduced=reduced,
        alpha=lambda s: s ** (4.0 / 3.0),
        integral_M=lambda x0: 0.5 * float(np.dot(x0, x0)),
        params={"a": a, "T0": T0, "delta0": delta0})


# ---------------------------------------------------------------------------
# example 1: three persistently excited rotations, arbitrary switching
# ---------------------------------------------------------------------------


def example1(g1: Optional[Callable] = None, g2: Optional[Callable] = None,
             pe_window: float = math.pi, pe_exponents: tuple[float, float] = (1.0, 1.0),
             mean_dwell: float = 0.3) -> RegistryEntry:
    """Three time-varying planar modes sharing V = |x|^2/2, GUAS under arbitrary switching.

    g_i(t, xi) must be uniformly bounded; their axis restrictions
    ghat_i(t, v) = g_i(t, v e_i) must be persistently exciting:
    liminf over t of the window integral of |ghat_i|^{r_i} stays positive.
    Defaults g_i = sin(t) satisfy this with window pi and r_i = 1.
    """
    if g1 is None:
        g1 = lambda t, x: math.sin(t)
    if g2 is None:
        g2 = lambda t, x: math.sin(t)
    ghat1 = lambda t, v: g1(t, np.array((v, 0.0)))
    ghat2 = lambda t, v: g2(t, np.array((0.0, v)))

    # sampled hypothesis checks: boundedness and persistent excitation
    tt = np.linspace(0.0, 40.0, 401)
    for ghat, r, nm in ((ghat1, pe_exponents[0], "g1"), (ghat2, pe_exponents[1], "g2")):
        vals = np.array([abs(ghat(t, 1.0)) for t in tt])
        _sample_check(float(vals.max()) < 1e6, f"{nm} must be uniformly bounded")
        for t_anchor in (10.0, 25.0, 40.0):
            s = np.linspace(t_anchor, t_anchor + pe_window, 201)
            pe = np.trapezoid([abs(ghat(si, 1.0)) ** r for si in s], s)
            _sample_check(pe > 1e-6, f"{nm} fails the persistent-excitation bound")

    def f(t, x, i):
        if i == 1:
            g = g1(t, x)
            return (-g * x[1], g * x[0] - x[1])
        g = g2(t, x) * (1.0 if i == 2 else 2.0)
        return (g * x[1] - x[0], -g * x[0])

    def h(t, x, i):
        return (x[1] * x[1],) if i == 1 else (x[0] * x[0],)

    def fhat(t, x, i):
        if i == 1:
            return (0.0, ghat1(t, x[0]) * x[0])
        scale = 1.0 if i == 2 else 2.0
        return (scale * ghat2(t, x[1]) * x[1], 0.0)

    system = SwitchedSystem(n=2, N=3, f=f, h=h, p=1, fhat=fhat, name="example1")
    cert = LyapunovCertificate(
        V=lambda t, x, i: 0.5 * float(x @ x),
        phi1=lambda s: 0.5 * s * s,
        phi2=lambda s: 0.5 * s * s,
        eta=lambda t, x, i: x[1] * x[1] if i == 1 else x[0] * x[0],
        dV=lambda t, x, i: np.asarray(x, dtype=float),
    )
    covering = trivial_covering(3)
    reduced = build_reduced(system, covering)
    klass = SignalClass(
        kind="arbitrary", params={"mean_dwell": mean_dwell},
        generator=lambda span, seed, granularity=sig.GRANULARITY:
            sig.gen_arbitrary(3, span, mean_dwell, seed, granularity))
    return RegistryEntry(
        name="example1", system=system, certificate=cert, covering=covering,
        signal_class=klass, reduced=reduced,
        integral_M=lambda x0: 0.5 * float(np.dot(x0, x0)),
        params={"pe_window": pe_window, "mean_dwell": mean_dwell})


# ---------------------------------------------------------------------------
# example 4: half-plane covering with multiple Lyapunov functions
# ---------------------------------------------------------------------------


def example4(b1: Optional[Callable] = None, b2: Optional[Callable] = None,
             alpha1: Optional[Callable] = None, alpha2: Optional[Callable] = None,
             rho1: Optional[Callable] = None, rho2: Optional[Callable] = None) -> RegistryEntry:
    """Two damped modes on the right half-plane, a conservative rotation on the left.

    V1 = V2 = 5|x|^2; V3 is the ellipse form conserved by mode 3.  The family
    is the covering-invariant closed loop; the bundled policy picks mode 3 on
    the left half-plane and the stronger-decay mode among {1, 2} on the right.
    """
    if b1 is None:
        b1 = math.sin
    if b2 is None:
        b2 = lambda t: 1.0 + math.cos(t)
    if alpha1 is None:
        alpha1 = lambda t, v: v
    if alpha2 is None:
        alpha2 = lambda t, v: v
    if rho1 is None:
        rho1 = lambda v: v * v
    if rho2 is None:
        rho2 = lambda v: v * v

    tt = np.linspace(0.0, 30.0, 301)
    _sample_check(max(abs(b1(t)) for t in tt) < 1e6, "b1 must be bounded")
    _sample_check(max(abs(b2(t)) for t in tt) < 1e6, "b2 must be bounded")
    for t_anchor in (5.0, 15.0, 25.0):
        s = np.linspace(t_anchor, t_anchor + 1.0, 101)
        _sample_check(np.trapezoid([abs(b1(si)) for si in s], s) > 1e-6,
                      "b1 fails the activity bound")
    vv = np.linspace(-3.0, 3.0, 61)
    for rho, al, nm in ((rho1, alpha1, "1"), (rho2, alpha2, "2")):
        for t in (0.0, 1.7, 9.3):
            bad = [v for v in vv if rho(v) > v * al(t, v) + 1e-12]
            _sample_check(not bad, f"rho{nm}(v) <= v*alpha{nm}(t,v) fails at {bad[:1]}")

    A3 = np.array([[-3.0, 5.0], [-5.0, 3.0]])

    def rotate(x) -> FieldTuple:
        # A3 @ x, read out: OpenBLAS rounds each row of the 2x2 matmul as one
        # fused multiply-add, which no Python 3.11 float expression reproduces
        return FieldTuple((A3 @ x).tolist())

    def f(t, x, i):
        if i == 1:
            b = b1(t)
            return FieldTuple((b * x[1], -b * x[0] - alpha1(t, x[1])))
        if i == 2:
            b = b2(t)
            return FieldTuple((-alpha2(t, x[0]) - b * x[1], b * x[0]))
        return rotate(x)

    def h(t, x, i):
        if i == 1:
            return (rho1(x[1]),)
        if i == 2:
            return (rho2(x[0]),)
        return (0.0,)

    def fhat(t, x, i):
        if i == 1:
            return FieldTuple((0.0, -b1(t) * x[0]))
        if i == 2:
            return FieldTuple((-b2(t) * x[1], 0.0))
        return rotate(x)

    system = SwitchedSystem(n=2, N=3, f=f, h=h, p=1, fhat=fhat, name="example4")

    def V(t, x, i):
        if i == 3:
            return 5.0 * x[0] * x[0] - 6.0 * x[0] * x[1] + 5.0 * x[1] * x[1]
        return 5.0 * x[0] * x[0] + 5.0 * x[1] * x[1]

    def dV(t, x, i):
        if i == 3:
            return np.array((10.0 * x[0] - 6.0 * x[1], -6.0 * x[0] + 10.0 * x[1]))
        return np.array((10.0 * x[0], 10.0 * x[1]))

    cert = LyapunovCertificate(
        V=V, phi1=lambda s: 2.0 * s * s, phi2=lambda s: 10.0 * s * s,
        eta=lambda t, x, i: rho1(x[1]) if i == 1 else (rho2(x[0]) if i == 2 else 0.0),
        dV=dV)
    covering = Covering(margin=lambda x, i: x[0] if i in (1, 2) else -x[0], N=3,
                        name="half-plane")

    def policy(t, x, active):
        if x[0] < 0.0 and 3 in active:
            return 3
        if 1 in active and 2 in active:
            return 1 if abs(x[1]) >= abs(x[0]) else 2
        return active[0]

    reduced = build_reduced(system, covering)
    klass = SignalClass(kind="policy", params={})
    return RegistryEntry(
        name="example4", system=system, certificate=cert, covering=covering,
        signal_class=klass, reduced=reduced, policy=policy,
        integral_M=lambda x0: 20.0 * float(np.dot(x0, x0)),
        params={})


# ---------------------------------------------------------------------------
# switched power inverter with nonlinear time-varying resistive load
# ---------------------------------------------------------------------------

def inverter(L1: float = 1.0, L2: float = 1.0, C1: float = 1.0, C2: float = 1.0,
             g1: Optional[Callable] = None, g2: Optional[Callable] = None,
             ell1: Optional[Callable] = None, ell2: Optional[Callable] = None,
             T: float = 10.0, dm: float = 0.5, dM: float = 2.0) -> RegistryEntry:
    """Ideal switched model of a semi-quasi-Z-source inverter at zero input voltage.

    States are (i_L1, i_L2, v_C1, v_C2) scaled by P = diag(L1, L2, C1, C2);
    the load enters only through the last state.  The class requires every
    window of length T to contain a 1-2-1 pattern with sub-interval lengths
    in [dm, dM]; dM must stay below pi*sqrt(L1*C1), the half-period of the
    mode-boundary oscillation the detectability argument hinges on.
    """
    for nm, v in (("L1", L1), ("L2", L2), ("C1", C1), ("C2", C2)):
        if v <= 0:
            raise ParameterError(f"{nm} must be positive")
    if not (0 < dm <= dM):
        raise ParameterError("need 0 < dm <= dM")
    if dM >= math.pi * math.sqrt(L1 * C1):
        raise ParameterError(f"class premise violated: dM={dM} must be < "
                             f"pi*sqrt(L1*C1)={math.pi * math.sqrt(L1 * C1):.6g}")
    if g1 is None:
        g1 = lambda t, v: v
    if g2 is None:
        g2 = lambda t, v: v
    if ell1 is None:
        ell1 = lambda v: v * v
    if ell2 is None:
        ell2 = lambda v: v * v
    vv = np.linspace(-3.0, 3.0, 61)
    for ell, g, nm in ((ell1, g1, "1"), (ell2, g2, "2")):
        for t in (0.0, 2.3, 11.0):
            bad = [v for v in vv if ell(v) > v * g(t, v) + 1e-12]
            _sample_check(not bad, f"ell{nm}(v) <= v*g{nm}(t,v) fails at {bad[:1]}")

    P = np.diag([L1, L2, C1, C2])
    ells = (ell1, ell2)
    l1, l2, c1, c2 = 1.0 / L1, 1.0 / L2, 1.0 / C1, 1.0 / C2   # the entries of P^-1

    def f(t, x, i):
        # (P^-1 RAW_i) x - g_i(t, x4) e4 by its nonzero terms, RAW_1 rows 0, e3 + e4,
        # -e2, -e2 and RAW_2 rows -e3, e4, e1, -e2: the matmul's values bit for bit
        if i == 1:
            return (0.0, l2 * x[2] + l2 * x[3], -c1 * x[1], -c2 * x[1] - g1(t, x[3]))
        return (-l1 * x[2], l2 * x[3], c1 * x[0], -c2 * x[1] - g2(t, x[3]))

    def h(t, x, i):
        return (C2 * ells[i - 1](x[3]),)

    def fhat(t, x, i):
        # f without the load and without the (2,4) coupling of each RAW_i: both
        # vanish with x4, exactly where the output does
        return (0.0, l2 * x[2], -c1 * x[1], -c2 * x[1]) if i == 1 else \
            (-l1 * x[2], 0.0, c1 * x[0], -c2 * x[1])

    system = SwitchedSystem(n=4, N=2, f=f, h=h, p=1, fhat=fhat, name="inverter")
    eigs = np.diag(P) / 2.0
    lam_m, lam_M = float(eigs.min()), float(eigs.max())
    cert = LyapunovCertificate(
        V=lambda t, x, i: 0.5 * float(x @ (P @ x)),
        phi1=lambda s: lam_m * s * s,
        phi2=lambda s: lam_M * s * s,
        eta=lambda t, x, i: C2 * ells[i - 1](x[3]),
        dV=lambda t, x, i: P @ x)
    covering = trivial_covering(2)
    pc = sig.PatternConstraint(T=T, dm=dm, dM=dM)
    reduced = build_reduced(system, covering, [pc])
    klass = SignalClass(
        kind="pattern", params={"T": T, "dm": dm, "dM": dM},
        generator=lambda span, seed, granularity=sig.GRANULARITY:
            sig.gen_pattern(pc, span, seed, granularity))
    return RegistryEntry(
        name="inverter", system=system, certificate=cert, covering=covering,
        signal_class=klass, reduced=reduced,
        integral_M=lambda x0: 0.5 * float(x0 @ (P @ x0)),
        params={"L1": L1, "L2": L2, "C1": C1, "C2": C2, "T": T, "dm": dm, "dM": dM})


REGISTRY = {"motivating": motivating, "example1": example1,
            "example4": example4, "inverter": inverter}


def get_entry(name: str, **params) -> RegistryEntry:
    if name not in REGISTRY:
        raise ParameterError(f"unknown system {name!r}; known: {sorted(REGISTRY)}")
    unknown = sorted(set(params) - set(inspect.signature(REGISTRY[name]).parameters))
    if unknown:
        raise ParameterError(f"unknown parameters {unknown} for system {name!r}")
    return REGISTRY[name](**params)


def _signal_driver(entry: RegistryEntry, cfg) -> Callable:
    """Trajectory factory (t0, x0, tf, seed) -> (Trajectory, SwitchingSignal)
    for the entry's class: the one place that picks open- or closed-loop
    simulation.

    Open-loop classes simulate under a freshly generated class signal;
    policy classes run the bundled closed-loop covering policy and ignore
    the seed.
    """
    from .integrate import simulate, simulate_with_covering

    if entry.signal_class.kind == "policy":
        def drive(t0, x0, tf, seed):
            return simulate_with_covering(entry.system, entry.covering,
                                          entry.policy, t0, x0, tf, cfg)
    else:
        gen = entry.signal_class.generator

        def drive(t0, x0, tf, seed):
            sigma = gen((t0, tf), seed)
            return simulate(entry.system, sigma, t0, x0, tf, cfg), sigma
    return drive


def make_driver(entry: RegistryEntry, cfg) -> Callable:
    """Trajectory factory (t0, x0, tf, seed) -> Trajectory for the entry's class."""
    drive = _signal_driver(entry, cfg)
    return lambda t0, x0, tf, seed: drive(t0, x0, tf, seed)[0]
