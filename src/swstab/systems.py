"""Registry of the four worked example systems, fully wired.

Each entry bundles the switched dynamics with its weak-Lyapunov certificate,
covering, switching-signal class, and reduced limiting system, which inherits
the class's own constraint object, so the certification / envelope /
falsification pipeline can run end to end.  Each entry is one instance of
the paper's classes of functions, and construction checks its scalar
parameters.
"""

from __future__ import annotations

import inspect
import math
import sys
from dataclasses import dataclass
from math import copysign
from typing import Callable, Optional

import numpy as np

from .core import Covering, ParameterError, SwitchedSystem, trivial_covering
from .integrate import ModeSource
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

    A class without a generator is a policy class: its signals come from
    closed-loop runs under the entry's covering policy.
    """

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
    policy: Optional[Callable] = None
    alpha: Callable[[float], float] = lambda s: s           # output-integral gauge
    integral_M: Callable[[np.ndarray], float] = lambda x0: 0.0

    def __post_init__(self):
        if self.covering.N != self.system.N or self.reduced.N != self.system.N:
            raise ParameterError(f"{self.name}: mode counts disagree")
        if self.reduced.n != self.system.n:
            raise ParameterError(f"{self.name}: state dimensions disagree")
        if self.signal_class.generator is None and self.policy is None:
            raise ParameterError(f"{self.name}: policy class without a policy")


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
    names = {"a": a, "copysign": copysign}
    # the odd cube root of x0 is copysign(|x0|^(1/3), x0)
    f = ModeSource(2, ("x1, -x0", "-copysign(abs(x0) ** (1.0 / 3.0), x0) + a * x1, -a * x0"),
                   names).f
    fhat = ModeSource(2, ("x1, -x0", "a * x1, 0.0"), names).f
    h = ModeSource(2, ("0.0", "abs(x0)")).f
    system = SwitchedSystem(n=2, N=2, f=f, h=h, p=1, fhat=fhat, name="motivating")
    cert = LyapunovCertificate(
        V=ModeSource(2, ("0.5 * (x0 * x0 + x1 * x1)",), form="float").f,
        phi1=lambda s: 0.5 * s * s,
        phi2=lambda s: 0.5 * s * s,
        eta=ModeSource(2, ("0.0", "abs(x0) ** (4.0 / 3.0)"), form="float").f,
        dV=lambda t, x, i: np.asarray(x, dtype=float),
    )
    covering = trivial_covering(2)
    reduced = build_reduced(system, covering, [c])
    klass = SignalClass(
        params={"T0": T0, "delta0": delta0, "mode": 2},
        generator=lambda span, seed, granularity=sig.GRANULARITY:
            sig.gen_measure_constrained(c, 2, span, seed, granularity))
    return RegistryEntry(
        name="motivating", system=system, certificate=cert, covering=covering,
        signal_class=klass, reduced=reduced,
        alpha=lambda s: s ** (4.0 / 3.0),
        integral_M=lambda x0: 0.5 * float(np.dot(x0, x0)))


# ---------------------------------------------------------------------------
# example 1: three persistently excited rotations, arbitrary switching
# ---------------------------------------------------------------------------


def example1(mean_dwell: float = 0.3) -> RegistryEntry:
    """Three time-varying planar modes sharing V = |x|^2/2, GUAS under arbitrary switching.

    The paper's gains fixed: g_1 = g_2 = sin, uniformly bounded, and their
    axis restrictions are persistently exciting (the integral of |sin| over
    every window of length pi is 2).  ``mean_dwell`` is the mean time between
    the class signal's mode draws; a draw repeats the mode with probability
    1/3, so switches come about 1.5*mean_dwell apart.
    """
    names = {"sin": math.sin}
    f = ModeSource(2, ("g = sin(t)\n-g * x1, g * x0 - x1",
                       "g = sin(t)\ng * x1 - x0, -g * x0",
                       "g = sin(t) * 2.0\ng * x1 - x0, -g * x0"), names).f
    fhat = ModeSource(2, ("0.0, sin(t) * x0", "sin(t) * x1, 0.0",
                          "2.0 * sin(t) * x1, 0.0"), names).f
    gauge = ("x1 * x1", "x0 * x0")  # mode 1, then modes 2 and 3
    system = SwitchedSystem(n=2, N=3, f=f, h=ModeSource(2, gauge).f, p=1, fhat=fhat,
                            name="example1")
    cert = LyapunovCertificate(
        V=ModeSource(2, ("0.5 * (x0 * x0 + x1 * x1)",), form="float").f,
        phi1=lambda s: 0.5 * s * s,
        phi2=lambda s: 0.5 * s * s,
        eta=ModeSource(2, gauge, form="float").f,
        dV=lambda t, x, i: np.asarray(x, dtype=float),
    )
    covering = trivial_covering(3)
    reduced = build_reduced(system, covering)
    klass = SignalClass(
        params={"mean_dwell": mean_dwell},
        generator=lambda span, seed, granularity=sig.GRANULARITY:
            sig.gen_arbitrary(3, span, mean_dwell, seed, granularity))
    return RegistryEntry(
        name="example1", system=system, certificate=cert, covering=covering,
        signal_class=klass, reduced=reduced,
        integral_M=lambda x0: 0.5 * float(np.dot(x0, x0)))


# ---------------------------------------------------------------------------
# example 4: half-plane covering with multiple Lyapunov functions
# ---------------------------------------------------------------------------


def example4() -> RegistryEntry:
    """Two damped modes on the right half-plane, a conservative rotation on the left.

    The paper's functions fixed: b1 = sin, b2 = 1 + cos, alpha_j(t, v) = v and
    rho_j(v) = v^2.  V1 = V2 = 5|x|^2; V3 is the ellipse form conserved by mode 3.
    The family is the covering-invariant closed loop; the bundled policy picks
    mode 3 on the left half-plane and the stronger-decay mode among {1, 2} on
    the right.
    """
    names = {"sin": math.sin, "cos": math.cos}
    rotate = "-3.0 * x0 + 5.0 * x1, -5.0 * x0 + 3.0 * x1"  # A3 @ x, A3 = [[-3, 5], [-5, 3]]
    f = ModeSource(2, ("b = sin(t)\nb * x1, -b * x0 - x1",
                       "b = 1.0 + cos(t)\n-x0 - b * x1, b * x0", rotate),
                   names, result=FieldTuple).f
    fhat = ModeSource(2, ("0.0, -sin(t) * x0", "-(1.0 + cos(t)) * x1, 0.0", rotate),
                      names, result=FieldTuple).f
    gauge = ("x1 * x1", "x0 * x0", "0.0")
    system = SwitchedSystem(n=2, N=3, f=f, h=ModeSource(2, gauge).f, p=1, fhat=fhat,
                            name="example4")
    circle = "5.0 * x0 * x0 + 5.0 * x1 * x1"
    V = ModeSource(2, (circle, circle, "5.0 * x0 * x0 - 6.0 * x0 * x1 + 5.0 * x1 * x1"),
                   form="float").f

    def dV(t, x, i):
        if i == 3:
            return np.array((10.0 * x[0] - 6.0 * x[1], -6.0 * x[0] + 10.0 * x[1]))
        return np.array((10.0 * x[0], 10.0 * x[1]))

    cert = LyapunovCertificate(
        V=V, phi1=lambda s: 2.0 * s * s, phi2=lambda s: 10.0 * s * s,
        eta=ModeSource(2, gauge, form="float").f, dV=dV)
    covering = Covering(margin=ModeSource(2, ("x0", "x0", "-x0"), form="margin").f, N=3,
                        name="half-plane")

    def policy(t, x, active):
        if x[0] < 0.0 and 3 in active:
            return 3
        if 1 in active and 2 in active:
            return 1 if abs(x[1]) >= abs(x[0]) else 2
        return active[0]

    reduced = build_reduced(system, covering)
    klass = SignalClass(params={})
    return RegistryEntry(
        name="example4", system=system, certificate=cert, covering=covering,
        signal_class=klass, reduced=reduced, policy=policy,
        integral_M=lambda x0: 20.0 * float(np.dot(x0, x0)))


# ---------------------------------------------------------------------------
# switched power inverter with nonlinear time-varying resistive load
# ---------------------------------------------------------------------------

def inverter(L1: float = 1.0, L2: float = 1.0, C1: float = 1.0, C2: float = 1.0,
             T: float = 10.0, dm: float = 0.5, dM: float = 2.0) -> RegistryEntry:
    """Ideal switched model of a semi-quasi-Z-source inverter at zero input voltage.

    States are (i_L1, i_L2, v_C1, v_C2) scaled by P = diag(L1, L2, C1, C2);
    the load enters only through the last state, fixed to g_i(t, v) = v with
    gauge ell_i(v) = v^2 (output C2 x4^2).  The class requires every window of
    length T to contain a 1-2-1 pattern with sub-interval lengths in [dm, dM];
    dM must stay below pi*sqrt(L1*C1), the half-period of the mode-boundary
    oscillation the detectability argument hinges on.
    """
    for nm, v in (("L1", L1), ("L2", L2), ("C1", C1), ("C2", C2)):
        if v <= 0:
            raise ParameterError(f"{nm} must be positive")
    if not (0 < dm <= dM):
        raise ParameterError("need 0 < dm <= dM")
    if dM >= math.pi * math.sqrt(L1 * C1):
        raise ParameterError(f"class premise violated: dM={dM} must be < "
                             f"pi*sqrt(L1*C1)={math.pi * math.sqrt(L1 * C1):.6g}")

    P = np.diag([L1, L2, C1, C2])
    # the entries of P^-1
    names = {"l1": 1.0 / L1, "l2": 1.0 / L2, "c1": 1.0 / C1, "c2": 1.0 / C2}
    # (P^-1 RAW_i) x - x4 e4 by its nonzero terms, RAW_1 rows 0, e3 + e4, -e2,
    # -e2 and RAW_2 rows -e3, e4, e1, -e2: the matmul's values bit for bit
    f = ModeSource(4, ("0.0, l2 * x2 + l2 * x3, -c1 * x1, -c2 * x1 - x3",
                       "-l1 * x2, l2 * x3, c1 * x0, -c2 * x1 - x3"), names).f
    # f without the load and without the (2,4) coupling of each RAW_i: both
    # vanish with x4, exactly where the output does
    fhat = ModeSource(4, ("0.0, l2 * x2, -c1 * x1, -c2 * x1",
                          "-l1 * x2, 0.0, c1 * x0, -c2 * x1"), names).f

    # C2 as a float multiplies as the int or float C2 does; d0 ... d3 the diagonal of P
    load = {"C2": float(C2), **{f"d{j}": d for j, d in enumerate(np.diag(P).tolist())}}
    gauge = "C2 * (x3 * x3)"
    system = SwitchedSystem(n=4, N=2, f=f, h=ModeSource(4, (gauge,), load).f, p=1, fhat=fhat,
                            name="inverter")
    eigs = np.diag(P) / 2.0
    lam_m, lam_M = float(eigs.min()), float(eigs.max())
    cert = LyapunovCertificate(
        V=ModeSource(4, ("0.5 * (x0 * (d0 * x0) + x1 * (d1 * x1) + x2 * (d2 * x2)"
                         " + x3 * (d3 * x3))",), load, form="float").f,
        phi1=lambda s: lam_m * s * s,
        phi2=lambda s: lam_M * s * s,
        eta=ModeSource(4, (gauge,), load, form="float").f,
        dV=lambda t, x, i: P @ x)
    covering = trivial_covering(2)
    pc = sig.PatternConstraint(T=T, dm=dm, dM=dM)
    reduced = build_reduced(system, covering, [pc])
    klass = SignalClass(
        params={"T": T, "dm": dm, "dM": dM},
        generator=lambda span, seed, granularity=sig.GRANULARITY:
            sig.gen_pattern(pc, span, seed, granularity))
    return RegistryEntry(
        name="inverter", system=system, certificate=cert, covering=covering,
        signal_class=klass, reduced=reduced,
        integral_M=lambda x0: 0.5 * float(x0 @ (P @ x0)))


REGISTRY = {"motivating": motivating, "example1": example1,
            "example4": example4, "inverter": inverter}


def is_finite_number(value) -> bool:
    """Whether ``value`` is an int or a float of finite size; a bool is no number."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def get_entry(name: str, **params) -> RegistryEntry:
    if name not in REGISTRY:
        raise ParameterError(f"unknown system {name!r}; known: {sorted(REGISTRY)}")
    unknown = sorted(set(params) - set(inspect.signature(REGISTRY[name]).parameters))
    if unknown:
        raise ParameterError(f"unknown parameters {unknown} for system {name!r}")
    for key, value in params.items():  # every default is an int or a float
        if not is_finite_number(value):
            raise ParameterError(f"parameter {key} of system {name!r} must be a finite "
                                 f"number, got {value!r}")
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

    gen = entry.signal_class.generator
    if gen is None:
        def drive(t0, x0, tf, seed):
            return simulate_with_covering(entry.system, entry.covering,
                                          entry.policy, t0, x0, tf, cfg)
    else:
        def drive(t0, x0, tf, seed):
            sigma = gen((t0, tf), seed)
            return simulate(entry.system, sigma, t0, x0, tf, cfg), sigma
    return drive


def make_driver(entry: RegistryEntry, cfg) -> Callable:
    """Trajectory factory (t0, x0, tf, seed) -> Trajectory for the entry's class."""
    drive = _signal_driver(entry, cfg)
    return lambda t0, x0, tf, seed: drive(t0, x0, tf, seed)[0]
