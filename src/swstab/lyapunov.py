"""Numerical certification of weak multiple-Lyapunov conditions along trajectories.

Three checks: the class-K sandwich bound on V, the per-step decrease of V
against its gauge eta (plus the non-increase of V_i across same-mode
revisits), and the sliding-pair integral bound on a gauge of the output.
Decrease is certified by finite differences along simulated trajectories,
not symbolically: outputs and dynamics need only be measurable in t.  Every
verdict carries the slack that separated it from discretization noise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (BOUNDARY_TOL, MAX_SAMPLES, Covering, ParameterError, SwitchedSystem,
                   SwitchingSignal, Trajectory)
from .integrate import _at_rows, _node_modes

SANDWICH_TOL = 1e-9
REVISIT_TOL = 1e-7
QUAD_COEFF = 10.0  # integral-bound quadrature slack: QUAD_COEFF * h_max^2 per unit time
SLACK_FLOOR = 1e-9
SLACK_CURVATURE_FACTOR = 10.0  # slack = factor * observed |second difference of V|


@dataclass(frozen=True)
class LyapunovCertificate:
    """Candidate weak Lyapunov data: V, its class-K sandwich, and the decrease gauge.

    V(t, xi, i) >= 0; phi1(|xi|) <= V <= phi2(|xi|) on the piece of mode i;
    eta(t, xi, i) >= 0 bounds -dV/dt along mode i.  The trajectory checks run
    a ``integrate.ModeSource(..., form="float")`` V or eta on the state columns,
    once per mode, and hand any other callable the state as a list of floats.
    ``dV`` optionally supplies the analytic state gradient for consistency
    testing.  phi1/phi2 are sample-checked at construction: zero at zero and
    strictly increasing, so that a NaN sample fails.
    """

    V: Callable[[float, list[float], int], float]
    phi1: Callable[[float], float]
    phi2: Callable[[float], float]
    eta: Callable[[float, list[float], int], float]
    dV: Optional[Callable[[float, Sequence[float], int], np.ndarray]] = None

    def __post_init__(self):
        for name, phi in (("phi1", self.phi1), ("phi2", self.phi2)):
            if phi(0.0) != 0.0:
                raise ParameterError(f"{name}(0) must be 0")
            samples = [phi(s) for s in (1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 5.0)]
            if not all(b > a for a, b in zip(samples, samples[1:])) or not samples[0] > 0:
                raise ParameterError(f"{name} must be strictly increasing from 0")


@dataclass(frozen=True)
class IntegralBoundParams:
    """Bound parameters: integral of alpha(|h|) over [s, t] <= M + mu*(t-s)."""

    alpha: Callable[[float], float]
    M: float
    mu: float

    def __post_init__(self):
        if not (self.M >= 0 and self.mu >= 0):  # NaN too
            raise ParameterError("M and mu must be nonnegative")
        if self.alpha(0.0) != 0.0 or not all(self.alpha(s) > 0
                                             for s in (1e-3, 0.1, 1.0, 10.0)):
            raise ParameterError("alpha must be positive definite")


@dataclass(frozen=True)
class CheckReport:
    """Uniform verdict record: worst margin <= 0 means the check passed."""

    check: str
    passed: bool
    worst_margin: float
    worst_location: tuple
    slack: float
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"check": self.check, "pass": self.passed,
                "worst_margin": self.worst_margin,
                "worst_location": list(self.worst_location),
                "slack": self.slack, **self.extra}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def _worst(margins: np.ndarray, order: np.ndarray | None = None) -> tuple[int | None, float]:
    """(index, margin) of the worst margin: the first NaN if there is one, else the
    first maximum, first in ``order`` (an index permutation) when given; (None,
    -inf) when no margin exceeds -inf."""
    nan = np.isnan(margins)
    if nan.any():
        return int(np.argmax(nan)), math.nan
    ranked = margins if order is None else margins[order]
    if not np.max(ranked, initial=-np.inf) > -np.inf:
        return None, -math.inf
    k = int(np.argmax(ranked))
    return (k if order is None else int(order[k])), float(ranked[k])


def check_sandwich(cert: LyapunovCertificate, box_lo, box_hi, covering: Covering,
                   density: int = 9) -> CheckReport:
    """Sample phi1(|xi|) <= V(0, xi, i) <= phi2(|xi|) over a box, per covering piece.

    A NaN margin fails the check and is reported at the first NaN point."""
    box_lo = np.asarray(box_lo, dtype=float)
    box_hi = np.asarray(box_hi, dtype=float)
    if np.any(box_lo > 0) or np.any(box_hi < 0):
        raise ParameterError("sample box must contain the origin")
    if density ** len(box_lo) > MAX_SAMPLES:
        raise ParameterError(f"density {density} samples over {MAX_SAMPLES} points")
    axes = [np.linspace(lo, hi, density) for lo, hi in zip(box_lo, box_hi)]
    pts = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    pts = np.vstack([pts, np.zeros(len(box_lo))])
    r = np.array([np.linalg.norm(xi) for xi in pts])  # per row: norm(axis=1) rounds otherwise
    phi1 = np.array([cert.phi1(float(s)) for s in r])
    phi2 = np.array([cert.phi2(float(s)) for s in r])
    margins = np.full((len(pts), covering.N), -np.inf)  # point-major, mode-minor
    n_checked = 0
    for i in range(1, covering.N + 1):
        mode = np.full(len(pts), i)
        on = np.flatnonzero(_at_rows(covering.margin, None, pts, mode) >= -BOUNDARY_TOL)
        n_checked += len(on)
        v = _at_rows(cert.V, np.zeros(len(on)), pts[on], mode[on])
        # NaN if either side is, else as the builtin max(below, above) picks a tied zero
        margins[on, i - 1] = np.maximum(v - phi2[on], phi1[on] - v)
    k, worst = _worst(margins.ravel())
    where = (0.0, 0, 0.0) if k is None else (0.0, k % covering.N + 1, float(r[k // covering.N]))
    return CheckReport(check="sandwich", passed=worst <= SANDWICH_TOL, worst_margin=worst,
                       worst_location=where, slack=SANDWICH_TOL, extra={"points": n_checked})


@dataclass(frozen=True)
class DecreaseReport:
    slope: CheckReport
    revisit: CheckReport

    @property
    def passed(self) -> bool:
        return self.slope.passed and self.revisit.passed

    def to_dict(self) -> dict:
        return {"check": "decrease_along", "pass": self.passed,
                "slope": self.slope.to_dict(), "revisit": self.revisit.to_dict()}


def _along_steps(at_rows, times: np.ndarray, states: np.ndarray,
                 modes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """at_rows(times, states, modes), values at rows, at every node under the
    node's mode, and at every step's end under the step's mode.

    A step reads its own mode at both ends, so a switch node (a node whose
    mode differs from its predecessor's) is evaluated once more, under the
    outgoing mode: m + |switch nodes| rows in all.  Returns the node values
    (m) and the step-end values (m - 1).
    """
    m, k = len(modes), np.flatnonzero(modes[1:] != modes[:-1]) + 1  # k: the switch nodes
    values = at_rows(np.concatenate((times, times[k])), np.concatenate((states, states[k])),
                     np.concatenate((modes, modes[k - 1])))  # the nodes, then the switch nodes
    end = values[1:m].copy()
    end[k - 1] = values[m:]
    return values[:m], end


def check_decrease_along(cert: LyapunovCertificate, traj: Trajectory,
                         sigma: SwitchingSignal) -> DecreaseReport:
    """Finite-difference decrease check along a trajectory.

    Slope part: on every step, under the step's mode i, the slope of
    V(t, x(t), i) must not exceed -eta evaluated at the step midpoint
    (linearly interpolated state) plus a slack calibrated from the observed
    second differences of V along steps of one mode, which capture the
    discretization error scale.

    Revisit part: for each mode i, V_i sampled at the grid times where i is
    active must never rise above its running minimum by more than REVISIT_TOL.

    V and eta go through the step-endpoint evaluator that the integral
    bound's output gauge also uses: once per node under the node's mode and
    once more at each switch node under the outgoing mode.  eta is evaluated
    once more per step at its midpoint.  All steps are checked at once.  A
    NaN in V, in eta or in the slack fails the part that reads it, which
    then reports a NaN worst margin at the first NaN step (slope) or node
    (revisit).
    """
    if traj.t0 < sigma.domain_start - 1e-9 or traj.tf > sigma.domain_end + 1e-9:
        raise ParameterError("trajectory span not covered by the signal")
    modes = _node_modes(traj, sigma)
    V, V_end = _along_steps(partial(_at_rows, cert.V), traj.times, traj.states, modes)
    eta, eta_end = _along_steps(partial(_at_rows, cert.eta), traj.times, traj.states, modes)

    # one slack for the whole trajectory, calibrated from the second
    # differences of V and of the gauge over pairs of steps of one mode (the
    # discretization error scale of the slope and of the step-mean gauge)
    same = modes[1:-1] == modes[:-2]
    dV = V_end - V[:-1]
    d_eta = eta_end - eta[:-1]
    d2v = np.abs(dV[1:] - dV[:-1])[same]
    d2e = np.abs(d_eta[1:] - d_eta[:-1])[same]
    # np.max keeps a NaN that the builtin max would drop
    slack = float(np.max([SLACK_FLOOR, SLACK_CURVATURE_FACTOR * np.max(d2v, initial=0.0),
                          0.5 * np.max(d2e, initial=0.0)]))

    slopes = dV / np.diff(traj.times)
    # eta at each step's midpoint time and linearly interpolated state
    eta_mid = _at_rows(cert.eta, 0.5 * (traj.times[:-1] + traj.times[1:]),
                       0.5 * (traj.states[:-1] + traj.states[1:]), modes[:-1])
    pre = slopes + np.minimum(0.5 * (eta[:-1] + eta_end), eta_mid)
    k, worst_slope = _worst(pre - slack)
    if slack != slack:  # every margin is NaN: report the first NaN step of pre, else the first
        k = int(np.argmax(np.isnan(pre)))
    slope_where = (0.0, 0) if k is None else (traj.times[k].item(), int(modes[k]))
    slope_report = CheckReport(check="decrease_slope", passed=worst_slope <= 0.0,
                               worst_margin=worst_slope, worst_location=slope_where,
                               slack=slack)

    # revisit part: V_i at every node under the node's own mode, against the
    # running minimum of the mode's earlier nodes; ties go to the lower mode
    rev = np.empty(len(V))
    for i in set(modes[np.append(True, modes[1:] != modes[:-1])].tolist()):  # runs' modes
        idx = np.flatnonzero(modes == i)
        v = V[idx]
        rev[idx] = v - np.minimum.accumulate(np.concatenate(([np.inf], v[:-1]))) - REVISIT_TOL
    k, worst_rev = _worst(rev, np.lexsort((modes,)))
    rev_where = (0.0, 0) if k is None else (traj.times[k].item(), int(modes[k]))
    revisit_report = CheckReport(check="mode_revisit", passed=worst_rev <= 0.0,
                                 worst_margin=worst_rev, worst_location=rev_where,
                                 slack=REVISIT_TOL)
    return DecreaseReport(slope=slope_report, revisit=revisit_report)


def _output_gauge(y: np.ndarray, alpha) -> np.ndarray:
    """alpha(|y|) of each (m, p) output row, called on floats; |y| is the norm
    ``math.hypot`` takes, for p = 1 exactly abs."""
    norms = np.abs(y[:, 0]).tolist() if y.shape[1] == 1 else [math.hypot(*r) for r in y.tolist()]
    return np.fromiter(map(alpha, norms), float, len(norms))


def check_integral_bound(traj: Trajectory, sigma: SwitchingSignal, sys: SwitchedSystem,
                         params: IntegralBoundParams) -> CheckReport:
    """Trapezoidal check of int_s^t alpha(|h|) <= M + mu*(t-s) over all grid pairs.

    The integrand on each step uses the step's active mode at both endpoints
    (outputs are right-continuous at switches, the integrand is not).  The
    quadrature slack QUAD_COEFF * h^2 * (t - s) is folded into the running
    comparison; the all-pairs sweep reduces to a running minimum.  ``sys.h``
    is evaluated once per node under the node's mode and once more at each
    switch node under the outgoing mode.
    """
    t = traj.times
    if len(t) < 2:
        return CheckReport(check="integral_bound", passed=True, worst_margin=-params.M,
                           worst_location=(traj.t0, traj.t0), slack=0.0)
    g_start, g_end = _along_steps(
        lambda *rows: _output_gauge(_at_rows(sys.h, *rows, sys.p), params.alpha),
        t, traj.states, _node_modes(traj, sigma))
    h_steps = np.diff(t)
    h_max = float(h_steps.max())
    # cumsum accumulates left to right, so it rounds as a running sum does
    cum = np.cumsum(np.concatenate(([0.0], 0.5 * (g_start[:-1] + g_end) * h_steps)))
    rate = params.mu + QUAD_COEFF * h_max * h_max
    g = cum - rate * (t - t[0])
    run_min = np.minimum.accumulate(g)
    margins = g - run_min - params.M
    k = int(np.argmax(margins))
    j = int(np.argmin(g[: k + 1]))
    return CheckReport(check="integral_bound", passed=float(margins[k]) <= 0.0,
                       worst_margin=float(margins[k]),
                       worst_location=(float(t[j]), float(t[k])),
                       slack=QUAD_COEFF * h_max * h_max * float(t[k] - t[j]),
                       extra={"M": params.M, "mu": params.mu})
