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
from typing import Callable, Optional

import numpy as np

from .core import Covering, ParameterError, SwitchedSystem, SwitchingSignal, Trajectory

SANDWICH_TOL = 1e-9
REVISIT_TOL = 1e-7
SLACK_FLOOR = 1e-9
SLACK_CURVATURE_FACTOR = 10.0  # slack = factor * observed |second difference of V|


@dataclass(frozen=True)
class LyapunovCertificate:
    """Candidate weak Lyapunov data: V, its class-K sandwich, and the decrease gauge.

    V(t, xi, i) >= 0; phi1(|xi|) <= V <= phi2(|xi|) on the piece of mode i;
    eta(t, xi, i) >= 0 bounds -dV/dt along mode i.  ``dV`` optionally supplies
    the analytic state gradient for consistency testing.  phi1/phi2 are
    sample-checked at construction: zero at zero and strictly increasing.
    """

    V: Callable[[float, np.ndarray, int], float]
    phi1: Callable[[float], float]
    phi2: Callable[[float], float]
    eta: Callable[[float, np.ndarray, int], float]
    dV: Optional[Callable[[float, np.ndarray, int], np.ndarray]] = None

    def __post_init__(self):
        for name, phi in (("phi1", self.phi1), ("phi2", self.phi2)):
            if phi(0.0) != 0.0:
                raise ParameterError(f"{name}(0) must be 0")
            samples = [phi(s) for s in (1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 5.0)]
            if any(b <= a for a, b in zip(samples, samples[1:])) or samples[0] <= 0:
                raise ParameterError(f"{name} must be strictly increasing from 0")


@dataclass(frozen=True)
class IntegralBoundParams:
    """Bound parameters: integral of alpha(|h|) over [s, t] <= M + mu*(t-s)."""

    alpha: Callable[[float], float]
    M: float
    mu: float

    def __post_init__(self):
        if self.M < 0 or self.mu < 0:
            raise ParameterError("M and mu must be nonnegative")
        if self.alpha(0.0) != 0.0 or any(self.alpha(s) <= 0
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


def check_sandwich(cert: LyapunovCertificate, box_lo, box_hi, covering: Covering,
                   density: int = 9, t_grid=(0.0,), tol: float = SANDWICH_TOL) -> CheckReport:
    """Sample phi1(|xi|) <= V(t, xi, i) <= phi2(|xi|) over a box, per covering piece."""
    box_lo = np.asarray(box_lo, dtype=float)
    box_hi = np.asarray(box_hi, dtype=float)
    if np.any(box_lo > 0) or np.any(box_hi < 0):
        raise ParameterError("sample box must contain the origin")
    axes = [np.linspace(lo, hi, density) for lo, hi in zip(box_lo, box_hi)]
    pts = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    pts = np.vstack([pts, np.zeros(len(box_lo))])
    worst = -np.inf
    where = (0.0, 0, 0.0)
    n_checked = 0
    for t in t_grid:
        for xi in pts:
            r = float(np.linalg.norm(xi))
            for i in range(1, covering.N + 1):
                if not covering.membership(xi, i):
                    continue
                v = float(cert.V(t, xi, i))
                m = max(cert.phi1(r) - v, v - cert.phi2(r))
                n_checked += 1
                if m > worst:
                    worst, where = m, (float(t), i, r)
    return CheckReport(check="sandwich", passed=worst <= tol, worst_margin=worst,
                       worst_location=where, slack=tol, extra={"points": n_checked})


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


def _node_modes(traj: Trajectory, sigma: SwitchingSignal) -> np.ndarray:
    return traj.modes if traj.modes is not None else sigma.modes_at(traj.times)


def _switch_nodes(modes: np.ndarray) -> np.ndarray:
    """Nodes k >= 1 whose mode differs from node k-1's."""
    return np.flatnonzero(modes[1:] != modes[:-1]) + 1


def _segment_bounds(modes: np.ndarray) -> list[tuple[int, int, int]]:
    """(first node, last node, mode) per constancy stretch of the node modes.

    A stretch ends on the next switch node (evaluated under the outgoing
    mode) or on the last node; a last node alone in its mode starts none.
    """
    last = len(modes) - 1
    starts = [0] + _switch_nodes(modes).tolist()
    ends = starts[1:] + [last]
    return [(a, b, int(modes[a])) for a, b in zip(starts, ends) if a < last]


def check_decrease_along(cert: LyapunovCertificate, traj: Trajectory,
                         sigma: SwitchingSignal,
                         revisit_tol: float = REVISIT_TOL) -> DecreaseReport:
    """Finite-difference decrease check along a trajectory.

    Slope part: within each constancy stretch of mode i, the per-step slope of
    V(t, x(t), i) must not exceed -eta evaluated at the step midpoint
    (linearly interpolated state) plus a slack calibrated from the observed
    second differences of V, which captures the discretization error scale.

    Revisit part: for each mode i, V_i sampled at the grid times where i is
    active must never rise above its running minimum by more than revisit_tol.

    V and eta are evaluated once per node under the node's mode and once more
    at each switch node under the outgoing mode; eta once more per step at
    its midpoint.  A NaN in V, in eta or in the slack fails the part that
    reads it, which then reports a NaN worst margin at the first NaN step
    (slope) or node (revisit).
    """
    if traj.t0 < sigma.domain_start - 1e-9 or traj.tf > sigma.domain_end + 1e-9:
        raise ParameterError("trajectory span not covered by the signal")
    modes = _node_modes(traj, sigma)
    segs = _segment_bounds(modes)
    t = traj.times
    x = traj.states
    V_of, eta_of = cert.V, cert.eta

    # first pass: calibrate one slack for the whole trajectory from the
    # observed second differences of V and of the gauge (the discretization
    # error scale of the slope and of the step-mean gauge estimate)
    per_seg = []
    d2v = [0.0]
    d2e = [0.0]
    for a, b, mode in segs:
        ts, xs = t[a:b + 1], x[a:b + 1]
        V = np.array([V_of(tk, xk, mode) for tk, xk in zip(ts, xs)])
        etas = np.array([eta_of(tk, xk, mode) for tk, xk in zip(ts, xs)])
        per_seg.append((a, b, mode, V, etas))
        if len(V) >= 3:
            d2v.append(float(np.max(np.abs(np.diff(V, n=2)))))
            d2e.append(float(np.max(np.abs(np.diff(etas, n=2)))))
    # np.max keeps a NaN that the builtin max would drop
    slack = float(np.max([SLACK_FLOOR, SLACK_CURVATURE_FACTOR * np.max(d2v),
                          0.5 * np.max(d2e)]))

    pre, eta_mean, step_node, step_mode = [], [], [], []
    for a, b, mode, V, etas in per_seg:
        slopes = np.diff(V) / np.diff(t[a:b + 1])
        t_mid = 0.5 * (t[a:b] + t[a + 1:b + 1])
        x_mid = 0.5 * (x[a:b] + x[a + 1:b + 1])
        eta_mid = np.array([float(eta_of(tm, xm, mode)) for tm, xm in zip(t_mid, x_mid)])
        mean = 0.5 * (etas[:-1] + etas[1:])
        # min(eta_mid, mean) as the builtin picks it: the first unless the second is less
        pre.append(slopes + np.where(mean < eta_mid, mean, eta_mid))
        eta_mean.append(mean)
        step_node.append(np.arange(a, b))
        step_mode.append(np.full(b - a, mode))
    worst_slope = -np.inf
    slope_where = (0.0, 0)
    if per_seg:
        pre = np.concatenate(pre)
        margins = pre - slack
        nan = np.isnan(pre) | np.isnan(np.concatenate(eta_mean))
        if slack == slack:
            nan |= np.isnan(margins)
        k = None
        if nan.any() or slack != slack:
            k = int(np.argmax(nan))  # the first NaN step; the first step if only the slack is NaN
            worst_slope = np.nan
        elif margins.max() > worst_slope:
            k = int(np.argmax(margins))  # the first maximum
            worst_slope = float(margins[k])
        if k is not None:
            slope_where = (float(t[np.concatenate(step_node)[k]]),
                           int(np.concatenate(step_mode)[k]))
    slope_report = CheckReport(check="decrease_slope", passed=worst_slope <= 0.0,
                               worst_margin=worst_slope, worst_location=slope_where,
                               slack=slack)

    # revisit part: V_i at every node under the node's own mode, read from
    # the segment pass; only a last node alone in its mode needs a new call
    last = len(t) - 1
    node_v = np.empty(len(t))
    for a, b, _, V, _ in per_seg:
        node_v[a:b] = V[:-1]
    if per_seg and int(modes[last]) == per_seg[-1][2]:
        node_v[last] = per_seg[-1][3][-1]
    else:
        node_v[last] = float(V_of(t[last], x[last], int(modes[last])))
    vals = node_v.tolist()
    worst_rev = -np.inf
    rev_where = (0.0, 0)
    nan_k = None
    for i in np.unique(modes).tolist():
        running = np.inf
        for k in np.flatnonzero(modes == i).tolist():
            v = vals[k]
            margin = v - running - revisit_tol
            if margin > worst_rev:
                worst_rev, rev_where = margin, (float(t[k]), int(i))
            elif margin != margin and (nan_k is None or k < nan_k):
                nan_k = k
            running = min(running, v)
    if nan_k is not None:
        worst_rev, rev_where = np.nan, (float(t[nan_k]), int(modes[nan_k]))
    revisit_report = CheckReport(check="mode_revisit", passed=worst_rev <= 0.0,
                                 worst_margin=worst_rev, worst_location=rev_where,
                                 slack=revisit_tol)
    return DecreaseReport(slope=slope_report, revisit=revisit_report)


def _output_gauge(h, alpha, p, t, x, i) -> float:
    """alpha(|h(t, x, i)|) for an output of p floats; sqrt(v . v) is np.linalg.norm's
    arithmetic on a float64 vector, which for p = 1 is one float product."""
    if p == 1:
        (v,) = h(t, x, i)
        return alpha(math.sqrt(v * v))
    v = np.asarray(h(t, x, i), dtype=float).ravel()
    return alpha(math.sqrt(v.dot(v)))


def check_integral_bound(traj: Trajectory, sigma: SwitchingSignal, sys: SwitchedSystem,
                         params: IntegralBoundParams,
                         quad_coeff: float = 10.0) -> CheckReport:
    """Trapezoidal check of int_s^t alpha(|h|) <= M + mu*(t-s) over all grid pairs.

    The integrand on each step uses the step's active mode at both endpoints
    (outputs are right-continuous at switches, the integrand is not).  The
    quadrature slack quad_coeff * h^2 * (t - s) is folded into the running
    comparison; the all-pairs sweep reduces to a running minimum.  ``sys.h``
    is called once per node under the node's mode and once more at each
    switch node under the outgoing mode.
    """
    t = traj.times
    if len(t) < 2:
        return CheckReport(check="integral_bound", passed=True, worst_margin=-params.M,
                           worst_location=(traj.t0, traj.t0), slack=0.0)
    modes = np.asarray(_node_modes(traj, sigma), dtype=np.int64)
    mode_list, t_list, x_list = modes.tolist(), t.tolist(), traj.states.tolist()
    gauge = partial(_output_gauge, sys.h, params.alpha, sys.p)
    h_steps = np.diff(t)
    h_max = float(h_steps.max())
    g_start = np.array([gauge(tk, xk, i) for tk, xk, i in zip(t_list, x_list, mode_list)])
    g_end = g_start[1:].copy()
    for k in _switch_nodes(modes).tolist():
        g_end[k - 1] = gauge(t_list[k], x_list[k], mode_list[k - 1])
    # cumsum accumulates left to right, so it rounds as a running sum does
    cum = np.cumsum(np.concatenate(([0.0], 0.5 * (g_start[:-1] + g_end) * h_steps)))
    rate = params.mu + quad_coeff * h_max * h_max
    g = cum - rate * (t - t[0])
    run_min = np.minimum.accumulate(g)
    margins = g - run_min - params.M
    k = int(np.argmax(margins))
    j = int(np.argmin(g[: k + 1]))
    return CheckReport(check="integral_bound", passed=float(margins[k]) <= 0.0,
                       worst_margin=float(margins[k]),
                       worst_location=(float(t[j]), float(t[k])),
                       slack=quad_coeff * h_max * h_max * float(t[k] - t[j]),
                       extra={"M": params.M, "mu": params.mu})
