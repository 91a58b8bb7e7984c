"""Deterministic fixed-step RK4 integration of switched and relaxed dynamics.

Steps never straddle a switching breakpoint or a control grid cell: each
constancy interval is tiled with equal sub-steps no longer than the base step.
Fixed stepping (rather than adaptive) keeps runs bit-reproducible, which the
Monte Carlo layers rely on.  Covering-boundary crossings in closed-loop runs
are located by bisection on the active piece's margin function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    BOUNDARY_TOL,
    BlowUpError,
    ChatteringError,
    Covering,
    DomainError,
    DynamicsError,
    ParameterError,
    PolicyError,
    RelaxedControl,
    SwitchedSystem,
    SwitchingSignal,
    Trajectory,
    active_index_set,
)


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step RK4 settings.

    event_bisection_tol is a *time* tolerance: boundary crossings are located
    to within this many seconds, so the landing state overshoots the boundary
    by at most ~|dx/dt| * event_bisection_tol.
    """

    step: float = 1e-3
    event_bisection_tol: float = 1e-11
    divergence_bound: float = 1e9
    max_switches: int = 1_000_000

    def __post_init__(self):
        if self.step <= 0:
            raise ParameterError("step must be positive")
        if not (0 < self.event_bisection_tol < self.step):
            raise ParameterError("event_bisection_tol must lie in (0, step)")


def _rk4_step(f, t: float, x: np.ndarray, h: float, *args) -> np.ndarray:
    """RK4 step of dx/dt = f(t, x, *args); the final sum runs on Python floats,
    which round exactly as numpy's elementwise float64 operations do."""
    hh = 0.5 * h
    tm = t + hh
    k1 = f(t, x, *args)
    k2 = f(tm, x + hh * k1, *args)
    k3 = f(tm, x + hh * k2, *args)
    k4 = f(t + h, x + h * k3, *args)
    h6 = h / 6.0
    return np.array([a + h6 * (b1 + 2.0 * (b2 + b3) + b4) for a, b1, b2, b3, b4
                     in zip(x.tolist(), k1.tolist(), k2.tolist(), k3.tolist(), k4.tolist())])


def _check_state(x: np.ndarray, t: float, bound: float, partial=None) -> None:
    s = sum([v * v for v in x.tolist()])
    if s != s:  # NaN
        raise DynamicsError(f"NaN state at t={t}")
    if s > bound * bound:
        raise BlowUpError(f"state norm exceeded {bound:.3g} at t={t}", time=t, trajectory=partial)


def _integrate_interval(f, t0: float, x0: np.ndarray, t1: float, base_step: float,
                        bound: float, out_t: list, out_x: list,
                        n_steps: int = 0, args: tuple = ()) -> np.ndarray:
    """March dx/dt = f(t, x, *args) to t1 in equal sub-steps <= base_step, appending nodes."""
    span = t1 - t0
    if span <= 0:
        return x0
    n = n_steps if n_steps > 0 else max(1, int(math.ceil((span / base_step) * (1.0 - 1e-9))))
    h = span / n
    x = x0
    for k in range(1, n + 1):
        t = t0 + (k - 1) * h
        x = _rk4_step(f, t, x, h, *args)
        tk = t1 if k == n else t0 + k * h
        _check_state(x, tk, bound)
        out_t.append(tk)
        out_x.append(x)
    return x


def _mode_rhs(sys: SwitchedSystem, i: int):
    """(f, args) such that f(t, x, *args) is the mode-i field."""
    if i < 1 or i > sys.N:
        raise ParameterError(f"mode {i} outside 1..{sys.N}")
    return sys.f, (i,)


def _fill_outputs_switched(sys: SwitchedSystem, times, states, modes) -> np.ndarray:
    out = np.empty((len(times), sys.p))
    h = sys.h
    for k, (t, x, i) in enumerate(zip(times, states, modes.tolist())):
        out[k] = h(t, x, i)
    return out


def simulate(sys: SwitchedSystem, sigma: SwitchingSignal, t0: float, x0: np.ndarray,
             tf: float, cfg: IntegratorConfig) -> Trajectory:
    """Integrate dx/dt = f(t, x, sigma(t)) on [t0, tf].

    The output grid contains every switch time of sigma exactly.  tf == t0
    yields the degenerate single-row trajectory.
    """
    if tf < t0:
        raise DomainError("tf must be >= t0")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (sys.n,):
        raise ParameterError(f"x0 must have shape ({sys.n},)")
    _check_state(x0, t0, cfg.divergence_bound)
    ts: list = [t0]
    xs: list = [x0]
    if tf > t0:
        try:
            for a, b, i in sigma.segments(t0, tf):
                f, args = _mode_rhs(sys, i)
                _integrate_interval(f, a, xs[-1], b, cfg.step, cfg.divergence_bound,
                                    ts, xs, args=args)
        except BlowUpError as err:
            partial = Trajectory(times=np.array(ts), states=np.array(xs[: len(ts)]),
                                 modes=sigma.modes_at(np.array(ts)))
            raise BlowUpError(str(err), time=err.time, trajectory=partial) from None
    times = np.array(ts)
    modes = sigma.modes_at(times).astype(np.int64)
    return Trajectory(times=times, states=np.array(xs), modes=modes,
                      outputs=_fill_outputs_switched(sys, ts, xs, modes))


def _mix_rhs(sys: SwitchedSystem, weights: np.ndarray):
    """(rhs, args) for sum_i u_i f_i; one-hot weights collapse to the bare mode field."""
    nz = [(i + 1, float(w)) for i, w in enumerate(weights) if w > 0.0]
    if len(nz) == 1 and nz[0][1] == 1.0:
        return _mode_rhs(sys, nz[0][0])
    f = sys.f

    def rhs(t, x):
        acc = nz[0][1] * f(t, x, nz[0][0])
        for i, w in nz[1:]:
            acc = acc + w * f(t, x, i)
        return acc

    return rhs, ()


def _mixed_outputs(sys: SwitchedSystem, times: np.ndarray, states: np.ndarray,
                   controls: np.ndarray) -> np.ndarray:
    """Rows sum_i u_i |h_i(t, x)| at every node."""
    out = np.zeros((len(times), sys.p))
    h = sys.h
    for k, (t, x, w) in enumerate(zip(times.tolist(), states, controls.tolist())):
        for i, wi in enumerate(w, 1):
            if wi > 0.0:
                out[k] += wi * np.abs(h(t, x, i))
    return out


def _march(rhs_of_weights, u: RelaxedControl, t0: float, x0: np.ndarray, tf: float,
           cfg: IntegratorConfig, n: int, n_modes: int):
    """Cell-aligned RK4 march of dx/dt = rhs(t, x, *args) on [t0, tf], where
    (rhs, args) = rhs_of_weights(u(t)).

    Runs of identical control cells are merged into one interval; cell edges
    stay grid nodes because sub-step counts are chosen per cell.  Node labels
    are right-continuous: a node on a cell edge carries the incoming cell's
    value.  ``n`` and ``n_modes`` are the state dimension and mode count the
    inputs are checked against.  Returns (times, states, controls).
    """
    if tf < t0:
        raise DomainError("tf must be >= t0")
    if t0 < u.t0 - 1e-12 or tf > u.tf + 1e-9 * max(1.0, abs(u.tf)):
        raise DomainError(f"[{t0}, {tf}] outside control grid [{u.t0}, {u.tf}]")
    if u.n_modes != n_modes:
        raise ParameterError(f"control has {u.n_modes} modes, system has {n_modes}")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n,):
        raise ParameterError(f"x0 must have shape ({n},)")
    _check_state(x0, t0, cfg.divergence_bound)
    per_cell = max(1, int(math.ceil((u.step / cfg.step) * (1.0 - 1e-9))))
    k = u.cell_of(t0)
    ts: list = [t0]
    xs: list = [x0]
    ctrl: list = [u.values[k]]
    same_as_prev = [False] + np.all(u.values[1:] == u.values[:-1], axis=1).tolist()
    while tf > t0 and u.t0 + k * u.step < tf - 1e-12 and k < u.n_cells:
        k_end = k + 1
        while (k_end < u.n_cells and u.t0 + k_end * u.step < tf - 1e-12
               and same_as_prev[k_end]):
            k_end += 1
        a = max(t0, u.t0 + k * u.step)
        b = min(tf, u.t0 + k_end * u.step)
        w = u.values[k]
        ctrl[-1] = w  # node on the incoming cell's left edge takes its value
        n_before = len(ts)
        rhs, args = rhs_of_weights(w)
        try:
            _integrate_interval(rhs, a, xs[-1], b, cfg.step, cfg.divergence_bound, ts, xs,
                                n_steps=per_cell * (k_end - k), args=args)
        except BlowUpError as err:
            partial = Trajectory(times=np.array(ts), states=np.array(xs))
            raise BlowUpError(str(err), time=err.time, trajectory=partial) from None
        ctrl.extend([w] * (len(ts) - n_before))
        k = k_end
    return np.array(ts), np.array(xs), np.array(ctrl)


def simulate_relaxed(sys: SwitchedSystem, u: RelaxedControl, t0: float, x0: np.ndarray,
                     tf: float, cfg: IntegratorConfig) -> Trajectory:
    """Integrate dx/dt = sum_i u_i(t) f_i(t, x); outputs are sum_i u_i |h_i|.

    Steps are aligned to the control's grid cells (see ``_march``).
    """
    times, states, controls = _march(lambda w: _mix_rhs(sys, w), u, t0, x0, tf, cfg,
                                     sys.n, sys.N)
    return Trajectory(times=times, states=states, controls=controls,
                      outputs=_mixed_outputs(sys, times, states, controls))


def simulate_with_covering(sys: SwitchedSystem, covering: Covering,
                           policy: Callable[[float, np.ndarray, tuple[int, ...]], int],
                           t0: float, x0: np.ndarray, tf: float,
                           cfg: IntegratorConfig) -> tuple[Trajectory, SwitchingSignal]:
    """Closed-loop run keeping sigma(t) in the active index set of x(t).

    The policy is queried at t0 and whenever the state leaves the active
    piece; crossings are bisected to cfg.event_bisection_tol.  Right after a
    switch the new mode is granted one full base step before bisection
    re-arms, so grazing/sliding configurations make progress: the state may
    overshoot the boundary inside such a step, but every recorded grid node
    is labeled with a mode whose piece contains it (within tolerance).
    """
    if tf <= t0:
        raise DomainError("tf must exceed t0")
    x0 = np.asarray(x0, dtype=float)
    if covering.N != sys.N:
        raise ParameterError("covering and system mode counts differ")
    _check_state(x0, t0, cfg.divergence_bound)

    def query(t, x):
        active = active_index_set(x, covering, tol=BOUNDARY_TOL)
        m = int(policy(t, x, active))
        if m not in active:
            raise PolicyError(f"policy returned mode {m} outside active set {active} at t={t}")
        return m

    mode = query(t0, x0)
    ts = [t0]
    xs = [x0]
    bp = [t0]
    bp_modes = [mode]
    node_modes = [mode]
    suppress_until = -np.inf
    n_switches = 0
    t, x = t0, x0
    f, args = _mode_rhs(sys, mode)

    def switch_to(new_mode, at_t):
        nonlocal mode, args, n_switches, suppress_until
        if new_mode != mode:
            mode = new_mode
            args = (mode,)  # query() admits only modes of the active set
            if at_t <= bp[-1]:
                bp_modes[-1] = mode  # re-decision at the same instant: overwrite
            else:
                bp.append(at_t)
                bp_modes.append(mode)
            n_switches += 1
            if n_switches > cfg.max_switches:
                raise ChatteringError(f"more than {cfg.max_switches} switches by t={at_t}")
        suppress_until = at_t + cfg.step

    bound2 = cfg.divergence_bound * cfg.divergence_bound
    t_stop = tf - 1e-12 * max(1.0, abs(tf))
    step = cfg.step
    margin = covering.margin
    while t < t_stop:
        h = min(step, tf - t)
        x_new = _rk4_step(f, t, x, h, *args)
        s = float(x_new @ x_new)
        if s != s:
            raise DynamicsError(f"NaN state at t={t + h}")
        if s > bound2:
            raise BlowUpError(f"state norm exceeded {cfg.divergence_bound:.3g} at t={t + h}",
                              time=t + h,
                              trajectory=Trajectory(times=np.array(ts), states=np.array(xs)))
        if margin(x_new, mode) >= -BOUNDARY_TOL:
            t, x = t + h, x_new
            ts.append(t)
            xs.append(x)
            node_modes.append(mode)
            continue
        if t < suppress_until:
            # grace step after a switch: accept and re-decide at the endpoint
            t, x = t + h, x_new
            ts.append(t)
            xs.append(x)
            switch_to(query(t, x), t)
            node_modes.append(mode)
            continue
        # locate the crossing: margin(mode, .) changes sign inside (0, h]
        lo, hi = 0.0, h
        x_hi = x_new
        while hi - lo > cfg.event_bisection_tol:
            mid = 0.5 * (lo + hi)
            x_mid = _rk4_step(f, t, x, mid, *args)
            if margin(x_mid, mode) >= 0.0:
                lo = mid
            else:
                hi, x_hi = mid, x_mid
        if hi <= cfg.event_bisection_tol:
            # crossing at the very start: switch in place and take a grace step
            switch_to(query(t, x), t)
            node_modes[-1] = mode
            continue
        t, x = t + hi, x_hi
        ts.append(t)
        xs.append(x)
        switch_to(query(t, x), t)
        node_modes.append(mode)

    sigma = SwitchingSignal(breakpoints=np.array(bp), modes=np.array(bp_modes, dtype=np.int64),
                            domain_start=t0, domain_end=tf)
    modes = np.array(node_modes, dtype=np.int64)
    traj = Trajectory(times=np.array(ts), states=np.array(xs), modes=modes,
                      outputs=_fill_outputs_switched(sys, ts, xs, modes))
    return traj, sigma
