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
from typing import Callable, Sequence

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


def _rk4_step(f, t: float, x: list, h: float, *args) -> list:
    """RK4 step of dx/dt = f(t, x, *args) over a list of floats, zipping whatever sequence
    f returns; floats round as numpy's float64 arrays do, so ndarray RK4 agrees bit for bit."""
    hh = 0.5 * h
    tm = t + hh
    k1 = f(t, x, *args)
    k2 = f(tm, [a + hh * b for a, b in zip(x, k1)], *args)
    k3 = f(tm, [a + hh * b for a, b in zip(x, k2)], *args)
    k4 = f(t + h, [a + h * b for a, b in zip(x, k3)], *args)
    h6 = h / 6.0
    return [a + h6 * (b1 + 2.0 * (b2 + b3) + b4)
            for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]


def _check_state(x, t: float, bound: float) -> None:
    s = sum([v * v for v in x])
    if s != s:  # NaN
        raise DynamicsError(f"NaN state at t={t}")
    if s > bound * bound:
        raise BlowUpError(f"state norm exceeded {bound:.3g} at t={t}", time=t)


def _rows(nodes: list, n: int) -> np.ndarray:
    """(m, n) array of m nodes stored one after another in a flat list."""
    return np.array(nodes, dtype=float).reshape(-1, n)


def _blown_up(err: BlowUpError, ts: list, xs: list, n: int, **drive) -> BlowUpError:
    """``err`` re-raised with the partial trajectory of the nodes recorded so far."""
    partial = Trajectory(times=np.array(ts), states=_rows(xs, n), **drive)
    return BlowUpError(str(err), time=err.time, trajectory=partial)


def _integrate_interval(f, t0: float, x0: list, t1: float, base_step: float,
                        bound: float, out_t: list, out_x: list,
                        n_steps: int = 0, args: tuple = ()) -> list:
    """March dx/dt = f(t, x, *args) to t1 in equal sub-steps <= base_step; each node's
    time is appended to ``out_t``, its state extends the flat ``out_x``; returns the last."""
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
        out_x.extend(x)
    return x


def _mode_rhs(sys: SwitchedSystem, i: int):
    """(f, args) such that f(t, x, *args) is the mode-i field."""
    if i < 1 or i > sys.N:
        raise ParameterError(f"mode {i} outside 1..{sys.N}")
    return sys.f, (i,)


def _start_state(x0, n: int, t0: float, cfg: IntegratorConfig) -> list:
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n,):
        raise ParameterError(f"x0 must have shape ({n},)")
    x = x0.tolist()
    _check_state(x, t0, cfg.divergence_bound)
    return x


def _switched_outputs(sys: SwitchedSystem, times: list, xs: list, modes: list) -> np.ndarray:
    """Rows h_i(t, x) at every node, i the node's mode."""
    h, n = sys.h, sys.n
    return _rows([v for k, (t, i) in enumerate(zip(times, modes))
                  for v in h(t, xs[k * n:k * n + n], i)], sys.p)


def simulate(sys: SwitchedSystem, sigma: SwitchingSignal, t0: float, x0: np.ndarray,
             tf: float, cfg: IntegratorConfig) -> Trajectory:
    """Integrate dx/dt = f(t, x, sigma(t)) on [t0, tf].

    The output grid contains every switch time of sigma exactly.  tf == t0
    yields the degenerate single-row trajectory.
    """
    if tf < t0:
        raise DomainError("tf must be >= t0")
    x = _start_state(x0, sys.n, t0, cfg)
    ts: list = [t0]
    xs: list = list(x)
    if tf > t0:
        try:
            for a, b, i in sigma.segments(t0, tf):
                f, args = _mode_rhs(sys, i)
                x = _integrate_interval(f, a, x, b, cfg.step, cfg.divergence_bound,
                                        ts, xs, args=args)
        except BlowUpError as err:
            raise _blown_up(err, ts, xs, sys.n, modes=sigma.modes_at(np.array(ts))) from None
    times = np.array(ts)
    modes = sigma.modes_at(times).astype(np.int64)
    return Trajectory(times=times, states=_rows(xs, sys.n), modes=modes,
                      outputs=_switched_outputs(sys, ts, xs, modes.tolist()))


def _mix_rhs(sys: SwitchedSystem, weights: np.ndarray):
    """(rhs, args) for sum_i u_i f_i; one-hot weights collapse to the bare mode field."""
    nz = [(i + 1, float(w)) for i, w in enumerate(weights) if w > 0.0]
    if len(nz) == 1 and nz[0][1] == 1.0:
        return _mode_rhs(sys, nz[0][0])
    f = sys.f
    (i0, w0), rest = nz[0], nz[1:]

    def rhs(t, x):
        acc = [w0 * v for v in f(t, x, i0)]
        for i, w in rest:
            acc = [a + w * v for a, v in zip(acc, f(t, x, i))]
        return acc

    return rhs, ()


def _mixed_outputs(sys: SwitchedSystem, times: list, xs: list,
                   controls: np.ndarray) -> np.ndarray:
    """Rows sum_i u_i |h_i(t, x)| at every node, summed over the modes in order."""
    h, n = sys.h, sys.n
    out = np.zeros((len(times), sys.p))
    for i in range(1, sys.N + 1):
        ks = np.flatnonzero(controls[:, i - 1] > 0.0).tolist()
        hk = _rows([v for k in ks for v in h(times[k], xs[k * n:k * n + n], i)], sys.p)
        out[ks] += controls[ks, i - 1:i] * np.abs(hk)
    return out


def _march(rhs_of_weights, u: RelaxedControl, t0: float, x0: np.ndarray, tf: float,
           cfg: IntegratorConfig, n: int, n_modes: int):
    """Cell-aligned RK4 march of dx/dt = rhs(t, x, *args) on [t0, tf], where
    (rhs, args) = rhs_of_weights(u(t)).

    Runs of identical control cells are merged into one interval; cell edges
    stay grid nodes because sub-step counts are chosen per cell.  Node labels
    are right-continuous: a node on a cell edge carries the incoming cell's
    value.  ``n`` and ``n_modes`` are the state dimension and mode count the
    inputs are checked against.  Returns (times, flat states, cell of each node).
    """
    if tf < t0:
        raise DomainError("tf must be >= t0")
    if t0 < u.t0 - 1e-12 or tf > u.tf + 1e-9 * max(1.0, abs(u.tf)):
        raise DomainError(f"[{t0}, {tf}] outside control grid [{u.t0}, {u.tf}]")
    if u.n_modes != n_modes:
        raise ParameterError(f"control has {u.n_modes} modes, system has {n_modes}")
    x = _start_state(x0, n, t0, cfg)
    per_cell = max(1, int(math.ceil((u.step / cfg.step) * (1.0 - 1e-9))))
    k = u.cell_of(t0)
    ts: list = [t0]
    xs: list = list(x)
    cells: list = [k]
    same_as_prev = [False] + np.all(u.values[1:] == u.values[:-1], axis=1).tolist()
    while tf > t0 and u.t0 + k * u.step < tf - 1e-12 and k < u.n_cells:
        k_end = k + 1
        while (k_end < u.n_cells and u.t0 + k_end * u.step < tf - 1e-12
               and same_as_prev[k_end]):
            k_end += 1
        a = max(t0, u.t0 + k * u.step)
        b = min(tf, u.t0 + k_end * u.step)
        cells[-1] = k  # node on the incoming cell's left edge takes its value
        n_before = len(ts)
        rhs, args = rhs_of_weights(u.values[k])
        try:
            x = _integrate_interval(rhs, a, x, b, cfg.step, cfg.divergence_bound, ts, xs,
                                    n_steps=per_cell * (k_end - k), args=args)
        except BlowUpError as err:
            raise _blown_up(err, ts, xs, n) from None
        cells.extend([k] * (len(ts) - n_before))
        k = k_end
    return ts, xs, cells


def simulate_relaxed(sys: SwitchedSystem, u: RelaxedControl, t0: float, x0: np.ndarray,
                     tf: float, cfg: IntegratorConfig) -> Trajectory:
    """Integrate dx/dt = sum_i u_i(t) f_i(t, x); outputs are sum_i u_i |h_i|.

    Steps are aligned to the control's grid cells (see ``_march``).
    """
    ts, xs, cells = _march(lambda w: _mix_rhs(sys, w), u, t0, x0, tf, cfg, sys.n, sys.N)
    controls = u.values[cells]
    return Trajectory(times=np.array(ts), states=_rows(xs, sys.n), controls=controls,
                      outputs=_mixed_outputs(sys, ts, xs, controls))


def simulate_with_covering(sys: SwitchedSystem, covering: Covering,
                           policy: Callable[[float, Sequence[float], tuple[int, ...]], int],
                           t0: float, x0: np.ndarray, tf: float,
                           cfg: IntegratorConfig) -> tuple[Trajectory, SwitchingSignal]:
    """Closed-loop run keeping sigma(t) in the active index set of x(t).

    The policy is queried at t0 and whenever the state leaves the active
    piece; crossings are bisected to cfg.event_bisection_tol.  Right after a
    switch the new mode is granted one full base step before bisection
    re-arms, so grazing/sliding configurations make progress: the state may
    overshoot the boundary inside such a step, but every recorded grid node
    is labeled with a mode whose piece contains it (within tolerance).  The
    policy and the covering's margins are handed the state as a list of floats.
    """
    if tf <= t0:
        raise DomainError("tf must exceed t0")
    if covering.N != sys.N:
        raise ParameterError("covering and system mode counts differ")
    x = _start_state(x0, sys.n, t0, cfg)

    def query(t, x):
        active = active_index_set(x, covering, tol=BOUNDARY_TOL)
        m = int(policy(t, x, active))
        if m not in active:
            raise PolicyError(f"policy returned mode {m} outside active set {active} at t={t}")
        return m

    mode = query(t0, x)
    ts = [t0]
    xs = list(x)
    bp = [t0]
    bp_modes = [mode]
    node_modes = [mode]
    suppress_until = -np.inf
    n_switches = 0
    t = t0
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

    t_stop = tf - 1e-12 * max(1.0, abs(tf))
    step = cfg.step
    margin = covering.margin
    while t < t_stop:
        h = min(step, tf - t)
        x_new = _rk4_step(f, t, x, h, *args)
        try:
            _check_state(x_new, t + h, cfg.divergence_bound)
        except BlowUpError as err:
            raise _blown_up(err, ts, xs, sys.n) from None
        # a step that leaves the piece ends in a re-decision: at the endpoint of
        # a grace step right after a switch, else at the bisected crossing
        leaves = margin(x_new, mode) < -BOUNDARY_TOL
        if leaves and t >= suppress_until:
            # locate the crossing: margin(mode, .) changes sign inside (0, h]
            lo = 0.0
            while h - lo > cfg.event_bisection_tol:
                mid = 0.5 * (lo + h)
                x_mid = _rk4_step(f, t, x, mid, *args)
                if margin(x_mid, mode) >= 0.0:
                    lo = mid
                else:
                    h, x_new = mid, x_mid
            if h <= cfg.event_bisection_tol:
                # crossing at the very start: switch in place and take a grace step
                switch_to(query(t, x), t)
                node_modes[-1] = mode
                continue
        t, x = t + h, x_new
        ts.append(t)
        xs.extend(x)
        if leaves:
            switch_to(query(t, x), t)
        node_modes.append(mode)

    sigma = SwitchingSignal(breakpoints=np.array(bp), modes=np.array(bp_modes, dtype=np.int64),
                            domain_start=t0, domain_end=tf)
    traj = Trajectory(times=np.array(ts), states=_rows(xs, sys.n),
                      modes=np.array(node_modes, dtype=np.int64),
                      outputs=_switched_outputs(sys, ts, xs, node_modes))
    return traj, sigma
