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
from functools import cache
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


# One RK4 source, written out per state component and compiled once per state
# dimension n.  ``step`` takes one step; ``march`` tiles [t0, t1] with equal
# sub-steps, appending each node's time to ``out_t`` and its state to the flat
# ``out_x``, and returns the last state.  ``advance`` is the closed loop's
# march: from (t, x) it takes steps of min(step, tf - t) while t < t_stop,
# appending each node, and returns (t, x, h, x_new) at the first step that
# leaves the piece of ``mode`` (margin below -BOUNDARY_TOL), or (t, x, None,
# None) at t_stop.  Every kernel calls the field as f(t, x, arg), x the state
# as a list of n floats and ``arg`` the one argument its producer paired with
# f (a mode index, None, or a pair the field unpacks); f may return any
# length-n sequence.  Stage sums are grouped as the float64-array RK4 groups
# them, so both agree bit for bit, and the divergence checks sum the squares in
# component order, as ``_check_state``.
_RK4_TEMPLATE = """\
def step(f, t, x, h, arg):
    {a_} = x
    hh = 0.5 * h
    tm = t + hh
    {p_} = f(t, [{a}], arg)
    {q_} = f(tm, [{a_hh_p}], arg)
    {r_} = f(tm, [{a_hh_q}], arg)
    {s_} = f(t + h, [{a_h_r}], arg)
    h6 = h / 6.0
    return [{a_next}]


def march(f, t0, x0, t1, base_step, bound, out_t, out_x, n_steps=0, arg=None):
    span = t1 - t0
    if span <= 0:
        return x0
    m = n_steps if n_steps > 0 else max(1, int(ceil((span / base_step) * (1.0 - 1e-9))))
    h = span / m
    hh = 0.5 * h
    h6 = h / 6.0
    bb = bound * bound
    push_t, push_x = out_t.append, out_x.extend
    {a_} = x0
    t = t0 + 0.0  # t0 + 0 * h, as every later node time is t0 + k * h
    for k in range(1, m + 1):
        tm = t + hh
        {p_} = f(t, [{a}], arg)
        {q_} = f(tm, [{a_hh_p}], arg)
        {r_} = f(tm, [{a_hh_q}], arg)
        {s_} = f(t + h, [{a_h_r}], arg)
        {a_} = {a_next},
        t = t1 if k == m else t0 + k * h
        if not {sum_sq} <= bb:  # NaN or beyond the bound
            check_state([{a}], t, bound)
        push_t(t)
        push_x(({a},))
    return [{a}]


def advance(f, t, x, t_stop, tf, step, bound, margin, mode, out_t, out_x, arg=None):
    bb = bound * bound
    push_t, push_x = out_t.append, out_x.extend
    {a_} = x
    while t < t_stop:
        h = tf - t if tf - t < step else step  # min(step, tf - t)
        hh = 0.5 * h
        tm = t + hh
        {p_} = f(t, [{a}], arg)
        {q_} = f(tm, [{a_hh_p}], arg)
        {r_} = f(tm, [{a_hh_q}], arg)
        {s_} = f(t + h, [{a_h_r}], arg)
        h6 = h / 6.0
        {b_} = {a_next},
        if not {sum_sq_b} <= bb:  # NaN or beyond the bound
            check_state([{b}], t + h, bound)
        x_new = [{b}]
        if margin(x_new, mode) < -boundary_tol:
            return t, [{a}], h, x_new
        t = t + h
        push_t(t)
        push_x(x_new)
        {a_} = {b},
    return t, [{a}], None, None
"""


@cache
def _rk4_kernels(n: int):
    """(step, march, advance) for states of n floats, compiled from ``_RK4_TEMPLATE``
    on first use."""
    def each(expr: str, sep: str = ", ") -> str:
        return sep.join(expr.replace("#", str(j)) for j in range(n))

    def targets(name: str) -> str:  # "a0, a1"; "a0," when n == 1
        return each(name + "#") + ("," if n == 1 else "")

    source = _RK4_TEMPLATE.format(
        a=each("a#"), a_=targets("a"), p_=targets("p"), q_=targets("q"), r_=targets("r"),
        s_=targets("s"), a_hh_p=each("a# + hh * p#"), a_hh_q=each("a# + hh * q#"),
        a_h_r=each("a# + h * r#"), a_next=each("a# + h6 * (p# + 2.0 * (q# + r#) + s#)"),
        sum_sq=each("a# * a#", " + "), b=each("b#"), b_=targets("b"),
        sum_sq_b=each("b# * b#", " + "))
    scope = {"ceil": math.ceil, "check_state": _check_state, "boundary_tol": BOUNDARY_TOL}
    exec(compile(source, f"<rk4 kernels, n={n}>", "exec"), scope)
    return scope["step"], scope["march"], scope["advance"]


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


def _mode_rhs(sys: SwitchedSystem, i: int):
    """(f, arg) such that f(t, x, arg) is the mode-i field."""
    if i < 1 or i > sys.N:
        raise ParameterError(f"mode {i} outside 1..{sys.N}")
    return sys.f, i


def _start_state(x0, n: int, t0: float, cfg: IntegratorConfig) -> list:
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n,):
        raise ParameterError(f"x0 must have shape ({n},)")
    x = x0.tolist()
    _check_state(x, t0, cfg.divergence_bound)
    return x


def _switched_outputs(sys: SwitchedSystem, traj: Trajectory) -> np.ndarray:
    """Rows h_i(t, x) at every node of a switched run, i the node's mode.  The
    integrators record no outputs: a caller that reads them fills them here."""
    h = sys.h
    return _rows([v for t, x, i in zip(traj.times.tolist(), traj.states.tolist(),
                                       traj.modes.tolist()) for v in h(t, x, i)], sys.p)


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
        march = _rk4_kernels(sys.n)[1]
        try:
            for a, b, i in sigma.segments(t0, tf):
                f, arg = _mode_rhs(sys, i)
                x = march(f, a, x, b, cfg.step, cfg.divergence_bound, ts, xs, arg=arg)
        except BlowUpError as err:
            raise _blown_up(err, ts, xs, sys.n, modes=sigma.modes_at(np.array(ts))) from None
    times = np.array(ts)
    return Trajectory(times=times, states=_rows(xs, sys.n),
                      modes=sigma.modes_at(times).astype(np.int64))


def _mix_rhs(sys: SwitchedSystem, weights: np.ndarray):
    """(rhs, arg) for sum_i u_i f_i; one-hot weights collapse to the bare mode field."""
    nz = [(i + 1, float(w)) for i, w in enumerate(weights) if w > 0.0]
    if len(nz) == 1 and nz[0][1] == 1.0:
        return _mode_rhs(sys, nz[0][0])
    f = sys.f
    (i0, w0), rest = nz[0], nz[1:]

    def rhs(t, x, _):
        acc = [w0 * v for v in f(t, x, i0)]
        for i, w in rest:
            acc = [a + w * v for a, v in zip(acc, f(t, x, i))]
        return acc

    return rhs, None


def _march(rhs_of_weights, u: RelaxedControl, t0: float, x0: np.ndarray, tf: float,
           cfg: IntegratorConfig, n: int, n_modes: int):
    """Cell-aligned RK4 march of dx/dt = rhs(t, x, arg) on [t0, tf], where
    (rhs, arg) = rhs_of_weights(u(t)).

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
    march = _rk4_kernels(n)[1]
    n_cells, c0, dc = u.n_cells, u.t0, u.step
    while tf > t0 and c0 + k * dc < tf - 1e-12 and k < n_cells:
        k_end = k + 1
        while k_end < n_cells and c0 + k_end * dc < tf - 1e-12 and same_as_prev[k_end]:
            k_end += 1
        a = max(t0, c0 + k * dc)
        b = min(tf, c0 + k_end * dc)
        cells[-1] = k  # node on the incoming cell's left edge takes its value
        n_before = len(ts)
        rhs, arg = rhs_of_weights(u.values[k])
        try:
            x = march(rhs, a, x, b, cfg.step, cfg.divergence_bound, ts, xs,
                      n_steps=per_cell * (k_end - k), arg=arg)
        except BlowUpError as err:
            raise _blown_up(err, ts, xs, n) from None
        cells.extend([k] * (len(ts) - n_before))
        k = k_end
    return ts, xs, cells


def simulate_relaxed(sys: SwitchedSystem, u: RelaxedControl, t0: float, x0: np.ndarray,
                     tf: float, cfg: IntegratorConfig) -> Trajectory:
    """Integrate dx/dt = sum_i u_i(t) f_i(t, x).

    Steps are aligned to the control's grid cells (see ``_march``).
    """
    ts, xs, cells = _march(lambda w: _mix_rhs(sys, w), u, t0, x0, tf, cfg, sys.n, sys.N)
    return Trajectory(times=np.array(ts), states=_rows(xs, sys.n), controls=u.values[cells])


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

    def switch_to(new_mode, at_t):
        nonlocal mode, n_switches, suppress_until
        if new_mode != mode:
            mode = new_mode  # query() admits only modes of the active set
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
    margin = covering.margin
    rk4_step, _, advance = _rk4_kernels(sys.n)
    while t < t_stop:
        n_before = len(ts)
        try:
            t, x, h, x_new = advance(sys.f, t, x, t_stop, tf, cfg.step, cfg.divergence_bound,
                                     margin, mode, ts, xs, mode)
        except BlowUpError as err:
            raise _blown_up(err, ts, xs, sys.n) from None
        node_modes += [mode] * (len(ts) - n_before)
        if h is None:
            break
        # the step from t leaves the piece and ends in a re-decision: at the
        # endpoint of a grace step right after a switch, else at the bisected crossing
        if t >= suppress_until:
            # locate the crossing: margin(mode, .) changes sign inside (0, h]
            lo = 0.0
            while h - lo > cfg.event_bisection_tol:
                mid = 0.5 * (lo + h)
                x_mid = rk4_step(sys.f, t, x, mid, mode)
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
        switch_to(query(t, x), t)
        node_modes.append(mode)

    sigma = SwitchingSignal(breakpoints=np.array(bp), modes=np.array(bp_modes, dtype=np.int64),
                            domain_start=t0, domain_end=tf)
    traj = Trajectory(times=np.array(ts), states=_rows(xs, sys.n),
                      modes=np.array(node_modes, dtype=np.int64))
    return traj, sigma
