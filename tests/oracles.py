"""Independent brute-force oracles used to cross-check validators.

These deliberately avoid the validators' breakpoint arithmetic: the signal is
sampled onto a dense 1e-4 s grid (the generators' storage granularity, so
sampling is exact for on-grid breakpoints) and window quantities are computed
from cumulative sums over that grid.  The weak-Lyapunov checkers have
per-node reference loops, the integrators the ndarray RK4 kernel that the
float-list kernel replaced, and the falsifier the ndarray screen that its
float-list screen replaced, at the end of the file, followed by the signal
generators' one-draw-per-piece loops and the pattern cover check's loop.
"""

from __future__ import annotations

import math

import numpy as np

from swstab.core import (BOUNDARY_TOL, BlowUpError, DynamicsError, SwitchingSignal,
                         active_index_set)
from swstab.integrate import _mix_rhs, _rk4_kernels
from swstab.limiting import _Abort, _limiting_fields, _shell_state
from swstab.lyapunov import (REVISIT_TOL, SLACK_CURVATURE_FACTOR, SLACK_FLOOR, CheckReport,
                             DecreaseReport)
from swstab.signals import TIE_TOL

DENSE = 1e-4
TIE = 1e-9


def dense_mask(sigma, mode: int) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint-sampled activation mask on the dense grid."""
    n = int(round((sigma.domain_end - sigma.domain_start) / DENSE))
    mids = sigma.domain_start + (np.arange(n) + 0.5) * DENSE
    return mids, (sigma.modes_at(mids) == mode)


def measure_oracle(sigma, T0: float, delta0: float, mode: int) -> tuple[bool, float]:
    """Min sliding-window activation via cumulative sums on the dense grid.

    Exact when breakpoints and T0 are multiples of the grid step.
    """
    _, mask = dense_mask(sigma, mode)
    cum = np.concatenate(([0.0], np.cumsum(mask) * DENSE))
    w = int(round(T0 / DENSE))
    if w > len(mask):
        raise ValueError("signal shorter than the window")
    vals = cum[w:] - cum[:-w]
    m = float(vals.min())
    return m >= delta0 - TIE, m


def pattern_oracle(sigma, T: float, dm: float, dM: float) -> bool:
    """Every-window 1-2-1 pattern check from the dense activation mask.

    Runs are extracted from the sampled mask (not from the stored
    breakpoints); a window anchor t is good iff some complete 2-run [p, q]
    with q - p in [dm, dM], flanked by >= dm of mode 1, satisfies
    t + dm <= p and q + dm <= t + T.  All dense anchors must be good.
    """
    mids, mask2 = dense_mask(sigma, 2)
    n = len(mask2)
    edges = np.flatnonzero(np.diff(mask2.astype(np.int8)))
    starts2 = edges[mask2[edges + 1]] + 1 if len(edges) else np.array([], dtype=int)
    ends2 = edges[~mask2[edges + 1]] + 1 if len(edges) else np.array([], dtype=int)
    if mask2[0]:
        starts2 = np.concatenate(([0], starts2))
    if mask2[-1]:
        ends2 = np.concatenate((ends2, [n]))
    t0 = sigma.domain_start
    lo, hi = t0, sigma.domain_end - T
    if hi < lo - TIE:
        raise ValueError("signal shorter than the window")
    anchors = t0 + DENSE * np.arange(int(np.floor((hi - lo) / DENSE + TIE)) + 1)
    good = np.zeros(len(anchors), dtype=bool)
    for s_idx, e_idx in zip(starts2, ends2):
        p = t0 + s_idx * DENSE
        q = t0 + e_idx * DENSE
        if not (dm - TIE <= q - p <= dM + TIE):
            continue
        # flanking 1-time directly from the mask
        k = int(round(dm / DENSE))
        if s_idx - k < 0 or np.any(mask2[s_idx - k:s_idx]):
            continue
        if e_idx + k > n or np.any(mask2[e_idx:e_idx + k]):
            continue
        good |= (anchors >= q + dm - T - TIE) & (anchors <= p - dm + TIE)
    return bool(good.all())


# ---------------------------------------------------------------------------
# per-node reference checkers
# ---------------------------------------------------------------------------
# The weak-Lyapunov checkers as straight per-node loops, evaluating V, eta
# and h wherever a node needs them.  swstab.lyapunov computes each quantity
# once per node; its reports must equal these bit for bit.


def _segment_bounds_reference(traj, sigma):
    """(first node, last node, mode) per sigma-constancy stretch of the grid."""
    modes = traj.modes if traj.modes is not None else sigma.modes_at(traj.times)
    segs = []
    start = 0
    for k in range(1, len(traj.times)):
        if modes[k] != modes[start]:
            segs.append((start, k, int(modes[start])))
            start = k
    if start < len(traj.times) - 1:
        segs.append((start, len(traj.times) - 1, int(modes[start])))
    return segs


def check_decrease_along_reference(cert, traj, sigma, revisit_tol=REVISIT_TOL):
    """The decrease check segment by segment and step by step, with the
    checker's NaN rule: a NaN in V, in eta or in the slack fails the part that
    reads it, which reports a NaN worst margin at its first NaN step (slope;
    the first step if only the slack is NaN) or node (revisit)."""
    segs = _segment_bounds_reference(traj, sigma)
    t = traj.times
    x = traj.states

    per_seg = []
    d2v, d2e = [], []  # second-difference maxima per segment
    for a, b, mode in segs:
        if b - a < 1:
            continue
        V = np.array([cert.V(t[k], x[k], mode) for k in range(a, b + 1)])
        etas = np.array([cert.eta(t[k], x[k], mode) for k in range(a, b + 1)])
        per_seg.append((a, b, mode, V, etas))
        if len(V) >= 3:
            d2v.append(float(np.max(np.abs(np.diff(V, n=2)))))
            d2e.append(float(np.max(np.abs(np.diff(etas, n=2)))))
    # np.max keeps a NaN that the builtin max would drop
    slack = float(np.max([SLACK_FLOOR, SLACK_CURVATURE_FACTOR * np.max(d2v, initial=0.0),
                          0.5 * np.max(d2e, initial=0.0)]))

    worst_slope = -np.inf
    slope_where = (0.0, 0)
    nan_step = None
    for a, b, mode, V, etas in per_seg:
        h = np.diff(t[a:b + 1])
        slopes = np.diff(V) / h
        for k in range(len(slopes)):
            tm = 0.5 * (t[a + k] + t[a + k + 1])
            xm = 0.5 * (x[a + k] + x[a + k + 1])
            mean = 0.5 * float(etas[k] + etas[k + 1])
            pre = float(slopes[k]) + min(float(cert.eta(tm, xm, mode)), mean)
            margin = pre - slack
            if math.isnan(pre) or math.isnan(mean) or (slack == slack and margin != margin):
                if nan_step is None:
                    nan_step = (float(t[a + k]), mode)
            elif margin > worst_slope:
                worst_slope, slope_where = margin, (float(t[a + k]), mode)
    if nan_step is not None or slack != slack:
        a, _, mode, _, _ = per_seg[0]
        worst_slope, slope_where = np.nan, nan_step or (float(t[a]), mode)
    slope_report = CheckReport(check="decrease_slope", passed=worst_slope <= 0.0,
                               worst_margin=worst_slope, worst_location=slope_where,
                               slack=slack)
    return DecreaseReport(slope=slope_report,
                          revisit=revisit_loop_reference(cert, traj, sigma, revisit_tol))


def revisit_loop_reference(cert, traj, sigma, revisit_tol=REVISIT_TOL):
    """The revisit part node by node: V_i at each node of mode i against the
    running minimum of the mode's earlier nodes.  A NaN margin fails the part,
    reported at the first NaN node."""
    t, x = traj.times, traj.states
    modes = traj.modes if traj.modes is not None else sigma.modes_at(t)
    worst, where, nan_k = -np.inf, (0.0, 0), None
    for i in np.unique(modes):
        running = np.inf
        for k in np.nonzero(modes == i)[0]:
            v = float(cert.V(t[k], x[k], int(i)))
            margin = v - running - revisit_tol
            if margin > worst:
                worst, where = margin, (float(t[k]), int(i))
            elif margin != margin and (nan_k is None or k < nan_k):
                nan_k = k
            running = min(running, v)
    if nan_k is not None:
        worst, where = np.nan, (float(t[nan_k]), int(modes[nan_k]))
    return CheckReport(check="mode_revisit", passed=worst <= 0.0, worst_margin=worst,
                       worst_location=where, slack=revisit_tol)


def check_integral_bound_reference(traj, sigma, sys, params, quad_coeff=10.0):
    t = traj.times
    x = traj.states
    if len(t) < 2:
        return CheckReport(check="integral_bound", passed=True, worst_margin=-params.M,
                           worst_location=(traj.t0, traj.t0), slack=0.0)
    modes = traj.modes if traj.modes is not None else sigma.modes_at(t)
    h_steps = np.diff(t)
    h_max = float(h_steps.max())
    cum = np.empty(len(t))
    cum[0] = 0.0
    for k in range(len(t) - 1):
        i = int(modes[k])
        ga = params.alpha(math.hypot(*sys.h(t[k], x[k], i)))
        gb = params.alpha(math.hypot(*sys.h(t[k + 1], x[k + 1], i)))
        cum[k + 1] = cum[k] + 0.5 * (ga + gb) * h_steps[k]
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


# ---------------------------------------------------------------------------
# ndarray RK4 kernel
# ---------------------------------------------------------------------------
# The RK4 step, interval march and closed-loop advance as they ran on float64
# arrays.  Handed out in place of the (step, march, advance) kernels of
# swstab.integrate's ``_rk4_kernels`` (and limiting's import of it), they call
# the field at every stage, also where the production kernels evaluate a
# ``ModeSource`` mode inline.  They take and give states the way the
# integrators hold them: a sequence of floats in, the flat node list extended.
# Trajectories must come out equal bit for bit.


def rk4_step_reference(f, t, x, h, arg):
    """RK4 step with float64 array stages; the field's result is read as an array.

    The last sum runs on Python floats, which round as the array expression does."""
    x = np.asarray(x, dtype=float)

    def k(tk, xk):
        return np.asarray(f(tk, xk, arg), dtype=float)

    hh = 0.5 * h
    tm = t + hh
    k1 = k(t, x)
    k2 = k(tm, x + hh * k1)
    k3 = k(tm, x + hh * k2)
    k4 = k(t + h, x + h * k3)
    h6 = h / 6.0
    return [a + h6 * (b1 + 2.0 * (b2 + b3) + b4) for a, b1, b2, b3, b4
            in zip(x.tolist(), k1.tolist(), k2.tolist(), k3.tolist(), k4.tolist())]


def _check_state_reference(x, t, bound):
    s = sum([v * v for v in x])
    if s != s:  # NaN
        raise DynamicsError(f"NaN state at t={t}")
    if s > bound * bound:
        raise BlowUpError(f"state norm exceeded {bound:.3g} at t={t}", time=t)


# the node times integrate_interval_reference derived, one a node, in call order
MARCHED_TIMES: list = []


def integrate_interval_reference(f, t0, x0, t1, m, bound, out_x, arg=None):
    """m steps across [t0, t1], each node's time derived here, step by step, and
    appended to MARCHED_TIMES; the production march records states only."""
    h = (t1 - t0) / m
    x = x0
    for k in range(1, m + 1):
        t = t0 + (k - 1) * h
        x = rk4_step_reference(f, t, x, h, arg)
        tk = t1 if k == m else t0 + k * h
        _check_state_reference(x, tk, bound)
        MARCHED_TIMES.append(tk)
        out_x.extend(x)
    return x


def switched_nodes_reference(sigma, t0, tf, step):
    """Node times and modes of a switched run, step by step: segment (a, b)'s m
    steps end at a + k * h and, the last, at b; a node's mode is sigma's there."""
    ts = [t0]
    if tf > t0:
        a, b, _ = sigma.segments(t0, tf)
        for a, b in zip(a.tolist(), b.tolist()):
            m = max(1, int(math.ceil(((b - a) / step) * (1.0 - 1e-9))))
            h = (b - a) / m
            ts += [b if k == m else a + k * h for k in range(1, m + 1)]
    times = np.array(ts)
    return times, sigma.modes_at(times)


def relaxed_nodes_reference(u, t0, tf, step):
    """Node times and cells of a cell-aligned relaxed run, the control scanned
    cell by cell for runs of equal values; a run's node on its left edge takes
    its cell."""
    per_cell = max(1, int(math.ceil((u.step / step) * (1.0 - 1e-9))))
    k = u.cell_of(t0)
    ts, cells = [t0], [k]
    same_as_prev = [False] + np.all(u.values[1:] == u.values[:-1], axis=1).tolist()
    c0, dc = u.t0, u.step
    while tf > t0 and c0 + k * dc < tf - 1e-12 and k < u.n_cells:
        k_end = k + 1
        while k_end < u.n_cells and c0 + k_end * dc < tf - 1e-12 and same_as_prev[k_end]:
            k_end += 1
        a, b = max(t0, c0 + k * dc), min(tf, c0 + k_end * dc)
        cells[-1] = k
        if b > a:
            m = per_cell * (k_end - k)
            h = (b - a) / m
            ts += [b if j == m else a + j * h for j in range(1, m + 1)]
            cells += [k] * m
        k = k_end
    return np.array(ts), np.array(cells)


def closed_loop_advance_reference(f, t, x, t_stop, tf, step, bound, margin, mode,
                                  out_t, out_x, arg=None):
    """Steps of min(step, tf - t) while t < t_stop, as the closed loop took them one
    by one; returns (t, x, h, x_new) at the first step leaving the piece of ``mode``."""
    while t < t_stop:
        h = min(step, tf - t)
        x_new = rk4_step_reference(f, t, x, h, arg)
        _check_state_reference(x_new, t + h, bound)
        if margin(x_new, mode) < -BOUNDARY_TOL:
            return t, x, h, x_new
        t, x = t + h, x_new
        out_t.append(t)
        out_x.extend(x)
    return t, x, None, None


def switched_outputs_reference(sys, traj):
    """Rows h_i(t, x) filled node by node, i the node's mode."""
    out = np.empty((len(traj.times), sys.p))
    for k, (t, x, i) in enumerate(zip(traj.times.tolist(), traj.states, traj.modes.tolist())):
        out[k] = sys.h(t, x, i)
    return out



# ---------------------------------------------------------------------------
# ndarray falsifier screen
# ---------------------------------------------------------------------------
# The cell-by-cell screen of swstab.limiting as it ran on float64 arrays:
# Hhat values and cell weights as arrays, the residual as the array product
# H @ w, the face-random weights drawn with rng.dirichlet and the quota
# steering as array arithmetic.  Handed out in place of ``_rollout`` and
# ``_face_random_candidate``, they must give the same verdicts and
# counterexamples bit for bit.  Cells are marched by the production kernel.


def integral_steering_reference(c, t, accrued, w, allowed):
    tile_end = (math.floor(t / c.T0 + 1e-12) + 1) * c.T0
    deficit = c.delta0 - accrued
    if deficit <= 0 or c.mode not in allowed:
        return w
    lam = min(1.0, deficit / max(tile_end - t, 1e-12))
    v = np.zeros(len(w))
    v[c.mode - 1] = 1.0
    return (1.0 - lam) * w + lam * v


def rollout_reference(rls, u_cells, x0, horizon, du, sub, eps, residual_tol,
                      divergence_bound, tally):
    n_cells = int(round(horizon / du))
    x = np.asarray(x0, dtype=float)
    if float(np.linalg.norm(x)) < eps:
        raise _Abort("start_below_floor")
    x = x.tolist()
    fields, Hhat = _limiting_fields(rls.Fhat), rls.Hhat
    closed_loop = callable(u_cells)
    ws = []
    t_end = H_end = None
    for k in range(n_cells):
        t = k * du
        H = H_end if t == t_end else Hhat(t, x)
        w = u_cells(k, t, x, H) if closed_loop else u_cells[k]
        ws.append(w)
        if not float(H @ w) <= residual_tol:
            raise _Abort("residual")
        rhs, arg = _mix_rhs(fields, w)
        t_end = t + du
        tally.cells += 1
        try:
            x = _rk4_kernels(len(x), rhs, arg)[1](rhs, t, x, t_end, sub, divergence_bound,
                                                  [], arg)
        except (BlowUpError, DynamicsError):
            raise _Abort("diverged") from None
        if sum([v * v for v in x]) < eps * eps:
            raise _Abort("norm_floor")
        H_end = Hhat(t_end, x)
        if not float(H_end @ w) <= residual_tol:
            raise _Abort("residual")
    return np.array(ws)


def face_random_candidate_reference(rls, integral_cs, rng, n_cells, du, eps, residual_tol):
    x0 = _shell_state(rng, rls.n, eps, sparse=bool(rng.integers(0, 2)))
    accrued = {id(c): 0.0 for c in integral_cs}
    tile_of = {id(c): 0 for c in integral_cs}

    def unreachable(c, acc, t, tile):
        return acc + ((tile + 1) * c.T0 - t) < c.delta0 - TIE_TOL

    def choose(k, t, x, Hv):
        active = active_index_set(x, rls.covering, tol=BOUNDARY_TOL)
        allowed = [i for i in active if Hv[i - 1] <= residual_tol]
        if not allowed:
            raise _Abort("empty_face")
        w = np.zeros(rls.N)
        draw = rng.dirichlet(np.ones(len(allowed)))
        w[np.array(allowed) - 1] = draw if len(allowed) > 1 else 1.0
        t_next = (k + 1) * du
        for c in integral_cs:
            tile = int(math.floor(t / c.T0 + 1e-12))
            if tile != tile_of[id(c)]:
                if accrued[id(c)] < c.delta0 - TIE_TOL:
                    raise _Abort("window_quota_missed")
                tile_of[id(c)] = tile
                accrued[id(c)] = 0.0
                if unreachable(c, 0.0, t, tile):
                    raise _Abort("window_quota_unreachable")
            w = integral_steering_reference(c, t, accrued[id(c)], w, allowed)
            accrued[id(c)] += w[c.mode - 1] * du
            if (k + 1 < n_cells and int(math.floor(t_next / c.T0 + 1e-12)) == tile
                    and unreachable(c, accrued[id(c)], t_next, tile)):
                raise _Abort("window_quota_unreachable")
        return w

    return choose, x0


# --- the generators' one-draw-per-piece loops and the cover check's
# per-interval loop, which the bulk draws and the array cover check replaced --


def _build_signal_reference(breaks, modes, t0, tf):
    """Snapped breaks to a signal, one at a time: the last mode wins among
    breaks at or before the last kept one, and the first at or after tf ends it."""
    bp, md = [t0], [modes[0]]
    for b, m in zip(breaks[1:], modes[1:]):
        if b <= bp[-1]:
            md[-1] = m
            continue
        if b >= tf:
            break
        bp.append(b)
        md.append(m)
    return SwitchingSignal(np.array(bp), np.array(md, dtype=np.int64), t0, tf)


def gen_pattern_reference(c, span, rng_seed, granularity):
    """The pattern generator with one ``rng.integers`` call per gap."""
    t0, tf = span
    gmax = min(c.dM, (c.T - 2.0 * c.dm) / 4.0)
    k_lo = math.ceil(c.dm / granularity - TIE_TOL)
    k_hi = max(math.floor(gmax / granularity + TIE_TOL), k_lo)
    rng = np.random.default_rng(rng_seed)
    breaks, modes, granules = [], [], 0
    while t0 + granules * granularity < tf:
        for mode in (1, 2, 1):
            breaks.append(t0 + granules * granularity)
            modes.append(mode)
            granules += int(rng.integers(k_lo, k_hi + 1))
    return _build_signal_reference(breaks, modes, t0, tf)


def gen_measure_reference(c, n_modes, span, rng_seed, granularity):
    """The measure generator with one mode and one dwell draw per piece (not
    the forced case, where the block fills the window)."""
    t0, tf = span
    rng = np.random.default_rng(rng_seed)

    def snap(t):
        return round(t / granularity) * granularity

    margin = max(min(c.delta0, c.T0 - c.delta0) / 2.0, 4.0 * granularity)
    block = math.ceil((c.delta0 + margin) / granularity - TIE_TOL) * granularity
    offset = float(rng.integers(0, int((c.T0 - block) / granularity) + 1)) * granularity
    breaks, modes = [], []

    def filler(a, b):
        t = a
        while t < b - granularity / 2:
            breaks.append(t)
            modes.append(int(rng.integers(1, n_modes + 1)))
            t = min(b, t + max(snap(float(rng.exponential(0.3 * c.T0))), granularity))

    for k in range(int(np.ceil((tf - t0) / c.T0)) + 1):
        a = t0 + k * c.T0
        filler(a, a + offset)
        breaks.append(a + offset)
        modes.append(c.mode)
        filler(a + offset + block, a + c.T0)
    return _build_signal_reference([snap(b) for b in breaks], modes, t0, tf)


def pattern_cover_reference(sigma, c) -> tuple:
    """(ok, first_violation_t, margin) of the cover check, one interval at a time."""
    lo, hi = sigma.domain_start, max(sigma.domain_end - c.T, sigma.domain_start)
    starts, modes = sigma.breakpoints, sigma.modes
    ends = np.append(starts[1:], sigma.domain_end)
    intervals = []
    for j in range(len(modes)):
        if modes[j] != 2:
            continue
        p, q = float(starts[j]), float(ends[j])
        if not (c.dm - TIE_TOL <= q - p <= c.dM + TIE_TOL):
            continue
        prev_ok = j > 0 and modes[j - 1] == 1 and (p - starts[j - 1]) >= c.dm - TIE_TOL
        next_ok = j + 1 < len(modes) and modes[j + 1] == 1 and (ends[j + 1] - q) >= c.dm - TIE_TOL
        if prev_ok and next_ok:
            intervals.append((q + c.dm - c.T, p - c.dm))
    covered_to = lo
    for a, b in sorted(intervals):
        if b < covered_to - TIE_TOL:
            continue
        if a > covered_to + TIE_TOL:
            return False, float(covered_to), -float(a - covered_to)
        covered_to = max(covered_to, b)
        if covered_to >= hi - TIE_TOL:
            return True, None, 0.0
    return False, float(covered_to), -float(hi - covered_to)
