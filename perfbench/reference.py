"""Checks made apart from swstab: a reference integrator and direct evaluations.

Nothing here imports swstab.  The reference integrator is a plain RK4 that
steps each constancy interval on its own at a tenth of the library's step
and lands exactly on the requested output times, so it shares neither the
library's integrator nor its tiling of intervals into sub-steps.  (An
adaptive scipy solver was tried first: on the cube-root damped mode of
``motivating`` it shrinks its steps near x1 = 0 until one trial takes
minutes.)  The direct evaluations call the registry's own definitions (mode
fields, outputs, covering margins, certificate callables) node by node.

Every ``*_problems`` function returns a list of messages; an empty list
means the output passed.
"""

from __future__ import annotations

import math

import numpy as np

REFINE = 10  # reference step = library step / REFINE


def integrate_pieces(rhs, pieces, x0, times, h_max: float) -> np.ndarray:
    """States at ``times`` of dx/dt = rhs(t, x, arg) by RK4 with steps <= h_max.

    ``pieces`` is an ordered list of ``(a, b, arg)`` intervals that tile the
    span; ``times`` must be sorted and lie inside it.  Each piece is marched
    on its own, in equal steps between consecutive output times.
    """
    times = np.asarray(times, dtype=float)
    out = np.empty((len(times), len(x0)))
    x = np.asarray(x0, dtype=float)
    j = 0
    while j < len(times) and times[j] <= pieces[0][0]:
        out[j] = x
        j += 1
    for a, b, arg in pieces:
        t = a
        while True:
            stop = float(times[j]) if j < len(times) and times[j] < b else b
            if stop > t:
                n = max(1, math.ceil((stop - t) / h_max))
                h = (stop - t) / n
                for k in range(n):
                    tk = t + k * h
                    k1 = rhs(tk, x, arg)
                    k2 = rhs(tk + 0.5 * h, x + (0.5 * h) * k1, arg)
                    k3 = rhs(tk + 0.5 * h, x + (0.5 * h) * k2, arg)
                    k4 = rhs(tk + h, x + h * k3, arg)
                    x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                t = stop
            if stop < b:
                out[j] = x
                j += 1
                continue
            while j < len(times) and times[j] == b:
                out[j] = x
                j += 1
            break
    if j < len(times):
        raise ValueError("requested times extend past the last piece")
    return out


def signal_pieces(breakpoints, modes, t0: float, tf: float) -> list:
    """Constancy intervals ``(a, b, mode)`` of a switching signal on [t0, tf]."""
    edges = [t0] + [float(b) for b in breakpoints if t0 < b < tf] + [tf]
    pieces = []
    for a, b in zip(edges[:-1], edges[1:]):
        k = int(np.searchsorted(breakpoints, a, side="right")) - 1
        pieces.append((a, b, int(modes[max(k, 0)])))
    return pieces


def cell_pieces(values, du: float, t0: float = 0.0) -> list:
    """Intervals ``(a, b, weights)`` of a cell-wise constant relaxed control."""
    return [(t0 + k * du, t0 + (k + 1) * du, np.asarray(w, dtype=float))
            for k, w in enumerate(values)]


def switched_rhs(f):
    return lambda t, x, mode: np.asarray(f(t, x, mode), dtype=float)


def mixed_rhs(fields):
    """dx/dt = sum_i w_i fields(t, x, i) over the modes with nonzero weight."""
    def rhs(t, x, w):
        acc = np.zeros(len(x))
        for i, wi in enumerate(w):
            if wi != 0.0:
                acc += wi * np.asarray(fields(t, x, i + 1), dtype=float)
        return acc
    return rhs


def deviation_problems(label: str, got, ref, tol: float) -> list:
    """Largest node-wise distance between a trajectory and the reference."""
    dev = float(np.max(np.linalg.norm(np.asarray(got) - np.asarray(ref), axis=1)))
    if not dev <= tol:
        return [f"{label}: deviation from the reference integrator {dev:.3e} > {tol:.1e}"]
    return []


# ---------------------------------------------------------------------------
# envelope
# ---------------------------------------------------------------------------


def envelope_problems(table, radii, trial_norms, trial_bins) -> list:
    """The table is the cell-wise maximum of the recorded per-trial norms.

    ``trial_norms[k]`` holds trial k's norms at the tau nodes and
    ``trial_bins[k]`` its radius bin.  Each first-column entry, a largest
    initial norm, must also lie in its bin (lower edge, upper edge].
    """
    problems = []
    table = np.asarray(table, dtype=float)
    radii = np.asarray(radii, dtype=float)
    expect = np.zeros_like(table)
    for norms, b in zip(trial_norms, trial_bins):
        np.maximum(expect[b], norms, out=expect[b])
    if not np.array_equal(table, expect):
        diff = np.argwhere(table != expect)[0]
        problems.append(f"envelope cell {tuple(int(v) for v in diff)} is "
                        f"{table[tuple(diff)]!r}, recorded trials give {expect[tuple(diff)]!r}")
    for b, hi in enumerate(radii):
        lo = 0.0 if b == 0 else float(radii[b - 1])
        if not lo < table[b, 0] <= hi:
            problems.append(f"first-column entry {table[b, 0]!r} of bin {b} "
                            f"outside ({lo}, {hi}]")
    return problems


# ---------------------------------------------------------------------------
# reduced limiting system counterexample
# ---------------------------------------------------------------------------


def counterexample_problems(fhat, h, values, du: float, times, states, h_max: float,
                            eps: float, residual_tol: float, tol: float) -> list:
    """Re-integrate a counterexample from the system's ``fhat`` under its control.

    The reference states must follow the returned trajectory within ``tol``;
    at every node |x| >= eps, and sum_i u_i |h_i| <= residual_tol under both
    cells that touch the node.
    """
    values = np.asarray(values, dtype=float)
    times = np.asarray(times, dtype=float)
    ref = integrate_pieces(mixed_rhs(fhat), cell_pieces(values, du), states[0], times,
                           h_max)
    problems = deviation_problems("counterexample", states, ref, tol)
    norms = np.linalg.norm(ref, axis=1)
    if not float(norms.min()) >= eps:
        problems.append(f"counterexample norm {norms.min():.3e} below the floor {eps}")
    worst = 0.0
    n_cells = len(values)
    for t, x in zip(times, ref):
        k = t / du
        cells = {min(int(np.floor(k)), n_cells - 1), max(int(np.ceil(k)) - 1, 0)}
        for c in cells:
            r = sum(w * float(np.linalg.norm(np.atleast_1d(h(t, x, i + 1))))
                    for i, w in enumerate(values[c]) if w != 0.0)
            worst = max(worst, r)
    if not worst <= residual_tol:
        problems.append(f"counterexample output {worst:.3e} above {residual_tol:.1e}")
    return problems


# ---------------------------------------------------------------------------
# closed-loop certification
# ---------------------------------------------------------------------------


# closed-loop tolerances: covering margin, grad(V).f + eta relative to
# 1 + |x|^2, and V conservation relative to 1 + V on the conserved mode's arcs
MARGIN_TOL = 1e-9
DECREASE_TOL = 1e-10
CONSERVE_TOL = 1e-6
CONSERVED_MODE = 3


def closed_loop_problems(margin, f, V, dV, eta, times, states, modes, analytic) -> list:
    """Node-wise covering margins, grad(V_i).f_i + eta_i, and V conservation.

    ``analytic(x, i)`` is the closed form of grad(V_i).f_i + eta_i; the
    evaluated value must match it.  Along each run of CONSERVED_MODE nodes V
    must stay within CONSERVE_TOL * (1 + V_start).
    """
    problems = []
    worst_margin = np.inf
    worst_dec = -np.inf
    worst_gap = 0.0
    for t, x, m in zip(times, states, modes):
        m = int(m)
        worst_margin = min(worst_margin, float(margin(x, m)))
        q = float(np.dot(dV(t, x, m), f(t, x, m))) + float(eta(t, x, m))
        scale = 1.0 + float(x @ x)
        worst_dec = max(worst_dec, q / scale)
        worst_gap = max(worst_gap, abs(q - analytic(x, m)) / scale)
    if not worst_margin >= -MARGIN_TOL:
        problems.append(f"node off its covering piece: margin {worst_margin:.3e}")
    if not worst_dec <= DECREASE_TOL:
        problems.append(f"grad(V).f + eta = {worst_dec:.3e} (relative) above {DECREASE_TOL:.0e}")
    if not worst_gap <= DECREASE_TOL:
        problems.append(f"grad(V).f + eta departs from its closed form by {worst_gap:.3e}")
    on = np.asarray(modes) == CONSERVED_MODE
    k = 0
    while k < len(on):
        if not on[k]:
            k += 1
            continue
        e = k
        while e + 1 < len(on) and on[e + 1]:
            e += 1
        v = np.array([V(times[j], states[j], CONSERVED_MODE) for j in range(k, e + 1)])
        if np.max(np.abs(v - v[0])) > CONSERVE_TOL * (1.0 + v[0]):
            problems.append(f"V{CONSERVED_MODE} not conserved on the arc from t={times[k]:.4f}")
            break
        k = e + 1
    return problems
