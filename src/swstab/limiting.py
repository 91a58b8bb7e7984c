"""Reduced limiting control systems and the weak zero-state detectability falsifier.

The reduced system is the auxiliary control system built from the precompact
parts of the dynamics, with output constrained to zero, controls confined to
the covering-induced face at the current state, and the switching-class
constraints inherited in integral or pattern form.  Detectability of the
reduced system is *falsified*, never proved: the search hunts for a bounded
trajectory that keeps its norm above a floor while zeroing the output and
honoring all constraints.  "No counterexample found" is evidence at the
recorded budget and grid, nothing more.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    BOUNDARY_TOL,
    BlowUpError,
    Covering,
    DomainError,
    DynamicsError,
    ParameterError,
    RelaxedControl,
    SwstabError,
    SwitchedSystem,
    Trajectory,
    active_index_set,
)
from .integrate import IntegratorConfig, _march, _rk4_kernels, _rows
from .signals import (
    TIE_TOL,
    MeasureConstraint,
    PatternConstraint,
    PatternReport,
    _window_min,
    pattern_cover_check,
)

VERTEX_TOL = 1e-6  # a control cell counts as a vertex if within this of e_i (sup norm)
_ULP = 2.0 ** -53  # unit roundoff of float64


@dataclass(frozen=True)
class ReducedLimitingSystem:
    """dx/dt = Fhat(t, x) u with output Hhat(t, x) . u pinned to zero.

    Fhat stacks the limiting precompact fields columnwise (a vertex control
    marches the mode field of a ``_StackedFields`` directly); Hhat holds the
    componentwise output magnitudes, so Hhat >= 0 and zero output is exactly
    a face condition on u.  ``constraints`` are the switching class's own
    constraint objects, as weak limits inherit them: a MeasureConstraint
    bounds the integral of u_mode over every window of length T0 from below
    by delta0, and a PatternConstraint asks for a near-vertex 1-2-1 pattern
    with gaps in [dm, dM] in every window of length T.
    """

    n: int
    N: int
    Fhat: Callable[[float, Sequence[float]], np.ndarray]   # (n, N)
    Hhat: Callable[[float, Sequence[float]], np.ndarray]   # (N,)
    covering: Covering
    constraints: tuple[MeasureConstraint | PatternConstraint, ...] = ()


@dataclass(frozen=True, slots=True)
class _StackedFields:
    """Fhat(t, x): the mode fields ``fields(t, x, i)``, i = 1..N, as the columns
    of an (n, N) array; a vertex control marches them directly (``_reduced_rhs``)."""

    fields: Callable[[float, Sequence[float], int], Sequence[float]]
    N: int

    def __call__(self, t, x):
        # copied to C order: a transposed view could change how matmul rounds
        return np.array([self.fields(t, x, i) for i in range(1, self.N + 1)]).T.copy()


def build_reduced(sys: SwitchedSystem, covering: Covering,
                  constraints: Sequence[MeasureConstraint | PatternConstraint] = ()
                  ) -> ReducedLimitingSystem:
    """Assemble the reduced limiting control system from ``sys.fhat`` (``sys.f``
    when there is none) and ``sys.h``; Fhat is a ``_StackedFields`` of them.

    These are the limiting functions along a time sequence t_k with
    fhat(t + t_k) = fhat(t): exact when the precompact part is time-invariant
    or periodic (t_k = kT), a surrogate otherwise.
    """
    if covering.N != sys.N:
        raise ParameterError("covering and system mode counts differ")
    h = sys.h
    modes = range(1, sys.N + 1)

    def Hhat(t, x):
        # sqrt(v . v) is np.linalg.norm's arithmetic on a float64 vector, minus its
        # overhead; for p = 1 it is one float product, as in lyapunov._output_gauge
        if sys.p == 1:
            return np.array([math.sqrt(v * v) for (v,) in [h(t, x, i) for i in modes]])
        vs = [np.asarray(h(t, x, i), dtype=float) for i in modes]
        return np.array([math.sqrt(v.dot(v)) for v in vs])

    Fhat = _StackedFields(sys.fhat if sys.fhat is not None else sys.f, sys.N)
    return ReducedLimitingSystem(n=sys.n, N=sys.N, Fhat=Fhat, Hhat=Hhat,
                                 covering=covering, constraints=tuple(constraints))


def _fhat_column(t, x, Fhat_i):
    Fhat, i = Fhat_i
    return Fhat(t, x)[:, i].tolist()


def _fhat_mix(t, x, Fhat_w):
    Fhat, w = Fhat_w
    return (Fhat(t, x) @ w).tolist()


def _reduced_rhs(Fhat, w: list):
    """(rhs, arg) for dx/dt = Fhat(t, x) @ w, w a list of cell weights.  A vertex
    e_i gives (fields, i + 1) on a ``_StackedFields``, its mode field as
    ``integrate._mode_rhs`` pairs it (no other mode is evaluated), and reads
    column i of any other Fhat; any other w is the matmul with ``np.array(w)``.

    The vertex value equals the matmul up to the sign of a zero component, and
    a non-finite entry of an unused column no longer turns into NaN via 0 * inf.
    """
    if w.count(0.0) == len(w) - 1 and 1.0 in w:
        i = w.index(1.0)
        if type(Fhat) is _StackedFields:
            return Fhat.fields, i + 1
        return _fhat_column, (Fhat, i)
    return _fhat_mix, (Fhat, np.array(w))


def simulate_reduced(rls: ReducedLimitingSystem, u: RelaxedControl, t0: float,
                     x0: np.ndarray, tf: float, cfg: IntegratorConfig) -> Trajectory:
    """Integrate the reduced dynamics under a relaxed control, cells aligned.

    The reduced system is the relaxed system with fields Fhat's columns, so
    this is the march of ``simulate_relaxed``.  Like every integrator it
    records no output; ``output_residual`` evaluates Hhat . u.
    """
    Fhat = rls.Fhat
    ts, xs, cells = _march(lambda w: _reduced_rhs(Fhat, w.tolist()), u, t0, x0, tf, cfg,
                           rls.n, rls.N)
    return Trajectory(times=np.array(ts), states=_rows(xs, rls.n), controls=u.values[cells])


def _reduced_outputs(rls: ReducedLimitingSystem, traj: Trajectory) -> tuple[list[float], float]:
    """Hhat(t, x(t)) . u(t) at every node of a ``simulate_reduced`` run, which records
    u at every node, and their max with 0.0, NaN if any is (max() would drop it)."""
    if traj.controls is None:
        raise ParameterError("trajectory carries no control")
    Hhat = rls.Hhat
    ys = [float(Hhat(t, x) @ w) for t, x, w in zip(traj.times.tolist(), traj.states, traj.controls)]
    return ys, math.nan if any(math.isnan(y) for y in ys) else max([0.0, *ys])


def output_residual(rls: ReducedLimitingSystem, traj: Trajectory) -> float:
    """Max over grid nodes of Hhat(t, x(t)) . u(t), NaN if any is; zero means output-zero holds."""
    return _reduced_outputs(rls, traj)[1]


# ---------------------------------------------------------------------------
# inherited-constraint checks on relaxed controls
# ---------------------------------------------------------------------------


def _vertex_cell_runs(u: RelaxedControl) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Classify cells as vertex-1 (1), vertex-2 (2), or neither (3); merged runs."""
    n = u.n_modes
    cls = np.full(u.n_cells, 3, dtype=np.int64)
    for i in (1, 2):
        if i <= n:
            target = np.zeros(n)
            target[i - 1] = 1.0
            near = np.max(np.abs(u.values - target), axis=1) <= VERTEX_TOL
            cls[near] = i
    keep = np.concatenate(([True], np.diff(cls) != 0))
    starts = u.t0 + u.step * np.nonzero(keep)[0]
    modes = cls[keep]
    ends = np.concatenate((starts[1:], [u.tf]))
    return starts, ends, modes


def check_control_constraint(u: RelaxedControl,
                             c: MeasureConstraint | PatternConstraint) -> tuple[bool, float]:
    """Exact check of an inherited class constraint on a relaxed control.

    MeasureConstraint: exact quadrature of the piecewise-constant control over
    all sliding windows; margin is (worst window integral) - delta0.
    PatternConstraint: cells within 1e-6 of a vertex form runs searched for
    the 1-2-1 quadruple exactly as for switching signals; margin is 0 when
    satisfied, minus the worst anchor-coverage gap otherwise.
    """
    if isinstance(c, MeasureConstraint):
        if u.n_modes < c.mode:
            raise ParameterError("constraint mode exceeds the control's mode count")
        kinks = u.t0 + u.step * np.arange(u.n_cells + 1)
        cum = np.concatenate(([0.0], np.cumsum(u.values[:, c.mode - 1] * u.step)))
        m, _ = _window_min(kinks, cum, c.T0)
        return m >= c.delta0 - TIE_TOL, m - c.delta0
    starts, ends, modes = _vertex_cell_runs(u)
    lo, hi = u.t0, u.tf - c.T
    if hi < lo - TIE_TOL:
        raise DomainError("control must span at least one window")
    rep: PatternReport = pattern_cover_check(starts, ends, modes, c, lo, max(hi, lo))
    return rep.ok, rep.margin


# ---------------------------------------------------------------------------
# zeroing candidates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZeroingCandidate:
    """A trajectory that keeps |x| >= eps while its output stays below tolerance."""

    trajectory: Trajectory
    control: Optional[RelaxedControl]
    eps: float
    output_sup: float
    span: tuple[float, float]

    def __post_init__(self):
        if self.eps <= 0:
            raise ParameterError("eps must be positive")
        if float(self.trajectory.norms().min()) < self.eps - 1e-12:
            raise ParameterError("trajectory dips below the claimed norm floor")


# ---------------------------------------------------------------------------
# WZSD falsifier
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FalsifierVerdict:
    verdict: str                 # "no_counterexample_found" | "counterexample"
    budget_used: int
    seed: int
    eps: float
    residual_tol: float
    horizon: float
    du: float
    counterexample: Optional[ZeroingCandidate] = None
    notes: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        d = {"verdict": self.verdict, "budget_used": self.budget_used, "seed": self.seed,
             "eps": self.eps, "residual_tol": self.residual_tol,
             "horizon": self.horizon, "du": self.du, **self.notes}
        if self.counterexample is not None:
            d["counterexample_min_norm"] = self.counterexample.eps
            d["counterexample_output_sup"] = self.counterexample.output_sup
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def _candidate_rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(k,)))


def _seed_states(rls: ReducedLimitingSystem, eps: float) -> list[np.ndarray]:
    """Deterministic start battery: +/- axis points on a shell above the floor."""
    out = []
    r = 2.0 * eps
    for j in range(rls.n):
        for s in (1.0, -1.0):
            x = np.zeros(rls.n)
            x[j] = s * r
            out.append(x)
    return out


def _shell_state(rng: np.random.Generator, n: int, eps: float, sparse: bool) -> np.ndarray:
    x = rng.standard_normal(n)
    if sparse and n > 1:
        mask = rng.integers(0, 2, size=n).astype(bool)
        if not mask.any():
            mask[rng.integers(0, n)] = True
        x = x * mask
        if not np.any(x):
            x[0] = 1.0
    r = float(rng.uniform(eps, 3.0 * eps))
    return x * (r / np.linalg.norm(x))


def _integral_steering(c, t, accrued, w, allowed):
    """Blend the weight list w toward the constrained mode's vertex v to chase
    the window quota: (1 - lam) * w_i + lam * v_i, as the array expression rounds."""
    tile_end = (math.floor(t / c.T0 + 1e-12) + 1) * c.T0
    deficit = c.delta0 - accrued
    if deficit <= 0 or c.mode not in allowed:
        return w
    lam = min(1.0, deficit / max(tile_end - t, 1e-12))
    v = [0.0] * len(w)
    v[c.mode - 1] = 1.0
    return [(1.0 - lam) * a + lam * b for a, b in zip(w, v)]


# Reasons a candidate is rejected, in the order FalsifierVerdict.notes["aborts"] lists them.
ABORT_REASONS = ("start_below_floor", "residual", "norm_floor", "diverged", "empty_face",
                 "window_quota_missed", "window_quota_unreachable", "constraint",
                 "validation")


class _Abort(Exception):
    """A candidate rejected by the screen; ``args[0]`` is one of ABORT_REASONS."""


class _Tally:
    """Rejected candidates per reason and cells marched by the screen, over one search."""

    def __init__(self):
        self.aborts = dict.fromkeys(ABORT_REASONS, 0)
        self.cells = 0


def _dot_residual(H, w) -> float:
    """H . w as numpy rounds it (a length-2 dot is fma(H1, w1, H0 * w0))."""
    return float(np.array(H) @ np.array(w))


def _residual_ok(H: list, w: list, tol: float) -> bool:
    """``_dot_residual(H, w) <= tol``, decided by the float sum s where it can.

    s and numpy's dot each lie within about N * 2**-53 * sum|H_i w_i| of the
    exact value (a subnormal product adds at most 2**-1074), so s decides
    whenever |s - tol| exceeds 4 * N * 2**-53 * sum|H_i w_i| + 1e-300.  Inside
    that band, and when either sum is NaN or inf, numpy's dot decides.
    """
    s = a = 0.0
    for h, v in zip(H, w):
        p = h * v
        s += p
        a += abs(p)
    if abs(s - tol) > 4.0 * len(H) * _ULP * a + 1e-300:  # False on NaN
        return s <= tol
    return _dot_residual(H, w) <= tol


def _rollout(rls: ReducedLimitingSystem, u_cells, x0, horizon, du, step, eps,
             residual_tol, divergence_bound, tally: _Tally) -> np.ndarray:
    """Screen a candidate cell by cell; returns its cell weights or raises _Abort.

    ``u_cells`` is an array of cell weights, read as lists of floats, or a
    callable u_cells(k, t, x, H) that is handed H = Hhat(t, x) as a list and
    returns the weight list or raises _Abort (the face-random closed loop).
    Hhat is evaluated once per grid node: a cell's end value is the next
    cell's start value when the two times are equal floats.  Each cell is
    marched by the integrator's RK4 in sub-steps no longer than ``step``.  The
    norm floor (a sum of squares of the float-list state) is checked at cell
    ends only: _validate_candidate re-checks every node.
    """
    n_cells = int(round(horizon / du))
    x = np.asarray(x0, dtype=float)
    if float(np.linalg.norm(x)) < eps:
        raise _Abort("start_below_floor")
    x = x.tolist()
    sub = max(1, int(math.ceil(du / step - 1e-12)))
    Fhat, Hhat = rls.Fhat, rls.Hhat
    closed_loop = callable(u_cells)
    if not closed_loop:
        u_cells = u_cells.tolist()
    march = _rk4_kernels(len(x))[1]
    ws = []
    t_end = H_end = None
    for k in range(n_cells):
        t = k * du
        H = H_end if t == t_end else Hhat(t, x).tolist()
        w = u_cells(k, t, x, H) if closed_loop else u_cells[k]
        ws.append(w)
        if not _residual_ok(H, w, residual_tol):  # a NaN residual fails too
            raise _Abort("residual")
        rhs, arg = _reduced_rhs(Fhat, w)
        t_end = t + du
        tally.cells += 1
        try:
            x = march(rhs, t, x, t_end, step, divergence_bound, [], [], n_steps=sub, arg=arg)
        except (BlowUpError, DynamicsError):
            raise _Abort("diverged") from None
        if sum([v * v for v in x]) < eps * eps:
            raise _Abort("norm_floor")
        H_end = Hhat(t_end, x).tolist()
        if not _residual_ok(H_end, w, residual_tol):
            raise _Abort("residual")
    return np.array(ws)


def _meets_constraints(rls: ReducedLimitingSystem, u: RelaxedControl) -> bool:
    return all(check_control_constraint(u, c)[0] for c in rls.constraints)


def _validate_candidate(rls: ReducedLimitingSystem, u: RelaxedControl, x0: np.ndarray,
                        horizon: float, eps: float, residual_tol: float,
                        cfg: IntegratorConfig) -> Optional[ZeroingCandidate]:
    """Re-simulate through simulate_reduced and re-check every node; None if anything fails.

    The norm floor, the output residual and face feasibility are checked at
    every grid node.  The inherited constraints are checked by the caller.
    """
    try:
        traj = simulate_reduced(rls, u, 0.0, x0, horizon, cfg)
    except SwstabError:
        return None
    if float(traj.norms().min()) < eps:
        return None
    outputs, res = _reduced_outputs(rls, traj)
    if not res <= residual_tol:
        return None
    for t, x, w in zip(traj.times, traj.states, traj.controls):
        allowed = active_index_set(x, rls.covering, tol=BOUNDARY_TOL)
        for i in range(1, rls.N + 1):
            if i not in allowed and w[i - 1] > 1e-12:
                return None
    traj = replace(traj, outputs=np.array(outputs).reshape(-1, 1))
    return ZeroingCandidate(trajectory=traj, control=u, eps=float(traj.norms().min()),
                            output_sup=res, span=(0.0, horizon))


def wzsd_falsify(rls: ReducedLimitingSystem, eps: float, horizon: float,
                 residual_tol: float = 1e-8, budget: int = 10_000, seed: int = 0,
                 du: float = 0.05) -> FalsifierVerdict:
    """Bounded search for a constraint-respecting zero-output trajectory with |x| >= eps.

    Candidate sources: a deterministic battery of constant-vertex controls
    from axis starts, face-random closed-loop controls (weights drawn on the
    face of U_x where the output can vanish, steered toward integral quotas),
    and vertex-pattern schedules when a pattern constraint is present.  Each
    candidate is checked against the inherited constraints once (before its
    rollout when the control is open-loop), and every returned counterexample
    has been re-simulated through simulate_reduced and re-checked at every
    node.  ``budget_used`` is the index of the first success.
    """
    if eps <= 0 or horizon <= 0 or budget < 1:
        raise ParameterError("eps, horizon, budget must be positive")
    if not residual_tol >= 0:  # a negative tolerance fails every candidate; NaN too
        raise ParameterError(f"residual_tol must be nonnegative, got {residual_tol!r}")
    step = du / 5.0
    for c in rls.constraints:
        if c.window > horizon + TIE_TOL:
            raise ParameterError("horizon shorter than a constraint window")
    cfg = IntegratorConfig(step=step, event_bisection_tol=step * 1e-6)
    n_cells = int(round(horizon / du))
    if n_cells < 1 or abs(n_cells * du - horizon) > 1e-9:
        raise ParameterError("du must tile the horizon")
    integral_cs = [c for c in rls.constraints if isinstance(c, MeasureConstraint)]
    pattern_cs = [c for c in rls.constraints if isinstance(c, PatternConstraint)]

    tally = _Tally()

    def finish(candidate, used):
        return FalsifierVerdict(
            verdict="counterexample" if candidate else "no_counterexample_found",
            budget_used=used, seed=seed, eps=eps, residual_tol=residual_tol,
            horizon=horizon, du=du, counterexample=candidate,
            notes={"step": step, "n_cells": n_cells, "aborts": dict(tally.aborts),
                   "cells_marched": tally.cells})

    def proposals():
        """(u_cells, x0) per candidate, or None for a candidate that cannot be built."""
        # stage 0: constant-vertex controls from the deterministic battery
        battery = _seed_states(rls, eps)
        for i in range(rls.N):
            vals = np.zeros((n_cells, rls.N))
            vals[:, i] = 1.0
            for x0 in battery:
                yield vals, x0
        # alternating stages: face-random closed loop / vertex-pattern schedules
        k_cand = 0
        while True:
            rng = _candidate_rng(seed, k_cand)
            k_cand += 1
            if pattern_cs and k_cand % 2 == 0:
                yield _pattern_candidate(rls, pattern_cs[0], rng, n_cells, du, eps)
            else:
                yield _face_random_candidate(rls, integral_cs, rng, n_cells, du, eps,
                                             residual_tol)

    def admit(u_cells, x0):
        """Constraints once, rollout, validation; open-loop cells are checked first.

        Returns the validated candidate or raises _Abort with the reason.
        """
        open_loop = not callable(u_cells)
        if open_loop:
            u = RelaxedControl(t0=0.0, step=du, values=u_cells)
            if not _meets_constraints(rls, u):
                raise _Abort("constraint")
        ws = _rollout(rls, u_cells, x0, horizon, du, step, eps, residual_tol,
                      cfg.divergence_bound, tally)
        if not open_loop:
            u = RelaxedControl(t0=0.0, step=du, values=ws)
            if not _meets_constraints(rls, u):
                raise _Abort("constraint")
        cand = _validate_candidate(rls, u, x0, horizon, eps, residual_tol, cfg)
        if cand is None:
            raise _Abort("validation")
        return cand

    for used, proposal in zip(range(1, budget + 1), proposals()):
        try:
            if proposal is None:  # a schedule that cannot honor its constraint on this grid
                raise _Abort("constraint")
            return finish(admit(*proposal), used)
        except _Abort as err:
            tally.aborts[err.args[0]] += 1
    return finish(None, budget)


def _face_random_candidate(rls, integral_cs, rng, n_cells, du, eps, residual_tol):
    """Closed-loop candidate: at each cell draw weights on the zero-output face.

    A window quota is given up as soon as the tile's remaining cells cannot
    fill it: right after a cell's accrual the test the next cell would make
    runs early, with the same numbers, so a doomed candidate stops before it
    marches the cell that would have failed it.
    """
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
        # rng.dirichlet(np.ones(k)), drawn as numpy draws it: k standard exponentials
        # summed from 0.0 (a loop: sum() compensates from Python 3.12 on) and scaled
        # by 1 / sum; same stream, same bits
        draw = rng.standard_exponential(len(allowed)).tolist()
        w = [0.0] * rls.N
        if len(allowed) == 1:
            w[allowed[0] - 1] = 1.0  # the normalised draw can read 1 - 2**-53
        else:
            acc = 0.0
            for v in draw:
                acc += v
            inv = 1.0 / acc
            for i, v in zip(allowed, draw):
                w[i - 1] = v * inv
        t_next = (k + 1) * du
        for c in integral_cs:
            tile = int(math.floor(t / c.T0 + 1e-12))
            if tile != tile_of[id(c)]:
                if accrued[id(c)] < c.delta0 - TIE_TOL:
                    raise _Abort("window_quota_missed")
                tile_of[id(c)] = tile
                accrued[id(c)] = 0.0
                # the previous cell's early test covered only cells of its own tile
                if unreachable(c, 0.0, t, tile):
                    raise _Abort("window_quota_unreachable")
            w = _integral_steering(c, t, accrued[id(c)], w, allowed)
            accrued[id(c)] += w[c.mode - 1] * du
            if (k + 1 < n_cells and int(math.floor(t_next / c.T0 + 1e-12)) == tile
                    and unreachable(c, accrued[id(c)], t_next, tile)):
                raise _Abort("window_quota_unreachable")
        return w

    return choose, x0


def _pattern_candidate(rls, c, rng, n_cells, du, eps):
    """Open-loop candidate following a compliant 1-2-1 vertex schedule."""
    gmax = min(c.dM, (c.T - 2.0 * c.dm) / 4.0)
    k_lo = math.ceil(c.dm / du - TIE_TOL)
    k_hi = max(math.floor(gmax / du + TIE_TOL), k_lo)
    if k_lo * du > c.dM + TIE_TOL:
        return None  # du too coarse to honor the gap bounds
    vals = np.zeros((n_cells, rls.N))
    k = 0
    while k < n_cells:
        for mode in (1, 2, 1):
            g = int(rng.integers(k_lo, k_hi + 1))
            vals[k:k + g, mode - 1] = 1.0
            k += g
            if k >= n_cells:
                break
    battery = _seed_states(rls, eps)
    x0 = battery[int(rng.integers(0, len(battery)))] if rng.integers(0, 2) else \
        _shell_state(rng, rls.n, eps, sparse=True)
    return vals, x0
