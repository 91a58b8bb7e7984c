"""Generators and validators for constrained switching-signal classes.

Two constraint families are supported: a minimum activation measure for one
mode over every sliding window (the measure class), and a mandatory
1-2-1 alternation pattern with bounded sub-interval lengths inside every
window (the pattern class).  Validators are exact on piecewise-constant
signals: sliding-window quantities are piecewise-linear in the window anchor,
so extrema are attained at breakpoint-aligned anchors and no sampling is
involved.

All generated breakpoints are snapped to a storage granularity (default
1e-4 s, finite and positive).  That is a storage limit, not a dwell-time
assumption: the classes themselves impose no dwell-time floor.  A generator
draws a signal in a few bulk numpy draws, not one per piece; for a seed, the
arbitrary and measure classes thereby give a signal of the same law as, but other
than, the one-draw-per-piece loop of earlier versions, the pattern class the same.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    BOUNDARY_TOL,
    Covering,
    DomainError,
    ParameterError,
    SwitchingSignal,
    Trajectory,
    require_finite,
)
from .integrate import _at_rows, _node_modes

GRANULARITY = 1e-4
TIE_TOL = 1e-9  # threshold comparisons use this tie tolerance (shared with test oracles)
OVERDRAW = 4.0  # standard deviations of pieces a bulk draw holds beyond the mean count
MAX_DRAW = 2**26  # pieces one bulk draw may hold: 512 MB an array of float64


@dataclass(frozen=True)
class MeasureConstraint:
    """Mode ``mode`` must be active at least delta0 seconds in every [t, t+T0]."""

    T0: float
    delta0: float
    mode: int

    def __post_init__(self):
        require_finite(T0=self.T0, delta0=self.delta0)
        if not (0 < self.delta0 <= self.T0):
            raise ParameterError("need 0 < delta0 <= T0")
        if self.mode < 1:
            raise ParameterError("mode index is 1-based")

    @property
    def window(self) -> float:
        return self.T0


@dataclass(frozen=True)
class PatternConstraint:
    """Every [t, t+T] must contain a 1-2-1 pattern with gaps in [dm, dM].

    dm == dM is the degenerate deterministic case.  3*dm <= T is necessary
    for a single pattern to fit; the generator needs T >= 6*dm to guarantee
    the property for every window anchor.
    """

    T: float
    dm: float
    dM: float

    def __post_init__(self):
        require_finite(T=self.T, dm=self.dm, dM=self.dM)
        if not (0 < self.dm <= self.dM):
            raise ParameterError("need 0 < dm <= dM")
        if 3.0 * self.dm > self.T + TIE_TOL:
            raise ParameterError("a pattern must fit: need 3*dm <= T")

    @property
    def window(self) -> float:
        return self.T


def _granules(length: float, granularity: float, limit: float = 2.0**63) -> float:
    """``length / granularity`` if below ``limit`` in magnitude (the int64 bound of
    the draws; an infinite limit asks only for a finite quotient)."""
    if not abs(length / granularity) < limit:
        raise ParameterError(f"granularity {granularity!r} is too fine for {length!r} s")
    return length / granularity


def _span(span: tuple[float, float], granularity: float) -> tuple[float, float]:
    """A generator's (t0, tf): ParameterError naming the granularity unless it is finite
    and positive, or naming the span unless it is finite, nonempty and under 2**63
    granules long, the bound ``_granules`` puts on the draws."""
    if not 0 < granularity < math.inf:
        raise ParameterError(f"granularity must be finite and positive, got {granularity!r}")
    t0, tf = span
    if not 0 < (tf - t0) / granularity < 2.0**63:
        raise ParameterError(f"span [{float(t0)!r}, {float(tf)!r}] must be finite, nonempty "
                             f"and under 2**63 granules of granularity {granularity!r}")
    return t0, tf


def _width(n: float, rows: int, span: tuple) -> int:
    """Pieces one bulk draw holds per row for n mean dwells: n + 1 on average, OVERDRAW
    sqrt(n) + 1 more; a ParameterError naming the span if rows of them pass MAX_DRAW."""
    width = math.ceil(n + OVERDRAW * math.sqrt(max(n, 0.0))) + 2
    if rows * width > MAX_DRAW:
        raise ParameterError(f"span [{float(span[0])!r}, {float(span[1])!r}] needs a draw of "
                             f"{rows * width} pieces, over the {MAX_DRAW} one draw may hold")
    return width


def _cut(rng, lengths: np.ndarray, scale: float, n_modes: int, granularity: float,
         span: tuple, cap: float = math.inf):
    """Rows [0, length) cut into pieces of uniform modes in 1..n_modes and exponential
    dwells of mean ``scale``, capped at ``cap``, in whole granules, at least one: (starts,
    modes, keep) per row, keep marking pieces that start before the row's length.  A row
    short of ``_width`` pieces of the longest row draws as many again (zero dwells elsewhere).
    """
    rows, width = len(lengths), _width(float(np.max(lengths)) / scale, len(lengths), span)
    granules, modes, short = np.zeros((rows, 0)), np.zeros((rows, 0), int), np.ones(rows, bool)
    while short.any():
        g, m = np.zeros((rows, width)), np.ones((rows, width), dtype=np.int64)
        d = rng.exponential(scale, (np.count_nonzero(short), width))
        g[short] = np.maximum(np.round(np.minimum(d, cap) / granularity), 1.0)
        m[short] = rng.integers(1, n_modes + 1, d.shape)
        granules, modes = np.hstack((granules, g)), np.hstack((modes, m))
        ends = np.cumsum(granules, axis=1) * granularity
        short = ends[:, -1] < lengths
    starts = np.hstack((np.zeros((rows, 1)), ends[:, :-1]))
    return starts, modes, starts < lengths[:, None]


def _build_signal(breaks: np.ndarray, modes: np.ndarray, t0: float, tf: float) -> SwitchingSignal:
    """The signal of nondecreasing ``breaks``: those at or before t0 join the first
    piece, the last mode wins among equal times, and pieces at or after tf drop."""
    breaks = np.maximum(breaks, t0)
    breaks[0] = t0
    last = np.append(breaks[1:] != breaks[:-1], True) & (breaks < tf)
    return SwitchingSignal(breakpoints=breaks[last], modes=modes[last],
                           domain_start=t0, domain_end=tf)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def gen_arbitrary(n_modes: int, span: tuple[float, float], mean_dwell: float,
                  rng_seed: int, granularity: float = GRANULARITY) -> SwitchingSignal:
    """Unconstrained random signal: exponential dwells, uniform modes.

    ``mean_dwell`` is the mean time between draws, each draw clipped to
    [granularity, 10*mean_dwell].  A draw repeats the previous mode with
    probability 1/N, so the mean time between switches is about
    mean_dwell*N/(N-1).  The dwells and modes are cut from bulk draws (``_cut``).
    """
    require_finite(mean_dwell=mean_dwell)
    if mean_dwell <= 0:
        raise ParameterError("mean_dwell must be positive")
    if n_modes < 1:
        raise ParameterError("need at least one mode")
    t0, tf = _span(span, granularity)
    rng = np.random.default_rng(rng_seed)
    starts, modes, keep = _cut(rng, np.array([tf - t0]), mean_dwell, n_modes, granularity,
                               span, 10.0 * mean_dwell)
    breaks = np.round((t0 + starts[keep]) / granularity) * granularity
    return _build_signal(breaks, modes[keep], t0, tf)


def gen_measure_constrained(c: MeasureConstraint, n_modes: int, span: tuple[float, float],
                            rng_seed: int, granularity: float = GRANULARITY) -> SwitchingSignal:
    """Random member of the measure class.

    The span is tiled with windows of length T0 and each tile carries one
    block of length >= delta0 + margin assigned to c.mode, at a common random
    offset.  A window of length T0 placed anywhere then sees exactly one
    full period of the block pattern, hence at least delta0 + margin of
    activation; the margin absorbs snapping.  Remaining time is filled with
    random modes (which may add more activation, never less), cut from bulk
    draws of dwells of mean 0.3*T0 (``_cut``) for all fillers at once.
    """
    t0, tf = _span(span, granularity)
    if n_modes < c.mode:
        raise ParameterError("constraint mode exceeds the mode count")
    rng = np.random.default_rng(rng_seed)
    margin = max(min(c.delta0, c.T0 - c.delta0) / 2.0, 4.0 * granularity)
    # the block length is not drawn, so only an infinite count of its granules fails
    block = math.ceil(_granules(c.delta0 + margin, granularity, math.inf) - TIE_TOL) * granularity
    if block >= c.T0 - 2.0 * granularity:
        # forced: the constrained mode occupies the whole span
        return SwitchingSignal.constant(c.mode, t0, tf)
    offset = float(rng.integers(0, int(_granules(c.T0 - block, granularity)) + 1)) * granularity
    n_tiles = int(np.ceil((tf - t0) / c.T0)) + 1
    _width(1.0 / 0.3, 2 * n_tiles, span)  # refused before np.tile: no row is longer than T0
    # rows alternate each tile's filler before its block and after it, cut half a granule short
    lengths = np.tile([offset, c.T0 - offset - block], n_tiles) - granularity / 2
    starts, modes, keep = _cut(rng, lengths, 0.3 * c.T0, n_modes, granularity, span)
    a = t0 + c.T0 * np.arange(n_tiles)[:, None]
    breaks = np.hstack((a + starts[0::2], a + offset, a + offset + block + starts[1::2]))
    modes = np.hstack((modes[0::2], np.full((n_tiles, 1), c.mode), modes[1::2]))
    keep = np.hstack((keep[0::2], np.ones((n_tiles, 1), dtype=bool), keep[1::2]))
    return _build_signal(np.round(breaks[keep] / granularity) * granularity, modes[keep], t0, tf)


def gen_pattern(c: PatternConstraint, span: tuple[float, float], rng_seed: int,
                granularity: float = GRANULARITY) -> SwitchingSignal:
    """Random 2-mode member of the pattern class: back-to-back 1-2-1 blocks.

    Gap lengths are whole granules drawn uniformly from
    [dm, min(dM, (T - 2*dm)/4)], at least one; the cap guarantees every window
    anchor sees a complete pattern.  Requires T >= 6*dm (no back-to-back
    construction can cover all anchors below that).  Gaps come in bulk draws,
    whose stream is that of one draw per gap.
    """
    t0, tf = _span(span, granularity)
    gmax = min(c.dM, (c.T - 2.0 * c.dm) / 4.0)
    if gmax < c.dm - TIE_TOL:
        raise ParameterError(f"infeasible pattern class for generation: need T >= 6*dm "
                             f"(T={c.T}, dm={c.dm})")
    k_lo = max(math.ceil(_granules(c.dm, granularity) - TIE_TOL), 1)
    k_hi = max(math.floor(_granules(gmax, granularity) + TIE_TOL), k_lo)
    rng = np.random.default_rng(rng_seed)
    gaps = np.zeros(0, dtype=np.int64)
    while t0 + int(gaps.sum()) * granularity < tf:  # whole 1-2-1 blocks until one starts at tf
        blocks = _width(((tf - t0) / granularity - int(gaps.sum())) / (1.5 * (k_lo + k_hi)), 3,
                        span)
        gaps = np.append(gaps, rng.integers(k_lo, k_hi + 1, 3 * blocks))
    breaks = t0 + np.append(0, np.cumsum(gaps[:-1])) * granularity
    return _build_signal(breaks, np.tile([1, 2, 1], len(gaps) // 3), t0, tf)


# ---------------------------------------------------------------------------
# validators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeasureReport:
    ok: bool
    min_measure: float
    worst_t: float


def _activation_cum(sigma: SwitchingSignal, mode: int):
    """Kink positions and cumulative activation measure of {sigma == mode}."""
    kinks = np.append(sigma.breakpoints, sigma.domain_end)
    return kinks, np.append(0.0, np.cumsum(np.diff(kinks) * (sigma.modes == mode)))


def _cum_at(kinks: np.ndarray, cum: np.ndarray, t) -> np.ndarray:
    """Piecewise-linear cumulative measure, exact between kinks."""
    t = np.asarray(t, dtype=float)
    j = np.clip(np.searchsorted(kinks, t, side="right") - 1, 0, len(kinks) - 2)
    left = cum[j]
    slope = (cum[j + 1] - cum[j]) / (kinks[j + 1] - kinks[j])
    return left + slope * (t - kinks[j])


def _window_min(kinks: np.ndarray, cum: np.ndarray, window: float) -> tuple[float, float]:
    """Exact min over anchors t in [kinks[0], kinks[-1] - window] of cum(t + window) - cum(t).

    The window integral is piecewise-linear in the anchor, so the minimum is
    attained where the anchor or the window end aligns with a kink.  Returns
    (min, argmin).  Shared by the measure validator and the integral check on
    relaxed controls.
    """
    lo, hi = kinks[0], kinks[-1] - window
    if hi < lo - TIE_TOL:
        raise DomainError("span must cover at least one window")
    anchors = np.unique(np.clip(np.concatenate((kinks, kinks - window, [lo, hi])), lo, hi))
    vals = _cum_at(kinks, cum, anchors + window) - _cum_at(kinks, cum, anchors)
    k = int(np.argmin(vals))
    return float(vals[k]), float(anchors[k])


def validate_measure(sigma: SwitchingSignal, c: MeasureConstraint) -> MeasureReport:
    """Exact sliding-window activation infimum over [domain_start, domain_end - T0]."""
    m, worst_t = _window_min(*_activation_cum(sigma, c.mode), c.T0)
    return MeasureReport(ok=m >= c.delta0 - TIE_TOL, min_measure=m, worst_t=worst_t)


@dataclass(frozen=True)
class PatternReport:
    ok: bool
    first_violation_t: Optional[float]
    margin: float


def pattern_cover_check(sigma: SwitchingSignal, c: PatternConstraint) -> PatternReport:
    """Check that the usable 2-runs of sigma cover every window anchor in
    [domain_start, domain_end - T]; DomainError if sigma spans less than one window.

    Shared by the signal validator and the relaxed-control constraint check,
    which hands over the control's cells as a signal of classes 1, 2 and 3
    (near vertex 1, near vertex 2, neither).
    """
    lo, hi = sigma.domain_start, sigma.domain_end - c.T
    if hi < lo - TIE_TOL:
        raise DomainError("span must cover at least one window")
    hi = max(hi, lo)
    # A window [t, t+T] admits a compliant quadruple iff it contains a complete
    # 2-run [p, q] with q - p in [dm, dM], flanked by 1-runs of length >= dm, with
    # p - t >= dm and (t + T) - q >= dm (tau1 = p - dm and tau4 = q + dm witness
    # the pattern): each such usable run covers the anchors [q + dm - T, p - dm]
    p = sigma.breakpoints
    q = np.append(p[1:], sigma.domain_end)
    flank = (sigma.modes == 1) & (q - p >= c.dm - TIE_TOL)
    usable = ((sigma.modes == 2) & (c.dm - TIE_TOL <= q - p) & (q - p <= c.dM + TIE_TOL)
              & np.append(False, flank[:-1]) & np.append(flank[1:], False))
    a, b = q[usable] + c.dm - c.T, p[usable] - c.dm
    # the anchors covered from lo before each interval and at the end; as b rises
    # run by run from lo - TIE_TOL on, each interval reaches past those before it,
    # and either starts beyond them (a gap) or extends them
    covered = np.maximum.accumulate(np.append(lo, b))
    gap = a > covered[:-1] + TIE_TOL
    stop = np.flatnonzero(gap | (covered[1:] >= hi - TIE_TOL))
    if len(stop) and not gap[stop[0]]:
        return PatternReport(ok=True, first_violation_t=None, margin=0.0)
    covered_to, end = (covered[stop[0]], a[stop[0]]) if len(stop) else (covered[-1], hi)
    return PatternReport(ok=False, first_violation_t=float(covered_to),
                         margin=-float(end - covered_to))


def validate_pattern(sigma: SwitchingSignal, c: PatternConstraint) -> PatternReport:
    """Exact check that every window anchor admits a compliant 1-2-1 quadruple.

    The set of good anchors is a union of closed intervals (one per usable
    2-run); the check verifies they cover [domain_start, domain_end - T].
    """
    if np.any((sigma.modes != 1) & (sigma.modes != 2)):
        raise ParameterError("pattern validation requires a two-valued signal")
    return pattern_cover_check(sigma, c)


@dataclass(frozen=True)
class InvarianceReport:
    ok: bool
    first_violation: Optional[tuple[float, int]]


def validate_covering_invariance(traj: Trajectory, sigma: SwitchingSignal,
                                 covering: Covering) -> InvarianceReport:
    """Check sigma(t) in I_{x(t)} at every grid time, with boundary tolerance."""
    modes = _node_modes(traj, sigma)
    bad = ~(_at_rows(covering.margin, None, traj.states, modes) >= -BOUNDARY_TOL)
    if bad.any():
        k = int(np.argmax(bad))  # the first node off its mode's piece
        return InvarianceReport(ok=False, first_violation=(traj.times[k].item(), int(modes[k])))
    return InvarianceReport(ok=True, first_violation=None)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def signal_to_csv(sigma: SwitchingSignal, csv_path, sidecar_path=None,
                  params: Optional[dict] = None) -> None:
    """Write ``t_break,mode`` rows plus a JSON sidecar with domain and parameters."""
    with open(csv_path, "w") as fh:
        fh.write("t_break,mode\n")
        for b, m in zip(sigma.breakpoints, sigma.modes):
            fh.write("%.17g,%d\n" % (b, m))
    if sidecar_path is not None:
        payload = {"domain_start": sigma.domain_start, "domain_end": sigma.domain_end,
                   "params": params or {}}
        with open(sidecar_path, "w") as fh:
            json.dump(payload, fh, indent=2)


def signal_from_csv(csv_path, sidecar_path) -> SwitchingSignal:
    rows = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    with open(sidecar_path) as fh:
        meta = json.load(fh)
    return SwitchingSignal(breakpoints=rows[:, 0], modes=rows[:, 1].astype(np.int64),
                           domain_start=meta["domain_start"], domain_end=meta["domain_end"])
