"""Generators and validators for constrained switching-signal classes.

Two constraint families are supported: a minimum activation measure for one
mode over every sliding window (the measure class), and a mandatory
1-2-1 alternation pattern with bounded sub-interval lengths inside every
window (the pattern class).  Validators are exact on piecewise-constant
signals: sliding-window quantities are piecewise-linear in the window anchor,
so extrema are attained at breakpoint-aligned anchors and no sampling is
involved.

All generated breakpoints are snapped to a storage granularity (default
1e-4 s).  That is a storage limit, not a dwell-time assumption: the classes
themselves impose no dwell-time floor.
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
)

GRANULARITY = 1e-4
TIE_TOL = 1e-9  # threshold comparisons use this tie tolerance (shared with test oracles)


@dataclass(frozen=True)
class MeasureConstraint:
    """Mode ``mode`` must be active at least delta0 seconds in every [t, t+T0]."""

    T0: float
    delta0: float
    mode: int

    def __post_init__(self):
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
        if not (0 < self.dm <= self.dM):
            raise ParameterError("need 0 < dm <= dM")
        if 3.0 * self.dm > self.T + TIE_TOL:
            raise ParameterError("a pattern must fit: need 3*dm <= T")

    @property
    def window(self) -> float:
        return self.T


def _snap(t: float, granularity: float) -> float:
    return round(t / granularity) * granularity


def _build_signal(breaks: list, modes: list, t0: float, tf: float) -> SwitchingSignal:
    """Drop zero-length intervals produced by snapping and assemble the signal."""
    bp = [t0]
    md = [modes[0]]
    for b, m in zip(breaks[1:], modes[1:]):
        if b <= bp[-1]:
            md[-1] = m
            continue
        if b >= tf:
            break
        bp.append(b)
        md.append(m)
    return SwitchingSignal(breakpoints=np.array(bp), modes=np.array(md, dtype=np.int64),
                           domain_start=t0, domain_end=tf)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def gen_arbitrary(n_modes: int, span: tuple[float, float], mean_dwell: float,
                  rng_seed: int, granularity: float = GRANULARITY) -> SwitchingSignal:
    """Unconstrained random signal: exponential dwells, uniform modes.

    Dwells are clipped to [granularity, 10*mean_dwell].
    """
    if mean_dwell <= 0:
        raise ParameterError("mean_dwell must be positive")
    if n_modes < 1:
        raise ParameterError("need at least one mode")
    t0, tf = span
    if tf <= t0:
        raise ParameterError("empty span")
    rng = np.random.default_rng(rng_seed)
    breaks, modes = [], []
    t = t0
    while t < tf:
        breaks.append(_snap(t, granularity))
        modes.append(int(rng.integers(1, n_modes + 1)))
        d = float(np.clip(rng.exponential(mean_dwell), granularity, 10.0 * mean_dwell))
        t += max(_snap(d, granularity), granularity)
    return _build_signal(breaks, modes, t0, tf)


def gen_measure_constrained(c: MeasureConstraint, n_modes: int, span: tuple[float, float],
                            rng_seed: int, granularity: float = GRANULARITY) -> SwitchingSignal:
    """Random member of the measure class.

    The span is tiled with windows of length T0 and each tile carries one
    block of length >= delta0 + margin assigned to c.mode, at a common random
    offset.  A window of length T0 placed anywhere then sees exactly one
    full period of the block pattern, hence at least delta0 + margin of
    activation; the margin absorbs snapping.  Remaining time is filled with
    random modes (which may add more activation, never less).
    """
    t0, tf = span
    if tf <= t0:
        raise ParameterError("empty span")
    if n_modes < c.mode:
        raise ParameterError("constraint mode exceeds the mode count")
    rng = np.random.default_rng(rng_seed)
    margin = max(min(c.delta0, c.T0 - c.delta0) / 2.0, 4.0 * granularity)
    block = math.ceil((c.delta0 + margin) / granularity - TIE_TOL) * granularity
    if block >= c.T0 - 2.0 * granularity:
        # forced: the constrained mode occupies the whole span
        return _build_signal([t0], [c.mode], t0, tf)
    offset = float(rng.integers(0, int((c.T0 - block) / granularity) + 1)) * granularity

    def filler(a, b, breaks, modes):
        t = a
        while t < b - granularity / 2:
            breaks.append(t)
            modes.append(int(rng.integers(1, n_modes + 1)))
            d = max(_snap(float(rng.exponential(0.3 * c.T0)), granularity), granularity)
            t = min(b, t + d)

    breaks, modes = [], []
    n_tiles = int(np.ceil((tf - t0) / c.T0)) + 1
    for k in range(n_tiles):
        a = t0 + k * c.T0
        filler(a, a + offset, breaks, modes)
        breaks.append(a + offset)
        modes.append(c.mode)
        filler(a + offset + block, a + c.T0, breaks, modes)
    breaks = [_snap(b, granularity) for b in breaks]
    return _build_signal(breaks, modes, t0, tf)


def gen_pattern(c: PatternConstraint, span: tuple[float, float], rng_seed: int,
                granularity: float = GRANULARITY) -> SwitchingSignal:
    """Random 2-mode member of the pattern class: back-to-back 1-2-1 blocks.

    Gap lengths are whole granules drawn uniformly from
    [dm, min(dM, (T - 2*dm)/4)]; the cap guarantees every window anchor sees
    a complete pattern.  Requires T >= 6*dm (no back-to-back construction can
    cover all anchors below that).
    """
    t0, tf = span
    if tf <= t0:
        raise ParameterError("empty span")
    gmax = min(c.dM, (c.T - 2.0 * c.dm) / 4.0)
    if gmax < c.dm - TIE_TOL:
        raise ParameterError(f"infeasible pattern class for generation: need T >= 6*dm "
                             f"(T={c.T}, dm={c.dm})")
    k_lo = math.ceil(c.dm / granularity - TIE_TOL)
    k_hi = max(math.floor(gmax / granularity + TIE_TOL), k_lo)
    rng = np.random.default_rng(rng_seed)
    breaks, modes = [], []
    granules = 0
    while t0 + granules * granularity < tf:
        for mode in (1, 2, 1):
            breaks.append(t0 + granules * granularity)
            modes.append(mode)
            granules += int(rng.integers(k_lo, k_hi + 1))
    return _build_signal(breaks, modes, t0, tf)


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
    starts, ends, modes = sigma.runs()
    kinks = [sigma.domain_start]
    cum = [0.0]
    for a, b, m in zip(starts, ends, modes):
        kinks.append(float(b))
        cum.append(cum[-1] + (b - a) * (1.0 if m == mode else 0.0))
    return np.array(kinks), np.array(cum)


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


def _pattern_anchor_intervals(starts, ends, modes,
                              c: PatternConstraint) -> list[tuple[float, float]]:
    """Anchor intervals [q + dm - T, p - dm] contributed by each usable 2-run.

    A window [t, t+T] admits a compliant quadruple iff it contains a complete
    2-run [p, q] with q - p in [dm, dM], flanked by 1-runs of length >= dm,
    with p - t >= dm and (t + T) - q >= dm; tau1 = p - dm and tau4 = q + dm
    then witness the pattern (gaps dm <= . <= dM).
    """
    out = []
    for j in range(len(modes)):
        if modes[j] != 2:
            continue
        p, q = float(starts[j]), float(ends[j])
        if not (c.dm - TIE_TOL <= q - p <= c.dM + TIE_TOL):
            continue
        prev_ok = j > 0 and modes[j - 1] == 1 and (p - starts[j - 1]) >= c.dm - TIE_TOL
        next_ok = j + 1 < len(modes) and modes[j + 1] == 1 and (ends[j + 1] - q) >= c.dm - TIE_TOL
        if prev_ok and next_ok:
            out.append((q + c.dm - c.T, p - c.dm))
    return out


def pattern_cover_check(starts, ends, modes, c: PatternConstraint,
                        lo: float, hi: float) -> PatternReport:
    """Check that usable 2-runs cover every window anchor in [lo, hi].

    Shared by the signal validator and the relaxed-control constraint check
    (which classifies grid cells into near-vertex runs first).
    """
    intervals = sorted(_pattern_anchor_intervals(starts, ends, modes, c))
    covered_to = lo
    for a, b in intervals:
        if b < covered_to - TIE_TOL:
            continue
        if a > covered_to + TIE_TOL:
            return PatternReport(ok=False, first_violation_t=float(covered_to),
                                 margin=-float(a - covered_to))
        covered_to = max(covered_to, b)
        if covered_to >= hi - TIE_TOL:
            return PatternReport(ok=True, first_violation_t=None, margin=0.0)
    return PatternReport(ok=False, first_violation_t=float(covered_to),
                         margin=-float(hi - covered_to))


def validate_pattern(sigma: SwitchingSignal, c: PatternConstraint) -> PatternReport:
    """Exact check that every window anchor admits a compliant 1-2-1 quadruple.

    The set of good anchors is a union of closed intervals (one per usable
    2-run); the check verifies they cover [domain_start, domain_end - T].
    """
    if np.any((sigma.modes != 1) & (sigma.modes != 2)):
        raise ParameterError("pattern validation requires a two-valued signal")
    lo, hi = sigma.domain_start, sigma.domain_end - c.T
    if hi < lo - TIE_TOL:
        raise DomainError("signal must span at least one window")
    hi = max(hi, lo)
    starts, ends, modes = sigma.runs()
    return pattern_cover_check(starts, ends, modes, c, lo, hi)


@dataclass(frozen=True)
class InvarianceReport:
    ok: bool
    first_violation: Optional[tuple[float, int]]


def validate_covering_invariance(traj: Trajectory, sigma: SwitchingSignal,
                                 covering: Covering, tol: float = BOUNDARY_TOL) -> InvarianceReport:
    """Check sigma(t) in I_{x(t)} at every grid time, with boundary tolerance."""
    modes = traj.modes if traj.modes is not None else sigma.modes_at(traj.times)
    margin = covering.margin
    for t, x, m in zip(traj.times.tolist(), traj.states.tolist(),
                       np.asarray(modes, dtype=np.int64).tolist()):
        if not margin(x, m) >= -tol:  # Covering.membership, inlined
            return InvarianceReport(ok=False, first_violation=(float(t), m))
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
