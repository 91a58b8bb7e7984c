"""Core domain types for switched systems and their relaxed-control embedding.

A switched system is a finite family of vector fields f_i together with
per-mode output maps h_i; a switching signal picks the active mode over time.
The relaxed embedding replaces the mode index by a point on the probability
simplex over modes, so that mode signals become vertex-valued controls and
convex mixtures become admissible.  Everything here is an immutable value
type; all mutation happens at construction time.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

SIMPLEX_TOL = 1e-12          # nonnegativity / unit-sum tolerance on simplex points
SIMPLEX_RENORM_TOL = 1e-9    # sums off by at most this are renormalized, else rejected
BOUNDARY_TOL = 1e-9          # xi is in piece i iff margin(xi, i) >= -BOUNDARY_TOL
MAX_SAMPLES = 2**20          # most points a sample grid may hold (sandwich box, tau grid)


class SwstabError(Exception):
    """Base class for all toolkit errors."""


class ParameterError(SwstabError):
    """Invalid constructor or constraint parameters."""


class DomainError(SwstabError):
    """Requested span falls outside an object's time domain."""


def require_finite(**values) -> None:
    """ParameterError naming the first of the keyword ``values`` that is not finite."""
    for name, value in values.items():
        if not abs(value) < np.inf:  # NaN too; an int of any size is finite
            raise ParameterError(f"{name} must be finite, got {value!r}")


class CoveringError(SwstabError):
    """A point is not covered by any piece of a covering."""


class PolicyError(SwstabError):
    """A closed-loop policy returned a mode outside the active index set."""


class ChatteringError(SwstabError):
    """Closed-loop simulation exceeded the switch-count guard."""


class DynamicsError(SwstabError):
    """A right-hand side produced NaN or non-finite values."""


class BlowUpError(SwstabError):
    """State norm exceeded the divergence bound.

    Carries the last valid time and the partial trajectory up to it.
    """

    def __init__(self, message: str, time: float, trajectory: "Trajectory | None" = None):
        super().__init__(message)
        self.time = time
        self.trajectory = trajectory


# ---------------------------------------------------------------------------
# switching signals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SwitchingSignal:
    """Right-continuous piecewise-constant map from time to a 1-based mode index.

    ``modes[k]`` is active on ``[breakpoints[k], breakpoints[k+1])``; the last
    mode extends to ``domain_end``.  ``breakpoints[0]`` equals ``domain_start``.
    Construction folds equal neighbours (a breakpoint whose mode equals its
    predecessor's), so every breakpoint after the first is a switch.
    """

    breakpoints: np.ndarray
    modes: np.ndarray
    domain_start: float
    domain_end: float

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        md = np.asarray(self.modes, dtype=np.int64)
        if bp.ndim != 1 or md.ndim != 1 or len(bp) != len(md) or len(bp) == 0:
            raise ParameterError("breakpoints and modes must be equal-length 1-d sequences")
        if not (bp[1:] > bp[:-1]).all():
            raise ParameterError("breakpoints must be strictly increasing")
        if bp[0] != self.domain_start or bp[-1] > self.domain_end:
            raise ParameterError("breakpoints must start at domain_start and stay within the domain")
        if self.domain_end <= self.domain_start:
            raise ParameterError("domain_end must exceed domain_start")
        if (md < 1).any():
            raise ParameterError("mode indices are 1-based")
        keep = np.concatenate(([True], md[1:] != md[:-1]))
        object.__setattr__(self, "breakpoints", bp[keep])
        object.__setattr__(self, "modes", md[keep])

    @staticmethod
    def constant(mode: int, t0: float, tf: float) -> "SwitchingSignal":
        """The signal that holds ``mode`` on the whole domain [t0, tf]."""
        return SwitchingSignal(breakpoints=np.array([t0]), modes=np.array([mode]),
                               domain_start=t0, domain_end=tf)

    def mode_at(self, t: float) -> int:
        if t < self.domain_start - 1e-12 or t > self.domain_end + 1e-12:
            raise DomainError(f"t={t} outside signal domain [{self.domain_start}, {self.domain_end}]")
        k = int(np.searchsorted(self.breakpoints, t, side="right")) - 1
        return int(self.modes[max(k, 0)])

    def modes_at(self, times: np.ndarray) -> np.ndarray:
        times = np.asarray(times, dtype=float)
        k = np.searchsorted(self.breakpoints, times, side="right") - 1
        return self.modes[np.clip(k, 0, len(self.modes) - 1)]

    def segments(self, t0: float, tf: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Constancy intervals covering [t0, tf] as columns (a, b, modes): the edges
        are t0, the breakpoints inside (t0, tf) and tf, and an interval takes the
        mode at its left edge.  tf == t0 gives the one interval (t0, t0)."""
        if t0 < self.domain_start - 1e-12 or tf > self.domain_end + 1e-12:
            raise DomainError(f"[{t0}, {tf}] outside signal domain")
        if tf < t0:
            raise DomainError("tf < t0")
        k = int(np.searchsorted(self.breakpoints, t0, side="right"))  # first after t0
        j = max(k, int(np.searchsorted(self.breakpoints, tf)))  # first at or after tf
        inner = self.breakpoints[k:j]
        return (np.append(t0, inner), np.append(inner, tf),
                self.modes[np.maximum(np.arange(k - 1, j), 0)])

    @property
    def n_switches(self) -> int:
        return len(self.breakpoints) - 1


# ---------------------------------------------------------------------------
# simplex / relaxed controls
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RelaxedControl:
    """Piecewise-constant simplex-valued control on a uniform time grid.

    ``values[k]`` holds on the cell ``[t0 + k*step, t0 + (k+1)*step)``.
    """

    t0: float
    step: float
    values: np.ndarray  # (n_cells, N)

    def __post_init__(self):
        require_finite(t0=self.t0, step=self.step)
        if self.step <= 0:
            raise ParameterError("control grid step must be positive")
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape[0] == 0:
            raise ParameterError("values must be a (n_cells, N) array")
        if not np.isfinite(vals).all():
            k = int(np.argmin(np.isfinite(vals).all(axis=1)))
            raise ParameterError(f"control cell {k} holds a non-finite value {vals[k].tolist()!r}")
        if np.any(vals < -SIMPLEX_TOL):
            raise ParameterError("control values must be nonnegative")
        vals = np.maximum(vals, 0.0)
        sums = vals.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > SIMPLEX_RENORM_TOL):
            k = int(np.argmax(np.abs(sums - 1.0)))
            raise ParameterError(f"control cell {k} does not lie on the simplex (sum={sums[k]!r})")
        vals = vals / sums[:, None]
        object.__setattr__(self, "values", vals)

    @property
    def n_cells(self) -> int:
        return self.values.shape[0]

    @property
    def n_modes(self) -> int:
        return self.values.shape[1]

    @property
    def tf(self) -> float:
        return self.t0 + self.n_cells * self.step

    def cell_of(self, t: float) -> int:
        k = int(np.floor((t - self.t0) / self.step + 1e-12))
        if k < 0 or k >= self.n_cells:
            if k == self.n_cells and abs(t - self.tf) <= 1e-9 * max(1.0, abs(self.tf)):
                return self.n_cells - 1
            raise DomainError(f"t={t} outside control grid [{self.t0}, {self.tf}]")
        return k


# ---------------------------------------------------------------------------
# systems and coverings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SwitchedSystem:
    """Bundle of mode dynamics, outputs, and the precompact part of the dynamics.

    ``f(t, x, i)`` is the mode-i vector field, ``h(t, x, i)`` the mode-i output
    (p-vector), both with 1-based ``i``.  ``fhat`` is the precompact part used
    by reduced limiting systems (``f`` itself when omitted); the zeroing part
    f - fhat must vanish wherever the mode's output does.

    Field protocol: f, h and fhat take the state as a sequence of n floats,
    which the integrators pass as a list, and may return any sequence of n
    (h: p) floats, a tuple, list or 1-D ndarray.  An ndarray makes each RK4
    step add numpy scalars, at about twice the cost.  Array arithmetic on a
    result needs ``np.asarray``.

    An f or fhat declared as per-mode source text, ``ModeSource(n, modes,
    names).f`` of ``swstab.integrate`` (as the registry declares its fields),
    is evaluated inline: the RK4 kernels paste each mode's text into their
    stages, with the same arithmetic, so no call is made per stage.  Any
    other callable is called at every stage, and so is a wrapper of a
    compiled field, even one made with ``functools.wraps``.  The texts of f,
    fhat and h must list n (h: p) components.
    """

    n: int
    N: int
    f: Callable[[float, Sequence[float], int], Sequence[float]]
    h: Callable[[float, Sequence[float], int], Sequence[float]]
    p: int = 1
    fhat: Optional[Callable[[float, Sequence[float], int], Sequence[float]]] = None
    name: str = ""

    def __post_init__(self):
        if self.n < 1 or self.N < 1:
            raise ParameterError("state dimension and mode count must be positive")
        for label, fn, width in (("f", self.f, self.n), ("fhat", self.fhat, self.n),
                                 ("h", self.h, self.p)):
            src = getattr(fn, "mode_source", None)  # a ModeSource text's own callable
            if src is not None and src.f is fn and set(src.widths) != {width}:
                raise ParameterError(f"{label} text must list {width} components in every mode")


@dataclass(frozen=True)
class Covering:
    """Closed covering of R^n by per-mode regions, given by margin functions.

    The closed piece of mode i is ``margin(xi, i) >= 0``; every membership decision
    reads it as ``margin(xi, i) >= -BOUNDARY_TOL``, a NaN margin outside, so a closed-loop
    crossing lands beyond -BOUNDARY_TOL by at most about |dx/dt| * event_bisection_tol.
    For half-space pieces the margin is the signed distance.
    ``xi`` is a sequence of n floats, a list or an ndarray row.  The invariance
    validator runs a ``integrate.ModeSource(..., form="margin")`` margin on the
    state columns, once per mode, and hands any other margin lists of floats.
    """

    margin: Callable[[Sequence[float], int], float]
    N: int
    name: str = ""


def trivial_covering(n_modes: int) -> Covering:
    return Covering(margin=lambda xi, i: 1.0, N=n_modes, name="trivial")


def active_index_set(xi: np.ndarray, covering: Covering) -> tuple[int, ...]:
    """Indices i whose piece contains xi, by ``Covering``'s rule; CoveringError if none."""
    margin = covering.margin
    idx = tuple([i for i in range(1, covering.N + 1) if margin(xi, i) >= -BOUNDARY_TOL])
    if not idx:
        raise CoveringError(f"point {xi} is not covered by any piece")
    return idx


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Trajectory:
    """Sampled trajectory: time grid, states, the drive (mode or control), outputs."""

    times: np.ndarray            # (m,)
    states: np.ndarray           # (m, n)
    modes: Optional[np.ndarray] = None      # (m,) ints, switched drive
    controls: Optional[np.ndarray] = None   # (m, N), relaxed drive
    outputs: Optional[np.ndarray] = None    # (m, p)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        x = np.asarray(self.states, dtype=float)
        if t.ndim != 1 or x.ndim != 2 or x.shape[0] != len(t):
            raise ParameterError("times must be (m,), states (m, n)")
        if len(t) > 1 and not np.all(np.diff(t) > 0):
            raise ParameterError("times must be strictly increasing")
        if not np.all(np.isfinite(x)):
            raise ParameterError("states contain NaN/Inf")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", x)

    @property
    def n_dim(self) -> int:
        return self.states.shape[1]

    @property
    def t0(self) -> float:
        return float(self.times[0])

    @property
    def tf(self) -> float:
        return float(self.times[-1])

    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.states, axis=1)

    def to_csv(self, path) -> None:
        """Write ``t,x1..xn,[mode|u1..uN],[y1..yp]`` rows at full double precision."""
        n = self.n_dim
        header = ["t"] + [f"x{j+1}" for j in range(n)]
        cols = [self.times] + [self.states[:, j] for j in range(n)]
        if self.modes is not None:
            header.append("mode")
            cols.append(self.modes)
        elif self.controls is not None:
            nu = self.controls.shape[1]
            header += [f"u{j+1}" for j in range(nu)]
            cols += [self.controls[:, j] for j in range(nu)]
        if self.outputs is not None:
            p = self.outputs.shape[1]
            header += [f"y{j+1}" for j in range(p)]
            cols += [self.outputs[:, j] for j in range(p)]
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for row in zip(*cols):
                w.writerow([("%d" % v) if isinstance(v, (int, np.integer)) else ("%.17g" % v)
                            for v in row])

    @staticmethod
    def from_csv(path) -> "Trajectory":
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        header, data = rows[0], np.array([[float(v) for v in r] for r in rows[1:]])
        xcols = [j for j, name in enumerate(header) if name.startswith("x")]
        ucols = [j for j, name in enumerate(header) if name.startswith("u")]
        ycols = [j for j, name in enumerate(header) if name.startswith("y")]
        modes = data[:, header.index("mode")].astype(np.int64) if "mode" in header else None
        controls = data[:, ucols] if ucols and modes is None else None
        outputs = data[:, ycols] if ycols else None
        return Trajectory(times=data[:, 0], states=data[:, xcols],
                          modes=modes, controls=controls, outputs=outputs)


# ---------------------------------------------------------------------------
# switched -> relaxed embedding
# ---------------------------------------------------------------------------


def signal_to_control(sigma: SwitchingSignal, du: float,
                      span: Optional[tuple[float, float]] = None,
                      n_modes: Optional[int] = None) -> RelaxedControl:
    """Vertex-valued relaxed control equivalent to a switching signal.

    The span is tiled with cells of length du and each cell takes the vertex
    e_{sigma(midpoint)}.  The cell count must tile the span exactly (uniform
    grid); the span must lie inside sigma's domain.  ``n_modes`` defaults to
    the largest mode index appearing in the signal.
    """
    require_finite(du=du)
    if du <= 0:
        raise ParameterError("du must be positive")
    t0, tf = span if span is not None else (sigma.domain_start, sigma.domain_end)
    if t0 < sigma.domain_start - 1e-12 or tf > sigma.domain_end + 1e-12 or tf <= t0:
        raise DomainError(f"span [{t0}, {tf}] not inside signal domain")
    n_cells = int(round((tf - t0) / du))
    if n_cells < 1 or abs(n_cells * du - (tf - t0)) > 1e-9 * max(1.0, abs(tf - t0)):
        raise ParameterError(f"du={du} does not tile span [{t0}, {tf}] uniformly")
    if n_modes is None:
        n_modes = int(sigma.modes.max())
    elif n_modes < int(sigma.modes.max()):
        raise ParameterError("n_modes smaller than the largest mode in the signal")
    mids = t0 + (np.arange(n_cells) + 0.5) * du
    cell_modes = sigma.modes_at(mids)
    vals = np.zeros((n_cells, n_modes))
    vals[np.arange(n_cells), cell_modes - 1] = 1.0
    return RelaxedControl(t0=t0, step=du, values=vals)
