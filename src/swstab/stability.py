"""Empirical uniform-stability verdicts from Monte Carlo trajectory ensembles.

The class-KL decay bound is represented by its empirical stand-in: a table of
worst observed norms per (initial-norm bin, elapsed time) cell.  A decaying,
radius-uniform table is *consistent with* uniform asymptotic stability; it
proves nothing.  All sampling is driven by per-trial seeds derived from one
master seed, so envelopes are bit-identical across runs and worker counts.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .core import MAX_SAMPLES, BlowUpError, ParameterError, require_finite

MONO_RESIDUAL_TOL = 0.05  # under-sampled: regularizing moves a cell by more, row-scaled


@dataclass(frozen=True)
class StabilityEnvelope:
    """Empirical beta(r, tau): worst |x(t0 + tau)| per initial-norm bin."""

    radius_bins: np.ndarray      # increasing upper bin edges
    tau_grid: np.ndarray
    beta_table: np.ndarray       # (bins, taus), max over trials
    trials_per_cell: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        table = np.asarray(self.beta_table, dtype=float)
        if table.shape != (len(self.radius_bins), len(self.tau_grid)):
            raise ParameterError("beta_table must be (bins, taus)")
        if np.any(table < 0):
            raise ParameterError("beta_table must be nonnegative")
        object.__setattr__(self, "beta_table", table)

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("bin_edge," + ",".join("tau_%.17g" % t for t in self.tau_grid) + "\n")
            for edge, row in zip(self.radius_bins, self.beta_table):
                fh.write("%.17g," % edge + ",".join("%.17g" % v for v in row) + "\n")


def _trial_seed(master_seed: int, bin_idx: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(bin_idx, trial)))


def _run_trial(n_dim, traj_factory, radii, horizon, tau_grid, offset_max, master_seed, task):
    """One trial of ``task = (bin, trial)``: its norms on ``t0 + tau_grid`` and its t0."""
    b, trial = task
    rng = _trial_seed(master_seed, b, trial)
    direction = rng.standard_normal(n_dim)
    nrm = float(np.linalg.norm(direction))
    direction = direction / nrm if nrm > 0 else np.eye(n_dim)[0]
    r0 = float(rng.uniform(0.0 if b == 0 else radii[b - 1], radii[b]))
    x0 = r0 * direction
    t0 = float(rng.uniform(0.0, offset_max))
    seed = int(rng.integers(0, 2**63 - 1))
    try:
        traj = traj_factory(t0, x0, t0 + horizon, seed)
    except BlowUpError as err:
        vals = np.full(len(tau_grid), np.inf)
        part = err.trajectory
        if part is not None and len(part.times) > 0:
            good = tau_grid <= (err.time - t0)
            idx = np.clip(np.searchsorted(part.times, t0 + tau_grid[good]), 0,
                          len(part.times) - 1)
            vals[good] = np.linalg.norm(part.states[idx], axis=1)
        return vals, t0
    norms = traj.norms()
    idx = np.clip(np.searchsorted(traj.times, t0 + tau_grid), 0, len(norms) - 1)
    return norms[idx], t0


def estimate_envelope(n_dim: int, traj_factory: Callable, radii: Sequence[float],
                      horizon: float, trials: int, tau_count: int = 21,
                      master_seed: int = 0, offset_max: float = 10.0,
                      workers: int = 1) -> StabilityEnvelope:
    """Worst-norm table over random starts, signals, and start-time offsets.

    ``traj_factory(t0, x0, tf, seed)`` must return a Trajectory; it owns
    signal generation (or closed-loop policy drive).  Row k of the table uses
    initial norms drawn from (radii[k-1], radii[k]] (from 0 for the first
    bin).  Start times are drawn from [0, offset_max], probing
    uniformity over the anchor time.  Integration blow-up marks the remaining
    cells +inf.  Trials run in min(workers, trials of all bins, CPUs) processes,
    serially when that is 1; in processes ``traj_factory`` must be picklable (a
    module-level function or a ``functools.partial`` of one).  The table and
    ``meta["offsets"]`` are reduced in trial order, whatever the worker count.
    """
    require_finite(horizon=horizon)
    radii = np.asarray(sorted(radii), dtype=float)
    if trials < 1:
        raise ParameterError("need at least one trial")
    if not 0.0 <= offset_max < np.inf:
        raise ParameterError(f"offset_max must be finite and nonnegative, got {offset_max!r}")
    if tau_count > MAX_SAMPLES:
        raise ParameterError(f"tau_count {tau_count} is over {MAX_SAMPLES}")
    tau_grid = np.linspace(0.0, horizon, tau_count)
    tasks = [(b, k) for b in range(len(radii)) for k in range(trials)]
    run = partial(_run_trial, n_dim, traj_factory, radii, horizon, tau_grid, offset_max,
                  master_seed)
    table = np.zeros((len(radii), tau_count))
    offsets_seen = []
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # ~18 ms to import: only here
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, tasks, chunksize=16))
    else:
        results = map(run, tasks)
    for (b, _), (vals, t0) in zip(tasks, results):
        np.maximum(table[b], vals, out=table[b])
        offsets_seen.append(t0)
    return StabilityEnvelope(radius_bins=radii, tau_grid=tau_grid, beta_table=table,
                             trials_per_cell=trials,
                             meta={"master_seed": master_seed, "horizon": horizon,
                                   "offset_max": offset_max, "offsets": offsets_seen})


@dataclass(frozen=True)
class ClassifyVerdict:
    verdict: str     # GUAS-consistent | US-only | inconclusive | unstable-evidence
    decay_ratio: float
    tail_fraction: float
    uniform_bound: float
    tau_residual: float
    radius_residual: float
    under_sampled: bool
    tail_ratios: list
    uniform_ratios: list

    def to_dict(self) -> dict:
        return {"verdict": self.verdict, "decay_ratio": self.decay_ratio,
                "tail_fraction": self.tail_fraction, "uniform_bound": self.uniform_bound,
                "tau_residual": self.tau_residual, "radius_residual": self.radius_residual,
                "under_sampled": self.under_sampled, "tail_ratios": self.tail_ratios,
                "uniform_ratios": self.uniform_ratios}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def regularize(env: StabilityEnvelope) -> tuple[np.ndarray, float, float]:
    """Monotone regularization: running max right-to-left in tau, then down in r.

    Returns the regularized table and the relative residuals the two passes
    introduced (how far raw Monte Carlo maxima were from monotone).
    """
    raw = env.beta_table
    reg_tau = np.maximum.accumulate(raw[:, ::-1], axis=1)[:, ::-1]
    scale = np.maximum(reg_tau[:, :1], 1e-30)  # per-row scale: worst initial norm
    tau_res = float(np.max((reg_tau - raw) / scale)) if raw.size else 0.0
    reg = np.maximum.accumulate(reg_tau, axis=0)
    r_res = float(np.max((reg - reg_tau) / scale)) if raw.size else 0.0
    return reg, tau_res, r_res


def classify(env: StabilityEnvelope, decay_ratio: float = 0.05,
             tail_fraction: float = 0.2, uniform_bound: float = 3.0) -> ClassifyVerdict:
    """Decision thresholds on the empirical envelope.

    GUAS-consistent: every row's tail (last tail_fraction of tau columns)
    sits below decay_ratio times the row's first column, and every row stays
    below uniform_bound times its bin edge.  A flat-but-bounded table is
    US-only; any +inf cell is unstable-evidence.
    """
    if env.beta_table.size == 0:
        raise ParameterError("empty envelope")
    if np.any(np.isinf(env.beta_table)):
        return ClassifyVerdict("unstable-evidence", decay_ratio, tail_fraction,
                               uniform_bound, 0.0, 0.0, False, [], [])
    reg, tau_res, r_res = regularize(env)
    n_tail = max(1, int(np.ceil(tail_fraction * reg.shape[1])))
    tail_ratios = []
    uniform_ratios = []
    for b, edge in enumerate(env.radius_bins):
        first = max(float(reg[b, 0]), 1e-30)
        tail_ratios.append(float(reg[b, -n_tail:].max()) / first)
        uniform_ratios.append(float(reg[b].max()) / max(float(edge), 1e-30))
    decays = all(r <= decay_ratio for r in tail_ratios)
    uniform = all(r <= uniform_bound for r in uniform_ratios)
    if decays and uniform:
        verdict = "GUAS-consistent"
    elif uniform:
        verdict = "US-only"
    else:
        verdict = "inconclusive"
    return ClassifyVerdict(verdict, decay_ratio, tail_fraction, uniform_bound,
                           tau_res, r_res,
                           under_sampled=max(tau_res, r_res) > MONO_RESIDUAL_TOL,
                           tail_ratios=tail_ratios, uniform_ratios=uniform_ratios)
