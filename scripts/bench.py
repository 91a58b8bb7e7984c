#!/usr/bin/env python3
"""Write the benchmark record BENCH_<pr>.json: layers L0, L1 and optionally L3.

    PYTHONPATH=src python3 scripts/bench.py --out BENCH_12.json [--repeats 3] \\
        [perfbench/out/<workload>_seed<seed>_trace0.json ...]

Layers (ROADMAP aim 1), all with pinned seeds and through the public API:

- L0, field evaluations per second of every registry system and mode:
  ``system.f(t, x, i)`` on 4 000 states drawn in [-1.5, 1.5]^n, each a list
  of floats as the RK4 kernels hand it over, looped over 5 times.  The loop
  is part of the figure.
- L1, CPU microseconds per RK4 step of each integrator:
  - ``simulate`` and ``simulate_relaxed`` (the vertex embedding of the same
    signal) on all four registry systems, step 1e-3, horizon 20, under a
    ``gen_arbitrary`` signal with mean dwell 0.5;
  - ``simulate_with_covering`` on example4's closed loop, step 1e-2, horizon 80;
  - ``simulate_reduced`` on motivating's reduced system, step 1e-2, horizon
    20, alternating vertex cells of length 0.5;
  - one envelope trial of motivating through ``make_driver``, horizon 200,
    step 2e-2, signal generation included.
  A row is process CPU time divided by the run's step count (grid nodes
  minus one).
- L3, read from the perfbench run records named on the command line: each
  workload's untraced runs (seed, ``ops_per_s``, ``peak_rss_mb``,
  ``setup_s``, ``correct``, ``failed``) and their median ``ops_per_s``.
  Traced records are skipped: the tracer's own cost is in their figures.

L0 and L1 figures are the median over the repeats.  Around every repeat the
script times ``speed_kernel`` of perfbench/run.py, best of 3, and a row's
speed scale is that file's ``CAL_SECONDS`` over the median kernel time: below
1 while the machine runs slower than perfbench's reference machine.  The
scaled figures (times times the scale, rates over it) are the ones to
compare between runs made at different times on a shared host.  The record
also holds the machine: CPU, CPU count, Python and numpy versions.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
from functools import partial
from pathlib import Path
from time import process_time

import numpy as np

import swstab as sw

ROOT = Path(__file__).resolve().parent.parent
SYSTEMS = ("motivating", "example1", "example4", "inverter")
L0_STATES, L0_LOOPS = 4_000, 5


def _perfbench_run():
    """perfbench/run.py, loaded from its file for ``speed_kernel``, ``CAL_SECONDS``
    and ``machine``."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _timed(run, repeats: int, speed_kernel) -> tuple[float, float]:
    """Median CPU seconds per work unit over the repeats, ``run()`` returning its
    unit count, and the median speed-kernel seconds (best of 3) sampled before
    every repeat and after the last."""
    costs, kernel = [], []
    for _ in range(repeats):
        kernel.append(min(speed_kernel() for _ in range(3)))
        c0 = process_time()
        units = run()
        costs.append((process_time() - c0) / units)
    kernel.append(min(speed_kernel() for _ in range(3)))
    return statistics.median(costs), statistics.median(kernel)


def _field_loop(f, points, i) -> int:
    for _ in range(L0_LOOPS):
        for t, x in points:
            f(t, x, i)
    return L0_LOOPS * len(points)


def measure_l0(repeats: int, speed_kernel) -> dict:
    """{"<system>/<mode>": (CPU seconds per field evaluation, speed-kernel seconds)}."""
    rng = np.random.default_rng(2025)
    timed = {}
    for name in SYSTEMS:
        system = sw.get_entry(name).system
        points = [(k * 1e-3, x) for k, x in
                  enumerate(rng.uniform(-1.5, 1.5, (L0_STATES, system.n)).tolist())]
        for i in range(1, system.N + 1):
            timed[f"{name}/{i}"] = _timed(partial(_field_loop, system.f, points, i),
                                          repeats, speed_kernel)
    return timed


def measure_l1(repeats: int, speed_kernel) -> dict:
    """{row: (CPU seconds per RK4 step, speed-kernel seconds)}."""
    def per_step(run):
        return _timed(lambda: len(run().times) - 1, repeats, speed_kernel)

    timed = {}
    cfg = sw.IntegratorConfig(step=1e-3)
    rng = np.random.default_rng(2024)
    for name in SYSTEMS:
        entry = sw.get_entry(name)
        n, N = entry.system.n, entry.system.N
        x0 = rng.uniform(-1.5, 1.5, n)
        sigma = sw.gen_arbitrary(N, (0.0, 20.0), 0.5, int(rng.integers(0, 2**62)),
                                 granularity=1e-3)
        u = sw.signal_to_control(sigma, 1e-3, span=(0.0, 20.0), n_modes=N)
        timed[f"simulate/{name}"] = per_step(
            lambda: sw.simulate(entry.system, sigma, 0.0, x0, 20.0, cfg))
        timed[f"simulate_relaxed/{name}"] = per_step(
            lambda: sw.simulate_relaxed(entry.system, u, 0.0, x0, 20.0, cfg))

    e4 = sw.get_entry("example4")
    cfg_cl = sw.IntegratorConfig(step=1e-2)
    timed["simulate_with_covering/example4"] = per_step(
        lambda: sw.simulate_with_covering(e4.system, e4.covering, e4.policy, 0.5,
                                          np.array([0.8, -1.1]), 80.5, cfg_cl)[0])

    mot = sw.get_entry("motivating")
    vals = np.zeros((400, 2))
    vals[:, 0] = np.tile(np.repeat([1.0, 0.0], 10), 20)
    vals[:, 1] = 1.0 - vals[:, 0]
    uc = sw.RelaxedControl(t0=0.0, step=0.05, values=vals)
    timed["simulate_reduced/motivating"] = per_step(
        lambda: sw.simulate_reduced(mot.reduced, uc, 0.0, np.array([1.0, 0.5]), 20.0,
                                    cfg_cl))

    driver = sw.make_driver(mot, sw.IntegratorConfig(step=2e-2))
    timed["envelope_trial/motivating"] = per_step(
        lambda: driver(3.0, np.array([0.6, -0.7]), 203.0, 11))
    return timed


def read_l3(paths) -> dict:
    """Untraced perfbench run records grouped by workload, with the median ops_per_s."""
    runs: dict = {}
    for path in paths:
        with open(path) as fh:
            rec = json.load(fh)
        if rec["trace"]:
            continue
        metrics = {k: v["value"] for k, v in rec["metrics"].items()}
        runs.setdefault(rec["workload"], []).append(
            {"seed": rec["seed"], "seconds": rec["seconds"], **metrics,
             "correct": rec["correct"], "failed": rec["failed"]})
    return {w: {"ops_per_s_median": statistics.median(r["ops_per_s"] for r in rows),
                "runs": sorted(rows, key=lambda r: r["seed"])}
            for w, rows in sorted(runs.items())}


def bench(repeats: int, records=()) -> dict:
    pb = _perfbench_run()
    doc = {"machine": pb.machine(), "repeats": repeats}
    for layer, measure, unit, factor in (
            ("L0", measure_l0, "field_evals_per_s", lambda s: 1.0 / s),
            ("L1", measure_l1, "us_per_step", lambda s: s * 1e6)):
        timed = measure(repeats, pb.speed_kernel)
        raw = {k: factor(s) for k, (s, _) in timed.items()}
        scale = {k: pb.CAL_SECONDS / kernel for k, (_, kernel) in timed.items()}
        scaled = {k: factor(s * scale[k]) for k, (s, _) in timed.items()}
        doc[layer] = {unit: raw, "speed_scale": scale, f"{unit}_scaled": scaled}
    if records:
        doc["L3"] = read_l3(records)
    return doc


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True, help="the record to write, BENCH_<pr>.json")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("records", nargs="*", help="perfbench run records for L3")
    args = ap.parse_args(argv)
    doc = bench(args.repeats, args.records)
    for layer, unit in (("L0", "field_evals_per_s"), ("L1", "us_per_step")):
        rows = doc[layer]
        for k, v in rows[unit].items():
            print(f"{layer} {k:36s} {v:12.2f} {unit}  scale {rows['speed_scale'][k]:5.3f}"
                  f"  scaled {rows[unit + '_scaled'][k]:12.2f}")
    for w, row in doc.get("L3", {}).items():
        print(f"L3 {w:36s} {row['ops_per_s_median']:12.2f} ops_per_s median of "
              f"{len(row['runs'])}")
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
