#!/usr/bin/env python3
"""Write the benchmark record BENCH_<pr>.json: layers L0, L1, L2 and optionally L3.

    PYTHONPATH=src python3 scripts/bench.py --out BENCH_12.json [--repeats 3] \\
        [perfbench/out/<workload>_seed<seed>_trace0.json ...]

Layers (ROADMAP aim 1), all with pinned seeds and through the public API:

- L0, field evaluations per second of every registry system and mode:
  ``system.f(t, x, i)`` on 4 000 states drawn in [-1.5, 1.5]^n, each a list
  of floats as the RK4 kernels hand it over, looped over 5 times.  The loop
  is part of the figure.
- L1, microseconds per RK4 step of each integrator:
  - ``simulate`` and ``simulate_relaxed`` (the vertex embedding of the same
    signal) on all four registry systems, step 1e-3, horizon 20, under a
    ``gen_arbitrary`` signal with mean dwell 0.5;
  - ``simulate_with_covering`` on example4's closed loop, step 1e-2, horizon 80;
  - ``simulate_reduced`` on motivating's reduced system, step 1e-2, horizon
    20, alternating vertex cells of length 0.5;
  - one envelope trial of motivating through ``make_driver``, horizon 200,
    step 2e-2, signal generation included.
  A row is the run's time divided by its step count (grid nodes minus one),
  except ``falsifier_cell/motivating``: the constrained ``wzsd_falsify``
  search of motivating (horizon 5, budget 1 000, seed 105) divided by the
  cells its screen marched (``cells_marched``), each cell five RK4 steps
  plus its draw and residual tests.
- L2, milliseconds per 10 000 work units of each checker, on pinned inputs:
  - ``check_decrease_along`` and ``check_integral_bound`` per 10k grid nodes,
    on L1's closed loop of example4 (8 017 nodes) and on one open-loop run
    of motivating under its class signal (seed 7, step 1e-3, horizon 20,
    20 041 nodes);
  - ``validate_covering_invariance`` per 10k grid nodes, on the same
    closed loop;
  - ``validate_measure`` (motivating, span 2 000, 10 716 breakpoints) and
    ``validate_pattern`` (inverter, span 10 000, 8 003 breakpoints) per 10k
    breakpoints of a class signal (seed 5);
  - ``check_control_constraint`` per 10k control cells, on those signals
    as relaxed controls with cells of 0.05 against the class constraint.
- L3, read from the perfbench run records named on the command line: each
  workload's untraced runs (seed, ``ops_per_s``, ``peak_rss_mb``,
  ``setup_s``, ``correct``, ``failed``) and their median ``ops_per_s``.
  Traced records are skipped: the tracer's own cost is in their figures.

L0, L1 and L2 figures are the median over the repeats.  Every repeat runs
under ``SpeedClock`` of perfbench/run.py, which samples the machine's speed
all along the run and scales wall time to perfbench's reference machine, so
figures of runs made at different times on a shared host compare.  A repeat
loops its work unit as many times as it takes to last at least
``MIN_REPEAT_S``, a count set once per row from an untimed first run: a
repeat of a few milliseconds would be scaled by one or two speed samples.
The record also holds the machine: CPU, CPU count, Python and numpy versions.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import statistics
import time
from functools import partial
from pathlib import Path

import numpy as np

import swstab as sw

ROOT = Path(__file__).resolve().parent.parent
SYSTEMS = ("motivating", "example1", "example4", "inverter")
L0_STATES, L0_LOOPS = 4_000, 5
MIN_REPEAT_S = 0.5  # wall seconds a timed repeat lasts at least


def _perfbench_run():
    """perfbench/run.py, loaded from its file for ``SpeedClock`` and ``machine``."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _timed(run, repeats: int, clock) -> float:
    """Median speed-scaled seconds per work unit over the repeats, ``run()``
    returning its unit count; each repeat runs under its own ``clock()`` and
    calls ``run`` the number of times the untimed first call sets."""
    t0 = time.perf_counter()
    run()
    loops = max(1, math.ceil(MIN_REPEAT_S / (time.perf_counter() - t0)))
    costs = []
    for _ in range(repeats):
        with clock() as c:
            t0 = c.now()
            units = sum(run() for _ in range(loops))
            costs.append((c.now() - t0) / units)
    return statistics.median(costs)


def _field_loop(f, points, i) -> int:
    for _ in range(L0_LOOPS):
        for t, x in points:
            f(t, x, i)
    return L0_LOOPS * len(points)


def measure_l0(repeats: int, clock) -> dict:
    """{"<system>/<mode>": seconds per field evaluation}."""
    rng = np.random.default_rng(2025)
    timed = {}
    for name in SYSTEMS:
        system = sw.get_entry(name).system
        points = [(k * 1e-3, x) for k, x in
                  enumerate(rng.uniform(-1.5, 1.5, (L0_STATES, system.n)).tolist())]
        for i in range(1, system.N + 1):
            timed[f"{name}/{i}"] = _timed(partial(_field_loop, system.f, points, i),
                                          repeats, clock)
    return timed


def _closed_loop_example4(cfg):
    e4 = sw.get_entry("example4")
    return sw.simulate_with_covering(e4.system, e4.covering, e4.policy, 0.5,
                                     np.array([0.8, -1.1]), 80.5, cfg)


def measure_l1(repeats: int, clock) -> dict:
    """{row: seconds per RK4 step, or per screened cell for the falsifier row}."""
    def per_step(run):
        return _timed(lambda: len(run().times) - 1, repeats, clock)

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

    cfg_cl = sw.IntegratorConfig(step=1e-2)
    timed["simulate_with_covering/example4"] = per_step(
        lambda: _closed_loop_example4(cfg_cl)[0])

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

    timed["falsifier_cell/motivating"] = _timed(
        lambda: sw.wzsd_falsify(mot.reduced, eps=0.5, horizon=5.0, budget=1_000,
                                seed=105).notes["cells_marched"], repeats, clock)
    return timed


def _units(check, n: int):
    """A run of ``check()`` that counts as n work units."""
    def run():
        check()
        return n
    return run


def measure_l2(repeats: int, clock) -> dict:
    """{row: seconds per work unit}: grid nodes, breakpoints or control cells."""
    timed = {}
    e4, mot = sw.get_entry("example4"), sw.get_entry("motivating")
    closed, closed_sigma = _closed_loop_example4(sw.IntegratorConfig(step=1e-2))
    sig = mot.signal_class.generator((0.0, 20.0), 7)
    runs = {"example4": (e4, closed, closed_sigma),
            "motivating": (mot, sw.simulate(mot.system, sig, 0.0, np.array([1.0, -0.4]), 20.0,
                                            sw.IntegratorConfig(step=1e-3)), sig)}
    for name, (entry, traj, sigma) in runs.items():
        m = len(traj.times)
        params = sw.IntegralBoundParams(alpha=entry.alpha, M=entry.integral_M(traj.states[0]),
                                        mu=0.0)
        timed[f"check_decrease_along/{name}"] = _timed(
            _units(lambda: sw.check_decrease_along(entry.certificate, traj, sigma), m),
            repeats, clock)
        timed[f"check_integral_bound/{name}"] = _timed(
            _units(lambda: sw.check_integral_bound(traj, sigma, entry.system, params), m),
            repeats, clock)
    timed["validate_covering_invariance/example4"] = _timed(
        _units(lambda: sw.validate_covering_invariance(closed, closed_sigma, e4.covering),
               len(closed.times)), repeats, clock)

    for name, span, validate in (("motivating", 2_000.0, sw.validate_measure),
                                 ("inverter", 10_000.0, sw.validate_pattern)):
        entry = sw.get_entry(name)
        c = entry.reduced.constraints[0]
        sigma = entry.signal_class.generator((0.0, span), 5)
        u = sw.signal_to_control(sigma, 0.05, span=(0.0, span), n_modes=entry.system.N)
        timed[f"{validate.__name__}/{name}"] = _timed(
            _units(lambda: validate(sigma, c), len(sigma.breakpoints)), repeats, clock)
        timed[f"check_control_constraint/{name}"] = _timed(
            _units(lambda: sw.check_control_constraint(u, c), len(u.values)), repeats, clock)
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


# (layer, measure, unit, seconds per work unit -> the unit's figure)
LAYERS = (("L0", measure_l0, "field_evals_per_s", lambda s: 1.0 / s),
          ("L1", measure_l1, "us_per_step", lambda s: s * 1e6),
          ("L2", measure_l2, "ms_per_10k", lambda s: s * 1e7))


def bench(repeats: int, records=()) -> dict:
    pb = _perfbench_run()
    doc = {"machine": pb.machine(), "repeats": repeats}
    for layer, measure, unit, factor in LAYERS:
        timed = measure(repeats, pb.SpeedClock)
        doc[layer] = {unit: {k: factor(s) for k, s in timed.items()}}
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
    for layer, _, unit, _ in LAYERS:
        for k, v in doc[layer][unit].items():
            print(f"{layer} {k:40s} {v:12.2f} {unit}")
    for w, row in doc.get("L3", {}).items():
        print(f"L3 {w:36s} {row['ops_per_s_median']:12.2f} ops_per_s median of "
              f"{len(row['runs'])}")
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
