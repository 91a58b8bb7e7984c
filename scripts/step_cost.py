#!/usr/bin/env python3
"""CPU microseconds per RK4 step of each integrator (ROADMAP layer L1).

    PYTHONPATH=src python3 scripts/step_cost.py [--repeats 3]

Runs, with pinned seeds and through the public API only:
- ``simulate`` and ``simulate_relaxed`` (the vertex embedding of the same
  signal) on all four registry systems, step 1e-3, horizon 20, under a
  ``gen_arbitrary`` signal with mean dwell 0.5;
- ``simulate_with_covering`` on example4's closed loop, step 1e-2, horizon 80;
- ``simulate_reduced`` on motivating's reduced system, step 1e-2, horizon 20,
  alternating vertex cells of length 0.5;
- one envelope trial of motivating through ``make_driver``, horizon 200,
  step 2e-2, signal generation included.

Each figure is the median over the repeats of process CPU time divided by
the run's step count (grid nodes minus one); the output fill is included.
The last line is a JSON object with the machine and the figures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
from time import process_time

import numpy as np

import swstab as sw

SYSTEMS = ("motivating", "example1", "example4", "inverter")


def _per_step(run, repeats: int) -> float:
    costs = []
    for _ in range(repeats):
        c0 = process_time()
        traj = run()
        costs.append((process_time() - c0) / (len(traj.times) - 1) * 1e6)
    return statistics.median(costs)


def measure(repeats: int) -> dict:
    rows = {}
    cfg = sw.IntegratorConfig(step=1e-3)
    rng = np.random.default_rng(2024)
    for name in SYSTEMS:
        entry = sw.get_entry(name)
        n, N = entry.system.n, entry.system.N
        x0 = rng.uniform(-1.5, 1.5, n)
        sigma = sw.gen_arbitrary(N, (0.0, 20.0), 0.5, int(rng.integers(0, 2**62)),
                                 granularity=1e-3)
        u = sw.signal_to_control(sigma, 1e-3, span=(0.0, 20.0), n_modes=N)
        rows[f"simulate/{name}"] = _per_step(
            lambda: sw.simulate(entry.system, sigma, 0.0, x0, 20.0, cfg), repeats)
        rows[f"simulate_relaxed/{name}"] = _per_step(
            lambda: sw.simulate_relaxed(entry.system, u, 0.0, x0, 20.0, cfg), repeats)

    e4 = sw.get_entry("example4")
    cfg_cl = sw.IntegratorConfig(step=1e-2)
    rows["simulate_with_covering/example4"] = _per_step(
        lambda: sw.simulate_with_covering(e4.system, e4.covering, e4.policy, 0.5,
                                          np.array([0.8, -1.1]), 80.5, cfg_cl)[0], repeats)

    mot = sw.get_entry("motivating")
    vals = np.zeros((400, 2))
    vals[:, 0] = np.tile(np.repeat([1.0, 0.0], 10), 20)
    vals[:, 1] = 1.0 - vals[:, 0]
    uc = sw.RelaxedControl(t0=0.0, step=0.05, values=vals)
    rows["simulate_reduced/motivating"] = _per_step(
        lambda: sw.simulate_reduced(mot.reduced, uc, 0.0, np.array([1.0, 0.5]), 20.0,
                                    cfg_cl), repeats)

    driver = sw.make_driver(mot, sw.IntegratorConfig(step=2e-2))
    rows["envelope_trial/motivating"] = _per_step(
        lambda: driver(3.0, np.array([0.6, -0.7]), 203.0, 11), repeats)
    return rows


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args(argv)
    rows = measure(args.repeats)
    for k, v in rows.items():
        print(f"{k:36s} {v:7.2f} us/step")
    print(json.dumps({"machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                                  "numpy": np.__version__},
                      "repeats": args.repeats, "us_per_step": rows}))


if __name__ == "__main__":
    main()
