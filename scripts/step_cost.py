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
the run's step count (grid nodes minus one).
Around every repeat the script times ``speed_kernel`` of perfbench/run.py,
best of 3, and a row's speed scale is that file's ``CAL_SECONDS`` over the
median kernel time: below 1 while the machine runs slower than the
reference machine of perfbench.  The scaled figure, raw times scale, is the
one to compare between runs made at different times on a shared host.  The last line is a JSON
object with the machine, the raw figures, the scales and the scaled figures.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
from functools import partial
from pathlib import Path
from time import process_time

import numpy as np

import swstab as sw

SYSTEMS = ("motivating", "example1", "example4", "inverter")


def _perfbench_speed():
    """(speed_kernel, CAL_SECONDS) of perfbench/run.py, loaded from its file."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.speed_kernel, module.CAL_SECONDS


def _per_step(run, repeats: int, speed_kernel) -> tuple[float, float]:
    """Median CPU us per step over the repeats, and the median speed-kernel
    seconds (best of 3) sampled before every repeat and after the last."""
    costs, kernel = [], []
    for _ in range(repeats):
        kernel.append(min(speed_kernel() for _ in range(3)))
        c0 = process_time()
        traj = run()
        costs.append((process_time() - c0) / (len(traj.times) - 1) * 1e6)
    kernel.append(min(speed_kernel() for _ in range(3)))
    return statistics.median(costs), statistics.median(kernel)


def measure(repeats: int) -> tuple[dict, dict]:
    """(CPU us per step, speed scale) per row."""
    speed_kernel, cal_seconds = _perfbench_speed()
    per_step = partial(_per_step, repeats=repeats, speed_kernel=speed_kernel)
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
    return ({k: cost for k, (cost, _) in timed.items()},
            {k: cal_seconds / kernel for k, (_, kernel) in timed.items()})


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args(argv)
    rows, scales = measure(args.repeats)
    scaled = {k: v * scales[k] for k, v in rows.items()}
    for k, v in rows.items():
        print(f"{k:36s} {v:7.2f} us/step  x {scales[k]:5.3f} = {scaled[k]:7.2f} scaled")
    print(json.dumps({"machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                                  "numpy": np.__version__},
                      "repeats": args.repeats, "us_per_step": rows, "speed_scale": scales,
                      "us_per_step_scaled": scaled}))


if __name__ == "__main__":
    main()
