#!/usr/bin/env python3
"""Write the benchmark record BENCH_<pr>.json: layers L0, L1, L2, L4 and optionally L3.

    PYTHONPATH=src python3 scripts/bench.py --out BENCH_12.json [--repeats 3] \\
        [perfbench/out/<workload>_seed<seed>_trace0.json ...]

Layers (ROADMAP aim 1), all with pinned seeds and through the public API:

- L0, field evaluations per second of every registry system and mode:
  ``system.f(t, x, i)`` on 4 000 states drawn in [-1.5, 1.5]^n, each a list
  of floats as the calling RK4 kernels hand it over, looped over 5 times.
  The loop is part of the figure.
- L1, microseconds per RK4 step of each integrator:
  - ``simulate`` and ``simulate_relaxed`` (the vertex embedding of the same
    signal) on all four registry systems, step 1e-3, horizon 20, under a
    ``gen_arbitrary`` signal with mean dwell 0.5;
  - ``simulate_calling``, the same ``simulate`` run with ``f`` wrapped in a
    plain function: the RK4 kernels then call the field at every stage, as
    they do for a traced run, a mixed cell or a user's field, instead of
    evaluating the registry's mode source inline;
  - ``simulate_short_segments``, ``simulate`` of motivating under a
    ``gen_arbitrary`` signal with mean dwell 0.02, step 1e-2, horizon 20:
    about 2.5 steps a segment, so the cost of each segment shows, where the
    rows above take about 500 steps a segment;
  - ``simulate_with_covering`` on example4's closed loop, step 1e-2, horizon 80,
    and ``simulate_with_covering_calling``, the same run with the covering
    margin wrapped in a plain function, which the closed loop's advance then
    calls at every step instead of evaluating the margin's text inline;
  - ``simulate_reduced`` on motivating's reduced system, step 1e-2, horizon
    20, alternating vertex cells of length 0.5, and ``simulate_reduced_mixed``,
    the same grid with every cell at (1/2, 1/2), which calls the fields;
  - one envelope trial of motivating through ``make_driver``, horizon 200,
    step 2e-2, signal generation included.
  A row is the run's time divided by its step count (grid nodes minus one),
  except the two falsifier rows: ``falsifier_cell/motivating``, the
  constrained ``wzsd_falsify`` search of motivating (horizon 5, budget
  1 000, seed 105) divided by the cells its screen marched
  (``cells_marched``), each cell five RK4 steps plus its draw and residual
  tests; and ``falsifier_candidate/inverter``, the constrained search of
  inverter (horizon 12, budget 1 000, seed 105) divided by its candidates
  (``budget_used``), which mostly cost their set-up and constraint checks:
  about 4 cells each.
- L2, milliseconds per 10 000 work units of each checker, on pinned inputs:
  - ``check_decrease_along`` and ``check_integral_bound`` per 10k grid nodes,
    on L1's closed loop of example4 (8 017 nodes) and on one open-loop run
    of motivating under its class signal (seed 7, step 1e-3, horizon 20,
    20 023 nodes);
  - ``validate_covering_invariance`` per 10k grid nodes, on the same
    closed loop;
  - ``check_decrease_along_calling``, ``check_integral_bound_calling`` and
    ``validate_covering_invariance_calling``, the same checks on the same
    runs with V and eta, h, and the covering margin wrapped in plain
    functions: the checks then call them per node, as they do for a traced
    run or a user's callable, instead of evaluating the registry's mode
    source on state columns;
  - ``validate_measure`` (motivating, span 2 000, 5 401 breakpoints) and
    ``validate_pattern`` (inverter, span 10 000, 5 336 breakpoints) per 10k
    breakpoints of a class signal (seed 5), every breakpoint after the first
    a switch;
  - ``check_control_constraint`` per 10k control cells, on those signals
    as relaxed controls with cells of 0.05 against the class constraint;
  - ``gen_class_signal`` per 10k breakpoints of the signal it draws: the
    class generator of motivating (5 401 breakpoints) and example1 (4 384)
    over a span of 2 000 and of inverter (5 336) over 10 000, seed 5.
- L3, read from the perfbench run records named on the command line: each
  workload's untraced runs (seed, ``ops_per_s``, ``peak_rss_mb``,
  ``setup_s``, ``correct``, ``failed``) and their median ``ops_per_s``.
  Traced records are skipped: the tracer's own cost is in their figures.
  Before anything is measured, one round of each record's workload and seed
  runs on this tree, and a record whose output digest differs is refused,
  naming its file: it was made on another tree.
- L4, one run of the Tier-1 suite (``python -m pytest -q
  --continue-on-collection-errors`` from the repository root, ``src/`` on
  the path), read from its ``--junitxml`` report: the suite's wall seconds
  and test counts, and each acceptance criterion's wall seconds (setup,
  call and teardown, so a criterion that first builds a shared fixture
  carries its cost); then ``swstab reproduce <example>`` for each registry
  example, with one worker: ``REPRODUCE_RUNS`` rounds over the examples,
  every run recorded in wall seconds and in speed-scaled seconds (see
  below; the clock samples the machine in this process while the child
  runs), and each example's median of the scaled figures.  The Tier-1 and
  criterion figures are wall time, not scaled.

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
import os
import statistics
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

import swstab as sw

ROOT = Path(__file__).resolve().parent.parent
SYSTEMS = ("motivating", "example1", "example4", "inverter")
L0_STATES, L0_LOOPS = 4_000, 5
MIN_REPEAT_S = 0.5  # wall seconds a timed repeat lasts at least
REPRODUCE_RUNS = 3  # runs of each ``swstab reproduce <example>`` in L4


def _perfbench(name: str):
    """perfbench/<name>.py loaded from its file: run.py for ``SpeedClock`` and
    ``machine``, workloads.py for ``WORKLOADS`` (its ``import reference`` is
    resolved in perfbench/, and its dataclasses find it in ``sys.modules``)."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                      ROOT / "perfbench" / f"{name}.py")
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return module


def _round_digest(workload: str, seed: int) -> str:
    """The output digest of one perfbench round of ``workload`` at ``seed`` on this tree."""
    return _perfbench("workloads").WORKLOADS[workload](sw, seed).run_round(lambda: None).digest


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


def _closed_loop_example4(cfg, wrap=lambda margin: margin):
    e4 = sw.get_entry("example4")
    covering = replace(e4.covering, margin=wrap(e4.covering.margin))
    return sw.simulate_with_covering(e4.system, covering, e4.policy, 0.5,
                                     np.array([0.8, -1.1]), 80.5, cfg)


def _calling(fn):
    """fn wrapped in a plain function, which the kernels and the checks call
    instead of evaluating a mode source inline or on state columns."""
    return lambda *args: fn(*args)


def measure_l1(repeats: int, clock) -> dict:
    """{row: seconds per RK4 step, or per screened cell or candidate for the falsifier rows}."""
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
        calling = replace(entry.system, f=_calling(entry.system.f))
        timed[f"simulate_calling/{name}"] = per_step(
            lambda: sw.simulate(calling, sigma, 0.0, x0, 20.0, cfg))
        timed[f"simulate_relaxed/{name}"] = per_step(
            lambda: sw.simulate_relaxed(entry.system, u, 0.0, x0, 20.0, cfg))

    cfg_cl = sw.IntegratorConfig(step=1e-2)
    mot = sw.get_entry("motivating")
    short = sw.gen_arbitrary(2, (0.0, 20.0), 0.02, 2025)
    timed["simulate_short_segments/motivating"] = per_step(
        lambda: sw.simulate(mot.system, short, 0.0, np.array([0.6, -0.7]), 20.0, cfg_cl))
    timed["simulate_with_covering/example4"] = per_step(
        lambda: _closed_loop_example4(cfg_cl)[0])
    timed["simulate_with_covering_calling/example4"] = per_step(
        lambda: _closed_loop_example4(cfg_cl, _calling)[0])

    vals = np.zeros((400, 2))
    vals[:, 0] = np.tile(np.repeat([1.0, 0.0], 10), 20)
    vals[:, 1] = 1.0 - vals[:, 0]
    uc = sw.RelaxedControl(t0=0.0, step=0.05, values=vals)
    um = sw.RelaxedControl(t0=0.0, step=0.05, values=np.full((400, 2), 0.5))
    for row, u in (("simulate_reduced", uc), ("simulate_reduced_mixed", um)):
        timed[f"{row}/motivating"] = per_step(
            lambda: sw.simulate_reduced(mot.reduced, u, 0.0, np.array([1.0, 0.5]), 20.0,
                                        cfg_cl))

    driver = sw.make_driver(mot, sw.IntegratorConfig(step=2e-2))
    timed["envelope_trial/motivating"] = per_step(
        lambda: driver(3.0, np.array([0.6, -0.7]), 203.0, 11))

    timed["falsifier_cell/motivating"] = _timed(
        lambda: sw.wzsd_falsify(mot.reduced, eps=0.5, horizon=5.0, budget=1_000,
                                seed=105).notes["cells_marched"], repeats, clock)
    inv = sw.get_entry("inverter")
    timed["falsifier_candidate/inverter"] = _timed(
        lambda: sw.wzsd_falsify(inv.reduced, eps=0.5, horizon=12.0, budget=1_000,
                                seed=105).budget_used, repeats, clock)
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
        cert = entry.certificate
        calling = {"": (cert, entry.system),
                   "_calling": (replace(cert, V=_calling(cert.V), eta=_calling(cert.eta)),
                                replace(entry.system, h=_calling(entry.system.h)))}
        for suffix, (c, system) in calling.items():
            timed[f"check_decrease_along{suffix}/{name}"] = _timed(
                _units(lambda: sw.check_decrease_along(c, traj, sigma), m), repeats, clock)
            timed[f"check_integral_bound{suffix}/{name}"] = _timed(
                _units(lambda: sw.check_integral_bound(traj, sigma, system, params), m),
                repeats, clock)
    calling_margin = replace(e4.covering, margin=_calling(e4.covering.margin))
    for suffix, covering in (("", e4.covering), ("_calling", calling_margin)):
        timed[f"validate_covering_invariance{suffix}/example4"] = _timed(
            _units(lambda: sw.validate_covering_invariance(closed, closed_sigma, covering),
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
    for name, span in (("motivating", 2_000.0), ("example1", 2_000.0), ("inverter", 10_000.0)):
        generate = partial(sw.get_entry(name).signal_class.generator, (0.0, span), 5)
        timed[f"gen_class_signal/{name}"] = _timed(
            _units(generate, len(generate().breakpoints)), repeats, clock)
    return timed


def read_l3(paths) -> dict:
    """Untraced perfbench run records grouped by workload, with the median ops_per_s;
    SystemExit naming the first record whose digest is not this tree's."""
    runs: dict = {}
    digests: dict = {}  # (workload, seed) -> this tree's digest
    for path in paths:
        with open(path) as fh:
            rec = json.load(fh)
        if rec["trace"]:
            continue
        key = rec["workload"], rec["seed"]
        if key not in digests:
            digests[key] = _round_digest(*key)
        if rec.get("digest") != digests[key]:
            raise SystemExit(f"{path}: digest {rec.get('digest')} of {key[0]} seed {key[1]} "
                             f"is not this tree's {digests[key]}: a record of another tree")
        metrics = {k: v["value"] for k, v in rec["metrics"].items()}
        runs.setdefault(rec["workload"], []).append(
            {"seed": rec["seed"], "seconds": rec["seconds"], **metrics,
             "correct": rec["correct"], "failed": rec["failed"]})
    return {w: {"ops_per_s_median": statistics.median(r["ops_per_s"] for r in rows),
                "runs": sorted(rows, key=lambda r: r["seed"])}
            for w, rows in sorted(runs.items())}


def _env() -> dict:
    """The environment with the repository's ``src/`` first on PYTHONPATH."""
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


def run_tier1(junit: Path) -> None:
    """One run of the Tier-1 suite from the repository root, reported to ``junit``."""
    subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
                    f"--junitxml={junit}"], cwd=ROOT, env=_env(),
                   stdout=subprocess.DEVNULL, check=False)


def run_reproduce(example: str, out: Path, clock) -> dict:
    """Wall and speed-scaled seconds of one ``swstab reproduce <example>`` run
    with one worker, writing its files under ``out``; ``clock()`` samples the
    machine's speed in this process while the child runs."""
    with clock() as c:
        t0, w0 = c.now(), time.perf_counter()
        subprocess.run([sys.executable, "-m", "swstab", "reproduce", example, "--out", str(out),
                        "--workers", "1"], cwd=ROOT, env=_env(), stdout=subprocess.DEVNULL,
                       check=True)
        return {"wall_s": time.perf_counter() - w0, "scaled_s": c.now() - t0}


def read_l4(junit) -> dict:
    """The Tier-1 run's wall seconds and counts, and each acceptance criterion's
    wall seconds, from its JUnit XML report."""
    root = ET.parse(junit).getroot()
    suite = root if root.tag == "testsuite" else root.find("testsuite")
    counts = {k: int(suite.get(k)) for k in ("tests", "failures", "errors", "skipped")}
    criteria = {case.get("name"): float(case.get("time")) for case in suite.iter("testcase")
                if case.get("classname") == "tests.test_acceptance"
                and case.get("name").startswith("test_criterion_")}
    return {"tier1": {"wall_s": float(suite.get("time")),
                      "passed": counts["tests"] - counts["failures"] - counts["errors"]
                      - counts["skipped"], **counts},
            "criteria_wall_s": dict(sorted(criteria.items()))}


def measure_l4(clock) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        junit = Path(tmp) / "tier1.xml"
        run_tier1(junit)
        runs = {name: [] for name in SYSTEMS}
        for _ in range(REPRODUCE_RUNS):  # whole rounds, so that a slow spell of the host spreads
            for name in SYSTEMS:
                runs[name].append(run_reproduce(name, Path(tmp) / name, clock))
        return {**read_l4(junit), "reproduce_s": {
            name: {"runs": r, "median_scaled_s": statistics.median(x["scaled_s"] for x in r)}
            for name, r in runs.items()}}


# (layer, measure, unit, seconds per work unit -> the unit's figure)
LAYERS = (("L0", measure_l0, "field_evals_per_s", lambda s: 1.0 / s),
          ("L1", measure_l1, "us_per_step", lambda s: s * 1e6),
          ("L2", measure_l2, "ms_per_10k", lambda s: s * 1e7))


def bench(repeats: int, records=()) -> dict:
    pb = _perfbench("run")
    l3 = read_l3(records) if records else None  # refuses another tree's records up front
    doc = {"machine": pb.machine(), "repeats": repeats}
    for layer, measure, unit, factor in LAYERS:
        timed = measure(repeats, pb.SpeedClock)
        doc[layer] = {unit: {k: factor(s) for k, s in timed.items()}}
    if records:
        doc["L3"] = l3
    doc["L4"] = measure_l4(pb.SpeedClock)
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
    tier1 = doc["L4"]["tier1"]
    print(f"L4 {'tier1':36s} {tier1['wall_s']:12.2f} s wall, {tier1['passed']} of "
          f"{tier1['tests']} passed")
    for k, v in doc["L4"]["criteria_wall_s"].items():
        print(f"L4 {k:52s} {v:8.2f} s wall")
    for k, v in doc["L4"]["reproduce_s"].items():
        print(f"L4 reproduce {k:42s} {v['median_scaled_s']:8.2f} s scaled, "
              f"median of {len(v['runs'])}")
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
