#!/usr/bin/env python3
"""swstab benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload envelope-motivating --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``.  With
``--trace 0`` the run times whole rounds of the workload for ``--seconds``
and prints the end-to-end metrics.  With ``--trace 1`` it times plain
rounds for a third of the time, then wraps every layer (see tracing.py) for
the rest and prints per-layer figures per operation.  Either way the
outputs of one round are checked against reference computations made apart
from swstab, every round must reproduce the first round's output digest,
and the last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  A record of the run goes to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 7
SPEED_PERIOD = 0.025  # wall seconds between samples of the machine's speed
# Wall seconds that speed_kernel() took on the reference machine (2-vCPU Xeon
# VM, Python 3.11.7, numpy 2.4.6) in its fast spells; the scale at which
# times are reported.
CAL_SECONDS = 1.5e-4


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def machine() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__}


def speed_kernel() -> float:
    """Wall seconds of a fixed kernel of small-array numpy and float arithmetic.

    The kernel shares no code with swstab, so no change to swstab moves it;
    it only measures how fast the machine runs Python numerics right now.
    """
    t0 = perf_counter()
    x = np.array([1.0, 0.0])
    a = np.array([[0.0, 1.0], [-1.0, -0.1]])
    acc = 0.0
    for k in range(60):
        x = x + 0.001 * (a @ x)
        acc += math.sin(k * 1e-3) * float(x[0])
    return perf_counter() - t0


class SpeedClock:
    """Wall time scaled to the reference machine's speed, sampled all along.

    On a shared host the same work ran at two speeds about 2 times apart,
    switching every few tenths of a second to every few minutes, so a
    calibration taken before a lap of several seconds did not tell its
    speed.  While the clock runs, a SIGALRM handler times speed_kernel()
    every SPEED_PERIOD seconds, and the wall time up to the next sample
    counts CAL_SECONDS / (kernel time) times.  The kernel's own time, about
    1% of the wall time, is left out.  A call into C that holds the
    interpreter for long delays the samples; its stretch is then scaled by
    the sample taken before it.
    """

    def __enter__(self):
        self.cal = min(speed_kernel() for _ in range(3))
        self.scaled = 0.0
        self.last = perf_counter()
        self.previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SPEED_PERIOD, SPEED_PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)

    def _sample(self, signum, frame):
        t = perf_counter()
        self.scaled += (t - self.last) * CAL_SECONDS / self.cal
        self.cal = speed_kernel()
        self.last = perf_counter()

    def now(self) -> float:
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return self.scaled + (perf_counter() - self.last) * CAL_SECONDS / self.cal
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})


def fresh_swstab():
    """Import swstab anew, so that every set-up pays the package's import cost."""
    for name in [k for k in sys.modules if k == "swstab" or k.startswith("swstab.")]:
        del sys.modules[name]
    return importlib.import_module("swstab")


def setup(workload_cls, seed: int, now):
    """Median of SETUP_REPEATS set-ups: package import, registry entries, seeded inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = now()
        sw = fresh_swstab()
        wl = workload_cls(sw, seed)
        times.append(now() - t0)
    return sw, wl, statistics.median(times), times


def run_rounds(wl, seconds: float, now):
    """Whole rounds until ``seconds`` of wall time have passed; at least one.

    A lap is the stretch from a round's start, or from a lap mark, to the
    next mark or the round's end, as ``now`` measures it.  Returns the
    rounds, per round the time of each lap, and the wall time of each round.
    """
    rounds, laps, walls = [], [], []
    start = perf_counter()
    while not rounds or perf_counter() - start < seconds:
        t0 = perf_counter()
        marks = [now()]
        rnd = wl.run_round(lambda: marks.append(now()))
        marks.append(now())
        if rounds:
            rnd.data = None  # only the first round's outputs are checked
        rounds.append(rnd)
        walls.append(perf_counter() - t0)
        laps.append([e - b for b, e in zip(marks[:-1], marks[1:])])
    return rounds, laps, walls


def median_round_s(laps) -> float:
    """Sum over lap positions of the median lap time across rounds.

    Rounds repeat the same operations, so lap i of every round does the same
    work; a stall on a shared host lengthens a few laps and drops out of the
    median instead of inflating a whole round.
    """
    if len({len(r) for r in laps}) != 1:
        raise RuntimeError("rounds differ in their number of laps")
    return sum(statistics.median(col) for col in zip(*laps))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


def layer_metrics(tracer, ops: int, overhead_s: float) -> dict:
    """Per-layer figures of the traced rounds, per operation unless stated."""
    leaf = tracer.leaves

    def calls(name):
        return leaf.get(name, [0, 0.0])[0]

    def per_call_us(name):
        c, s = leaf.get(name, [0, 0.0])
        return 1e6 * s / c if c else 0.0

    def secs(*names):
        return tracer.group_seconds(names) / ops

    nodes = sum(tracer.counts.values())
    m = {
        "systems.f_calls": (calls("systems.f") / ops, "count/op"),
        "systems.f_us": (per_call_us("systems.f"), "us/call"),
        "systems.h_calls": (calls("systems.h") / ops, "count/op"),
        "signals.gen_s": (secs("signals.generator", "signals.gen_arbitrary",
                               "signals.gen_measure_constrained", "signals.gen_pattern"),
                          "s/op"),
        "signals.validate_s": (secs("signals.validate_measure", "signals.validate_pattern",
                                    "signals.validate_covering_invariance",
                                    "signals.pattern_cover_check"), "s/op"),
        "integrate.nodes": (nodes / ops, "count/op"),
        "integrate.simulate_s": (secs("integrate.simulate"), "s/op"),
        "integrate.relaxed_s": (secs("integrate.simulate_relaxed"), "s/op"),
        "integrate.covering_s": (secs("integrate.simulate_with_covering"), "s/op"),
        "integrate.self_us_per_node": (1e6 * tracer.layer_self("integrate") / nodes
                                       if nodes else 0.0, "us/node"),
        "stability.envelope_s": (secs("stability.estimate_envelope"), "s/op"),
        "stability.self_s": (tracer.layer_self("stability") / ops, "s/op"),
        "lyapunov.decrease_s": (secs("lyapunov.check_decrease_along"), "s/op"),
        "lyapunov.integral_s": (secs("lyapunov.check_integral_bound"), "s/op"),
        "lyapunov.sandwich_s": (secs("lyapunov.check_sandwich"), "s/op"),
        "lyapunov.cert_calls": ((calls("lyapunov.V") + calls("lyapunov.eta")
                                 + calls("lyapunov.dV")) / ops, "count/op"),
        "limiting.falsify_s": (secs("limiting.wzsd_falsify"), "s/op"),
        "limiting.Fhat_calls": (calls("limiting.Fhat") / ops, "count/op"),
        "limiting.Fhat_us": (per_call_us("limiting.Fhat"), "us/call"),
        "limiting.Hhat_calls": (calls("limiting.Hhat") / ops, "count/op"),
        "limiting.constraint_checks": (tracer.calls("limiting.check_control_constraint") / ops,
                                       "count/op"),
        "limiting.self_s": (tracer.layer_self("limiting") / ops, "s/op"),
        "trace.overhead_s": (overhead_s, "s/op"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def traced_run(cls, sw, wl, args):
    """Plain rounds for a third of the time, then traced rounds for the rest.

    Both parts take unscaled wall time: speed samples would run inside
    traced calls and add to their spans.
    """
    from tracing import Tracer
    plain, plain_laps, plain_walls = run_rounds(wl, args.seconds / 3, perf_counter)
    tracer = Tracer()
    tracer.install(sw)
    try:
        traced_wl = cls(sw, args.seed, wrap=tracer.wrap_entry)
        tracer.reset()
        traced, traced_laps, traced_walls = run_rounds(
            traced_wl, args.seconds - sum(plain_walls), perf_counter)
    finally:
        tracer.uninstall()
    overhead = (median_round_s(traced_laps) - median_round_s(plain_laps)) / plain[0].ops
    metrics = layer_metrics(tracer, sum(r.ops for r in traced), overhead)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans_{args.workload}_seed{args.seed}.json", "w") as fh:
        json.dump(tracer.dump(), fh)
    return plain + traced, plain_laps + traced_laps, plain_walls + traced_walls, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "swstab" / "__init__.py").is_file():
        print(f"swstab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine()}
    if args.trace:
        sw, wl, _, record["setup_times_s"] = setup(cls, args.seed, perf_counter)
        rounds, laps, walls, metrics = traced_run(cls, sw, wl, args)
    else:
        with SpeedClock() as clock:
            sw, wl, setup_s, record["setup_times_s"] = setup(cls, args.seed, clock.now)
            cpu0, wall0 = process_time(), perf_counter()
            rounds, laps, walls = run_rounds(wl, args.seconds, clock.now)
            # above 1 when work ran on several threads; below 1 when the
            # host ran someone else or the work waited
            record["cpu_per_wall"] = (process_time() - cpu0) / (perf_counter() - wall0)
        rss = peak_rss_mb()
        metrics = {"setup_s": {"value": setup_s, "unit": "s"},
                   "ops_per_s": {"value": rounds[0].ops / median_round_s(laps), "unit": "op/s"},
                   "peak_rss_mb": {"value": rss, "unit": "MB"}}

    problems = wl.check(rounds[0])
    digests = sorted({r.digest for r in rounds})
    if len(digests) > 1:
        problems.append(f"rounds disagree: output digests {digests}")
    attempted = sum(r.ops for r in rounds)
    failed = sum(r.failed for r in rounds)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record.update({"rounds": len(rounds), "round_walls_s": walls, "laps_s": laps,
                   "digest": rounds[0].digest,
                   "problems": problems, **result})
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}_seed{args.seed}_trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    m = record["machine"]
    print(f"machine: {m['nproc']} CPUs, {m['cpu']}, Python {m['python']}, numpy {m['numpy']}")
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{attempted} ops, {failed} failed, digest {rounds[0].digest}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    for k, v in metrics.items():
        print(f"  {k} = {v['value']:.6g} {v['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
