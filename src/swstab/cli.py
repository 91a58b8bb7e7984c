"""Experiment runner: simulate, certify, envelope, falsify, reproduce.

One JSON manifest drives everything; all defaults are materialized into the
output bundle so a run can be replayed from the bundle alone.  Exit codes:
0 = pass, 1 = analysis fail, 2 = input error, 3 = runtime blow-up.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from copy import deepcopy
from functools import lru_cache

import numpy as np

from .core import BlowUpError, ParameterError, SwstabError, SwitchedSystem, SwitchingSignal
from .integrate import IntegratorConfig, simulate, simulate_with_covering
from .lyapunov import IntegralBoundParams, check_decrease_along, check_integral_bound, check_sandwich
from .limiting import wzsd_falsify
from .signals import signal_to_csv
from .stability import StabilityEnvelope, _run_trial, _trial_seed, classify
from .systems import get_entry, make_driver

EXIT_PASS = 0
EXIT_ANALYSIS_FAIL = 1
EXIT_INPUT_ERROR = 2
EXIT_BLOWUP = 3

DEFAULT_MANIFEST = {
    "system": {"id": "motivating", "params": {}},
    "flip_dynamics": False,
    "signal": {"granularity": 1e-4},
    "integrator": {"step": 1e-3, "event_bisection_tol": 1e-11},
    "simulate": {"t0": 0.0, "x0": None, "horizon": 20.0},
    "certify": {"trials": 20, "horizon": 20.0, "box": 2.0, "density": 7,
                "step": 2e-3},
    "envelope": {"radii": [0.5, 1.0, 2.0], "horizon": 200.0, "trials": 200,
                 "tau_count": 21, "decay_ratio": 0.05, "tail_fraction": 0.2,
                 "uniform_bound": 3.0, "offset_max": 10.0, "step": 1e-2},
    "falsify": {"eps": 0.5, "horizon": 5.0, "residual_tol": 1e-8,
                "budget": 10_000, "du": 0.05, "use_constraints": True},
    "seed": 0,
    "out": "swstab_out",
}


def _deep_merge(base: dict, override: dict) -> dict:
    out = deepcopy(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _deep_merge(out[k], v)
        else:
            out[k] = v
    return out


def _flip_system(sys: SwitchedSystem) -> SwitchedSystem:
    """Negated-dynamics wrapper; a self-test hook for the certification path."""
    return SwitchedSystem(
        n=sys.n, N=sys.N,
        f=lambda t, x, i: -sys.f(t, x, i),
        h=sys.h, p=sys.p,
        fhat=None if sys.fhat is None else (lambda t, x, i: -sys.fhat(t, x, i)),
        dferr=None if sys.dferr is None else (lambda t, x, i: -sys.dferr(t, x, i)),
        time_invariant_limits=sys.time_invariant_limits,
        name=sys.name + "-flipped")


def _load_manifest(path: str | None, overrides: dict) -> dict:
    doc = {}
    if path is not None:
        with open(path) as fh:
            doc = json.load(fh)
    doc = _deep_merge(DEFAULT_MANIFEST, doc)
    for k, v in overrides.items():
        if v is not None:
            doc[k] = v
    return doc


def _build(manifest: dict):
    entry = get_entry(manifest["system"]["id"], **manifest["system"].get("params", {}))
    system = entry.system
    if manifest.get("flip_dynamics"):
        system = _flip_system(system)
    cfg = IntegratorConfig(step=manifest["integrator"]["step"],
                           event_bisection_tol=manifest["integrator"]["event_bisection_tol"])
    return entry, system, cfg


def _outdir(manifest: dict) -> str:
    out = manifest["out"]
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "resolved_manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2)
    return out


def _class_generator(entry, manifest):
    gran = manifest["signal"].get("granularity", 1e-4)
    gen = entry.signal_class.generator
    if gen is None:
        return None
    return lambda span, seed: gen(span, seed, granularity=gran)


def _default_x0(entry, manifest) -> np.ndarray:
    x0 = manifest["simulate"].get("x0")
    if x0 is not None:
        return np.asarray(x0, dtype=float)
    v = np.zeros(entry.system.n)
    v[0] = 1.0
    return v


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_simulate(manifest: dict) -> int:
    entry, system, cfg = _build(manifest)
    out = _outdir(manifest)
    t0 = float(manifest["simulate"]["t0"])
    horizon = float(manifest["simulate"]["horizon"])
    x0 = _default_x0(entry, manifest)
    seed = int(manifest["seed"])
    tf = t0 + horizon
    try:
        if entry.signal_class.kind == "policy":
            if horizon == 0.0:
                from .core import active_index_set
                mode = entry.policy(t0, x0, active_index_set(x0, entry.covering, tol=1e-9))
                sigma = SwitchingSignal.constant(mode, t0, t0 + 1.0)
                traj = simulate(system, sigma, t0, x0, t0, cfg)
            else:
                traj, sigma = simulate_with_covering(system, entry.covering, entry.policy,
                                                     t0, x0, tf, cfg)
        else:
            gen = _class_generator(entry, manifest)
            sigma = (gen((t0, tf), seed) if horizon > 0
                     else SwitchingSignal.constant(1, t0, t0 + 1.0))
            traj = simulate(system, sigma, t0, x0, tf, cfg)
    except BlowUpError as err:
        if err.trajectory is not None:
            err.trajectory.to_csv(os.path.join(out, "trajectory_partial.csv"))
        print(f"blow-up at t={err.time}", file=sys.stderr)
        return EXIT_BLOWUP
    traj.to_csv(os.path.join(out, "trajectory.csv"))
    signal_to_csv(sigma, os.path.join(out, "signal.csv"),
                  os.path.join(out, "signal.json"), params=entry.signal_class.params)
    print(f"wrote trajectory.csv ({len(traj.times)} rows) and signal.csv to {out}")
    return EXIT_PASS


def cmd_certify(manifest: dict) -> int:
    entry, system, cfg = _build(manifest)
    out = _outdir(manifest)
    ccfg = manifest["certify"]
    trials = int(ccfg["trials"])
    if trials < 1:
        print("certify needs at least one trial", file=sys.stderr)
        return EXIT_INPUT_ERROR
    horizon = float(ccfg["horizon"])
    box = float(ccfg["box"])
    step = float(ccfg.get("step", cfg.step))
    run_cfg = IntegratorConfig(step=step, event_bisection_tol=cfg.event_bisection_tol)
    seed = int(manifest["seed"])
    rng = np.random.default_rng(seed)
    gen = _class_generator(entry, manifest)

    reports = {"sandwich": None, "trials": [], "pass": True}
    sw = check_sandwich(entry.certificate, -box * np.ones(system.n),
                        box * np.ones(system.n), entry.covering,
                        density=int(ccfg["density"]))
    reports["sandwich"] = sw.to_dict()
    reports["pass"] = sw.passed
    # the revisit inequality is gated only for open-loop classes: the
    # chattering approximation of boundary sliding in closed-loop runs
    # produces sawtooth artifacts the exact family does not have
    gate_revisit = entry.signal_class.kind != "policy"
    for k in range(trials):
        x0 = rng.uniform(-box, box, size=system.n)
        t0 = float(rng.uniform(0.0, 5.0))
        tf = t0 + horizon
        try:
            if entry.signal_class.kind == "policy":
                traj, sigma = simulate_with_covering(system, entry.covering, entry.policy,
                                                     t0, x0, tf, run_cfg)
            else:
                sigma = gen((t0, tf), int(rng.integers(0, 2**62)))
                traj = simulate(system, sigma, t0, x0, tf, run_cfg)
        except BlowUpError:
            reports["trials"].append({"trial": k, "blow_up": True})
            reports["pass"] = False
            continue
        dec = check_decrease_along(entry.certificate, traj, sigma)
        ib = check_integral_bound(traj, sigma, system,
                                  IntegralBoundParams(alpha=entry.alpha,
                                                      M=entry.integral_M(x0), mu=0.0))
        ok = dec.slope.passed and ib.passed and (dec.revisit.passed or not gate_revisit)
        reports["trials"].append({"trial": k, "decrease": dec.to_dict(),
                                  "integral": ib.to_dict(), "pass": ok})
        reports["pass"] = reports["pass"] and ok
    with open(os.path.join(out, "certify_report.json"), "w") as fh:
        json.dump(reports, fh, indent=2)
    print(f"certify: {'PASS' if reports['pass'] else 'FAIL'} ({trials} trials)")
    return EXIT_PASS if reports["pass"] else EXIT_ANALYSIS_FAIL


# -- envelope (optionally parallel) -----------------------------------------


@lru_cache(maxsize=4)
def _worker_entry(manifest_json: str):
    manifest = json.loads(manifest_json)
    entry, system, _ = _build(manifest)
    ecfg = manifest["envelope"]
    run_cfg = IntegratorConfig(step=float(ecfg.get("step", 1e-2)),
                               event_bisection_tol=manifest["integrator"]["event_bisection_tol"])
    constant_mode = ecfg.get("constant_mode")
    if constant_mode is not None:
        # negative-control hook: drive with a constant mode instead of the class
        def driver(t0, x0, tf, seed):
            sigma = SwitchingSignal.constant(int(constant_mode), t0, tf)
            return simulate(system, sigma, t0, x0, tf, run_cfg)
    elif entry.signal_class.kind == "policy":
        driver = make_driver(entry, run_cfg)
    else:
        gen = _class_generator(entry, manifest)

        def driver(t0, x0, tf, seed):
            sigma = gen((t0, tf), seed)
            return simulate(system, sigma, t0, x0, tf, run_cfg)
    return entry, driver


def _envelope_task(args):
    manifest_json, b, lo, hi, trial = args
    manifest = json.loads(manifest_json)
    entry, driver = _worker_entry(manifest_json)
    ecfg = manifest["envelope"]
    tau_grid = np.linspace(0.0, float(ecfg["horizon"]), int(ecfg["tau_count"]))
    rng = _trial_seed(int(manifest["seed"]), b, trial)
    vals, t0 = _run_trial(entry.system.n, driver, lo, hi, float(ecfg["horizon"]),
                          tau_grid, (0.0, float(ecfg["offset_max"])), rng)
    return b, vals, t0


def run_envelope(manifest: dict, workers: int = 1) -> tuple[StabilityEnvelope, object]:
    ecfg = manifest["envelope"]
    radii = np.asarray(sorted(ecfg["radii"]), dtype=float)
    trials = int(ecfg["trials"])
    tau_grid = np.linspace(0.0, float(ecfg["horizon"]), int(ecfg["tau_count"]))
    manifest_json = json.dumps(manifest, sort_keys=True)
    tasks = []
    for b, hi in enumerate(radii):
        lo = 0.0 if b == 0 else float(radii[b - 1])
        tasks.extend((manifest_json, b, lo, hi, k) for k in range(trials))
    table = np.zeros((len(radii), len(tau_grid)))
    offsets = []
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_envelope_task, tasks, chunksize=16))
    else:
        results = map(_envelope_task, tasks)
    for b, vals, t0 in results:  # task order, whatever the worker count
        np.maximum(table[b], vals, out=table[b])
        offsets.append(t0)
    env = StabilityEnvelope(radius_bins=radii, tau_grid=tau_grid, beta_table=table,
                            trials_per_cell=trials,
                            meta={"master_seed": int(manifest["seed"]),
                                  "horizon": float(ecfg["horizon"]),
                                  "offset_max": float(ecfg["offset_max"]),
                                  "offset_min": 0.0, "offsets": offsets})
    verdict = classify(env, decay_ratio=float(ecfg["decay_ratio"]),
                       tail_fraction=float(ecfg["tail_fraction"]),
                       uniform_bound=float(ecfg["uniform_bound"]))
    return env, verdict


def cmd_envelope(manifest: dict, workers: int = 1) -> int:
    out = _outdir(manifest)
    env, verdict = run_envelope(manifest, workers=workers)
    env.to_csv(os.path.join(out, "envelope.csv"))
    with open(os.path.join(out, "envelope_verdict.json"), "w") as fh:
        fh.write(verdict.to_json())
    print(f"envelope verdict: {verdict.verdict}")
    return EXIT_PASS if verdict.verdict == "GUAS-consistent" else EXIT_ANALYSIS_FAIL


def cmd_falsify(manifest: dict) -> int:
    entry, _system, _cfg = _build(manifest)
    out = _outdir(manifest)
    fcfg = manifest["falsify"]
    rls = entry.reduced
    if not fcfg.get("use_constraints", True):
        from dataclasses import replace
        rls = replace(rls, constraints=())
    verdict = wzsd_falsify(rls, eps=float(fcfg["eps"]), horizon=float(fcfg["horizon"]),
                           residual_tol=float(fcfg["residual_tol"]),
                           budget=int(fcfg["budget"]), seed=int(manifest["seed"]),
                           du=float(fcfg["du"]))
    doc = verdict.to_dict()
    if verdict.counterexample is not None:
        cx_path = os.path.join(out, "counterexample.csv")
        verdict.counterexample.trajectory.to_csv(cx_path)
        doc["counterexample_file"] = cx_path
    with open(os.path.join(out, "falsify_verdict.json"), "w") as fh:
        json.dump(doc, fh, indent=2)
    print(f"falsifier verdict: {verdict.verdict} (budget used {verdict.budget_used})")
    return EXIT_PASS if verdict.verdict == "no_counterexample_found" else EXIT_ANALYSIS_FAIL


REPRODUCE_DEFAULTS = {
    "motivating": {"envelope": {"radii": [0.5, 1.0, 2.0], "horizon": 120.0, "trials": 60},
                   "falsify": {"eps": 0.5, "horizon": 5.0, "budget": 2000}},
    "inverter": {"envelope": {"radii": [0.5, 1.0, 2.0], "horizon": 150.0, "trials": 60},
                 "falsify": {"eps": 0.5, "horizon": 12.0, "budget": 1500}},
    "example1": {"envelope": {"radii": [0.5, 1.0, 2.0], "horizon": 100.0, "trials": 60},
                 "falsify": None},
    "example4": {"envelope": {"radii": [0.5, 1.0, 2.0], "horizon": 80.0, "trials": 60},
                 "falsify": None},
}


def cmd_reproduce(example_id: str, manifest: dict, workers: int = 1,
                  env_overrides: dict | None = None) -> int:
    if example_id not in REPRODUCE_DEFAULTS:
        print(f"unknown example {example_id!r}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    plan = REPRODUCE_DEFAULTS[example_id]
    manifest = _deep_merge(manifest, {"system": {"id": example_id},
                                      "envelope": plan["envelope"]})
    if env_overrides:
        manifest = _deep_merge(manifest, {"envelope": env_overrides})
    out = _outdir(manifest)
    entry, _, _ = _build(manifest)
    lines = [f"reproduction report: {example_id}"]
    rc_env = cmd_envelope(manifest, workers=workers)
    with open(os.path.join(out, "envelope_verdict.json")) as fh:
        verdict = json.load(fh)["verdict"]
    lines.append(f"envelope verdict: {verdict} (expected {entry.expected_verdict})")
    ok = verdict == entry.expected_verdict
    if plan["falsify"] is not None:
        manifest_f = _deep_merge(manifest, {"falsify": plan["falsify"]})
        rc_f = cmd_falsify(manifest_f)
        lines.append(f"falsifier: {'no counterexample' if rc_f == EXIT_PASS else 'counterexample found'}")
        ok = ok and rc_f == EXIT_PASS
    lines.append(f"result: {'PASS' if ok else 'FAIL'}")
    with open(os.path.join(out, "summary.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    return EXIT_PASS if ok else EXIT_ANALYSIS_FAIL


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="swstab",
                                description="switched-system stability toolkit")
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("simulate", "certify", "envelope", "falsify"):
        sp = sub.add_parser(name)
        sp.add_argument("--manifest", type=str, default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", type=str, default=None)
        sp.add_argument("--workers", type=int, default=max(1, min(4, os.cpu_count() or 1)))
    rp = sub.add_parser("reproduce")
    rp.add_argument("example_id", type=str)
    rp.add_argument("--manifest", type=str, default=None)
    rp.add_argument("--seed", type=int, default=None)
    rp.add_argument("--out", type=str, default=None)
    rp.add_argument("--workers", type=int, default=max(1, min(4, os.cpu_count() or 1)))
    rp.add_argument("--trials", type=int, default=None)
    rp.add_argument("--horizon", type=float, default=None)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        manifest = _load_manifest(args.manifest, {"seed": args.seed, "out": args.out})
        if args.command == "reproduce":
            env_overrides = {}
            if args.trials is not None:
                env_overrides["trials"] = args.trials
            if args.horizon is not None:
                env_overrides["horizon"] = args.horizon
            return cmd_reproduce(args.example_id, manifest, workers=args.workers,
                                 env_overrides=env_overrides)
        if args.command == "simulate":
            return cmd_simulate(manifest)
        if args.command == "certify":
            return cmd_certify(manifest)
        if args.command == "envelope":
            return cmd_envelope(manifest, workers=args.workers)
        if args.command == "falsify":
            return cmd_falsify(manifest)
    except BlowUpError as err:
        print(f"blow-up at t={err.time}", file=sys.stderr)
        return EXIT_BLOWUP
    except (ParameterError, KeyError, FileNotFoundError, json.JSONDecodeError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except SwstabError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ANALYSIS_FAIL
    return EXIT_INPUT_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
