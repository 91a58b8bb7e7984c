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
from copy import deepcopy
from dataclasses import replace
from functools import lru_cache, partial

import numpy as np

from .core import (BOUNDARY_TOL, BlowUpError, ParameterError, SwstabError, SwitchedSystem,
                   SwitchingSignal, active_index_set)
from .integrate import IntegratorConfig, _switched_outputs, simulate
from .lyapunov import IntegralBoundParams, check_decrease_along, check_integral_bound, check_sandwich
from .limiting import build_reduced, wzsd_falsify
from .signals import signal_to_csv
from .stability import StabilityEnvelope, classify, estimate_envelope
from .systems import SignalClass, _signal_driver, get_entry, make_driver

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
    """Negated-dynamics wrapper (elementwise, as a field may return any sequence of
    floats); a self-test hook for the certification path."""
    def neg(field):
        return None if field is None else (lambda t, x, i: [-v for v in field(t, x, i)])

    return SwitchedSystem(n=sys.n, N=sys.N, f=neg(sys.f), h=sys.h, p=sys.p,
                          fhat=neg(sys.fhat), name=sys.name + "-flipped")


_floats = partial(np.array, dtype=float, ndmin=1)  # the ``kind`` of a list field


def _number(manifest: dict, path: str, kind=float):
    """The manifest field at a dotted path such as ``"simulate.horizon"``, read as
    ``kind``; ParameterError naming the field unless it holds finite numbers."""
    value = manifest
    try:
        for key in path.split("."):
            value = value[key]
        number = kind(value)
        if np.isfinite(np.asarray(number, dtype=float)).all():
            return number
    except (KeyError, IndexError, TypeError, ValueError, OverflowError):
        pass
    raise ParameterError(f"manifest field {path} must hold finite numbers, got {value!r}")


def _positive(manifest: dict, path: str, kind=float):
    """``_number`` of a field whose numbers must also be positive (an int: at least 1)."""
    number = _number(manifest, path, kind)
    if not np.all(np.asarray(number) > 0):
        raise ParameterError(f"manifest field {path} must be positive")
    return number


def _fraction(manifest: dict, path: str) -> float:
    """``_number`` of a field that must lie strictly between 0 and 1."""
    number = _number(manifest, path)
    if not 0 < number < 1:
        raise ParameterError(f"manifest field {path} must lie in (0, 1)")
    return number


def _check_sections(doc: dict, default: dict, prefix: str = "") -> None:
    """ParameterError naming the first section of ``doc`` that is not an object
    where ``default`` has one, such as ``"system": "x"``."""
    for key, value in default.items():
        if isinstance(value, dict):
            if not isinstance(doc[key], dict):
                raise ParameterError(f"manifest section {prefix}{key} must be an object, "
                                     f"got {doc[key]!r}")
            _check_sections(doc[key], value, f"{prefix}{key}.")


def _load_manifest(path: str | None, overrides: dict) -> dict:
    doc = {}
    if path is not None:
        with open(path) as fh:
            doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ParameterError(f"manifest must be an object, got {doc!r}")
    doc = _deep_merge(DEFAULT_MANIFEST, doc)
    for k, v in overrides.items():
        if v is not None:
            doc[k] = v
    _check_sections(doc, DEFAULT_MANIFEST)
    if not isinstance(doc["out"], str):
        raise ParameterError(f"manifest field out must be a path, got {doc['out']!r}")
    return doc


def _build(manifest: dict):
    """Registry entry of a manifest.

    Under ``flip_dynamics`` the entry's system and its reduced system are
    already flipped, and its class generator has the manifest's signal
    granularity bound.
    """
    entry = get_entry(manifest["system"]["id"], **manifest["system"].get("params", {}))
    klass = entry.signal_class
    if klass.generator is not None:
        granularity = _positive(manifest, "signal.granularity")
        klass = replace(klass, generator=partial(klass.generator, granularity=granularity))
    entry = replace(entry, signal_class=klass)
    if manifest.get("flip_dynamics"):
        system = _flip_system(entry.system)
        entry = replace(entry, system=system, reduced=build_reduced(
            system, entry.covering, entry.reduced.constraints))
    return entry


def _integrator(manifest: dict, step_path: str) -> IntegratorConfig:
    """Integrator settings with the step at ``step_path``; ParameterError naming
    both fields unless 0 < integrator.event_bisection_tol < step."""
    step = _positive(manifest, step_path)
    tol = _number(manifest, "integrator.event_bisection_tol")
    if not 0 < tol < step:
        raise ParameterError(f"manifest fields integrator.event_bisection_tol ({tol!r}) and "
                             f"{step_path} ({step!r}) must satisfy 0 < tolerance < step")
    return IntegratorConfig(step=step, event_bisection_tol=tol)


def _outdir(manifest: dict) -> str:
    """Create the output directory with its resolved manifest.  Commands read and
    check every manifest field before calling this, so bad input leaves no files."""
    out = manifest["out"]
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "resolved_manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2)
    return out


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_simulate(manifest: dict) -> int:
    entry, cfg = _build(manifest), _integrator(manifest, "integrator.step")
    num = partial(_number, manifest)
    t0, horizon, seed = num("simulate.t0"), num("simulate.horizon"), num("seed", int)
    x0 = (num("simulate.x0", _floats) if manifest["simulate"].get("x0") is not None
          else np.eye(entry.system.n)[0])
    if x0.shape != (entry.system.n,):
        raise ParameterError(f"manifest field simulate.x0 must hold {entry.system.n} numbers")
    if horizon < 0:
        raise ParameterError("manifest field simulate.horizon must not be negative")
    out = _outdir(manifest)
    try:
        if horizon > 0:
            traj, sigma = _signal_driver(entry, cfg)(t0, x0, t0 + horizon, seed)
        else:
            # the start node alone, under the mode the class would start in
            mode = (entry.policy(t0, x0, active_index_set(x0, entry.covering, tol=BOUNDARY_TOL))
                    if entry.signal_class.kind == "policy" else 1)
            sigma = SwitchingSignal.constant(mode, t0, t0 + 1.0)
            traj = simulate(entry.system, sigma, t0, x0, t0, cfg)
    except BlowUpError as err:
        if err.trajectory is not None:
            err.trajectory.to_csv(os.path.join(out, "trajectory_partial.csv"))
        print(f"blow-up at t={err.time}", file=sys.stderr)
        return EXIT_BLOWUP
    traj = replace(traj, outputs=_switched_outputs(entry.system, traj))
    traj.to_csv(os.path.join(out, "trajectory.csv"))
    signal_to_csv(sigma, os.path.join(out, "signal.csv"),
                  os.path.join(out, "signal.json"), params=entry.signal_class.params)
    print(f"wrote trajectory.csv ({len(traj.times)} rows) and signal.csv to {out}")
    return EXIT_PASS


def cmd_certify(manifest: dict) -> int:
    entry = _build(manifest)
    num, pos = partial(_number, manifest), partial(_positive, manifest)
    trials, horizon, box = pos("certify.trials", int), pos("certify.horizon"), pos("certify.box")
    density = num("certify.density", int)
    if density < 2:
        raise ParameterError("manifest field certify.density must be at least 2")
    run_cfg = _integrator(manifest, "certify.step")
    seed = num("seed", int)
    out = _outdir(manifest)
    rng = np.random.default_rng(seed)
    drive = _signal_driver(entry, run_cfg)

    reports = {"sandwich": None, "trials": [], "pass": True}
    sw = check_sandwich(entry.certificate, -box * np.ones(entry.system.n),
                        box * np.ones(entry.system.n), entry.covering, density=density)
    reports["sandwich"] = sw.to_dict()
    reports["pass"] = sw.passed
    # the revisit inequality is gated only for open-loop classes: the
    # chattering approximation of boundary sliding in closed-loop runs
    # produces sawtooth artifacts the exact family does not have
    open_loop = entry.signal_class.kind != "policy"
    for k in range(trials):
        x0 = rng.uniform(-box, box, size=entry.system.n)
        t0 = float(rng.uniform(0.0, 5.0))
        # only open-loop trials draw a signal seed: a policy takes none
        seed_k = int(rng.integers(0, 2**62)) if open_loop else None
        try:
            traj, sigma = drive(t0, x0, t0 + horizon, seed_k)
        except BlowUpError:
            reports["trials"].append({"trial": k, "blow_up": True})
            reports["pass"] = False
            continue
        dec = check_decrease_along(entry.certificate, traj, sigma)
        ib = check_integral_bound(traj, sigma, entry.system,
                                  IntegralBoundParams(alpha=entry.alpha,
                                                      M=entry.integral_M(x0), mu=0.0))
        ok = dec.slope.passed and ib.passed and (dec.revisit.passed or not open_loop)
        reports["trials"].append({"trial": k, "decrease": dec.to_dict(),
                                  "integral": ib.to_dict(), "pass": ok})
        reports["pass"] = reports["pass"] and ok
    with open(os.path.join(out, "certify_report.json"), "w") as fh:
        json.dump(reports, fh, indent=2)
    print(f"certify: {'PASS' if reports['pass'] else 'FAIL'} ({trials} trials)")
    return EXIT_PASS if reports["pass"] else EXIT_ANALYSIS_FAIL


# -- envelope (optionally parallel) -----------------------------------------


@lru_cache(maxsize=4)
def _envelope_driver(manifest_json: str):
    """The envelope's trajectory factory, built once per process and manifest."""
    manifest = json.loads(manifest_json)
    entry = _build(manifest)
    run_cfg = _integrator(manifest, "envelope.step")
    if manifest["envelope"].get("constant_mode") is not None:
        # negative-control hook: an open-loop class holding one constant signal
        mode = _number(manifest, "envelope.constant_mode", int)
        entry = replace(entry, signal_class=SignalClass("arbitrary", {}, lambda span, seed:
                        SwitchingSignal.constant(mode, *span)))
    return make_driver(entry, run_cfg)


def _drive(manifest_json: str, t0, x0, tf, seed):
    return _envelope_driver(manifest_json)(t0, x0, tf, seed)


def run_envelope(manifest: dict, workers: int = 1) -> tuple[StabilityEnvelope, object]:
    entry = _build(manifest)
    num, pos = partial(_number, manifest), partial(_positive, manifest)
    horizon, radii = pos("envelope.horizon"), pos("envelope.radii", _floats)
    trials, tau_count = pos("envelope.trials", int), pos("envelope.tau_count", int)
    offset_max = num("envelope.offset_max")
    if offset_max < 0:
        raise ParameterError("manifest field envelope.offset_max must not be negative")
    judge = partial(classify, decay_ratio=_fraction(manifest, "envelope.decay_ratio"),
                    tail_fraction=_fraction(manifest, "envelope.tail_fraction"),
                    uniform_bound=pos("envelope.uniform_bound"))
    manifest_json = json.dumps(manifest, sort_keys=True)
    _envelope_driver(manifest_json)  # reads and checks the driver's fields before any trial
    env = estimate_envelope(entry.system.n, partial(_drive, manifest_json),
                            radii=radii, horizon=horizon, trials=trials,
                            tau_count=tau_count, master_seed=num("seed", int),
                            offset_max=offset_max, workers=workers)
    return env, judge(env)


def _write_envelope(manifest: dict, env: StabilityEnvelope, verdict) -> int:
    out = _outdir(manifest)
    env.to_csv(os.path.join(out, "envelope.csv"))
    with open(os.path.join(out, "envelope_verdict.json"), "w") as fh:
        fh.write(verdict.to_json())
    print(f"envelope verdict: {verdict.verdict}")
    return EXIT_PASS if verdict.verdict == "GUAS-consistent" else EXIT_ANALYSIS_FAIL


def cmd_envelope(manifest: dict, workers: int = 1) -> int:
    return _write_envelope(manifest, *run_envelope(manifest, workers=workers))


def _falsifier(manifest: dict):
    """``wzsd_falsify`` bound to the manifest's reduced system and settings."""
    entry = _build(manifest)
    rls = entry.reduced
    if not manifest["falsify"].get("use_constraints", True):
        rls = replace(rls, constraints=())
    num, pos = partial(_number, manifest), partial(_positive, manifest)
    residual_tol = num("falsify.residual_tol")
    if residual_tol < 0:
        raise ParameterError("manifest field falsify.residual_tol must not be negative")
    return partial(wzsd_falsify, rls, eps=pos("falsify.eps"), horizon=pos("falsify.horizon"),
                   residual_tol=residual_tol,
                   budget=pos("falsify.budget", int), seed=num("seed", int),
                   du=pos("falsify.du"))


def _write_falsify(manifest: dict, verdict) -> int:
    out = _outdir(manifest)
    doc = verdict.to_dict()
    if verdict.counterexample is not None:
        cx_path = os.path.join(out, "counterexample.csv")
        verdict.counterexample.trajectory.to_csv(cx_path)
        doc["counterexample_file"] = cx_path
    with open(os.path.join(out, "falsify_verdict.json"), "w") as fh:
        json.dump(doc, fh, indent=2)
    print(f"falsifier verdict: {verdict.verdict} (budget used {verdict.budget_used})")
    return EXIT_PASS if verdict.verdict == "no_counterexample_found" else EXIT_ANALYSIS_FAIL


def cmd_falsify(manifest: dict) -> int:
    return _write_falsify(manifest, _falsifier(manifest)())


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
    if plan["falsify"] is not None:
        manifest_f = _deep_merge(manifest, {"falsify": plan["falsify"]})
        falsify = _falsifier(manifest_f)
    # both analyses run before either writes, so bad input leaves no files
    env, env_verdict = run_envelope(manifest, workers=workers)
    if plan["falsify"] is not None:
        falsified = falsify()
    lines = [f"reproduction report: {example_id}"]
    _write_envelope(manifest, env, env_verdict)
    lines.append(f"envelope verdict: {env_verdict.verdict} (expected GUAS-consistent)")
    ok = env_verdict.verdict == "GUAS-consistent"
    if plan["falsify"] is not None:
        rc_f = _write_falsify(manifest_f, falsified)
        lines.append(f"falsifier: {'no counterexample' if rc_f == EXIT_PASS else 'counterexample found'}")
        ok = ok and rc_f == EXIT_PASS
    lines.append(f"result: {'PASS' if ok else 'FAIL'}")
    with open(os.path.join(manifest["out"], "summary.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    return EXIT_PASS if ok else EXIT_ANALYSIS_FAIL


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--manifest", type=str, default=None)
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--out", type=str, default=None)
    common.add_argument("--workers", type=_positive_int,
                        default=max(1, min(4, os.cpu_count() or 1)))
    p = argparse.ArgumentParser(prog="swstab",
                                description="switched-system stability toolkit")
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("simulate", "certify", "envelope", "falsify"):
        sub.add_parser(name, parents=[common])
    rp = sub.add_parser("reproduce", parents=[common])
    rp.add_argument("example_id", type=str)
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
    except (ParameterError, FileNotFoundError, json.JSONDecodeError) as err:
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
