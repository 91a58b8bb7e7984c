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

from .core import (BlowUpError, ParameterError, SwstabError, SwitchedSystem,
                   SwitchingSignal, active_index_set)
from .integrate import IntegratorConfig, _switched_outputs, simulate
from .lyapunov import IntegralBoundParams, check_decrease_along, check_integral_bound, check_sandwich
from .limiting import build_reduced, wzsd_falsify
from .signals import signal_to_csv
from .stability import StabilityEnvelope, classify, estimate_envelope
from .systems import REGISTRY, SignalClass, _signal_driver, get_entry, is_finite_number, make_driver

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


_POSITIVE = (lambda v: v > 0, "be positive")
_NOT_NEGATIVE = (lambda v: v >= 0, "not be negative")
_FRACTION = (lambda v: 0 < v < 1, "lie in (0, 1)")
# the range of each numeric field, tested on every number a list field holds
_RANGES = {
    "signal.granularity": _POSITIVE, "integrator.step": _POSITIVE,
    "simulate.horizon": _NOT_NEGATIVE,
    "certify.trials": _POSITIVE, "certify.horizon": _POSITIVE, "certify.box": _POSITIVE,
    "certify.density": (lambda v: v >= 2, "be at least 2"), "certify.step": _POSITIVE,
    "envelope.radii": _POSITIVE, "envelope.horizon": _POSITIVE, "envelope.trials": _POSITIVE,
    "envelope.tau_count": _POSITIVE, "envelope.decay_ratio": _FRACTION,
    "envelope.tail_fraction": _FRACTION, "envelope.uniform_bound": _POSITIVE,
    "envelope.offset_max": _NOT_NEGATIVE, "envelope.step": _POSITIVE,
    "falsify.eps": _POSITIVE, "falsify.horizon": _POSITIVE,
    "falsify.residual_tol": _NOT_NEGATIVE, "falsify.budget": _POSITIVE, "falsify.du": _POSITIVE,
    "seed": _NOT_NEGATIVE,
}
_LIST = "a nonempty list of finite numbers"
_KINDS = {bool: "true or false", str: "a string", int: "an integer", float: "a finite number",
          list: _LIST, type(None): "null or " + _LIST}


def _check(doc: dict, default: dict, prefix: str = "") -> None:
    """Check every section and field of ``doc`` against the kind of its value in
    ``default`` and against ``_RANGES``, storing each number as its default's type
    (an int field as an int, a float field as a float); ParameterError naming the
    first bad section or field.  A name ``default`` lacks is bad too, but for the
    registry's ``system.params`` and the optional ``envelope.constant_mode``."""
    extra = [k for k in doc if k not in default and prefix + k != "envelope.constant_mode"]
    if extra and prefix != "system.params.":
        raise ParameterError(f"manifest field {prefix}{extra[0]} must be one of {sorted(default)}")
    for key, want in default.items():
        path, value = prefix + key, doc[key]
        if isinstance(want, dict):
            if not isinstance(value, dict):
                raise ParameterError(f"manifest section {path} must be an object, "
                                     f"got {value!r}")
            _check(value, want, path + ".")
            continue
        kind = type(want)
        if kind in (bool, str):
            ok = type(value) is kind
        elif kind in (int, float):
            ok = is_finite_number(value) and (kind is float or value == int(value))
            if ok:
                value = kind(value)
        else:  # radii, a list of numbers, or x0, which may also be null
            ok = value is None and want is None or (
                isinstance(value, list) and value != [] and all(map(is_finite_number, value)))
            if ok and value is not None:
                value = [float(v) for v in value]
        if not ok:
            raise ParameterError(f"manifest field {path} must be {_KINDS[kind]}, got {value!r}")
        if path in _RANGES:
            test, text = _RANGES[path]
            if not all(map(test, value if kind is list else [value])):
                raise ParameterError(f"manifest field {path} must {text}, got {value!r}")
        doc[key] = value


def _load_manifest(path: str | None, overrides: dict) -> dict:
    doc = {}
    if path is not None:
        with open(path) as fh:
            doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ParameterError(f"manifest must be an object, got {doc!r}")
    doc = _deep_merge(DEFAULT_MANIFEST, doc)
    doc.update({k: v for k, v in overrides.items() if v is not None})
    _check(doc, DEFAULT_MANIFEST)
    return doc


def _build(manifest: dict):
    """Registry entry of a manifest.

    Under ``flip_dynamics`` the entry's system and its reduced system are
    already flipped, and its class generator has the manifest's signal
    granularity bound.
    """
    name = manifest["system"]["id"]
    try:
        entry = get_entry(name, **manifest["system"]["params"])
    except ParameterError as err:
        field = "system.params" if name in REGISTRY else "system.id"
        raise ParameterError(f"manifest field {field}: {err}") from None
    klass = entry.signal_class
    if klass.generator is not None:
        klass = replace(klass, generator=partial(klass.generator,
                                                 granularity=manifest["signal"]["granularity"]))
    entry = replace(entry, signal_class=klass)
    if manifest["flip_dynamics"]:
        system = _flip_system(entry.system)
        entry = replace(entry, system=system, reduced=build_reduced(
            system, entry.covering, entry.reduced.constraints))
    return entry


def _integrator(manifest: dict, step_path: str) -> IntegratorConfig:
    """Integrator settings with the step at ``step_path``; ParameterError naming
    both fields unless 0 < integrator.event_bisection_tol < step."""
    section, key = step_path.split(".")
    step, tol = manifest[section][key], manifest["integrator"]["event_bisection_tol"]
    if not 0 < tol < step:
        raise ParameterError(f"manifest fields integrator.event_bisection_tol ({tol!r}) and "
                             f"{step_path} ({step!r}) must satisfy 0 < tolerance < step")
    return IntegratorConfig(step=step, event_bisection_tol=tol)


def _outdir(manifest: dict) -> str:
    """Create the output directory with its resolved manifest.  Commands call this
    once their runs are done, so input errors found mid-run leave no files."""
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
    t0, horizon, x0 = (manifest["simulate"][k] for k in ("t0", "horizon", "x0"))
    x0 = np.eye(entry.system.n)[0] if x0 is None else np.array(x0)
    if x0.shape != (entry.system.n,):
        raise ParameterError(f"manifest field simulate.x0 must hold {entry.system.n} numbers")
    span = horizon if horizon > 0 else 1.0  # a zero horizon writes t0 under a 1 s signal
    if not t0 < t0 + span < np.inf:
        raise ParameterError(f"manifest fields simulate.t0 ({t0!r}) and simulate.horizon "
                             f"({horizon!r}) must give a finite end time after t0")
    try:
        if horizon > 0:
            traj, sigma = _signal_driver(entry, cfg)(t0, x0, t0 + horizon, manifest["seed"])
        else:
            # the start node alone, under the mode the class would start in
            mode = (entry.policy(t0, x0, active_index_set(x0, entry.covering))
                    if entry.signal_class.generator is None else 1)
            sigma = SwitchingSignal.constant(mode, t0, t0 + span)
            traj = simulate(entry.system, sigma, t0, x0, t0, cfg)
    except BlowUpError as err:
        out = _outdir(manifest)
        if err.trajectory is not None:
            err.trajectory.to_csv(os.path.join(out, "trajectory_partial.csv"))
        print(f"blow-up at t={err.time}", file=sys.stderr)
        return EXIT_BLOWUP
    traj = replace(traj, outputs=_switched_outputs(entry.system, traj))
    out = _outdir(manifest)
    traj.to_csv(os.path.join(out, "trajectory.csv"))
    signal_to_csv(sigma, os.path.join(out, "signal.csv"),
                  os.path.join(out, "signal.json"), params=entry.signal_class.params)
    print(f"wrote trajectory.csv ({len(traj.times)} rows) and signal.csv to {out}")
    return EXIT_PASS


def cmd_certify(manifest: dict) -> int:
    entry, run_cfg = _build(manifest), _integrator(manifest, "certify.step")
    trials, horizon, box, density = (manifest["certify"][k]
                                     for k in ("trials", "horizon", "box", "density"))
    rng = np.random.default_rng(manifest["seed"])
    drive = _signal_driver(entry, run_cfg)

    sw = check_sandwich(entry.certificate, -box * np.ones(entry.system.n),
                        box * np.ones(entry.system.n), entry.covering, density=density)
    reports = {"sandwich": sw.to_dict(), "trials": [], "pass": sw.passed}
    # the revisit inequality is gated only for open-loop classes: the
    # chattering approximation of boundary sliding in closed-loop runs
    # produces sawtooth artifacts the exact family does not have
    open_loop = entry.signal_class.generator is not None
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
    with open(os.path.join(_outdir(manifest), "certify_report.json"), "w") as fh:
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
    mode = manifest["envelope"].get("constant_mode")
    if mode is not None:
        # negative-control hook: an open-loop class holding one constant signal
        if not (is_finite_number(mode) and mode == int(mode) and 1 <= mode <= entry.system.N):
            raise ParameterError(f"manifest field envelope.constant_mode must be an integer "
                                 f"in 1..{entry.system.N}, got {mode!r}")
        entry = replace(entry, signal_class=SignalClass({}, lambda span, seed:
                        SwitchingSignal.constant(int(mode), *span)))
    return make_driver(entry, run_cfg)


def _drive(manifest_json: str, t0, x0, tf, seed):
    return _envelope_driver(manifest_json)(t0, x0, tf, seed)


def run_envelope(manifest: dict, workers: int = 1) -> tuple[StabilityEnvelope, object]:
    entry, e = _build(manifest), manifest["envelope"]
    if not e["offset_max"] < e["offset_max"] + e["horizon"] < np.inf:
        raise ParameterError(f"manifest fields envelope.offset_max ({e['offset_max']!r}) and "
                             f"envelope.horizon ({e['horizon']!r}) must give every trial a "
                             "finite end time after its start")
    manifest_json = json.dumps(manifest, sort_keys=True)
    _envelope_driver(manifest_json)  # reads and checks the driver's fields before any trial
    env = estimate_envelope(entry.system.n, partial(_drive, manifest_json),
                            radii=e["radii"], horizon=e["horizon"], trials=e["trials"],
                            tau_count=e["tau_count"], master_seed=manifest["seed"],
                            offset_max=e["offset_max"], workers=workers)
    return env, classify(env, decay_ratio=e["decay_ratio"], tail_fraction=e["tail_fraction"],
                         uniform_bound=e["uniform_bound"])


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
    rls, f = _build(manifest).reduced, manifest["falsify"]
    if not f["use_constraints"]:
        rls = replace(rls, constraints=())
    return partial(wzsd_falsify, rls, eps=f["eps"], horizon=f["horizon"],
                   residual_tol=f["residual_tol"], budget=f["budget"], seed=manifest["seed"],
                   du=f["du"])


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
    _check(manifest, DEFAULT_MANIFEST)
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
            env_overrides = {k: v for k, v in (("trials", args.trials),
                                               ("horizon", args.horizon)) if v is not None}
            return cmd_reproduce(args.example_id, manifest, workers=args.workers,
                                 env_overrides=env_overrides)
        commands = {"simulate": cmd_simulate, "certify": cmd_certify, "falsify": cmd_falsify,
                    "envelope": partial(cmd_envelope, workers=args.workers)}
        return commands[args.command](manifest)
    except BlowUpError as err:
        print(f"blow-up at t={err.time}", file=sys.stderr)
        return EXIT_BLOWUP
    except (ParameterError, FileNotFoundError, json.JSONDecodeError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except SwstabError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ANALYSIS_FAIL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
