"""End-to-end command behavior: files, exit codes, determinism."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swstab import Trajectory
from swstab.cli import DEFAULT_MANIFEST, _RANGES, _deep_merge, main
from swstab.systems import REGISTRY


def run(args):
    return main([str(a) for a in args])


def manifest_file(tmp_path, doc, name="m.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


def test_simulate_writes_bundle(tmp_path):
    out = tmp_path / "run"
    m = manifest_file(tmp_path, {
        "system": {"id": "motivating", "params": {"a": 1.0}},
        "simulate": {"t0": 0.0, "x0": [1.0, 0.0], "horizon": 2.0},
        "integrator": {"step": 1e-3, "event_bisection_tol": 1e-11},
    })
    rc = run(["simulate", "--manifest", m, "--out", out, "--seed", 7])
    assert rc == 0
    assert (out / "trajectory.csv").exists()
    assert (out / "signal.csv").exists()
    assert (out / "signal.json").exists()
    assert (out / "resolved_manifest.json").exists()
    resolved = json.loads((out / "resolved_manifest.json").read_text())
    assert resolved["seed"] == 7
    traj = Trajectory.from_csv(out / "trajectory.csv")
    assert traj.tf == pytest.approx(2.0)


def test_simulate_deterministic(tmp_path):
    m = manifest_file(tmp_path, {"system": {"id": "motivating"},
                                 "simulate": {"horizon": 3.0}})
    run(["simulate", "--manifest", m, "--out", tmp_path / "a", "--seed", 3])
    run(["simulate", "--manifest", m, "--out", tmp_path / "b", "--seed", 3])
    assert (tmp_path / "a" / "trajectory.csv").read_text() == \
        (tmp_path / "b" / "trajectory.csv").read_text()


def test_simulate_horizon_zero_single_row(tmp_path):
    m = manifest_file(tmp_path, {"system": {"id": "motivating"},
                                 "simulate": {"x0": [1.0, 0.0], "horizon": 0.0}})
    rc = run(["simulate", "--manifest", m, "--out", tmp_path / "o"])
    assert rc == 0
    rows = (tmp_path / "o" / "trajectory.csv").read_text().strip().splitlines()
    assert len(rows) == 2  # header + one row


def test_inverter_class_error_exit2(tmp_path):
    m = manifest_file(tmp_path, {"system": {"id": "inverter",
                                            "params": {"dM": math.pi}}})
    rc = run(["simulate", "--manifest", m, "--out", tmp_path / "o"])
    assert rc == 2


def test_closed_loop_blow_up_partial_has_a_mode_column(tmp_path, capsys):
    # flipped example4 blows up under its covering policy; its partial trajectory
    # names each node's mode, as an open-loop partial does
    m = manifest_file(tmp_path, {"system": {"id": "example4"}, "flip_dynamics": True,
                                 "simulate": {"horizon": 40.0}, "integrator": {"step": 2e-2}})
    assert run(["simulate", "--manifest", m, "--out", tmp_path / "o"]) == 3
    assert "blow-up at t=" in capsys.readouterr().err
    partial = Trajectory.from_csv(tmp_path / "o" / "trajectory_partial.csv")
    header = (tmp_path / "o" / "trajectory_partial.csv").read_text().splitlines()[0]
    assert header == "t,x1,x2,mode"
    assert set(partial.modes.tolist()) == {1, 2, 3}


def test_registry_parameter_error_names_its_path(tmp_path, capsys):
    # a registry constructor's own range check names the manifest path of its parameters
    m = manifest_file(tmp_path, {"system": {"id": "motivating", "params": {"a": 0}}})
    assert run(["simulate", "--manifest", m, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert "system.params" in err and "a must be positive" in err
    assert not (tmp_path / "o").exists()


def test_unknown_system_exit2(tmp_path):
    m = manifest_file(tmp_path, {"system": {"id": "nope"}})
    assert run(["simulate", "--manifest", m, "--out", tmp_path / "o"]) == 2


def test_unknown_system_parameter_exit2(tmp_path, capsys):
    # example1, example4 and inverter are fixed instances of their function classes
    for system, param in (("motivating", "zz"), ("example4", "b1"), ("inverter", "g1"),
                          ("example1", "g1"), ("example1", "pe_window")):
        m = manifest_file(tmp_path, {"system": {"id": system, "params": {param: 1}}})
        assert run(["simulate", "--manifest", m, "--out", tmp_path / "o"]) == 2
        assert repr(param) in capsys.readouterr().err, system


@pytest.mark.parametrize("system, params, key", [
    ("example1", '{"mean_dwell": "x"}', "mean_dwell"),
    ("example1", '{"mean_dwell": 1e400}', "mean_dwell"),  # json reads it as inf
    ("motivating", '{"a": true}', "a"),
])
def test_bad_registry_parameter_exit2(tmp_path, capsys, system, params, key):
    m = tmp_path / "m.json"
    m.write_text(f'{{"system": {{"id": "{system}", "params": {params}}}}}')
    assert run(["simulate", "--manifest", m, "--out", tmp_path / "o"]) == 2
    assert f"parameter {key} " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, doc, key", [
    ("simulate", {"simulate": {"horizon": "abc"}}, "simulate.horizon"),
    ("envelope", {"envelope": {"trials": [3]}}, "envelope.trials"),
    ("simulate", {"integrator": {"step": None}}, "integrator.step"),
    ("simulate", {"simulate": {"x0": [1.0, "x"]}}, "simulate.x0"),
    ("falsify", {"falsify": {"eps": float("inf")}}, "falsify.eps"),
    ("certify", {"certify": {"box": "wide"}}, "certify.box"),
    ("envelope", {"envelope": {"tail_fraction": None}}, "envelope.tail_fraction"),
    ("falsify", {"falsify": {"du": "x"}}, "falsify.du"),
    ("reproduce inverter", {"falsify": {"residual_tol": "x"}}, "falsify.residual_tol"),
    ("reproduce motivating", {"envelope": {"decay_ratio": "x"}}, "envelope.decay_ratio"),
    ("envelope", {"envelope": {"uniform_bound": "x"}}, "envelope.uniform_bound"),
    ("reproduce motivating", {"envelope": {"tail_fraction": None}}, "envelope.tail_fraction"),
    # a flag takes true or false, a string field a string and a count an integral
    # number; small runs, so that a regression returns quickly
    ("certify", {"flip_dynamics": "no", "certify": {"trials": 1, "horizon": 2.0}},
     "flip_dynamics"),
    ("falsify", {"falsify": {"use_constraints": "false", "budget": 5}}, "falsify.use_constraints"),
    ("simulate", {"system": {"id": ["a"]}}, "system.id"),
    ("certify", {"certify": {"trials": 1.5, "horizon": 2.0}}, "certify.trials"),
    ("simulate", {"simulate": {"horizon": "1"}}, "simulate.horizon"),
    ("envelope", {"envelope": {"radii": []}}, "envelope.radii"),
    ("envelope", {"envelope": {"constant_mode": 1.5, "trials": 1, "horizon": 2.0}},
     "envelope.constant_mode"),
    # a name the manifest does not know is a typo, not a field to ignore
    ("simulate", {"simulate": {"horizon": 0.5, "horizn": 3}}, "simulate.horizn"),
    ("simulate", {"bogus_section": {"a": 1}}, "bogus_section"),
    ("envelope", {"envelope": {"constant_mod": 1, "trials": 1, "horizon": 2.0}},
     "envelope.constant_mod"),
    ("falsify", {"system": {"id": "motivating", "param": {"a": 2.0}}}, "system.param"),
    ("certify", {"integrator": {"stepp": 1e-3}}, "integrator.stepp"),
])
def test_bad_manifest_number_exit2(tmp_path, capsys, command, doc, key):
    # every field is read and checked before the output directory is made
    m = manifest_file(tmp_path, doc)
    assert run(command.split() + ["--manifest", m, "--out", tmp_path / "o", "--workers", 1]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, doc", [
    ("simulate", {"simulate": {"x0": [1.0, 2.0, 3.0]}}),
    ("simulate", {"simulate": {"horizon": -1.0}}),
    ("falsify", {"falsify": {"du": 0.07}}),  # does not tile the horizon
    ("reproduce inverter --trials 1 --horizon 2", {"falsify": {"du": 0.07}}),
])
def test_bad_manifest_value_exit2(tmp_path, command, doc):
    m = manifest_file(tmp_path, doc)
    assert run(command.split() + ["--manifest", m, "--out", tmp_path / "o", "--workers", 1]) == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, doc, key", [
    ("certify", {"system": {"id": "example4"}, "certify": {"horizon": 0.0}}, "certify.horizon"),
    ("certify", {"system": {"id": "example4"}, "certify": {"horizon": -1.0}}, "certify.horizon"),
    ("certify", {"certify": {"horizon": -1}}, "certify.horizon"),
    ("certify", {"certify": {"box": -1}}, "certify.box"),
    ("certify", {"certify": {"box": 0}}, "certify.box"),
    ("certify", {"certify": {"density": 0}}, "certify.density"),
    ("certify", {"certify": {"density": 1}}, "certify.density"),
    ("envelope", {"system": {"id": "example4"}, "envelope": {"horizon": 0}}, "envelope.horizon"),
    ("envelope", {"envelope": {"horizon": -5.0}}, "envelope.horizon"),
    ("reproduce example4 --trials 1 --horizon 0", {}, "envelope.horizon"),
    ("certify", {"signal": {"granularity": 0}}, "signal.granularity"),
    ("simulate", {"signal": {"granularity": -1}}, "signal.granularity"),
    ("certify", {"signal": {"granularity": -1}}, "signal.granularity"),
    ("envelope", {"envelope": {"tau_count": -1}}, "envelope.tau_count"),
    ("envelope", {"envelope": {"tau_count": 0}}, "envelope.tau_count"),
    ("envelope", {"envelope": {"radii": [-1]}}, "envelope.radii"),
    ("envelope", {"envelope": {"radii": [0.5, 0.0]}}, "envelope.radii"),
    ("falsify", {"falsify": {"use_constraints": False, "budget": 50, "residual_tol": -1}},
     "falsify.residual_tol"),
    ("reproduce inverter", {"falsify": {"residual_tol": -1e-9}}, "falsify.residual_tol"),
    ("envelope", {"envelope": {"offset_max": -5}}, "envelope.offset_max"),
    ("simulate", {"integrator": {"step": -1}}, "integrator.step"),
    ("simulate", {"integrator": {"step": 0}}, "integrator.step"),
    ("certify", {"certify": {"step": 0}}, "certify.step"),
    ("envelope", {"envelope": {"step": -0.01}}, "envelope.step"),
    ("reproduce motivating --trials 1 --horizon 2", {"envelope": {"step": 0}}, "envelope.step"),
    ("envelope", {"envelope": {"trials": 0}}, "envelope.trials"),
    ("reproduce inverter --trials 0 --horizon 2", {}, "envelope.trials"),
    ("certify", {"certify": {"trials": 0}}, "certify.trials"),
    ("falsify", {"falsify": {"du": 0}}, "falsify.du"),
    ("falsify", {"falsify": {"du": -0.05}}, "falsify.du"),
    ("falsify", {"falsify": {"eps": 0}}, "falsify.eps"),
    ("falsify", {"falsify": {"horizon": -5.0}}, "falsify.horizon"),
    ("falsify", {"falsify": {"budget": 0}}, "falsify.budget"),
    # classify's thresholds; a small envelope, so that a regression returns quickly
    ("envelope", {"envelope": {"decay_ratio": -0.5, "tail_fraction": 7.0, "uniform_bound": -1.0,
                               "trials": 1, "horizon": 2.0}}, "envelope.decay_ratio"),
    ("envelope", {"envelope": {"decay_ratio": 1.0, "trials": 1, "horizon": 2.0}},
     "envelope.decay_ratio"),
    ("envelope", {"envelope": {"tail_fraction": 7.0, "trials": 1, "horizon": 2.0}},
     "envelope.tail_fraction"),
    ("envelope", {"envelope": {"tail_fraction": 0, "trials": 1, "horizon": 2.0}},
     "envelope.tail_fraction"),
    ("envelope", {"envelope": {"uniform_bound": -1.0, "trials": 1, "horizon": 2.0}},
     "envelope.uniform_bound"),
    ("reproduce motivating --trials 1 --horizon 2", {"envelope": {"decay_ratio": 0}},
     "envelope.decay_ratio"),
    ("reproduce motivating --trials 1 --horizon 2", {"envelope": {"tail_fraction": 1.5}},
     "envelope.tail_fraction"),
    ("reproduce motivating --trials 1 --horizon 2", {"envelope": {"uniform_bound": 0}},
     "envelope.uniform_bound"),
    ("simulate --seed -1", {}, "seed"),
    ("reproduce motivating --trials 1 --horizon 2 --seed -1", {}, "seed"),
    ("envelope", {"envelope": {"constant_mode": 3, "trials": 1, "horizon": 2.0}},
     "envelope.constant_mode"),
    # found mid-run: the end time is lost to rounding, or a class window holds
    # more granules than an int64 draw can count
    ("simulate", {"simulate": {"t0": 1e308}}, "simulate.t0"),
    ("simulate", {"signal": {"granularity": 1e-300}}, "granularity"),
    ("simulate", {"system": {"id": "inverter"}, "signal": {"granularity": 1e-300}},
     "granularity"),
    ("certify", {"signal": {"granularity": 1e-300}, "certify": {"trials": 1, "horizon": 2.0}},
     "granularity"),
    # a zero horizon still writes a 1 s signal; a trial may start at offset_max; a
    # subnormal granularity leaves gen_arbitrary an infinite quotient to snap
    ("simulate", {"simulate": {"t0": 1e308, "horizon": 0}}, "simulate.t0"),
    ("envelope", {"envelope": {"offset_max": 1e308}}, "envelope.offset_max"),
    ("simulate", {"system": {"id": "example1"}, "signal": {"granularity": 5e-324}},
     "granularity"),
    # a closed loop of 2**63 steps or more, which marched until killed
    ("simulate", {"system": {"id": "example4"}, "simulate": {"horizon": 1e300}}, "span"),
    ("envelope", {"system": {"id": "example4"}, "envelope": {"horizon": 1e300, "trials": 1}},
     "span"),
    # a class signal of more pieces than one bulk draw may hold (about 27 GB an
    # array for example1)
    ("simulate", {"system": {"id": "example1"}, "simulate": {"horizon": 1e9}}, "span"),
    ("simulate", {"simulate": {"horizon": 1e9}}, "span"),
    ("simulate", {"system": {"id": "inverter"}, "simulate": {"horizon": 1e9}}, "span"),
])
def test_out_of_range_manifest_value_exit2(tmp_path, capsys, command, doc, key):
    # a non-positive horizon, box, step, trial count, budget, signal
    # granularity, falsifier eps or du, envelope radius or uniform bound, a
    # decay ratio or tail fraction outside (0, 1), a sample grid of fewer than
    # 2 points per axis, fewer than one tau column, a negative envelope start
    # offset or a negative residual tolerance is bad input: exit 2 naming the
    # field, before the output directory
    m = manifest_file(tmp_path, doc)
    assert run(command.split() + ["--manifest", m, "--out", tmp_path / "o", "--workers", 1]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, doc, section", [
    ("simulate", {"system": "x"}, "system"),
    ("simulate", {"simulate": 5}, "simulate"),
    ("simulate", {"system": {"id": "motivating", "params": 3}}, "system.params"),
    ("certify", {"certify": [1]}, "certify"),
    ("envelope", {"envelope": "big"}, "envelope"),
    ("falsify", {"falsify": None}, "falsify"),
    ("reproduce motivating", {"integrator": 1e-3}, "integrator"),
])
def test_non_object_section_exit2(tmp_path, capsys, command, doc, section):
    m = manifest_file(tmp_path, doc)
    assert run(command.split() + ["--manifest", m, "--out", tmp_path / "o", "--workers", 1]) == 2
    assert f"manifest section {section} must be an object" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_non_object_manifest_exit2(tmp_path, capsys):
    m = manifest_file(tmp_path, [1, 2])
    assert run(["simulate", "--manifest", m, "--out", tmp_path / "o"]) == 2
    assert "manifest must be an object" in capsys.readouterr().err


def _paths(doc, sections, prefix=""):
    """The dotted paths of the sections of ``doc`` (``sections=True``) or of its fields."""
    for key, value in doc.items():
        if isinstance(value, dict):
            if sections:
                yield prefix + key
            yield from _paths(value, sections, f"{prefix}{key}.")
        elif not sections:
            yield prefix + key


def test_every_range_rule_names_a_manifest_field():
    # a renamed field cannot leave a dead rule behind
    assert set(_RANGES) <= set(_paths(DEFAULT_MANIFEST, sections=False))


# a valid manifest that runs each command in well under a second
TINY = {"simulate": {"horizon": 2.0}, "certify": {"trials": 1, "horizon": 2.0},
        "envelope": {"radii": [0.5], "horizon": 2.0, "trials": 1, "tau_count": 2, "step": 0.1},
        "falsify": {"budget": 5}}
COMMANDS = ["simulate", "certify", "envelope", "falsify"]
NAN, INF = float("nan"), float("inf")
# values that each kind of field rejects, by the type of the field's default
# (an x0 of null is the default, so its kind is NoneType)
NOT_OF_KIND = {
    bool: ["no", "false", 0, 1, None, [True], {"v": True}],
    str: [5, 0.5, True, None, ["a"], {"id": "a"}],
    int: ["1", True, None, 1.5, NAN, INF, [1], {"v": 1}],
    float: ["1", "abc", False, None, NAN, -INF, [1.0], {"v": 1.0}],
    list: [[], None, 0.5, "0.5", [0.5, "x"], [[0.5]], [NAN], [True], {"r": 0.5}],
    type(None): [[], 0.5, "x", True, [1.0, None], [[1.0, 0.0]], [INF, 0.0]],
}
OUT_OF_RANGE = {
    "signal.granularity": [0.0, -1e-4], "integrator.step": [0, -1e-3],
    "simulate.horizon": [-1.0],
    "certify.trials": [0, -2], "certify.horizon": [0.0, -2.0], "certify.box": [0, -1.0],
    "certify.density": [1, 0], "certify.step": [0.0],
    "envelope.radii": [[0.0], [0.5, -1.0]], "envelope.horizon": [0.0], "envelope.trials": [0],
    "envelope.tau_count": [0, -3], "envelope.decay_ratio": [0, 1, 1.5],
    "envelope.tail_fraction": [0.0, 1.0, -0.2], "envelope.uniform_bound": [0, -3.0],
    "envelope.offset_max": [-1.0], "envelope.step": [0.0], "falsify.eps": [0.0],
    "falsify.horizon": [-5.0], "falsify.residual_tol": [-1e-8], "falsify.budget": [0, -5],
    "falsify.du": [0.0, -0.05], "seed": [-1],
}


def _default(path):
    value = DEFAULT_MANIFEST
    for key in path.split("."):
        value = value[key]
    return value


def _junk_values(path):
    return NOT_OF_KIND[type(_default(path))] + OUT_OF_RANGE.get(path, [])


def _junk(path):
    return st.tuples(st.just(path), st.sampled_from(_junk_values(path)))


# a name the manifest lacks, at the top or in any section but the registry's params
UNKNOWN_NAMES = st.tuples(
    st.sampled_from(["", *(p + "." for p in sorted(_paths(DEFAULT_MANIFEST, sections=True))
                           if p != "system.params")]),
    st.sampled_from(["horizn", "bogus", "constant_mode_"])).map("".join)
CORRUPTIONS = st.one_of(
    st.lists(st.sampled_from(sorted(_paths(DEFAULT_MANIFEST, sections=False))), min_size=1,
             max_size=3, unique=True).flatmap(lambda paths: st.tuples(*map(_junk, paths))),
    st.tuples(st.tuples(st.sampled_from(sorted(_paths(DEFAULT_MANIFEST, sections=True))),
                        st.sampled_from(["x", 1, None, [1], True]))),
    st.tuples(st.tuples(UNKNOWN_NAMES, st.sampled_from(["x", 1, None, [1], {"a": 1}]))))


@pytest.mark.parametrize("command", COMMANDS)
def test_tiny_manifest_runs(tmp_path, command):
    # the fuzz below corrupts this manifest, so it must be valid input
    m = manifest_file(tmp_path, TINY)
    assert run([command, "--manifest", m, "--out", tmp_path / "o", "--workers", 1]) in (0, 1)
    assert (tmp_path / "o" / "resolved_manifest.json").exists()


def assert_rejected(command, corruption):
    """``command`` on TINY with each (path, junk) of ``corruption`` set exits 2
    naming one of the paths, raises nothing and leaves no output directory."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "o")
        doc = _deep_merge(DEFAULT_MANIFEST, {**TINY, "out": out})
        for path, junk in corruption:
            *sections, key = path.split(".")
            target = doc
            for section in sections:
                target = target[section]
            target[key] = junk
        m = os.path.join(tmp, "m.json")
        with open(m, "w") as fh:
            json.dump(doc, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main([command, "--manifest", m, "--workers", "1"])
        assert rc == 2
        assert any(f" {path} must " in err.getvalue() for path, _ in corruption), err.getvalue()
        assert not os.path.exists(out)


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(COMMANDS), corruption=CORRUPTIONS)
def test_corrupted_manifest_exit2(command, corruption):
    # 1-3 fields, or one section, hold junk of the wrong kind or out of range, or
    # the manifest holds a name it does not know
    assert_rejected(command, corruption)


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def valid_manifests(draw):
    """A tiny manifest that passes the schema: every number of its kind and in its
    range, with small horizons, trial counts and budgets."""
    falsify_horizon = draw(_floats(0.5, 3.0))
    return {
        "system": {"id": draw(st.sampled_from(sorted(REGISTRY))), "params": {}},
        "flip_dynamics": draw(st.booleans()),
        "signal": {"granularity": draw(_floats(1e-6, 1e-2))},
        "integrator": {"step": draw(_floats(5e-3, 0.1)),
                       "event_bisection_tol": draw(_floats(1e-12, 1e-2))},
        "simulate": {"t0": draw(_floats(-5.0, 5.0)), "horizon": draw(_floats(0.0, 3.0)),
                     "x0": draw(st.none() | st.lists(_floats(-2.0, 2.0), min_size=1,
                                                     max_size=4))},
        "certify": {"trials": draw(st.integers(1, 2)), "horizon": draw(_floats(0.1, 2.0)),
                    "box": draw(_floats(0.1, 3.0)), "density": draw(st.integers(2, 4)),
                    "step": draw(_floats(5e-3, 0.1))},
        "envelope": {"radii": draw(st.lists(_floats(0.1, 3.0), min_size=1, max_size=2)),
                     "horizon": draw(_floats(0.1, 3.0)), "trials": draw(st.integers(1, 2)),
                     "tau_count": draw(st.integers(1, 5)),
                     "decay_ratio": draw(_floats(0.01, 0.99)),
                     "tail_fraction": draw(_floats(0.05, 0.95)),
                     "uniform_bound": draw(_floats(0.5, 5.0)),
                     "offset_max": draw(_floats(0.0, 5.0)), "step": draw(_floats(0.02, 0.2))},
        "falsify": {"eps": draw(_floats(0.1, 2.0)), "horizon": falsify_horizon,
                    "residual_tol": draw(_floats(0.0, 1e-6)),
                    "budget": draw(st.integers(1, 5)),
                    # a cell width that tiles the horizon, or one that may not
                    "du": draw(st.integers(5, 20).map(lambda k: falsify_horizon / k)
                               | _floats(0.05, 0.5)),
                    "use_constraints": draw(st.booleans())},
        "seed": draw(st.integers(0, 2**31)),
    }


@settings(max_examples=40, deadline=None)
@given(command=st.sampled_from(COMMANDS), doc=valid_manifests())
def test_valid_manifest_fuzz_exits_cleanly(command, doc):
    # every value passes the schema; what a run then finds (a failed analysis, a
    # pairing of fields no single range rule sees, a blow-up) ends in an exit
    # code and a message, never in a traceback
    with tempfile.TemporaryDirectory() as tmp:
        m = os.path.join(tmp, "m.json")
        with open(m, "w") as fh:
            json.dump({**doc, "out": os.path.join(tmp, "o")}, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main([command, "--manifest", m, "--workers", "1"])
    assert rc in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert rc in (0, 1) or err.getvalue(), rc  # a refusal says why


@pytest.mark.parametrize("path", sorted(_paths(DEFAULT_MANIFEST, sections=False)))
def test_every_field_rejects_its_junk(path):
    # the fuzz above samples some fields per run; this sweep takes every one alone
    for junk in _junk_values(path):
        assert_rejected("simulate", [(path, junk)])


def test_internal_key_error_is_not_an_input_error(tmp_path, monkeypatch):
    # a KeyError raised inside a command is a bug, not bad input: it propagates
    import swstab.cli as cli

    def broken(manifest):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "cmd_simulate", broken)
    with pytest.raises(KeyError):
        run(["simulate", "--out", tmp_path / "o"])


@pytest.mark.parametrize("workers", [0, -1])
def test_workers_below_one_exit2(tmp_path, capsys, workers):
    # a tiny envelope, so that a regression returns quickly instead of raising
    m = manifest_file(tmp_path, {"envelope": {"radii": [0.5], "horizon": 1.0, "trials": 1,
                                              "tau_count": 2, "step": 0.1}})
    with pytest.raises(SystemExit) as exc:
        run(["envelope", "--manifest", m, "--out", tmp_path / "o", "--workers", workers])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_certify_motivating_passes(tmp_path):
    m = manifest_file(tmp_path, {
        "system": {"id": "motivating"},
        "certify": {"trials": 3, "horizon": 8.0, "box": 1.5, "density": 7,
                    "step": 2e-3},
    })
    rc = run(["certify", "--manifest", m, "--out", tmp_path / "o", "--seed", 1])
    assert rc == 0
    rep = json.loads((tmp_path / "o" / "certify_report.json").read_text())
    assert rep["pass"] and rep["sandwich"]["pass"]


def test_certify_flipped_fails_exit1(tmp_path):
    m = manifest_file(tmp_path, {
        "system": {"id": "motivating"},
        "flip_dynamics": True,
        "certify": {"trials": 2, "horizon": 5.0, "box": 1.0, "density": 5,
                    "step": 2e-3},
    })
    rc = run(["certify", "--manifest", m, "--out", tmp_path / "o", "--seed", 1])
    assert rc == 1


def test_certify_empty_batch_exit2(tmp_path):
    m = manifest_file(tmp_path, {"system": {"id": "motivating"},
                                 "certify": {"trials": 0}})
    assert run(["certify", "--manifest", m, "--out", tmp_path / "o"]) == 2
    assert not (tmp_path / "o").exists()


def test_envelope_empty_batch_exit2(tmp_path):
    # an envelope of zero trials is an all-zero table, which read GUAS-consistent
    m = manifest_file(tmp_path, {"system": {"id": "motivating"},
                                 "envelope": {"radii": [0.5], "trials": 0}})
    assert run(["envelope", "--manifest", m, "--out", tmp_path / "o", "--workers", 1]) == 2
    assert not (tmp_path / "o").exists()


def test_envelope_negative_control_us_only(tmp_path):
    # sigma == 1 keeps the norm: flat rows, exit 1, verdict US-only.
    # forced via mean-dwell-free arbitrary generator on a 1-mode view: use the
    # measure class replaced by a constant signal through flip of trials: the
    # cleanest hook is a manifest with the arbitrary class and a=1 single-mode
    m = manifest_file(tmp_path, {
        "system": {"id": "motivating"},
        "envelope": {"radii": [0.5, 1.0], "horizon": 30.0, "trials": 4,
                     "tau_count": 7, "step": 2e-2, "constant_mode": 1},
    })
    rc = run(["envelope", "--manifest", m, "--out", tmp_path / "o",
              "--seed", 2, "--workers", 1])
    assert rc == 1
    verdict = json.loads((tmp_path / "o" / "envelope_verdict.json").read_text())
    assert verdict["verdict"] == "US-only"


def test_envelope_motivating_guas(tmp_path):
    m = manifest_file(tmp_path, {
        "system": {"id": "motivating"},
        "envelope": {"radii": [0.5, 1.0], "horizon": 80.0, "trials": 6,
                     "tau_count": 9, "step": 2e-2},
    })
    rc = run(["envelope", "--manifest", m, "--out", tmp_path / "o",
              "--seed", 2, "--workers", 1])
    assert rc == 0
    assert (tmp_path / "o" / "envelope.csv").exists()


def test_envelope_worker_count_invariant(tmp_path):
    base = {"system": {"id": "motivating"},
            "envelope": {"radii": [0.5], "horizon": 20.0, "trials": 4,
                         "tau_count": 5, "step": 2e-2}}
    m = manifest_file(tmp_path, base)
    run(["envelope", "--manifest", m, "--out", tmp_path / "w1", "--seed", 4,
         "--workers", 1])
    run(["envelope", "--manifest", m, "--out", tmp_path / "w2", "--seed", 4,
         "--workers", 2])
    assert (tmp_path / "w1" / "envelope.csv").read_text() == \
        (tmp_path / "w2" / "envelope.csv").read_text()


def test_falsify_both_exits(tmp_path):
    m1 = manifest_file(tmp_path, {
        "system": {"id": "motivating"},
        "falsify": {"eps": 0.5, "horizon": 5.0, "residual_tol": 1e-8,
                    "budget": 150, "du": 0.05, "use_constraints": True},
    }, "m1.json")
    assert run(["falsify", "--manifest", m1, "--out", tmp_path / "o1"]) == 0
    m2 = manifest_file(tmp_path, {
        "system": {"id": "motivating"},
        "falsify": {"eps": 0.5, "horizon": 5.0, "residual_tol": 1e-8,
                    "budget": 150, "du": 0.05, "use_constraints": False},
    }, "m2.json")
    assert run(["falsify", "--manifest", m2, "--out", tmp_path / "o2"]) == 1
    doc = json.loads((tmp_path / "o2" / "falsify_verdict.json").read_text())
    assert doc["verdict"] == "counterexample"
    assert (tmp_path / "o2" / "counterexample.csv").exists()
    assert "counterexample_file" in doc


def test_counterexample_outputs_are_hhat_u(tmp_path):
    # the y1 column is Hhat(t, x) . u, the float sum H0 u0 + H1 u1, at every
    # node, and its maximum is the verdict's output sup; the lifted Hhat keeps
    # every node's output positive
    from dataclasses import replace
    from swstab import get_entry, wzsd_falsify
    from swstab.cli import DEFAULT_MANIFEST, _deep_merge, _write_falsify
    rls = replace(get_entry("motivating").reduced, constraints=())
    lifted = replace(rls, Hhat=lambda t, x: rls.Hhat(t, x) + 1e-9)
    m = manifest_file(tmp_path, {"falsify": {"budget": 150, "use_constraints": False}})
    assert run(["falsify", "--manifest", m, "--out", tmp_path / "plain"]) == 1
    verdict = wzsd_falsify(lifted, eps=0.5, horizon=5.0, budget=150)
    assert _write_falsify(_deep_merge(DEFAULT_MANIFEST, {"out": str(tmp_path / "lifted")}),
                          verdict) == 1
    for out, Hhat in (("plain", rls.Hhat), ("lifted", lifted.Hhat)):
        doc = json.loads((tmp_path / out / "falsify_verdict.json").read_text())
        cx = Trajectory.from_csv(tmp_path / out / "counterexample.csv")
        want = [H[0] * w[0] + H[1] * w[1] for H, w in zip(
            [Hhat(t, x).tolist() for t, x in zip(cx.times.tolist(), cx.states)],
            cx.controls.tolist())]
        assert cx.outputs[:, 0].tolist() == want
        assert max(want) == doc["counterexample_output_sup"]
    assert min(want) > 0.0


@pytest.mark.parametrize("command, doc, key", [
    ("simulate", {"integrator": {"step": 1e-12}}, "integrator.step"),
    ("certify", {"certify": {"step": 1e-12}}, "certify.step"),
    ("envelope", {"envelope": {"step": 1e-12}}, "envelope.step"),
])
def test_step_at_bisection_tol_exit2(tmp_path, capsys, command, doc, key):
    # a step at or below the event bisection tolerance names both fields
    m = manifest_file(tmp_path, doc)
    assert run([command, "--manifest", m, "--out", tmp_path / "o", "--workers", 1]) == 2
    err = capsys.readouterr().err
    assert key in err and "integrator.event_bisection_tol" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, doc", [
    ("certify", {"certify": {"trials": 1, "horizon": 2.0}}),
    ("falsify", {"falsify": {"budget": 5}}),
])
def test_integrator_step_is_read_by_simulate_only(tmp_path, capsys, command, doc):
    # certify integrates at certify.step and falsify at falsify.du / 5: a bad
    # integrator.step, a field they never use, is no input error of theirs
    m = manifest_file(tmp_path, {**doc, "integrator": {"step": 1e-12}})
    assert run([command, "--manifest", m, "--out", tmp_path / "o", "--workers", 1]) != 2
    assert "integrator.step" not in capsys.readouterr().err
    assert (tmp_path / "o").exists()


def test_reproduce_motivating_small(tmp_path):
    rc = run(["reproduce", "motivating", "--out", tmp_path / "rep", "--seed", 0,
              "--trials", 6, "--horizon", 100.0, "--workers", 1])
    assert rc == 0
    summary = (tmp_path / "rep" / "summary.txt").read_text()
    assert "GUAS-consistent" in summary and "PASS" in summary


def test_reproduce_inverter_includes_falsifier(tmp_path):
    rc = run(["reproduce", "inverter", "--out", tmp_path / "rep", "--seed", 1,
              "--trials", 8, "--horizon", 120.0, "--workers", 1])
    assert rc == 0
    verdict = json.loads((tmp_path / "rep" / "falsify_verdict.json").read_text())
    assert verdict["verdict"] == "no_counterexample_found"


def test_reproduce_unknown_exit2(tmp_path):
    assert run(["reproduce", "zzz", "--out", tmp_path / "rep"]) == 2


def test_envelope_meta_records_offsets():
    from swstab import IntegratorConfig, estimate_envelope, get_entry, make_driver
    from swstab.cli import DEFAULT_MANIFEST, _deep_merge, run_envelope
    manifest = _deep_merge(DEFAULT_MANIFEST, {
        "seed": 6,
        "envelope": {"radii": [0.5, 1.0], "horizon": 4.0, "trials": 3, "tau_count": 3,
                     "step": 2e-2, "offset_max": 7.0}})
    env1, _ = run_envelope(manifest, workers=1)
    env2, _ = run_envelope(manifest, workers=2)
    driver = make_driver(get_entry("motivating"), IntegratorConfig(step=2e-2))
    ref = estimate_envelope(2, driver, radii=[0.5, 1.0], horizon=4.0, trials=3,
                            tau_count=3, master_seed=6, offset_max=7.0)
    assert len(env1.meta["offsets"]) == 6
    assert env1.meta["offsets"] == env2.meta["offsets"] == ref.meta["offsets"]
    assert min(env1.meta["offsets"]) >= 0.0
    assert env1.beta_table.tobytes() == env2.beta_table.tobytes() == ref.beta_table.tobytes()


def test_flip_dynamics_reaches_policy_class_envelope():
    from dataclasses import replace
    from swstab import IntegratorConfig, estimate_envelope, get_entry, make_driver
    from swstab.cli import DEFAULT_MANIFEST, _deep_merge, _flip_system, run_envelope
    plain = _deep_merge(DEFAULT_MANIFEST, {
        "system": {"id": "example4"}, "seed": 3,
        "envelope": {"radii": [1.0], "horizon": 6.0, "trials": 2, "tau_count": 4,
                     "step": 2e-2, "offset_max": 2.0}})
    flipped = _deep_merge(plain, {"flip_dynamics": True})
    env, _ = run_envelope(plain)
    env_flip, _ = run_envelope(flipped)
    assert not np.array_equal(env.beta_table, env_flip.beta_table)
    entry = get_entry("example4")
    entry = replace(entry, system=_flip_system(entry.system))
    ref = estimate_envelope(2, make_driver(entry, IntegratorConfig(step=2e-2)), radii=[1.0],
                            horizon=6.0, trials=2, tau_count=4, master_seed=3, offset_max=2.0)
    assert env_flip.beta_table.tobytes() == ref.beta_table.tobytes()


def test_flip_dynamics_fails_the_envelope():
    # mutation row: flipped dynamics turn motivating's verdict from
    # GUAS-consistent to inconclusive (uniform ratios 51-179)
    from swstab.cli import DEFAULT_MANIFEST, _deep_merge, run_envelope
    plain = _deep_merge(DEFAULT_MANIFEST, {
        "seed": 3, "envelope": {"trials": 2, "horizon": 80.0, "step": 2e-2}})
    assert run_envelope(plain)[1].verdict == "GUAS-consistent"
    verdict = run_envelope(_deep_merge(plain, {"flip_dynamics": True}))[1]
    assert verdict.verdict == "inconclusive"
    assert min(verdict.uniform_ratios) > 3.0


def test_flip_dynamics_reaches_reduced_system(all_entries):
    # the falsifier searches the reduced system of the flipped dynamics
    from swstab.cli import DEFAULT_MANIFEST, _build, _deep_merge
    rng = np.random.default_rng(23)
    for entry in all_entries:
        plain = _deep_merge(DEFAULT_MANIFEST, {"system": {"id": entry.name}})
        rls = _build(plain).reduced
        rls_flip = _build(_deep_merge(plain, {"flip_dynamics": True})).reduced
        assert rls_flip.constraints == rls.constraints
        for _ in range(20):
            t, x = float(rng.uniform(0.0, 10.0)), rng.uniform(-2.0, 2.0, entry.system.n)
            assert rls_flip.Fhat(t, x).tobytes() == (-rls.Fhat(t, x)).tobytes(), entry.name
            assert rls_flip.Hhat(t, x).tobytes() == rls.Hhat(t, x).tobytes(), entry.name


@pytest.mark.parametrize("system", ["motivating", "example4"])
def test_simulate_writes_the_driver_trajectory(tmp_path, system):
    # swstab simulate runs make_driver's trajectory, open loop and policy alike,
    # and writes it with the outputs h_i(t, x) of each node's mode
    from dataclasses import replace

    from oracles import switched_outputs_reference
    from swstab import IntegratorConfig, get_entry, make_driver
    m = manifest_file(tmp_path, {"system": {"id": system}, "integrator": {"step": 2e-3},
                                 "simulate": {"t0": 0.4, "x0": [0.8, -0.6], "horizon": 6.0}})
    assert run(["simulate", "--manifest", m, "--out", tmp_path / "o", "--seed", 11]) == 0
    entry = get_entry(system)
    traj = make_driver(entry, IntegratorConfig(step=2e-3))(0.4, np.array([0.8, -0.6]),
                                                           0.4 + 6.0, 11)
    traj = replace(traj, outputs=switched_outputs_reference(entry.system, traj))
    traj.to_csv(tmp_path / "ref.csv")
    assert (tmp_path / "o" / "trajectory.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_flip_dynamics_reverses_simulate_derivative(all_entries):
    # the flip negates f and fhat elementwise, whatever sequence they
    # return, so a one-step simulate of the flipped system moves the other way
    from swstab import IntegratorConfig, SwitchingSignal, simulate
    from swstab.cli import _flip_system
    rng = np.random.default_rng(17)
    h = 1e-6
    for entry in all_entries:
        system = entry.system
        flipped = _flip_system(system)
        for i in range(1, system.N + 1):
            x0, t0 = rng.uniform(-1.5, 1.5, system.n), float(rng.uniform(0.0, 5.0))
            for name in ("f", "fhat"):
                want = -np.asarray(getattr(system, name)(t0, x0.tolist(), i), dtype=float)
                got = np.asarray(getattr(flipped, name)(t0, x0.tolist(), i), dtype=float)
                assert got.tobytes() == want.tobytes(), (entry.name, name, i)
            sig = SwitchingSignal.constant(i, t0, t0 + h)
            cfg = IntegratorConfig(step=h, event_bisection_tol=1e-12)
            ahead = simulate(system, sig, t0, x0, t0 + h, cfg).states[1] - x0
            back = simulate(flipped, sig, t0, x0, t0 + h, cfg).states[1] - x0
            f = np.asarray(system.f(t0, x0.tolist(), i), dtype=float)
            # one RK4 step departs from x0 + h f by O(h^2)
            np.testing.assert_allclose(ahead / h, f, rtol=0.0, atol=1e-5)
            np.testing.assert_allclose(back / h, -f, rtol=0.0, atol=1e-5)


def test_package_import_leaves_process_pool_unloaded():
    # the pool is imported only when an envelope runs on several workers
    import swstab
    code = ("import sys, swstab; "
            "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') "
            "if m in sys.modules))")
    src = os.path.dirname(os.path.dirname(swstab.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"
