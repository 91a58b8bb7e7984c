"""Pinned sha256 digests of every integrator's output on the four registry systems.

Each digest covers a run's node times and states and its drive labels (modes,
controls, the closed loop's signal), or a blow-up's time and the times, states
and modes of its partial trajectory.  A change to how the integrators march
keeps every one of these bits.  So does the WZSD falsifier: each of its
digests covers a seeded search's verdict dict and its counterexample's
control, states and outputs.
"""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from swstab import (
    BlowUpError,
    Covering,
    IntegratorConfig,
    ModeSource,
    RelaxedControl,
    gen_arbitrary,
    get_entry,
    simulate,
    simulate_relaxed,
    simulate_with_covering,
)
from swstab.cli import _flip_system
from swstab.limiting import build_reduced, simulate_reduced, wzsd_falsify

DIGESTS = {
    "example1": {
        "simulate": "f76a3ca77418b5e1", "relaxed": "b5bf6ba9fdeee18a",
        "reduced": "ba49cdad73b9c583", "closed_loop": "5fb4197306512c19",
        "simulate_blow_up": "95d2f1129c7bdfc9", "relaxed_blow_up": "15466d08eb6b3e69",
        "reduced_blow_up": "97c21c07a0bbf31c", "closed_loop_blow_up": "54cc3587f7a5869f",
    },
    "example4": {
        "simulate": "8a64ff681936ac86", "relaxed": "2c62bfff428ee173",
        "reduced": "1a46a17609c027fc", "closed_loop": "d7ce632965b8db43",
        "simulate_blow_up": "c4ba4ea55ff32583", "relaxed_blow_up": "57a83d26525eb6a7",
        "reduced_blow_up": "aa31f35b4b917373", "closed_loop_blow_up": "2926519bd1662f4f",
    },
    "inverter": {
        "simulate": "3ca859299d30db38", "relaxed": "57e8633580aca08a",
        "reduced": "da50b0f10a336a5d", "closed_loop": "4cf9c21c19ed952d",
        "simulate_blow_up": "60a376e7b66ab670", "relaxed_blow_up": "78d7cf36fcbd5170",
        "reduced_blow_up": "cebb99bd8d3da5fd", "closed_loop_blow_up": "36942f5152cdbd03",
    },
    "motivating": {
        "simulate": "7d0ac44d4ccb9777", "relaxed": "d6a6a452ac5cecb3",
        "reduced": "ecf622bcf5b3d5bf", "closed_loop": "aa3505f91a1421a4",
        "simulate_blow_up": "5ffbf05958f0954f", "relaxed_blow_up": "797122a3d0eef19e",
        "reduced_blow_up": "1394db0618c14b91", "closed_loop_blow_up": "e98e7ad0a9aa7215",
    },
}
H, H_BLOW = 6.0, 40.0  # the horizons of the runs and of the flipped runs that blow up
CFG = IntegratorConfig(step=1e-2)
BLOW = IntegratorConfig(step=1e-2, divergence_bound=1.5)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(b"-" if a is None else np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _of(traj, *extra) -> str:
    return _digest(traj.times, traj.states, traj.modes, traj.controls, *extra)


def _blown(run) -> str:
    with pytest.raises(BlowUpError) as exc:
        run()
    p = exc.value.trajectory
    # the drive labels a partial carries are pinned by the blow-up tests
    return _digest(np.float64(exc.value.time), p.times, p.states, p.modes)


def _loop(entry, system) -> tuple:
    """(covering, policy): example4's own; every other system a half-plane covering
    of x0 >= 0 (modes 1 and 3) and x0 <= 0 (mode 2), the last active mode."""
    n, N = system.n, system.N
    covering, policy = entry.covering, entry.policy
    if policy is None:
        covering = Covering(margin=ModeSource(n, ("x0", "-x0", "x0")[:N], form="margin").f,
                            N=N, name="half-plane")
        policy = lambda t, x, active: active[-1]  # noqa: E731
    return covering, policy


def _closed_loop(entry, system, t0, x0, tf, cfg):
    return simulate_with_covering(system, *_loop(entry, system), t0, x0, tf, cfg)


def _runs(name: str) -> dict:
    entry = get_entry(name)
    system, N, n = entry.system, entry.system.N, entry.system.n
    x0 = np.linspace(0.9, -0.6, n)
    gen = entry.signal_class.generator
    sigma = gen((0.0, H_BLOW), 7) if gen is not None else gen_arbitrary(N, (0.0, H_BLOW), 0.3, 7)
    rng = np.random.default_rng(11)
    values = rng.dirichlet(np.ones(N), size=820)
    values[::3] = np.eye(N)[rng.integers(0, N, size=len(values[::3]))]  # vertex cells
    values[40:50] = values[40]  # a run of equal cells
    values[200:260] = np.eye(N)[1]  # 3 s of mode 2, which shears motivating's reduced state
    u = RelaxedControl(t0=0.0, step=0.05, values=values)
    flipped = _flip_system(system)
    reduced_flipped = build_reduced(flipped, entry.covering, entry.reduced.constraints)
    traj, sig = _closed_loop(entry, system, 0.0, x0, H, CFG)
    return {
        "simulate": _of(simulate(system, sigma, 0.0, x0, H, CFG)),
        "relaxed": _of(simulate_relaxed(system, u, 0.013, x0, H - 0.02, CFG)),
        "reduced": _of(simulate_reduced(entry.reduced, u, 0.013, x0, H - 0.02, CFG)),
        "closed_loop": _of(traj, sig.breakpoints, sig.modes),
        "simulate_blow_up": _blown(lambda: simulate(flipped, sigma, 0.0, x0, H_BLOW, BLOW)),
        "relaxed_blow_up": _blown(lambda: simulate_relaxed(flipped, u, 0.013, x0, H_BLOW, BLOW)),
        "reduced_blow_up": _blown(
            lambda: simulate_reduced(reduced_flipped, u, 0.013, x0, H_BLOW, BLOW)),
        "closed_loop_blow_up": _blown(
            lambda: _closed_loop(entry, flipped, 0.0, x0, H_BLOW, BLOW)),
    }


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_integrator_digests(name):
    assert _runs(name) == DIGESTS[name]


def test_closed_loop_steps_end_in_their_pieces():
    # example1's pinned closed loop: every step ends inside the piece of the mode it
    # was taken in, by the membership rule margin >= -BOUNDARY_TOL; a bisection that
    # read margin >= 0.0 held mode 3 a base step past its piece, to -0.0122
    from swstab.core import BOUNDARY_TOL

    entry = get_entry("example1")
    covering, _ = _loop(entry, entry.system)
    traj, sigma = _closed_loop(entry, entry.system, 0.0, np.linspace(0.9, -0.6, 2), H, CFG)
    ends = [covering.margin(x, i) for x, i in zip(traj.states[1:].tolist(),
                                                  traj.modes[:-1].tolist())]
    assert 3 in sigma.modes.tolist()
    assert min(ends) >= -2 * BOUNDARY_TOL


# "<constraints>/<seed>": constrained searches run to a budget of 200, free ones to 100
FALSIFIER_DIGESTS = {
    "example1": {
        "constrained/3": "e2fe1f43bda9fffd", "constrained/8": "4e1e685459ebd96a",
        "free/3": "c9f9555c5f4ca9a7", "free/8": "c4caf8546bde2918",
    },
    "example4": {
        "constrained/3": "abeb41db88a5825b", "constrained/8": "c61885861f8cf71b",
        "free/3": "1e306322c3d02149", "free/8": "54fd86c178e592eb",
    },
    "inverter": {
        "constrained/3": "a3261fb19ab4dd79", "constrained/8": "024f59ad48ddfea7",
        "free/3": "541f1ee1ebff2d46", "free/8": "219c62051253133f",
    },
    "motivating": {
        "constrained/3": "eb8c35b5d1e6f910", "constrained/8": "681499aa51d1583b",
        "free/3": "6b7fcb06cbbb1f40", "free/8": "1db41c2a9f26ab57",
    },
}


def _searches(name: str) -> dict:
    rls = get_entry(name).reduced
    horizon = 12.0 if name == "inverter" else 5.0
    out = {}
    for kind, constraints, budget in (("constrained", rls.constraints, 200), ("free", (), 100)):
        for seed in (3, 8):
            v = wzsd_falsify(replace(rls, constraints=constraints), eps=0.5, horizon=horizon,
                             budget=budget, seed=seed)
            cx = v.counterexample
            h = hashlib.sha256(json.dumps(v.to_dict(), sort_keys=True).encode())
            for a in () if cx is None else (cx.control.values, cx.trajectory.states,
                                            cx.trajectory.outputs):
                h.update(np.ascontiguousarray(a).tobytes())
            out[f"{kind}/{seed}"] = h.hexdigest()[:16]
    return out


@pytest.mark.parametrize("name", sorted(FALSIFIER_DIGESTS))
def test_falsifier_digests(name):
    assert _searches(name) == FALSIFIER_DIGESTS[name]
