"""The benchmark's checks pass on real outputs and fail on corrupted ones.

Run with ``python3 -m pytest perfbench``.
"""

from dataclasses import replace

import numpy as np
import pytest

import reference as ref
import swstab as sw
from workloads import EnvelopeMotivating, FalsifyWzsd, example4_decrease


@pytest.fixture(scope="module")
def envelope_round():
    short = type("ShortEnvelope", (EnvelopeMotivating,), {"HORIZON": 20.0, "TRIALS": 2})
    wl = short(sw, seed=5)
    return wl, wl.run_round(lambda: None)


def _envelope_problems(wl, table, trials):
    done = [t for t in trials if t is not None]
    return ref.envelope_problems(table, wl.RADII,
                                 [np.linalg.norm(t["states"], axis=1) for t in done],
                                 [t["bin"] for t in done])


def test_envelope_check_passes_on_real_output(envelope_round):
    wl, rnd = envelope_round
    env, _verdict, trials = rnd.data
    assert _envelope_problems(wl, env.beta_table, trials) == []


def test_envelope_entry_lowered_is_caught(envelope_round):
    wl, rnd = envelope_round
    env, _verdict, trials = rnd.data
    table = env.beta_table.copy()
    table[1, 3] *= 0.999
    assert any("envelope cell (1, 3)" in p for p in _envelope_problems(wl, table, trials))


def test_envelope_first_column_outside_bin_is_caught(envelope_round):
    wl, rnd = envelope_round
    env, _verdict, trials = rnd.data
    table = env.beta_table.copy()
    table[0, 0] = 0.75
    assert any("bin 0" in p for p in ref.envelope_problems(table, wl.RADII, [], []))


def test_reference_integrator_follows_envelope_trial(envelope_round):
    wl, rnd = envelope_round
    t = rnd.data[2][0]
    sigma = wl.entry.signal_class.generator((t["t0"], t["tf"]), t["seed"])
    pieces = ref.signal_pieces(sigma.breakpoints, sigma.modes, t["t0"], t["tf"])
    want = ref.integrate_pieces(ref.switched_rhs(wl.entry.system.f), pieces, t["x0"],
                                t["times"], wl.STEP / ref.REFINE)
    assert ref.deviation_problems("trial", t["states"], want, wl.REF_TOL) == []
    assert ref.deviation_problems("trial", t["states"], want[::-1], wl.REF_TOL) != []


@pytest.fixture(scope="module")
def inverter_zero_output():
    """A non-constant zero-output run of the unconstrained reduced inverter.

    From (1, 0, 0, 0) vertex 1 holds the state still and vertex 2 rotates
    (x1, x3) with x2 = x4 = 0, so the output C2 * x4^2 stays zero; moving the
    switch by one cell changes the states but not the output.
    """
    entry = sw.get_entry("inverter")
    rls = replace(entry.reduced, constraints=())
    du, n_cells = 0.05, 80
    values = np.zeros((n_cells, 2))
    values[:30, 0] = 1.0
    values[30:, 1] = 1.0
    u = sw.RelaxedControl(t0=0.0, step=du, values=values)
    cfg = sw.IntegratorConfig(step=du / 5.0)
    traj = sw.simulate_reduced(rls, u, 0.0, np.array([1.0, 0.0, 0.0, 0.0]), du * n_cells, cfg)
    return entry, values, du, traj


def _cx_problems(entry, values, du, traj):
    return ref.counterexample_problems(entry.system.fhat, entry.system.h, values, du,
                                       traj.times, traj.states, du / 5.0 / ref.REFINE,
                                       0.5, 1e-8, 1e-7)


def test_counterexample_check_passes_on_real_output(inverter_zero_output):
    assert _cx_problems(*inverter_zero_output) == []


def test_counterexample_control_shifted_one_cell_is_caught(inverter_zero_output):
    entry, values, du, traj = inverter_zero_output
    shifted = np.vstack([values[:1], values[:-1]])
    problems = _cx_problems(entry, shifted, du, traj)
    assert any("deviation from the reference" in p for p in problems)


def test_counterexample_nonzero_output_is_caught(inverter_zero_output):
    entry, values, du, traj = inverter_zero_output
    bumped = traj.states.copy()
    bumped[:, 3] += 1e-3   # x4 != 0: output C2 * x4^2 = 1e-6 at the reference start
    problems = _cx_problems(entry, values, du, replace(traj, states=bumped))
    assert any("output" in p for p in problems)


@pytest.fixture(scope="module")
def closed_loop():
    e = sw.get_entry("example4")
    traj, _sigma = sw.simulate_with_covering(e.system, e.covering, e.policy, 0.7,
                                             np.array([0.3, -1.1]), 10.7,
                                             sw.IntegratorConfig(step=1e-2))
    return e, traj


def _cl_problems(e, times, states, modes):
    c = e.certificate
    return ref.closed_loop_problems(e.covering.margin, e.system.f, c.V, c.dV, c.eta,
                                    times, states, modes, analytic=example4_decrease)


def test_closed_loop_checks_pass_on_real_output(closed_loop):
    e, traj = closed_loop
    assert set(traj.modes) >= {3}
    assert _cl_problems(e, traj.times, traj.states, traj.modes) == []


def test_node_moved_off_its_covering_piece_is_caught(closed_loop):
    e, traj = closed_loop
    states = traj.states.copy()
    k = int(np.flatnonzero(traj.modes != 3)[5])   # a node on the right half-plane
    states[k, 0] = -1e-3
    problems = _cl_problems(e, traj.times, states, traj.modes)
    assert any("covering piece" in p for p in problems)


def test_mode3_arc_not_conserving_v3_is_caught(closed_loop):
    e, traj = closed_loop
    on3 = np.flatnonzero(traj.modes == 3)
    k = int(on3[len(on3) // 2])
    states = traj.states.copy()
    states[k] *= 1.01   # still in the left half-plane, V3 up by about 2%
    problems = _cl_problems(e, traj.times, states, traj.modes)
    assert any("V3 not conserved" in p for p in problems)


def test_falsifier_digest_follows_the_trajectories():
    """A field changed by one part in a million changes the falsify-wzsd digest.

    The constrained searches all end in ('no_counterexample_found', budget);
    the digest still moves because it holds the unconstrained searches'
    counterexample controls and states.
    """
    small = type("SmallFalsify", (FalsifyWzsd,), {"BUDGET": 20})

    def nudge(entry):
        fhat = entry.reduced.Fhat
        return replace(entry, reduced=replace(entry.reduced,
                                              Fhat=lambda t, x: fhat(t, x) * (1.0 + 1e-6)))

    plain = small(sw, seed=3).run_round(lambda: None)
    nudged = small(sw, seed=3, wrap=nudge).run_round(lambda: None)
    assert plain.failed == nudged.failed == 0
    assert small(sw, seed=3).check(plain) == []
    assert plain.digest != nudged.digest
