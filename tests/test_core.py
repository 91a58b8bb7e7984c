"""Core types: simplex validation, signals, coverings, the vertex embedding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swstab import (
    Covering,
    CoveringError,
    DomainError,
    ParameterError,
    RelaxedControl,
    SimplexPoint,
    SwitchingSignal,
    Trajectory,
    active_index_set,
    admissible_control_set,
    signal_to_control,
    trivial_covering,
)


def halfplane_covering():
    return Covering(margin=lambda x, i: x[0] if i in (1, 2) else -x[0], N=3)


# --- simplex -----------------------------------------------------------------


def test_simplex_vertex():
    p = SimplexPoint.vertex(2, 3)
    assert np.array_equal(p.weights, [0.0, 1.0, 0.0])


def test_simplex_renormalizes_small_drift():
    p = SimplexPoint(np.array([0.5, 0.5 + 3e-10]))
    assert abs(p.weights.sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("bad", [[0.5, 0.6], [0.7, -0.1], [1.2, -0.2]])
def test_simplex_rejects(bad):
    with pytest.raises(ParameterError):
        SimplexPoint(np.array(bad))


@given(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=2, max_size=5)
       .filter(lambda w: sum(w) > 1e-6))
@settings(max_examples=50, deadline=None)
def test_simplex_normalized_weights_always_valid(w):
    w = np.asarray(w)
    p = SimplexPoint(w / w.sum())
    assert np.all(p.weights >= 0)
    assert abs(p.weights.sum() - 1.0) <= 1e-12


# --- switching signals -------------------------------------------------------


def test_signal_right_continuous():
    sig = SwitchingSignal(breakpoints=np.array([0.0, 0.5]), modes=np.array([1, 2]),
                          domain_start=0.0, domain_end=1.0)
    assert sig.mode_at(0.5) == 2
    assert sig.mode_at(0.499999) == 1
    assert sig.mode_at(0.0) == 1


def test_signal_validation():
    with pytest.raises(ParameterError):
        SwitchingSignal(breakpoints=np.array([0.0, 0.0]), modes=np.array([1, 2]),
                        domain_start=0.0, domain_end=1.0)
    with pytest.raises(ParameterError):
        SwitchingSignal(breakpoints=np.array([0.1]), modes=np.array([1]),
                        domain_start=0.0, domain_end=1.0)


def test_signal_runs_merge_duplicates():
    sig = SwitchingSignal(breakpoints=np.array([0.0, 0.3, 0.6]),
                          modes=np.array([1, 1, 2]), domain_start=0.0, domain_end=1.0)
    starts, ends, modes = sig.runs()
    assert np.array_equal(modes, [1, 2])
    assert np.array_equal(starts, [0.0, 0.6])
    assert np.array_equal(ends, [0.6, 1.0])


# --- embedding ---------------------------------------------------------------


def test_signal_to_control_constant():
    # constant signal maps to the matching vertex in every cell
    sig = SwitchingSignal.constant(1, 0.0, 1.0)
    u = signal_to_control(sig, 0.25, n_modes=2)
    assert u.n_cells == 4
    assert np.array_equal(u.values, np.tile([1.0, 0.0], (4, 1)))


def test_signal_to_control_direct_sampling():
    sig = SwitchingSignal(breakpoints=np.array([0.0, 0.5]), modes=np.array([1, 2]),
                          domain_start=0.0, domain_end=1.0)
    u = signal_to_control(sig, 0.25)
    expect = np.array([[1, 0], [1, 0], [0, 1], [0, 1]], dtype=float)
    assert np.array_equal(u.values, expect)


def test_signal_to_control_domain_error():
    sig = SwitchingSignal.constant(1, 0.0, 1.0)
    with pytest.raises(DomainError):
        signal_to_control(sig, 0.25, span=(0.0, 2.0))


def test_control_value_at_edges():
    u = RelaxedControl(t0=0.0, step=0.5, values=np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert np.array_equal(u.value_at(0.5), [0.0, 1.0])  # right-continuous
    assert np.array_equal(u.value_at(1.0), [0.0, 1.0])  # closed upper end
    with pytest.raises(DomainError):
        u.value_at(1.5)


# --- coverings ---------------------------------------------------------------


def test_active_index_set_halfplanes():
    chi = halfplane_covering()
    assert active_index_set(np.array([1.0, 0.0]), chi) == (1, 2)
    assert active_index_set(np.array([-1.0, 0.0]), chi) == (3,)
    assert active_index_set(np.array([0.0, 5.0]), chi) == (1, 2, 3)


def test_trivial_covering_full_simplex():
    chi = trivial_covering(3)
    for xi in (np.zeros(2), np.array([4.0, -7.0])):
        adm = admissible_control_set(xi, chi)
        assert adm.indices == (1, 2, 3)
        assert adm.contains(SimplexPoint(np.array([0.2, 0.3, 0.5])))


def test_admissible_set_membership():
    chi = halfplane_covering()
    adm = admissible_control_set(np.array([1.0, 0.0]), chi)
    assert adm.indices == (1, 2)
    assert adm.contains(np.array([0.5, 0.5, 0.0]))
    assert not adm.contains(np.array([0.0, 0.0, 1.0]))


def test_covering_violation_error():
    chi = Covering(margin=lambda x, i: -1.0, N=2)
    with pytest.raises(CoveringError):
        active_index_set(np.zeros(2), chi)


tame_floats = st.floats(min_value=-2.0, max_value=2.0).map(
    lambda v: 0.0 if abs(v) < 1e-9 else v)  # keep exact boundaries, skip denormal noise


@given(tame_floats, tame_floats)
@settings(max_examples=60, deadline=None)
def test_nesting_property(x1, x2):
    # active sets only shrink within the nesting radius of any base point
    chi = halfplane_covering()
    xi = np.array([x1, x2])
    base = set(active_index_set(xi, chi))
    delta = chi.nesting_radius(xi)
    rng = np.random.default_rng(17)
    for _ in range(8):
        d = rng.standard_normal(2)
        zeta = xi + d / np.linalg.norm(d) * min(delta, 10.0) * 0.999 * rng.uniform()
        if np.linalg.norm(zeta - xi) < delta:  # the nesting premise, post-rounding
            assert set(active_index_set(zeta, chi)) <= base


def test_nesting_grid_near_point():
    chi = halfplane_covering()
    xi = np.array([1.0, 0.0])
    base = set(active_index_set(xi, chi))
    for dx in np.linspace(-0.49, 0.49, 9):
        for dy in np.linspace(-0.49, 0.49, 9):
            zeta = xi + np.array([dx, dy])
            if np.linalg.norm(zeta - xi) < 0.5:
                assert set(active_index_set(zeta, chi)) <= base


# --- trajectories ------------------------------------------------------------


def test_trajectory_csv_roundtrip_switched(tmp_path):
    times = np.linspace(0.0, 1.0, 5)
    states = np.column_stack((np.sin(times), np.cos(times)))
    traj = Trajectory(times=times, states=states,
                      modes=np.array([1, 1, 2, 2, 1]),
                      outputs=np.abs(states[:, :1]))
    path = tmp_path / "t.csv"
    traj.to_csv(path)
    back = Trajectory.from_csv(path)
    assert np.array_equal(back.times, traj.times)
    assert np.array_equal(back.states, traj.states)
    assert np.array_equal(back.modes, traj.modes)
    assert np.array_equal(back.outputs, traj.outputs)
    header = path.read_text().splitlines()[0]
    assert header == "t,x1,x2,mode,y1"


def test_trajectory_csv_roundtrip_relaxed(tmp_path):
    times = np.array([0.0, 0.5, 1.0])
    traj = Trajectory(times=times, states=np.zeros((3, 2)),
                      controls=np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]]))
    path = tmp_path / "t.csv"
    traj.to_csv(path)
    back = Trajectory.from_csv(path)
    assert np.array_equal(back.controls, traj.controls)


def test_trajectory_rejects_nonfinite():
    with pytest.raises(ParameterError):
        Trajectory(times=np.array([0.0, 1.0]), states=np.array([[0.0], [np.nan]]))
