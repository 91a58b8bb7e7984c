"""Core types: simplex validation, signals, coverings, the vertex embedding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swstab import (
    Covering,
    CoveringError,
    DomainError,
    IntegratorConfig,
    MeasureConstraint,
    ParameterError,
    PatternConstraint,
    RelaxedControl,
    SwitchingSignal,
    Trajectory,
    active_index_set,
    signal_to_control,
    trivial_covering,
)
from swstab.core import BOUNDARY_TOL


def halfplane_covering():
    return Covering(margin=lambda x, i: x[0] if i in (1, 2) else -x[0], N=3)


# --- simplex-valued controls ---------------------------------------------------


def control_cell(w):
    """The one cell of a relaxed control holding the simplex weights ``w``."""
    return RelaxedControl(t0=0.0, step=1.0, values=np.array([w])).values[0]


def test_simplex_vertex():
    sig = SwitchingSignal.constant(2, 0.0, 1.0)
    u = signal_to_control(sig, 0.5, n_modes=3)
    assert np.array_equal(u.values, [[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])


def test_simplex_renormalizes_small_drift():
    w = control_cell([0.5, 0.5 + 3e-10])
    assert abs(w.sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("bad", [[0.5, 0.6], [0.7, -0.1], [1.2, -0.2]])
def test_simplex_rejects(bad):
    with pytest.raises(ParameterError):
        control_cell(bad)


@pytest.mark.parametrize("values, cell", [([[np.nan, np.nan], [1.0, 0.0]], 0),
                                          ([[1.0, 0.0], [np.nan, 1.0]], 1),
                                          ([[0.5, 0.5], [1.0, 0.0], [np.inf, 0.0]], 2),
                                          ([[-np.inf, 1.0]], 0)])
def test_simplex_rejects_nonfinite(values, cell):
    # NaN passes both the sign and the unit-sum test, so it is caught first
    with pytest.raises(ParameterError, match=f"control cell {cell} holds a non-finite value"):
        RelaxedControl(t0=0.0, step=1.0, values=values)


@given(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=2, max_size=5)
       .filter(lambda w: sum(w) > 1e-6))
@settings(max_examples=50, deadline=None)
def test_simplex_normalized_weights_always_valid(w):
    w = np.asarray(w)
    cell = control_cell(w / w.sum())
    assert np.all(cell >= 0)
    assert abs(cell.sum() - 1.0) <= 1e-12


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


def test_signal_construction_merges_equal_neighbours():
    sig = SwitchingSignal(breakpoints=np.array([0.0, 0.3, 0.6, 0.7, 0.9]),
                          modes=np.array([1, 1, 2, 2, 1]), domain_start=0.0, domain_end=1.0)
    assert np.array_equal(sig.modes, [1, 2, 1])
    assert np.array_equal(sig.breakpoints, [0.0, 0.6, 0.9])
    assert sig.n_switches == 2
    times = np.linspace(0.0, 1.0, 41)
    assert sig.modes_at(times).tolist() == [1 if t < 0.6 or t >= 0.9 else 2 for t in times]
    # an unmerged signal is refused before it is folded
    with pytest.raises(ParameterError, match="strictly increasing"):
        SwitchingSignal(np.array([0.0, 0.5, 0.5]), np.array([1, 1, 2]), 0.0, 1.0)


def _segments_by_lookup(sig, t0, tf):
    """Constancy intervals as the edges [t0, inner breakpoints, tf], each labeled
    by a mode_at lookup of its left edge."""
    edges = [t0] + [float(b) for b in sig.breakpoints if t0 < b < tf] + [tf]
    return [(a, b, sig.mode_at(a)) for a, b in zip(edges[:-1], edges[1:])]


def _listed(sig, t0, tf):
    """sig.segments(t0, tf), three columns, read as (a, b, mode) rows."""
    a, b, modes = sig.segments(t0, tf)
    assert a.dtype == b.dtype == np.float64 and modes.dtype == np.int64
    return list(zip(a.tolist(), b.tolist(), modes.tolist()))


def test_segments_walk_matches_mode_lookup():
    rng = np.random.default_rng(17)
    for _ in range(300):
        k = int(rng.integers(1, 8))
        inner = np.sort(rng.choice(np.arange(1, 100), k - 1, replace=False)) / 10
        bp = np.concatenate(([0.0], inner))
        modes = rng.integers(1, 4, size=k)  # adjacent equal modes are frequent
        sig = SwitchingSignal(bp, modes, 0.0, 10.0)  # and folded here
        cuts = np.concatenate((bp, rng.uniform(0.0, 10.0, 4), [-1e-13, 10.0]))
        t0, tf = np.sort(rng.choice(cuts, 2)).tolist()  # often on a breakpoint, or tf == t0
        assert _listed(sig, t0, tf) == _segments_by_lookup(sig, t0, tf), (bp, modes, t0, tf)
    sig = SwitchingSignal(np.array([0.0, 1.0, 2.0]), np.array([2, 2, 1]), 0.0, 3.0)
    for t0, tf in ((-1e-12, 3.0), (1.0, 2.0), (1.0, 1.0), (2.0, 3.0), (0.5, 0.5)):
        assert _listed(sig, t0, tf) == _segments_by_lookup(sig, t0, tf)
    # the equal neighbours at 0 and 1 are one run: no edge at 1.0
    assert _listed(sig, -1e-12, 1.5) == [(-1e-12, 0.0, 2), (0.0, 1.5, 2)]


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
    assert u.cell_of(0.0) == 0
    assert u.cell_of(0.5) == 1  # right-continuous
    assert u.cell_of(1.0) == 1  # closed upper end
    for t in (-0.25, 1.5):
        with pytest.raises(DomainError):
            u.cell_of(t)


# --- coverings ---------------------------------------------------------------


def test_active_index_set_halfplanes():
    chi = halfplane_covering()
    assert active_index_set(np.array([1.0, 0.0]), chi) == (1, 2)
    assert active_index_set(np.array([-1.0, 0.0]), chi) == (3,)
    assert active_index_set(np.array([0.0, 5.0]), chi) == (1, 2, 3)


def test_trivial_covering_full_simplex():
    chi = trivial_covering(3)
    for xi in (np.zeros(2), np.array([4.0, -7.0])):
        assert active_index_set(xi, chi) == (1, 2, 3)


def test_admissible_set_membership():
    # the admissible controls at xi are the face co{e_i : i active}; piece i holds
    # xi iff margin(xi, i) >= -BOUNDARY_TOL, a NaN margin outside
    chi = halfplane_covering()
    assert active_index_set(np.array([1.0, 0.0]), chi) == (1, 2)
    assert active_index_set(np.array([2 * BOUNDARY_TOL, 0.0]), chi) == (1, 2)
    assert active_index_set(np.array([-2 * BOUNDARY_TOL, 0.0]), chi) == (3,)
    assert active_index_set(np.array([-0.1 * BOUNDARY_TOL, 0.0]), chi) == (1, 2, 3)
    assert active_index_set(np.array([BOUNDARY_TOL, 0.0]), chi) == (1, 2, 3)
    nan_first = Covering(margin=lambda x, i: np.nan if i == 1 else 1.0, N=2)
    assert active_index_set(np.zeros(2), nan_first) == (2,)


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
    # radius within which active sets can only shrink: the margins are 1-Lipschitz,
    # so it is measured from the tolerant boundary margin == -BOUNDARY_TOL
    delta = min((-chi.margin(xi, i) - BOUNDARY_TOL for i in (1, 2, 3)
                 if not chi.margin(xi, i) >= -BOUNDARY_TOL), default=np.inf)
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


def _falsify(**kwargs):
    from swstab import get_entry, wzsd_falsify

    args = {"eps": 0.5, "horizon": 5.0, "budget": 1, "du": 0.05, **kwargs}
    return wzsd_falsify(get_entry("motivating").reduced, **args)


def _generate(name, span=(0.0, 10.0), **kwargs):
    """One class signal of the generator ``name`` on ``span``."""
    from swstab import gen_arbitrary, gen_measure_constrained, gen_pattern

    if name == "arbitrary":
        return gen_arbitrary(2, span, kwargs.get("mean_dwell", 0.3), 1)
    if name == "measure":
        return gen_measure_constrained(MeasureConstraint(T0=1.0, delta0=0.2, mode=2), 2, span, 1)
    return gen_pattern(PatternConstraint(T=10.0, dm=0.5, dM=2.0), span, 1)


def _envelope(horizon):
    from swstab import estimate_envelope, get_entry, make_driver

    drive = make_driver(get_entry("example1"), IntegratorConfig(step=1e-2))
    return estimate_envelope(2, drive, radii=[1.0], horizon=horizon, trials=1)


# a generator names its span when it is not finite, empty, or 2**63 granules or more
SPAN = r"^span \[.+\] must be finite, nonempty and under 2\*\*63 granules of granularity 0\.0001$"


@pytest.mark.parametrize("make, name", [
    (lambda: IntegratorConfig(divergence_bound=np.nan), "divergence_bound"),
    (lambda: IntegratorConfig(step=np.inf), "step"),
    (lambda: IntegratorConfig(event_bisection_tol=np.nan), "event_bisection_tol"),
    (lambda: RelaxedControl(t0=np.nan, step=0.1, values=[[1.0]]), "t0"),
    (lambda: RelaxedControl(t0=0.0, step=np.nan, values=[[1.0]]), "step"),
    (lambda: RelaxedControl(t0=0.0, step=np.inf, values=[[1.0]]), "step"),
    (lambda: PatternConstraint(T=np.nan, dm=0.5, dM=2.0), "T"),
    (lambda: MeasureConstraint(T0=np.inf, delta0=0.2, mode=1), "T0"),
    (lambda: MeasureConstraint(T0=1.0, delta0=np.nan, mode=1), "delta0"),
    (lambda: _falsify(eps=np.nan), "eps"),
    (lambda: _falsify(horizon=np.nan), "horizon"),
    (lambda: _falsify(horizon=np.inf), "horizon"),
    (lambda: _falsify(du=np.nan), "du"),
    (lambda: _generate("arbitrary", (0.0, np.inf)), "span"),
    (lambda: _generate("measure", (0.0, np.inf)), "span"),
    (lambda: _generate("pattern", (0.0, np.inf)), "span"),
    (lambda: _generate("arbitrary", (0.0, np.nan)), "span"),
    (lambda: _generate("measure", (np.nan, 1.0)), "span"),
    (lambda: _generate("pattern", (0.0, 1e300)), "span"),
    (lambda: _envelope(1e300), "span"),
    (lambda: _envelope(np.nan), "horizon"),
    (lambda: _generate("arbitrary", mean_dwell=np.nan), "mean_dwell"),
    pytest.param(lambda: signal_to_control(SwitchingSignal.constant(1, 0.0, 1.0), np.nan), "du",
                 id="<lambda>-signal_to_control-du"),
])
def test_nonfinite_library_inputs_name_the_argument(make, name):
    # NaN passes every ``<=`` test, and inf overflows a cell count: both are refused
    # up front, naming the argument
    message = SPAN if name == "span" else rf"^{name} must be finite, got (nan|inf)$"
    with pytest.raises(ParameterError, match=message):
        make()
