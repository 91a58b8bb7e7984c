"""Deterministic fixed-step RK4 integration of switched and relaxed dynamics.

Steps never straddle a switching breakpoint or a control grid cell: each
constancy interval is tiled with equal sub-steps no longer than the base step.
Fixed stepping (rather than adaptive) keeps runs bit-reproducible, which the
Monte Carlo layers rely on.  Covering-boundary crossings in closed-loop runs
are located by bisection on the active piece's margin function.
"""

from __future__ import annotations

import ast
import builtins
import keyword
import re
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable, Sequence

import numpy as np

from .core import (
    BOUNDARY_TOL,
    BlowUpError,
    ChatteringError,
    Covering,
    DomainError,
    DynamicsError,
    ParameterError,
    PolicyError,
    RelaxedControl,
    SwitchedSystem,
    SwitchingSignal,
    Trajectory,
    active_index_set,
    require_finite,
)


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step RK4 settings.

    event_bisection_tol is a *time* tolerance: boundary crossings are located
    to within this many seconds, so the landing state overshoots the boundary
    by at most ~|dx/dt| * event_bisection_tol.
    """

    step: float = 1e-3
    event_bisection_tol: float = 1e-11
    divergence_bound: float = 1e9
    max_switches: int = 1_000_000

    def __post_init__(self):
        require_finite(**vars(self))
        if self.step <= 0:
            raise ParameterError("step must be positive")
        if not (0 < self.event_bisection_tol < self.step):
            raise ParameterError("event_bisection_tol must lie in (0, step)")


# One RK4 source, written out per state component and compiled per state
# dimension n.  ``step`` takes one step; ``march`` takes m equal steps across
# [t0, t1], extending the flat ``out_x`` by each node's state, and returns the
# last state; it records no time, as ``_run`` builds every node's time from its
# segment table.  ``advance`` is the closed loop's march:
# from (tn, xn) it takes steps of min(step, tf - tn) while tn < t_stop,
# appending each node's time and state, and returns (tn, x, h, x_new) at the
# first step that leaves the piece of ``mode`` (margin below -BOUNDARY_TOL), or
# (tn, x, None, None) at t_stop.  Stage sums are grouped as the float64-array
# RK4 groups them, so both agree bit for bit, and the divergence checks sum the
# squares in component order, as ``_check_state``.
#
# A slot alone on its line takes generated lines, one store per component (no
# tuple to build and unpack).  The four stage evaluations of each kernel are
# ``{stages}`` (``{carried}`` in advance).  On the calling path it calls the
# field as f(t, x, arg), x the state as a list of n floats and ``arg`` the one
# argument its producer paired with f (a mode index, or None for a mixed cell);
# f may return any length-n sequence.  For a mode of a ``ModeSource`` the slot
# stores each stage's ``x0, ...``, pastes the mode's bindings and stores its
# components, and the kernel never calls f; a ``_time_only`` binding runs once
# per stage time: r takes q's value, advance's p the last s's (tn + h is the next
# tn) or ``{entry}``'s.  Only lines that read ``t``, ``tm`` or ``tn`` get them.
# advance pastes a margin's text after ``{exit}`` stores ``x0, ...``.
_RK4_TEMPLATE = """\
def step(f, tn, xn, h, arg):
    {a_} = xn
    hh = 0.5 * h
    {stages}
    h6 = h / 6.0
    return [{a_next}]


def march(f, t0, start, t1, m, bound, out_x, arg=None):
    h = (t1 - t0) / m
    hh = 0.5 * h
    h6 = h / 6.0
    bb = bound * bound
    push_x = out_x.extend
    {a_} = start
    for k in range(m):
        {marched}
        {a_next_}
        if not {sum_sq} <= bb:  # NaN or beyond the bound
            check_state([{a}], t1 if k + 1 == m else t0 + (k + 1) * h, bound)
        push_x(({a},))
    return [{a}]


def advance(f, tn, xn, t_stop, tf, step, bound, margin, mode, out_t, out_x, arg=None):
    bb = bound * bound
    push_t, push_x = out_t.append, out_x.extend
    {a_} = xn
    h = step
    hh = 0.5 * h
    h6 = h / 6.0
    {entry}
    while tn < t_stop:
        if tf - tn < step:  # h = min(step, tf - tn), shorter from here on
            h = tf - tn
            hh = 0.5 * h
            h6 = h / 6.0
        {carried}
        {b_next_}
        if not {sum_sq_b} <= bb:  # NaN or beyond the bound
            check_state([{b}], tn + h, bound)
        {exit}
        if {margin} < -boundary_tol:
            return tn, [{a}], h, [{b}]
        tn = tn + h
        push_t(tn)
        push_x(({b},))
        {a_b_}
    return tn, [{a}], None, None
"""

# (stage output, stage time, stage state) of the four RK4 stages
_STAGES = (("p", "tn", "a#"), ("q", "tm", "a# + hh * p#"),
           ("r", "tm", "a# + hh * q#"), ("s", "tn + h", "a# + h * r#"))
# the lines that give a t-reading mode its stage times, and march its step's start
_STAGE_TIME, _CLOCK = "tm = tn + hh", "tn = t0 + k * h"
# every name the template's code and its slot lines use; a mode's text may bind or
# read none of them
_TEMPLATE_NAMES = frozenset(re.findall(r"[A-Za-z_]\w*", " ".join(
    [re.sub(r"#.*|\{\w+\}", "", _RK4_TEMPLATE), _STAGE_TIME, _CLOCK,
     *(time for _, time, _ in _STAGES)])))


def _kernel_source(n: int, mode: tuple | None = None, margin: tuple | None = None) -> str:
    """``_RK4_TEMPLATE`` for n components.  The stages call the field or evaluate ``mode``,
    a (binding lines, last line) pair; advance calls its margin or evaluates ``margin``."""
    def each(expr: str) -> list:
        return [expr.replace("#", str(j)) for j in range(n)]

    def joined(expr: str, sep: str = ", ") -> str:
        return sep.join(each(expr))

    def targets(name: str) -> str:  # "a0, a1"; "a0," when n == 1
        return joined(name + "#") + ("," if n == 1 else "")

    def stores(name: str, exprs: list) -> list:  # ["a0 = e0", "a1 = e1"]
        return [f"{name}{j} = {e}" for j, e in enumerate(exprs)]

    def reading(name: str, line: str, lines: list) -> list:  # line first if lines read name
        return [line] * (name in _NAME.findall("\n".join(lines))) + lines

    fixed = []
    if mode is None:
        stages = carried = [f"{targets(out)} = f({time}, [{joined(state)}], arg)"
                            for out, time, state in _STAGES]
    else:
        bindings, components = mode
        fixed = _time_only(bindings, n)
        rest = [line for line in bindings if line not in fixed]
        values = [ast.get_source_segment(components, e)
                  for e in ast.parse(components, mode="eval").body.elts]
        stages, carried = ([line for (out, time, state), new in zip(_STAGES, fresh)
                            for line in reading("t", f"t = {time}", fixed * new + stores(
                                "x", each(state)) + rest + stores(out, values))]
                           for fresh in ((1, 1, 0, 1), (0, 1, 0, 1)))  # fresh at p q r s
    stages, carried = (reading("tm", _STAGE_TIME, s) for s in (stages, carried))
    a_next = each("a# + h6 * (p# + 2.0 * (q# + r#) + s#)")
    slots = {"stages": stages, "carried": carried, "entry": reading("t", "t = tn", fixed),
             "marched": reading("tn", _CLOCK, stages),
             "exit": [] if margin is None else stores("x", each("b#")) + [*margin[0]],
             "a_next_": stores("a", a_next), "b_next_": stores("b", a_next),
             "a_b_": stores("a", each("b#"))}
    source = _RK4_TEMPLATE.format(
        **{slot: "{%s}" % slot for slot in slots}, a=joined("a#"), a_=targets("a"),
        b=joined("b#"), a_next=", ".join(a_next), sum_sq=joined("a# * a#", " + "),
        sum_sq_b=joined("b# * b#", " + "),
        margin=f"margin([{joined('b#')}], mode)" if margin is None else f"({margin[1]})")
    return re.sub(r"^( *)\{(\w+)\}\n", lambda m: "".join(
        f"{m.group(1)}{line}\n" for line in slots[m.group(2)]), source, flags=re.M)


def _time_only(bindings: tuple, n: int) -> list:
    """The bindings that read no state component, directly or through another binding,
    and bind no name another binding binds: their values are the time's alone."""
    lines = [(line, set(_NAME.findall(line)), {a.id for a in ast.walk(ast.parse(line))
              if isinstance(a, ast.Name) and isinstance(a.ctx, ast.Store)}) for line in bindings]
    every = [k for *_, names in lines for k in names]
    moving = {k for k in every if every.count(k) > 1} | {f"x{j}" for j in range(n)}
    for _ in bindings:  # each pass moves the names of the lines that read a moving one
        moving |= {k for _, used, names in lines if used & moving for k in names}
    return [line for line, used, _ in lines if not used & moving]


@cache
def _code(source: str):
    """Compiled module source, cached by its text."""
    return compile(source, "<swstab.integrate generated>", "exec")


def _bind(source: str, names: dict) -> tuple:
    """(step, march, advance) of kernel ``source`` over the namespace ``names``."""
    scope = {**names, "check_state": _check_state, "boundary_tol": BOUNDARY_TOL}
    exec(_code(source), scope)
    return scope["step"], scope["march"], scope["advance"]


@cache
def _calling_kernels(n: int) -> tuple:
    return _bind(_kernel_source(n), {})


def _rk4_kernels(n: int, f, arg, margin=None) -> tuple:
    """(step, march, advance) for states of n floats, to be handed the field f and
    its argument ``arg``.  When f is the very callable a ``ModeSource`` compiled
    and ``arg`` one of its mode indices, the kernels evaluate that mode inline (and
    a ``margin`` as ``closed_kernels`` does); any other field, a wrapper of one
    included, takes the kernels that call it."""
    src = getattr(f, "mode_source", None)
    if src is not None and src.f is f and type(arg) is int and 0 < arg <= len(src.modes):
        return src.kernels(arg) if margin is None else src.closed_kernels(arg, margin)
    return _calling_kernels(n)


class ModeSource:
    """Per-mode functions f(t, x, i), i = 1..len(modes), declared as Python source text.

    Each mode is a text of optional ``name = expr`` bindings, one a line,
    followed by a last line that lists the components (a field has n), or
    holds one value with ``form="float"``, or ``form="margin"`` for a covering
    margin f(x, i).  The text reads the time ``t`` (not a margin's), the state
    ``x0 ... x{n-1}``, earlier bindings, builtins and the entries of ``names``.
    ``f`` is the text compiled into a plain callable that returns a tuple, or
    ``result(tuple)``, or the value; a mode index above the last falls to the
    last mode.  ``f.mode_source`` is this object.  ``kernels`` paste a field's
    mode text into RK4 stages with the same arithmetic in the same order as
    ``f``: the same bits.  ``_at_rows`` calls ``f`` itself on state columns for
    each mode that ``on_columns`` admits.
    """

    def __init__(self, n: int, modes: Sequence[str], names: dict | None = None,
                 result: Callable | None = None, form: str = "tuple"):
        names = dict(names or {})
        state = [f"x{j}" for j in range(n)]
        reserved = ({"t", "x", "i", "_result", *state} | _TEMPLATE_NAMES
                    | {c + str(j) for c in "abpqrs" for j in range(n)})
        if form not in ("tuple", "float", "margin"):
            raise ParameterError(f"form must be 'tuple', 'float' or 'margin', got {form!r}")
        if not modes:
            raise ParameterError("a ModeSource needs at least one mode")
        clash = sorted(set(names) & reserved)
        if clash:
            raise ParameterError(f"names {clash} are taken by the RK4 kernels")
        known = {*state, *names} | ({"t"} if form != "margin" else set()) | _BUILTIN_NAMES
        self.n, self.names, self.result, self.form = n, names, result, form
        self.modes, self.widths = zip(*[_parse_mode(text, form == "tuple", known, reserved, k)
                                        for k, text in enumerate(modes, 1)])
        self._kernels, self._columns = {}, {}  # kernels by i, and by (i, margin)
        lines = [f"def f({'x' if form == 'margin' else 't, x'}, i):",
                 f"    {', '.join(state)}{',' * (n == 1)} = x"]
        for k, (bindings, components) in enumerate(self.modes, 1):
            value = f"({components})" if form == "tuple" else components
            body = [*bindings, f"return _result({value})" if result else f"return {value}"]
            if k < len(self.modes):  # the last mode takes every other index
                lines.append(f"    if i == {k}:")
                body = ["    " + s for s in body]
            lines += ["    " + s for s in body]
        scope = {**names, "_result": result}
        try:
            exec(_code("\n".join(lines) + "\n"), scope)
        except SyntaxError as err:
            raise ParameterError(f"mode source: {err}") from None
        self.f = scope["f"]
        self.f.mode_source = self

    def kernels(self, i: int) -> tuple:
        """(step, march, advance) with mode i, a field of n components, evaluated inline."""
        if self.widths[i - 1] != self.n:
            raise ParameterError(f"mode {i} is not a field of {self.n} components")
        k = self._kernels.get(i)
        if k is None:
            k = self._kernels[i] = _bind(_kernel_source(self.n, self.modes[i - 1]),
                                         self.names)
        return k

    def closed_kernels(self, i: int, margin) -> tuple:
        """``kernels(i)``, advance evaluating ``margin`` inline if it is the callable of a
        ModeSource margin of n components, no ``result``, and a text for i ``_apart``."""
        k = self._kernels.get((i, margin))
        if k is None:
            k, src = self.kernels(i), getattr(margin, "mode_source", None)
            text = (src is not None and src.f is margin and src.form == "margin" and src.n ==
                    self.n and src.result is None and src.modes[min(i, len(src.modes)) - 1])
            if text and _apart(self.modes[i - 1], self.names, text, src.names, self.n):
                k = _bind(_kernel_source(self.n, self.modes[i - 1], text),
                          {**src.names, **self.names})
            self._kernels[i, margin] = k
        return k

    def on_columns(self, i: int) -> bool:
        """Whether ``f`` may run mode i on float64 state columns: its text keeps to
        ``_on_columns`` and no ``result`` (any Python callable) wraps its value."""
        if i not in self._columns:
            bindings, components = self.modes[i - 1]
            self._columns[i] = self.result is None and _on_columns(
                "\n".join([*bindings, components]), self.names, self.n)
        return self._columns[i]


_BUILTIN_NAMES = frozenset(dir(builtins)) | frozenset(keyword.kwlist)
_BINDING = re.compile(r"([A-Za-z_]\w*)\s*=(?!=)")
_NAME = re.compile(r"(?<![.\w])[A-Za-z_]\w*")  # a name, not an attribute or a number's tail
_COLUMN_NODES = (ast.Module, ast.Assign, ast.Expr, ast.Tuple, ast.Load, ast.Store, ast.BinOp,
                 ast.Add, ast.Sub, ast.Mult, ast.UnaryOp, ast.UAdd, ast.USub)
ROW_BLOCK = 1024  # rows whose states the calling path of ``_at_rows`` lists at once


def _parse_mode(text: str, listed: bool, known: set, reserved: set, k: int) -> tuple:
    """((binding lines, last line), width) of one mode's text: a ``listed`` last line
    lists ``width`` components (one gets a trailing comma), else is one value."""
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise ParameterError(f"mode {k} is empty")
    *bindings, components = lines
    bound = set()
    for line in bindings:
        m = _BINDING.match(line)
        if m is None or m.group(1) in reserved:
            raise ParameterError(f"mode {k}: {line!r} is not a name = expr binding of a name "
                                 "the RK4 kernels leave free")
        bound.add(m.group(1))
    try:
        value = ast.parse(components, mode="eval").body
    except SyntaxError as err:
        raise ParameterError(f"mode {k}: {err}") from None
    tupled = isinstance(value, ast.Tuple)
    if tupled and not listed:
        raise ParameterError(f"mode {k}: {components!r} is not one value")
    if tupled and any(isinstance(e, ast.Starred) for e in value.elts):
        raise ParameterError(f"mode {k}: {components!r} unpacks a sequence")
    unknown = sorted(set(_NAME.findall(text)) - known - bound)
    if unknown:
        raise ParameterError(f"mode {k}: unknown names {unknown}")
    return ((tuple(bindings), components + "," * (listed and not tupled)),
            (len(value.elts) if tupled else 1) if listed else None)


def _apart(a: tuple, a_names: dict, b: tuple, b_names: dict, n: int) -> bool:
    """Whether two mode texts and their ``names`` share no name but the state's."""
    used_a, used_b = (set(_NAME.findall("\n".join([*text[0], text[1]]))) | set(names)
                      for text, names in ((a, a_names), (b, b_names)))
    return used_a & used_b <= {f"x{j}" for j in range(n)}


def _on_columns(text: str, names: dict, n: int) -> bool:
    """Whether a mode's text keeps to float constants and names, + - *, unary + - and
    abs, on which numpy's float64 ufuncs round, and never raise, as floats do (README)."""
    nodes = list(ast.walk(ast.parse(text)))
    floats = {"t", "abs", *(f"x{j}" for j in range(n)),
              *(k for k, v in names.items() if type(v) is float),
              *(a.id for a in nodes if isinstance(a, ast.Name) and isinstance(a.ctx, ast.Store))}

    def ok(a) -> bool:
        if isinstance(a, ast.Constant):
            return type(a.value) is float
        if isinstance(a, ast.Name):
            return a.id in floats
        if isinstance(a, ast.Call):
            return getattr(a.func, "id", None) == "abs" and len(a.args) == 1 and not a.keywords
        return isinstance(a, _COLUMN_NODES)

    return "abs" not in names and all(map(ok, nodes))


def _check_state(x, t: float, bound: float) -> None:
    s = sum([v * v for v in x])
    if s != s:  # NaN
        raise DynamicsError(f"NaN state at t={t}")
    if s > bound * bound:
        raise BlowUpError(f"state norm exceeded {bound:.3g} at t={t}", time=t)


def _rows(nodes: list, n: int) -> np.ndarray:
    """(m, n) array of m nodes stored one after another in a flat list."""
    return np.array(nodes, dtype=float).reshape(-1, n)


def _blown_up(err: BlowUpError, times, xs: list, n: int, **drive) -> BlowUpError:
    """``err`` re-raised with the partial trajectory of the nodes recorded so far:
    the states ``xs``, and as many of the node ``times`` and ``drive`` labels."""
    m = len(xs) // n
    partial = Trajectory(times=np.asarray(times[:m]), states=_rows(xs, n),
                         **{k: v[:m] for k, v in drive.items()})
    return BlowUpError(str(err), time=err.time, trajectory=partial)


def _n_steps(span, step: float) -> np.ndarray:
    """Equal sub-steps no longer than ``step`` that tile each ``span``; none for an
    empty one."""
    return np.ceil((span / step) * (1.0 - 1e-9)).astype(np.int64)


def _mode_rhs(sys: SwitchedSystem, i: int):
    """(f, arg) such that f(t, x, arg) is the mode-i field."""
    if i < 1 or i > sys.N:
        raise ParameterError(f"mode {i} outside 1..{sys.N}")
    return sys.f, i


def _node_modes(traj: Trajectory, sigma: SwitchingSignal) -> np.ndarray:
    """The mode of every node of ``traj``: its own, else sigma's (right-continuous)."""
    return np.asarray(sigma.modes_at(traj.times) if traj.modes is None else traj.modes,
                      dtype=np.int64)


def _start_state(x0, n: int, t0: float, cfg: IntegratorConfig) -> list:
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n,):
        raise ParameterError(f"x0 must have shape ({n},)")
    x = x0.tolist()
    _check_state(x, t0, cfg.divergence_bound)
    return x


def _at_rows(fn, times: np.ndarray | None, states: np.ndarray, modes: np.ndarray,
             width: int | None = None) -> np.ndarray:
    """fn(t, x, i), or fn(x, i) when ``times`` is None, at every row: (m,) values or
    (m, width) components.  A ``ModeSource`` callable (by identity, as in
    ``_rk4_kernels``) is called once per mode that ``on_columns`` admits, with the
    state columns for x; every other row is called on floats, ROW_BLOCK rows at a time."""
    out = np.empty((len(states), width or 1))
    called = np.ones(len(states), dtype=bool)
    src = getattr(fn, "mode_source", None)
    if src is not None and src.f is fn:
        last = len(src.modes)
        texts = np.where((modes >= 1) & (modes < last), modes, last)  # the text f takes
        with np.errstate(all="ignore"):  # where numpy warns, floats quietly give inf or NaN
            for k in range(1, last + 1):
                rows = np.flatnonzero(texts == k) if src.on_columns(k) else ()
                if len(rows):
                    called[rows] = False
                    cols = [c[rows] for c in states.T]  # contiguous: faster arithmetic
                    value = fn(cols, k) if times is None else fn(times[rows], cols, k)
                    for j, v in enumerate(value if width else [value]):
                        out[rows, j] = v
    called = np.flatnonzero(called)
    for b in range(0, len(called), ROW_BLOCK):
        rows = called[b:b + ROW_BLOCK]
        xs, ms = states[rows].tolist(), modes[rows].tolist()
        values = ([fn(x, i) for x, i in zip(xs, ms)] if times is None else
                  [fn(t, x, i) for t, x, i in zip(times[rows].tolist(), xs, ms)])
        out[rows] = _rows([v for row in values for v in row] if width else values, width or 1)
    return out if width else out.reshape(-1)


def _switched_outputs(sys: SwitchedSystem, traj: Trajectory) -> np.ndarray:
    """Rows h_i(t, x) at every node of a switched run, i the node's mode.  The
    integrators record no outputs: a caller that reads them fills them here."""
    return _at_rows(sys.h, traj.times, traj.states, traj.modes, sys.p)


def _run(a: np.ndarray, b: np.ndarray, m: np.ndarray, labels: np.ndarray, last,
         t0: float, x0, n: int, cfg: IntegratorConfig, rhs: Callable,
         drive: Callable) -> Trajectory:
    """The one open-loop march: from (t0, x0), m[j] RK4 steps of the field
    rhs(labels[j]) -> (f, arg) across each segment [a[j], b[j]] of the columns.
    The nodes are t0, then per segment with m > 0 a + k * h for 0 < k < m, h =
    (b - a) / m, and b; a node takes the label of the segment it starts, the last
    node ``last``.  ``drive(labels)`` gives the trajectory's drive fields, which a
    blow-up's partial trajectory carries too."""
    x = _start_state(x0, n, t0, cfg)
    xs: list = list(x)
    # the node times and labels in numpy, as ``march`` steps them
    seg = np.repeat(np.arange(len(m)), m)
    k = np.arange(1, len(seg) + 1) - np.repeat(np.cumsum(m) - m, m)  # 1..m per segment
    h = (b - a) / np.maximum(m, 1)
    times = np.concatenate(([t0], np.where(k == m[seg], b[seg], a[seg] + k * h[seg])))
    node_labels = np.append(labels[seg], last)
    marches: dict = {}  # label -> (f, arg, march)
    try:
        for a, b, m, label in zip(a.tolist(), b.tolist(), m.tolist(), labels.tolist()):
            if m:
                cached = marches.get(label)
                if cached is None:
                    f, arg = rhs(label)
                    cached = marches[label] = f, arg, _rk4_kernels(n, f, arg)[1]
                f, arg, march = cached
                x = march(f, a, x, b, m, cfg.divergence_bound, xs, arg)
    except BlowUpError as err:
        raise _blown_up(err, times, xs, n, **drive(node_labels)) from None
    return Trajectory(times=times, states=_rows(xs, n), **drive(node_labels))


def simulate(sys: SwitchedSystem, sigma: SwitchingSignal, t0: float, x0: np.ndarray,
             tf: float, cfg: IntegratorConfig) -> Trajectory:
    """Integrate dx/dt = f(t, x, sigma(t)) on [t0, tf].

    The output grid contains every switch time of sigma exactly.  tf == t0
    yields the degenerate single-row trajectory.
    """
    if tf < t0:
        raise DomainError("tf must be >= t0")
    a, b, modes = sigma.segments(t0, tf)
    # the last node, tf, takes the mode of a breakpoint at tf, which no segment has
    return _run(a, b, _n_steps(b - a, cfg.step), modes, sigma.modes_at(tf), t0, x0, sys.n,
                cfg, partial(_mode_rhs, sys), lambda modes: {"modes": modes})


def _mix_rhs(f, weights):
    """(rhs, arg) for sum_i w_i f(t, x, i) over the modes of weight w_i > 0, summed
    in mode order; one-hot weights give the bare mode field, (f, i)."""
    nz = [(i + 1, float(w)) for i, w in enumerate(weights) if w > 0.0]
    if len(nz) == 1 and nz[0][1] == 1.0:
        return f, nz[0][0]
    (i0, w0), rest = nz[0], nz[1:]

    def rhs(t, x, _):
        acc = [w0 * v for v in f(t, x, i0)]
        for i, w in rest:
            acc = [a + w * v for a, v in zip(acc, f(t, x, i))]
        return acc

    return rhs, None


def _march(fields, u: RelaxedControl, t0: float, x0: np.ndarray, tf: float,
           cfg: IntegratorConfig, n: int, n_modes: int):
    """Cell-aligned RK4 march of dx/dt = sum_i u_i(t) fields(t, x, i) on [t0, tf],
    each cell's right-hand side taken from ``_mix_rhs``.

    Runs of identical control cells are merged into one interval; cell edges
    stay grid nodes because sub-step counts are chosen per cell.  Node labels
    are right-continuous: a node on a cell edge carries the incoming cell's
    value.  ``n`` and ``n_modes`` are the state dimension and mode count the
    inputs are checked against.
    """
    if tf < t0:
        raise DomainError("tf must be >= t0")
    if t0 < u.t0 - 1e-12 or tf > u.tf + 1e-9 * max(1.0, abs(u.tf)):
        raise DomainError(f"[{t0}, {tf}] outside control grid [{u.t0}, {u.tf}]")
    if u.n_modes != n_modes:
        raise ParameterError(f"control has {u.n_modes} modes, system has {n_modes}")
    per_cell = int(_n_steps(u.step, cfg.step))
    c0, dc, k0 = u.t0, u.step, u.cell_of(t0)
    # the cells k0, k0 + 1, ... whose left edge lies before tf (k0 at least), cut
    # into runs of equal values
    k_stop = k0 + max(1, int(np.count_nonzero(c0 + np.arange(k0, u.n_cells) * dc < tf - 1e-12)))
    run = u.values[k0:k_stop]
    starts = k0 + np.flatnonzero(np.append(True, np.any(run[1:] != run[:-1], axis=1)))
    ends = np.append(starts[1:], k_stop)
    a, b = np.maximum(t0, c0 + starts * dc), np.minimum(tf, c0 + ends * dc)
    return _run(a, b, np.where(b > a, per_cell * (ends - starts), 0), starts, starts[-1],
                t0, x0, n, cfg, lambda k: _mix_rhs(fields, u.values[k]),
                lambda cells: {"controls": u.values[cells]})


def simulate_relaxed(sys: SwitchedSystem, u: RelaxedControl, t0: float, x0: np.ndarray,
                     tf: float, cfg: IntegratorConfig) -> Trajectory:
    """Integrate dx/dt = sum_i u_i(t) f_i(t, x).

    Steps are aligned to the control's grid cells (see ``_march``).
    """
    return _march(sys.f, u, t0, x0, tf, cfg, sys.n, sys.N)


def simulate_with_covering(sys: SwitchedSystem, covering: Covering,
                           policy: Callable[[float, Sequence[float], tuple[int, ...]], int],
                           t0: float, x0: np.ndarray, tf: float,
                           cfg: IntegratorConfig) -> tuple[Trajectory, SwitchingSignal]:
    """Closed-loop run keeping sigma(t) in the active index set of x(t).

    The policy is queried at t0 and whenever the state leaves the active
    piece; crossings are bisected to cfg.event_bisection_tol.  Right after a
    switch the new mode is granted one full base step before bisection
    re-arms, so grazing/sliding configurations make progress: the state may
    overshoot the boundary inside such a step, but every recorded grid node
    is labeled with a mode whose piece contains it (within tolerance).  The
    policy and the covering's margins are handed the state as a list of floats.
    """
    if tf <= t0:
        raise DomainError("tf must exceed t0")
    if not (tf - t0) / cfg.step < 2.0**63:  # NaN too
        raise ParameterError(f"span [{t0!r}, {tf!r}] must be under 2**63 steps of {cfg.step!r}")
    if covering.N != sys.N:
        raise ParameterError("covering and system mode counts differ")
    x = _start_state(x0, sys.n, t0, cfg)

    def query(t, x):
        active = active_index_set(x, covering, tol=BOUNDARY_TOL)
        m = int(policy(t, x, active))
        if m not in active:
            raise PolicyError(f"policy returned mode {m} outside active set {active} at t={t}")
        return m

    mode = query(t0, x)
    ts = [t0]
    xs = list(x)
    bp = [t0]
    bp_modes = [mode]
    suppress_until = -np.inf
    n_switches = 0
    t = t0

    def switch_to(new_mode, at_t):
        nonlocal mode, n_switches, suppress_until
        if new_mode != mode:
            mode = new_mode  # query() admits only modes of the active set
            if at_t <= bp[-1]:
                bp_modes[-1] = mode  # re-decision at the same instant: overwrite
            else:
                bp.append(at_t)
                bp_modes.append(mode)
            n_switches += 1
            if n_switches > cfg.max_switches:
                raise ChatteringError(f"more than {cfg.max_switches} switches by t={at_t}")
        suppress_until = at_t + cfg.step

    def signal() -> SwitchingSignal:  # the decisions so far
        return SwitchingSignal(breakpoints=np.array(bp), modes=np.array(bp_modes, dtype=np.int64),
                               domain_start=t0, domain_end=tf)

    t_stop = tf - 1e-12 * max(1.0, abs(tf))
    margin, f = covering.margin, sys.f
    while t < t_stop:
        rk4_step, _, advance = _rk4_kernels(sys.n, f, mode, margin)
        try:
            t, x, h, x_new = advance(f, t, x, t_stop, tf, cfg.step, cfg.divergence_bound,
                                     margin, mode, ts, xs, mode)
        except BlowUpError as err:
            raise _blown_up(err, ts, xs, sys.n, modes=signal().modes_at(ts)) from None
        if h is None:
            break
        # the step from t leaves the piece and ends in a re-decision: at the
        # endpoint of a grace step right after a switch, else at the bisected crossing
        if t >= suppress_until:
            # locate the crossing: margin(mode, .) changes sign inside (0, h]
            lo = 0.0
            while h - lo > cfg.event_bisection_tol:
                mid = 0.5 * (lo + h)
                x_mid = rk4_step(f, t, x, mid, mode)
                if margin(x_mid, mode) >= 0.0:
                    lo = mid
                else:
                    h, x_new = mid, x_mid
            if h <= cfg.event_bisection_tol:
                # crossing at the very start: switch in place and take a grace step
                switch_to(query(t, x), t)
                continue
        t, x = t + h, x_new
        ts.append(t)
        xs.extend(x)
        switch_to(query(t, x), t)

    sigma = signal()
    times = np.array(ts)  # a node on a decision takes its new mode, as sigma does
    return Trajectory(times=times, states=_rows(xs, sys.n), modes=sigma.modes_at(times)), sigma
