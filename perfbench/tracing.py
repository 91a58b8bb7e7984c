"""Layer tracing from outside the library: wrap public functions and entry callables.

Two kinds of wrapper are installed.  A *span* wraps a coarse public function
(``simulate``, ``wzsd_falsify``, a checker, a signal generator) and is kept
as ``(name, start, end, parent)``.  A *leaf* wraps a callable that runs
millions of times per run (mode fields, ``Fhat``/``Hhat``, certificate
callables, the closed-loop policy); keeping a span per call would cost
hundreds of MB, so a leaf only adds to a per-name call count and total time.
Either kind adds its duration to the enclosing span's child time, so a
span's self time is its duration minus everything wrapped beneath it.

Spans stay in memory and are written once, when the run ends.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import replace
from time import perf_counter

# Modules of swstab whose public functions get a span.  ``core`` holds data
# types only; its cost falls inside its callers.  ``cli`` wraps the same
# library calls in manifest parsing and file writes and is not driven.
LAYERS = ("systems", "signals", "integrate", "stability", "lyapunov", "limiting")

# The body of the motivating mode field; its time belongs to ``systems.f``.
NOT_WRAPPED = {"systems.signed_cbrt"}


def _trajectory_nodes(result) -> int:
    """Grid nodes of a returned Trajectory (closed-loop runs return it with a signal)."""
    traj = result[0] if isinstance(result, tuple) else result
    return len(traj.times)


class Tracer:
    """Owns the wrappers, the patched module attributes and the recorded spans."""

    def __init__(self):
        self.spans: list = []      # (name, start, end, parent index, child seconds)
        self.leaves: dict = {}     # name -> [calls, seconds]
        self.counts: dict = {}     # span name -> work counted from its results
        self._stack: list = []     # [span index, child seconds] of open spans
        self._patched: list = []   # (module, attribute, original)

    # -- wrappers -----------------------------------------------------------

    def span(self, name: str, fn, count=None):
        """Wrap ``fn`` in a span; ``count(result)`` adds to ``self.counts[name]``."""
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            frame = [idx, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    counts[name] = counts.get(name, 0) + count(result)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, frame[1])
                if stack:
                    stack[-1][1] += t1 - t0

        return wrapper

    def leaf(self, name: str, fn):
        stat = self.leaves.setdefault(name, [0, 0.0])
        stack = self._stack

        def wrapper(*args):
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                dt = perf_counter() - t0
                stat[0] += 1
                stat[1] += dt
                if stack:
                    stack[-1][1] += dt

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self, sw) -> None:
        """Wrap every public function of the layer modules wherever swstab binds it.

        Rebinding by identity in every loaded swstab module also catches the
        package re-exports and the names that ``limiting`` imports from
        ``signals`` and that ``make_driver`` looks up in ``integrate``.
        """
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "swstab" or k.startswith("swstab."))]
        for layer in LAYERS:
            mod = getattr(sw, layer)
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not callable(obj) or isinstance(obj, type)
                        or getattr(obj, "__module__", None) != mod.__name__
                        or f"{layer}.{attr}" in NOT_WRAPPED):
                    continue
                wrapped = self.span(f"{layer}.{attr}", obj,
                                    _trajectory_nodes if layer == "integrate" else None)
                for m in modules:
                    for a, v in list(vars(m).items()):
                        if v is obj:
                            self._patched.append((m, a, v))
                            setattr(m, a, wrapped)

    def uninstall(self) -> None:
        for m, a, v in reversed(self._patched):
            setattr(m, a, v)
        self._patched.clear()

    def wrap_entry(self, entry):
        """A copy of a registry entry whose callables report to this tracer."""
        system = replace(entry.system, f=self.leaf("systems.f", entry.system.f),
                         h=self.leaf("systems.h", entry.system.h))
        cert = entry.certificate
        cert = replace(cert, V=self.leaf("lyapunov.V", cert.V),
                       eta=self.leaf("lyapunov.eta", cert.eta),
                       dV=None if cert.dV is None else self.leaf("lyapunov.dV", cert.dV))
        reduced = replace(entry.reduced, Fhat=self.leaf("limiting.Fhat", entry.reduced.Fhat),
                          Hhat=self.leaf("limiting.Hhat", entry.reduced.Hhat))
        klass = entry.signal_class
        if klass.generator is not None:
            klass = replace(klass, generator=self.span("signals.generator", klass.generator))
        policy = None if entry.policy is None else self.leaf("systems.policy", entry.policy)
        return replace(entry, system=system, certificate=cert, reduced=reduced,
                       signal_class=klass, policy=policy)

    def reset(self) -> None:
        """Forget what was recorded so far; installed wrappers keep reporting."""
        self.spans.clear()
        self.counts.clear()
        for stat in self.leaves.values():
            stat[0], stat[1] = 0, 0.0

    # -- reduction ----------------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def group_seconds(self, names) -> float:
        """Time inside any of ``names``, counting nested members of the group once."""
        names = set(names)
        total = 0.0
        for name, t0, t1, parent, child in self.spans:
            if name not in names:
                continue
            p = parent
            while p >= 0 and self.spans[p][0] not in names:
                p = self.spans[p][3]
            if p < 0:
                total += t1 - t0
        return total

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum((t1 - t0) - child for name, t0, t1, _p, child in self.spans
                   if name.startswith(prefix))

    def dump(self) -> dict:
        base = min((s[1] for s in self.spans), default=0.0)
        return {"spans": [[n, t0 - base, t1 - base, p] for n, t0, t1, p, _c in self.spans],
                "leaves": {k: {"calls": c, "seconds": s} for k, (c, s) in self.leaves.items()}}
