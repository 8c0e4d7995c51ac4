"""Spans around the calls the benchmark makes into each eidothermo layer.

The tracer rebinds public functions and methods of the package to thin
wrappers.  Modules hold their own bindings of imported names (``macro``
and ``harness`` import ``prime_factors``, ``engine`` and ``harness``
import ``compare_entropy``, ``cli`` imports ``entropy_uniform`` and so
on), so every module attribute that is the original function object is
rebound, not only the defining module's name.  Methods are patched on
the class that defines them; the harness mutants inherit
``MacroModel.arrow_combined`` and so pass through its wrapper.

Each wrapped call records a span (name, start, end, parent span, op).
Spans stay in compact arrays in memory and are written out once, at
the end of the run.  Self time is a span's duration minus the time its
child spans cover, accumulated as the spans close.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from collections import Counter

MODULES = ("states", "exact", "oracle", "macro", "quantum", "engine", "harness",
           "scenario", "cli")


def check_slug(check_id: str) -> str:
    """Metric-name form of a harness check id: 'Theorem 15' -> 'theorem_15'."""
    return check_id.lower().replace(" ", "_")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = []
        self.total_s = []
        self.self_s = []
        #: Values observed at the boundaries: ladder comparisons, members
        #: produced, exponent-multiset sizes.
        self.counts = Counter()
        self.exponents_max = 0
        self.op = -1
        self._stack = []
        self._restore = []

    # -- spans ----------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_s.append(0.0)
            self.self_s.append(0.0)
        return nid

    def enter(self, nid: int) -> None:
        stack = self._stack
        self.span_name.append(nid)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_op.append(self.op)
        self.span_end.append(0.0)
        stack.append([len(self.span_start), 0.0])
        self.span_start.append(time.perf_counter())

    def exit(self) -> None:
        end = time.perf_counter()
        index, child_s = self._stack.pop()
        self.span_end[index] = end
        duration = end - self.span_start[index]
        nid = self.span_name[index]
        self.calls[nid] += 1
        self.total_s[nid] += duration
        self.self_s[nid] += duration - child_s
        if self._stack:
            self._stack[-1][1] += duration

    def stat(self, name: str, field: str):
        nid = self._ids.get(name)
        if nid is None:
            return 0
        return {"calls": self.calls, "s": self.total_s, "self_s": self.self_s}[field][nid]

    def wrap(self, name, fn, observe=None, outermost=False, before=None):
        """fn inside a span named ``name``.  ``before(args)`` runs before
        the call, whatever its outcome; ``observe(args, result)`` runs after
        the span closes, when the call returned.  With ``outermost``,
        recursive calls made inside the span run unwrapped."""
        nid = self.name_id(name)
        tracer = self
        active = [False]

        def traced(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            active[0] = outermost
            if before is not None:
                before(args)
            tracer.enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
                active[0] = False
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- observers ------------------------------------------------------

    def _members_out(self, key):
        def observe(args, result):
            self.counts[key] += len(result)
        return observe

    def _exponents(self, args, result):
        if result is NotImplemented:
            return
        size = len(result.exponents)
        self.counts["exact.results"] += 1
        self.counts["exact.exponents_total"] += size
        if size > self.exponents_max:
            self.exponents_max = size

    def _ladder(self, args):
        """Counted before the call: a comparison that climbs the whole
        ladder and raises PrecisionExhausted still counts."""
        x, y = args[0], args[1]
        if x.exponents != y.exponents and not (x.is_rational and y.is_rational):
            self.counts["exact.compare.ladder_calls"] += 1

    # -- installation ---------------------------------------------------

    def _set(self, container, key, value):
        if isinstance(container, dict):
            self._restore.append((container, key, container[key]))
            container[key] = value
        else:
            self._restore.append((container, key, container.__dict__[key]))
            setattr(container, key, value)

    def _rebind_function(self, module, attr, name, **kwargs):
        original = getattr(module, attr)
        wrapped = self.wrap(name, original, **kwargs)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "eidothermo" or mod_name.startswith("eidothermo."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)

    def _rebind_method(self, cls, attr, name, **kwargs):
        self._set(cls, attr, self.wrap(name, cls.__dict__[attr], **kwargs))

    def install(self) -> None:
        mods = {m: importlib.import_module(f"eidothermo.{m}") for m in MODULES}
        states, exact, engine, harness = (
            mods["states"], mods["exact"], mods["engine"], mods["harness"])

        self._rebind_function(states, "prime_factorize", "states.prime_factorize",
                              outermost=True)
        self._rebind_function(states, "prime_factors", "states.prime_factors")
        self._rebind_function(states, "combine", "states.combine",
                              observe=self._members_out("states.combine.members_out"))
        self._rebind_method(
            mods["oracle"].ModelOracle, "make_information_state",
            "oracle.make_information_state",
            observe=self._members_out("oracle.make_information_state.members_out"))

        entropy = exact.ExactEntropy
        for attr in ("__add__", "__radd__"):
            self._rebind_method(entropy, attr, "exact.add", observe=self._exponents)
        for attr in ("__mul__", "__rmul__"):
            self._rebind_method(entropy, attr, "exact.mul", observe=self._exponents)
        self._rebind_function(exact, "compare_entropy", "exact.compare",
                              before=self._ladder)
        self._rebind_function(exact, "decimal_of", "exact.decimal_of")

        self._rebind_method(mods["macro"].MacroModel, "arrow_combined",
                            "macro.arrow_combined")
        self._rebind_method(mods["quantum"].QuantumModel, "arrow_combined",
                            "quantum.arrow_combined")

        for attr in ("irreversibility_estimate", "min_information_to_transform",
                     "shannon_decomposition", "entropy_uniform"):
            self._rebind_function(engine, attr, f"engine.{attr}")

        for table in ("AXIOM_CHECKS", "THEOREM_CHECKS"):
            wrapped = tuple(
                (check_id, self.wrap(f"harness.{check_slug(check_id)}", fn))
                for check_id, fn in getattr(harness, table)
            )
            self._set(harness, table, wrapped)

        self._rebind_function(mods["scenario"], "parse_scenario", "scenario.parse_scenario")
        handlers = mods["cli"]._HANDLERS
        for command, handler in list(handlers.items()):
            self._set(handlers, command, self.wrap(f"cli.{command}", handler))

    def uninstall(self) -> None:
        while self._restore:
            container, key, value = self._restore.pop()
            if isinstance(container, dict):
                container[key] = value
            else:
                setattr(container, key, value)

    # -- output ---------------------------------------------------------

    def write(self, path) -> None:
        """All spans as columns; times in seconds from the first span."""
        origin = self.span_start[0] if self.span_start else 0.0
        payload = {
            "names": self.names,
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "op": self.span_op.tolist(),
            "start": [round(t - origin, 9) for t in self.span_start],
            "end": [round(t - origin, 9) for t in self.span_end],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
