"""Spans around the package's layer boundaries, recorded from outside the package.

``install`` makes wrappers for chosen functions and methods, for every
``sessauto`` module namespace that holds them, so calls between modules are
seen as well as calls from the benchmark; ``patch`` puts them in place for
the length of one traced op and takes them out again.  A span is (name, start, end,
parent span, op id).  Spans stay in memory and are written out at the end.
Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# Spans kept in memory; later spans are counted in ``dropped`` but not kept.
MAX_SPANS = 200_000


def _nfa_size(args, out) -> dict:
    return {"out_states": len(out.states), "out_transitions": len(out.transitions)}


# (module, function or Class.method, counter) for every wrapped boundary.
# A counter receives the call's arguments and result and returns
# {quantity: amount} to add under the boundary's name.
BOUNDARIES = [
    ("formats", "parse_data_word", None),
    ("formats", "parse_automaton", None),
    ("formats", "format_data_word", None),
    ("formats", "format_symbolic_word", None),
    ("words", "snf", None),
    ("words", "bound", None),
    ("words", "concretize", None),
    ("words", "symbolic_alphabet", None),
    ("automata", "simulate", lambda args, out: {"letters": len(args[1])}),
    ("automata", "as_symbolic_nfa", None),
    ("automata", "from_symbolic_dfa", None),
    ("symbolic", "SymbolicDfa.accepts", None),
    ("symbolic", "SymbolicNfa.accepts", None),
    ("symbolic", "product", _nfa_size),
    ("symbolic", "determinize", lambda args, out: {"in_states": len(args[0].states),
                                                   "out_states": len(out.states)}),
    ("symbolic", "minimize", lambda args, out: {"out_states": len(out.states)}),
    ("symbolic", "complement", None),
    ("symbolic", "shortest_accepted", None),
    ("symbolic", "symbolic_inclusion", None),
    ("symbolic", "symbolic_equivalence", None),
    ("canonical", "nf_automaton", None),
    ("canonical", "wf_automaton", None),
    ("canonical", "tilde", _nfa_size),
    ("canonical", "canonicalize", None),
    ("langops", "equivalent", None),
    ("langops", "includes", None),
    ("langops", "intersect", None),
    ("langops", "complement_bounded", None),
    ("langops", "is_empty", None),
    ("langops", "is_universal_bounded", None),
    ("learner", "MembershipOracle.__call__", None),
    ("learner", "ObservationTable.close", None),
    ("learner", "ObservationTable.build_hypothesis", None),
    ("learner", "nf_violation_witness", None),
    ("learner", "process_counterexample", None),
    ("learner", "Learner.run", None),
]


class Tracer:
    """Span recorder.  Its wrappers are in place only while a traced op runs
    (see ``patch``), so set-up, checks and untraced ops run the package as is."""

    def __init__(self):
        self.op = -1
        self.dropped = 0
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index or -1, name id, start, child time]
        # name -> [calls, total seconds, self seconds]
        self.stats: dict[str, list] = {}
        self.counts: dict[str, float] = {}
        self._patches: list[tuple] = []  # (namespace, attribute, original, wrapper)

    def _id(self, name: str) -> int:
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.stats[name] = [0, 0.0, 0.0]
        return i

    def enter(self, name: str) -> list:
        nid = self._id(name)
        index = -1
        if len(self.span_name) < MAX_SPANS:
            index = len(self.span_name)
            self.span_name.append(nid)
            self.span_parent.append(self._stack[-1][0] if self._stack else -1)
            self.span_op.append(self.op)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
        else:
            self.dropped += 1
        frame = [index, nid, 0.0, 0.0]
        self._stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def leave(self, frame: list) -> None:
        end = time.perf_counter()
        index, nid, start, child = frame
        self._stack.pop()
        duration = end - start
        entry = self.stats[self.names[nid]]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        if self._stack:
            self._stack[-1][3] += duration
        if index >= 0:
            self.span_start[index] = start
            self.span_end[index] = end

    def count(self, name: str, amounts: dict) -> None:
        for quantity, amount in amounts.items():
            key = f"{name}.{quantity}"
            self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn, counter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer.enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.leave(frame)
            if counter is not None:
                tracer.count(name, counter(args, out))
            return out

        return traced

    def install(self) -> None:
        """Prepare a wrapper for every boundary in ``BOUNDARIES``, wherever the package binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "sessauto" or n.startswith("sessauto."))]
        for module_name, attr, counter in BOUNDARIES:
            module = sys.modules[f"sessauto.{module_name}"]
            name = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._patches.append((cls, method, original, self.wrap(name, original, counter)))
                continue
            original = getattr(module, attr)
            traced = self.wrap(name, original, counter)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, key, original, traced))

    def patch(self, on: bool) -> None:
        """Put the wrappers in place (``on``) or the package's own functions back."""
        for owner, key, original, traced in self._patches:
            setattr(owner, key, traced if on else original)

    def write(self, path) -> None:
        """One line per span: op, span, parent, name, start and end in seconds."""
        base = min(self.span_start) if self.span_start else 0.0
        with open(path, "w", encoding="utf-8") as out:
            out.write("op\tspan\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.span_name)):
                out.write(f"{self.span_op[i]}\t{i}\t{self.span_parent[i]}\t"
                          f"{self.names[self.span_name[i]]}\t"
                          f"{self.span_start[i] - base:.7f}\t{self.span_end[i] - base:.7f}\n")
