"""Text formats: words, automaton files, DOT export.

Words are space-separated letters.  A data letter is ``label:value`` with a
non-negative value; a symbolic letter is ``label:*r`` (fresh), ``label:^r``
(reuse) or ``label:or`` (locally fresh) with a register index r >= 1.  The
empty word is written ``-`` (an empty string also parses).

Automaton files are line oriented with ``#`` comments:

    automaton NAME
    labels a b
    registers 2
    states s0 s1
    initial s0
    final s0
    trans s0 a fresh 1 s1

Directives may come in any order; ``labels``, ``states``, ``final`` and
``trans`` lines accumulate, the scalar directives must appear exactly once.
"""

from __future__ import annotations

import re

from .automata import Automaton, Transition, is_token, validate
from .errors import InvalidAutomaton, ParseError
from .symbolic import SymbolicDfa
from .words import (
    DataWord,
    OP_GLYPH,
    OpKind,
    RegisterOp,
    SymbolicWord,
    TransitionLabel,
    letter_key,
)

MAX_VALUE = 2**64 - 1

_DATA_LETTER = re.compile(r"^([A-Za-z0-9_]+):(\d+)$")
_SYMBOLIC_LETTER = re.compile(r"^([A-Za-z0-9_]+):([*^o])(\d+)$")
_OP_BY_ASCII = {"*": OpKind.FRESH, "^": OpKind.REUSE, "o": OpKind.LOCAL}
_KEYWORD_BY_KIND = {OpKind.FRESH: "fresh", OpKind.REUSE: "reuse", OpKind.LOCAL: "local"}
_KIND_BY_KEYWORD = {v: k for k, v in _KEYWORD_BY_KIND.items()}


def parse_data_word(text: str) -> DataWord:
    text = text.strip()
    if text in ("", "-"):
        return ()
    letters = []
    for i, chunk in enumerate(text.split(), 1):
        m = _DATA_LETTER.match(chunk)
        if not m:
            raise ParseError(1, f"letter {i}: {chunk!r} is not of the form label:value")
        value = int(m.group(2))
        if value > MAX_VALUE:
            raise ParseError(1, f"letter {i}: value {value} exceeds 64 bits")
        letters.append((m.group(1), value))
    return tuple(letters)


def parse_symbolic_word(text: str) -> SymbolicWord:
    text = text.strip()
    if text in ("", "-"):
        return ()
    letters = []
    for i, chunk in enumerate(text.split(), 1):
        m = _SYMBOLIC_LETTER.match(chunk)
        if not m:
            raise ParseError(1, f"letter {i}: {chunk!r} is not of the form label:*r, label:^r or label:or")
        register = int(m.group(3))
        if register < 1:
            raise ParseError(1, f"letter {i}: register index must be >= 1")
        letters.append(TransitionLabel(m.group(1), RegisterOp(_OP_BY_ASCII[m.group(2)], register)))
    return tuple(letters)


def parse_word(text: str, symbolic: bool = False):
    return parse_symbolic_word(text) if symbolic else parse_data_word(text)


def format_data_word(word: DataWord) -> str:
    return " ".join(f"{a}:{d}" for a, d in word) or "-"


def format_symbolic_word(word: SymbolicWord) -> str:
    return " ".join(str(x) for x in word) or "-"


def parse_automaton(text: str, check: bool = True) -> Automaton:
    name = None
    registers = None
    initial = None
    labels: list[str] = []
    states: list[str] = []
    finals: list[str] = []
    transitions: list[Transition] = []

    def fail(line_no, message):
        raise ParseError(line_no, message)

    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        keyword, rest = fields[0], fields[1:]
        if keyword == "automaton":
            if name is not None:
                fail(line_no, "duplicate automaton directive")
            if len(rest) != 1 or not is_token(rest[0]):
                fail(line_no, "expected: automaton NAME")
            name = rest[0]
        elif keyword == "labels":
            for tok in rest:
                if not is_token(tok):
                    fail(line_no, f"label {tok!r} is not a token")
            labels.extend(rest)
        elif keyword == "registers":
            if registers is not None:
                fail(line_no, "duplicate registers directive")
            if len(rest) != 1 or not rest[0].isdecimal() or int(rest[0]) < 1:
                fail(line_no, "expected: registers K with K >= 1")
            registers = int(rest[0])
        elif keyword == "states":
            for tok in rest:
                if not is_token(tok):
                    fail(line_no, f"state {tok!r} is not a token")
            states.extend(rest)
        elif keyword == "initial":
            if initial is not None:
                fail(line_no, "duplicate initial directive")
            if len(rest) != 1:
                fail(line_no, "expected: initial STATE")
            initial = rest[0]
        elif keyword == "final":
            finals.extend(rest)
        elif keyword == "trans":
            if len(rest) != 5:
                fail(line_no, "expected: trans SRC LABEL fresh|local|reuse REG DST")
            src, label, opword, reg, dst = rest
            if opword not in _KIND_BY_KEYWORD:
                fail(line_no, f"unknown operation {opword!r} (want fresh, local or reuse)")
            if not reg.isdecimal() or int(reg) < 1:
                fail(line_no, f"register {reg!r} must be a positive integer")
            transitions.append(
                Transition(src, TransitionLabel(label, RegisterOp(_KIND_BY_KEYWORD[opword], int(reg))), dst)
            )
        else:
            fail(line_no, f"unknown directive {keyword!r}")

    last = len(text.splitlines()) or 1
    if name is None:
        fail(last, "missing automaton directive")
    if registers is None:
        fail(last, "missing registers directive")
    if initial is None:
        fail(last, "missing initial directive")
    if not states:
        fail(last, "missing states directive")

    a = Automaton(
        name=name,
        alphabet=frozenset(labels),
        registers=registers,
        states=frozenset(states),
        initial=initial,
        finals=frozenset(finals),
        transitions=frozenset(transitions),
    )
    if check:
        diagnostics = validate(a)
        if diagnostics:
            raise InvalidAutomaton(diagnostics)
    return a


def _transition_order(t: Transition):
    return (t.source, letter_key(t.label), t.target)


def serialize_automaton(a: Automaton) -> str:
    """Stable text form; parsing it back yields an equal automaton."""
    lines = [f"automaton {a.name}"]
    lines.append("labels " + " ".join(sorted(a.alphabet)))
    lines.append(f"registers {a.registers}")
    lines.append("states " + " ".join(sorted(a.states)))
    lines.append(f"initial {a.initial}")
    if a.finals:
        lines.append("final " + " ".join(sorted(a.finals)))
    for t in sorted(a.transitions, key=_transition_order):
        op = t.label.op
        lines.append(
            f"trans {t.source} {t.label.label} {_KEYWORD_BY_KIND[op.kind]} {op.register} {t.target}"
        )
    return "\n".join(lines) + "\n"


def _glyph(letter: TransitionLabel) -> str:
    return f"{letter.label},{OP_GLYPH[letter.op.kind]}{letter.op.register}"


def dot_export(obj: Automaton | SymbolicDfa) -> str:
    """Graphviz text for an automaton or a symbolic DFA, stable across runs.

    States are drawn by name, the numbers of a DFA as strings, and sort as
    their names do.
    """
    name = obj.name if isinstance(obj, Automaton) else "dfa"
    finals = set(map(str, obj.finals))
    edges: dict[tuple[str, str], list[str]] = {}
    named = ((str(s), x, str(t)) for s, x, t in obj.transitions)
    for s, x, t in sorted(named, key=lambda e: (e[0], letter_key(e[1]), e[2])):
        edges.setdefault((s, t), []).append(_glyph(x))
    lines = [f"digraph {name} {{", "  rankdir=LR;", '  __start0 [shape=none, label=""];']
    for s in sorted(map(str, obj.states)):
        shape = "doublecircle" if s in finals else "circle"
        lines.append(f'  "{s}" [shape={shape}];')
    lines.append(f'  __start0 -> "{obj.initial}";')
    for (src, dst) in sorted(edges):
        label = "\\n".join(edges[(src, dst)])
        lines.append(f'  "{src}" -> "{dst}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
