"""Automata over data words.

An automaton reads (label, value) letters.  Each transition carries a
TransitionLabel whose register operation constrains the value read:

    fresh  the value must not have occurred anywhere in the word so far,
           and is written to the register
    local  the value must differ from every current register content,
           and is written to the register
    reuse  the value must equal the register's current content

The class of an automaton follows from the operations it uses: fresh+reuse
gives a session automaton, local+reuse a register automaton, anything mixing
fresh and local a fresh-register automaton.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .errors import NotSessionAutomaton, UnknownLabel
from .symbolic import StateIndex, SymbolicDfa, SymbolicNfa, index_states
from .words import (
    DataWord,
    OpKind,
    SymbolicWord,
    TransitionLabel,
    letter_key,
    symbolic_alphabet,
)

_TOKEN_CHARS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")


def is_token(text: str) -> bool:
    return bool(text) and set(text) <= _TOKEN_CHARS


class AutomatonClass(enum.Enum):
    SESSION = "session"
    REGISTER = "register"
    FRESH_REGISTER = "fresh-register"


class Transition(NamedTuple):
    source: str
    label: TransitionLabel
    target: str


@dataclass(frozen=True)
class Automaton:
    name: str
    alphabet: frozenset[str]
    registers: int
    states: frozenset[str]
    initial: str
    finals: frozenset[str]
    transitions: frozenset[Transition]

    @cached_property
    def state_index(self) -> StateIndex:
        """The states numbered once, and the moves on those ids, for every reader."""
        return index_states(self.states, self.initial, self.finals, self.alphabet, self.transitions)


def validate(a: Automaton) -> list[str]:
    """Structural diagnostics; an empty list means the automaton is well built."""
    out = []
    if not is_token(a.name):
        out.append(f"BadName: automaton name {a.name!r} is not a token")
    for label in sorted(a.alphabet):
        if not is_token(label):
            out.append(f"BadLabelToken: label {label!r} is not a token")
    for state in sorted(a.states):
        if not is_token(state):
            out.append(f"BadStateToken: state {state!r} is not a token")
    if a.registers < 1:
        out.append(f"RegistersNotPositive: registers = {a.registers}")
    if not a.states:
        out.append("NoStates: the state set is empty")
    if a.initial not in a.states:
        out.append(f"InitialNotAState: initial state {a.initial!r} is not in the state set")
    for s in sorted(a.finals - a.states):
        out.append(f"FinalNotAState: final state {s!r} is not in the state set")
    for t in sorted(a.transitions, key=lambda t: (t.source, letter_key(t.label), t.target)):
        where = f"{t.source} -{t.label}-> {t.target}"
        if t.source not in a.states:
            out.append(f"TransitionEndpointNotAState: source of {where}")
        if t.target not in a.states:
            out.append(f"TransitionEndpointNotAState: target of {where}")
        if t.label.label not in a.alphabet:
            out.append(f"UnknownLabel: transition {where} uses a label outside the alphabet")
        if not 1 <= t.label.op.register <= a.registers:
            out.append(f"RegisterOutOfRange: transition {where} uses register "
                       f"{t.label.op.register} with k = {a.registers}")
    return out


def classify(a: Automaton) -> AutomatonClass:
    """Most specific class; only-reuse (or transition-free) automata count as session."""
    kinds = {t.label.op.kind for t in a.transitions}
    if OpKind.LOCAL not in kinds:
        return AutomatonClass.SESSION
    if OpKind.FRESH not in kinds:
        return AutomatonClass.REGISTER
    return AutomatonClass.FRESH_REGISTER


def require_session(*automata: Automaton) -> None:
    """Raise NotSessionAutomaton for the first automaton that is not a session automaton."""
    for a in automata:
        if (kind := classify(a)) is not AutomatonClass.SESSION:
            raise NotSessionAutomaton(f"{a.name} is not a session automaton (class {kind.value})")


def is_symbolically_deterministic(a: Automaton) -> bool:
    """At most one target per (state, transition label)."""
    return len({(t.source, t.label) for t in a.transitions}) == len(a.transitions)


def is_data_deterministic(a: Automaton) -> bool:
    """No configuration of a session automaton ever has a choice of moves.

    Beyond symbolic determinism this forbids two fresh operations on the same
    label with different registers out of one state: both would fire on the
    same globally fresh value.
    """
    require_session(a)
    return is_symbolically_deterministic(a) and all(
        len({reg for kind, reg, _ in moves if kind is OpKind.FRESH}) <= 1
        for row in a.state_index.by_label.values() for moves in row)


def require_labels(a: Automaton, word: DataWord | SymbolicWord) -> None:
    """Raise UnknownLabel for the first letter whose label is outside the automaton's alphabet.

    Data and symbolic letters both hold their label at index 0.
    """
    for letter in word:
        if letter[0] not in a.alphabet:
            raise UnknownLabel(f"label {letter[0]!r} is not in the alphabet of {a.name}")


def simulate(a: Automaton, word: DataWord) -> bool:
    """Membership of a data word, by breadth-first search over configurations.

    A configuration is (state, register assignment); the set of values read
    so far is determined by the prefix, so it needs no tracking per branch.
    No two registers ever hold the same value: a fresh write needs a value
    never seen, a local write one outside the registers, and a reuse writes
    nothing.  So a value's last letter erases it: its write stores None
    (which equals no value), or its reuse clears the one register it reads.
    No later letter can reuse a dead value or depend on it, so configurations
    that differ only in dead values merge: after each letter there are at
    most |Q|·(b+1)^k of them, where b = bound(word), and the run takes time
    linear in the word length for a fixed automaton and session bound.
    """
    require_labels(a, word)
    last = {}  # a loop: a comprehension's call costs short words about 5 %
    for i, (_, d) in enumerate(word):
        last[d] = i
    by_label = a.state_index.by_label
    reuse, local = OpKind.REUSE, OpKind.LOCAL  # an enum class lookup per move is slow
    confs: set[tuple[int, tuple]] = {(a.state_index.initial, (None,) * a.registers)}
    used: set[int] = set()
    for i, (label, d) in enumerate(word):
        keep = None if last[d] == i else d
        moves = by_label[label]
        nxt: set[tuple[int, tuple]] = set()
        for state, regs in confs:
            for kind, reg, target in moves[state]:
                if kind is reuse:
                    if regs[reg - 1] == d:
                        nxt.add((target, regs if keep is d else regs[: reg - 1] + (None,) + regs[reg:]))
                # local needs d outside the registers, fresh outside the whole prefix
                elif d not in (regs if kind is local else used):
                    nxt.add((target, regs[: reg - 1] + (keep,) + regs[reg:]))
        used.add(d)
        confs = nxt
        if not confs:
            return False
    return any(state in a.state_index.finals for state, _ in confs)


def accepts_symbolic(a: Automaton, word: SymbolicWord) -> bool:
    """Acceptance of a symbolic word, reading transition labels literally.

    A label outside the automaton's alphabet raises UnknownLabel, as in
    ``simulate``.
    """
    require_session(a)
    require_labels(a, word)
    index = a.state_index
    frontier = {index.initial}
    for letter in word:
        frontier = {t for s in frontier for x, t in index.moves[s] if x == letter}
    return not frontier.isdisjoint(index.finals)


def as_symbolic_nfa(a: Automaton) -> SymbolicNfa:
    """The symbolic language of a session automaton as a plain NFA on its string state names.

    No library path reads it: each call builds a new one, for tests and the
    benchmark's checks.  Register automata raise NotSessionAutomaton.
    """
    require_session(a)
    return SymbolicNfa(
        alphabet=symbolic_alphabet(a.alphabet, a.registers),
        states=a.states,
        initials=frozenset({a.initial}),
        finals=a.finals,
        transitions=a.transitions,
        registers=a.registers,
    )


def from_symbolic_dfa(dfa: SymbolicDfa, name: str, labels, registers: int) -> Automaton:
    """Wrap a symbolic DFA back into a session automaton.

    Synthesized state names get a reserved ``__`` prefix so they can never
    collide with names from input files.
    """
    rename = {s: f"__{s}" for s in dfa.states}
    return Automaton(
        name=name,
        alphabet=frozenset(labels),
        registers=registers,
        states=frozenset(rename.values()),
        initial=rename[dfa.initial],
        finals=frozenset(rename[s] for s in dfa.finals),
        transitions=frozenset(
            Transition(rename[s], x, rename[t]) for s, x, t in dfa.transitions
        ),
    )
