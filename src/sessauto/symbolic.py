"""Finite automata over symbolic letters.

These are ordinary NFAs/DFAs whose alphabet consists of TransitionLabel
values.  They carry the symbolic-language side of every construction: the
data-word semantics never appears here.  States are strings; every operation
that synthesizes states numbers them canonically (breadth-first from the
initial state, expanding letters in their total order), which makes minimal
automata comparable by plain structural equality.  Two kernels do the work.
``subset_construction`` numbers: determinize, minimize and renumber run on
it, over int transition tables (DfaTable).  ``shortlex_search`` stops at the
first witness: shortest_accepted, symbolic_inclusion, symbolic_equivalence
and the normal-form walk of ``canonical`` look for the shortlex-least word
reaching an accepting node.  Both automaton classes are frozen and their
moves are read-only, so a cached result cannot be changed by its callers.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from types import MappingProxyType

from .words import SymbolicWord, TransitionLabel, letter_key


@dataclass(frozen=True)
class SymbolicNfa:
    alphabet: frozenset[TransitionLabel]
    states: frozenset[str]
    initials: frozenset[str]
    finals: frozenset[str]
    transitions: frozenset[tuple[str, TransitionLabel, str]]
    registers: int = 0

    @cached_property
    def delta(self) -> Mapping[tuple[str, TransitionLabel], frozenset[str]]:
        # Read-only, like SymbolicDfa.delta: every Automaton shares its symbolic view.
        table: dict[tuple[str, TransitionLabel], frozenset[str]] = {}
        for src, letter, dst in self.transitions:
            key = (src, letter)
            targets = table.setdefault(key, frozenset((dst,)))
            if dst not in targets:
                table[key] = targets | {dst}
        return MappingProxyType(table)

    def accepts(self, word: SymbolicWord) -> bool:
        frontier = set(self.initials)
        delta = self.delta
        for letter in word:
            frontier = {t for s in frontier for t in delta.get((s, letter), ())}
            if not frontier:
                return False
        return bool(frontier & self.finals)


@dataclass(frozen=True)
class SymbolicDfa:
    alphabet: frozenset[TransitionLabel]
    states: frozenset[str]
    initial: str
    finals: frozenset[str]
    delta: Mapping[tuple[str, TransitionLabel], str] = field(default_factory=dict)
    registers: int = 0

    def __post_init__(self):
        # Cached DFAs are shared by every caller, so their moves are read-only.
        object.__setattr__(self, "delta", MappingProxyType(self.delta))

    def accepts(self, word: SymbolicWord) -> bool:
        state = self.initial
        for letter in word:
            nxt = self.delta.get((state, letter))
            if nxt is None:
                return False
            state = nxt
        return state in self.finals


def as_nfa(fa: SymbolicNfa | SymbolicDfa) -> SymbolicNfa:
    if isinstance(fa, SymbolicNfa):
        return fa
    return SymbolicNfa(
        alphabet=fa.alphabet,
        states=fa.states,
        initials=frozenset({fa.initial}),
        finals=fa.finals,
        transitions=frozenset((s, x, t) for (s, x), t in fa.delta.items()),
        registers=fa.registers,
    )


def _sorted_letters(alphabet) -> list[TransitionLabel]:
    return sorted(alphabet, key=letter_key)


def renumber(dfa: SymbolicDfa) -> SymbolicDfa:
    """Canonical state numbering: BFS from the initial state, letters in order.

    Unreachable states are dropped.  Two minimal DFAs of the same language
    come out structurally equal.
    """
    table = DfaTable.of(dfa)
    return subset_construction(
        0,
        lambda s: [(x, t) for x, t in enumerate(table.rows[s]) if t >= 0],
        table.finals.__getitem__,
        dfa.alphabet,
        dfa.registers,
    ).to_dfa()


def isomorphic(d1: SymbolicDfa, d2: SymbolicDfa) -> bool:
    """Structural equality up to state names (trim both sides first via renumber)."""
    a, b = renumber(d1), renumber(d2)
    return (
        a.states == b.states
        and a.finals == b.finals
        and a.delta == b.delta
    )


@dataclass
class DfaTable:
    """A DFA on states 0..n-1, initial state 0, over letter indices.

    Letter x is the x-th letter of the alphabet in ``letter_key`` order, and
    ``rows[s][x]`` is the target of state s on it, or -1 when s has no move.
    """

    rows: list[list[int]]
    finals: list[bool]
    alphabet: frozenset[TransitionLabel]
    registers: int

    @classmethod
    def of(cls, dfa: SymbolicDfa) -> "DfaTable":
        """Index a DFA's states (initial first) and letters once."""
        index = {x: i for i, x in enumerate(_sorted_letters(dfa.alphabet))}
        ids = {dfa.initial: 0}
        for s in dfa.states:
            ids.setdefault(s, len(ids))
        rows = [[-1] * len(index) for _ in ids]
        for (s, x), t in dfa.delta.items():
            if x in index:
                rows[ids[s]][index[x]] = ids[t]
        finals = [False] * len(ids)
        for s in dfa.finals:
            finals[ids[s]] = True
        return cls(rows, finals, dfa.alphabet, dfa.registers)

    def to_dfa(self) -> SymbolicDfa:
        """The same DFA with states named "0", "1", ..."""
        letters = _sorted_letters(self.alphabet)
        names = [str(s) for s in range(len(self.rows))]
        return SymbolicDfa(
            alphabet=self.alphabet,
            states=frozenset(names),
            initial="0",
            finals=frozenset(names[s] for s, final in enumerate(self.finals) if final),
            delta={
                (names[s], letters[x]): names[t]
                for s, row in enumerate(self.rows)
                for x, t in enumerate(row)
                if t >= 0
            },
            registers=self.registers,
        )

    def minimal(self) -> SymbolicDfa:
        """Minimal trim partial DFA for the language, canonically numbered.

        Moore partition refinement on the table completed by a sink state,
        appended last so that a missing move (-1) indexes it: blocks split by
        (block, blocks of the successors) until their number stops growing.
        The quotient keeps the blocks reachable from the initial block
        through blocks that can reach a final one, numbered breadth-first
        with letters in order.  The initial state survives even when the
        language is empty, because a DFA needs one.
        """
        rows = self.rows + [[-1] * len(self.alphabet)]
        block = [int(final) for final in self.finals] + [0]
        count = len(set(block))
        while True:
            signatures: dict[tuple, int] = {}
            block = [
                signatures.setdefault((block[s],) + tuple(map(block.__getitem__, row)),
                                      len(signatures))
                for s, row in enumerate(rows)
            ]
            if len(signatures) == count:
                break
            count = len(signatures)

        q_rows: list[list[int] | None] = [None] * count
        for s, row in enumerate(rows):
            if q_rows[block[s]] is None:
                q_rows[block[s]] = [block[t] for t in row]
        q_finals = {block[s] for s, final in enumerate(self.finals) if final}
        sources: list[list[int]] = [[] for _ in range(count)]
        for b, row in enumerate(q_rows):
            for t in row:
                sources[t].append(b)
        alive = set(q_finals)
        stack = list(alive)
        while stack:
            for b in sources[stack.pop()]:
                if b not in alive:
                    alive.add(b)
                    stack.append(b)
        return subset_construction(
            block[0],
            lambda b: [(x, t) for x, t in enumerate(q_rows[b]) if t in alive],
            q_finals.__contains__,
            self.alphabet,
            self.registers,
        ).to_dfa()


def subset_construction(start, successors, accepting, alphabet, registers: int) -> DfaTable:
    """Breadth-first subset construction over letter indices, canonically numbered.

    ``successors(subset)`` lists the (letter index, next subset) pairs that
    leave a subset, by increasing letter index, and ``accepting(subset)``
    tells whether it is final.  Subsets are numbered in the order they are
    found, so the numbering does not depend on how their members are named.
    A subset may be any hashable value, a single state too: this is the one
    canonical numbering, which ``determinize_table``, the canonical general
    path, ``renumber`` and the quotient of ``DfaTable.minimal`` all run on.
    """
    width = len(alphabet)
    names = {start: 0}
    order = [start]
    rows: list[list[int]] = []
    i = 0
    while i < len(order):
        subset = order[i]
        i += 1
        row = [-1] * width
        for x, target in successors(subset):
            t = names.get(target)
            if t is None:
                t = names[target] = len(order)
                order.append(target)
            row[x] = t
        rows.append(row)
    return DfaTable(rows, [accepting(s) for s in order], alphabet, registers)


def pooled_moves(rows, letters) -> list[tuple[int, frozenset[int]]]:
    """Targets a subset reaches by each letter index in ``letters``, where it reaches any.

    ``rows`` holds one row per member of the subset: ``row[x]`` lists that
    member's target ids by letter index x.
    """
    out = []
    for x in letters:
        targets = frozenset().union(*map(itemgetter(x), rows))
        if targets:
            out.append((x, targets))
    return out


def determinize_table(nfa: SymbolicNfa) -> DfaTable:
    """The subset construction of ``determinize``, as an int table."""
    every = range(len(nfa.alphabet))
    index = {x: i for i, x in enumerate(_sorted_letters(nfa.alphabet))}
    ids: dict[str, int] = {}
    table: list[list[list[int]]] = []

    def state_id(s: str) -> int:
        if s not in ids:
            ids[s] = len(table)
            table.append([[] for _ in every])
        return ids[s]

    for src, x, dst in nfa.transitions:
        if x in index:
            table[state_id(src)][index[x]].append(state_id(dst))
    start = frozenset(state_id(s) for s in nfa.initials)
    finals = {ids[s] for s in nfa.finals if s in ids}
    return subset_construction(
        start,
        lambda subset: pooled_moves([table[s] for s in subset], every),
        lambda subset: not finals.isdisjoint(subset),
        nfa.alphabet,
        nfa.registers,
    )


def determinize(nfa: SymbolicNfa) -> SymbolicDfa:
    """Subset construction, reachable part only, canonically numbered."""
    return determinize_table(nfa).to_dfa()


def complement(dfa: SymbolicDfa, alphabet=None) -> SymbolicDfa:
    """Complete over the union of the DFA's alphabet and the given one, swap finals.

    Missing moves go to a new sink state, which is accepting in the result.
    """
    alpha = dfa.alphabet if alphabet is None else dfa.alphabet | frozenset(alphabet)
    sink = "sink"
    while sink in dfa.states:
        sink = "_" + sink
    states = dfa.states | {sink}
    delta = dict(dfa.delta)
    for s in states:
        for x in alpha:
            delta.setdefault((s, x), sink)
    return SymbolicDfa(alpha, states, dfa.initial, states - dfa.finals, delta, dfa.registers)


def minimize(dfa: SymbolicDfa) -> SymbolicDfa:
    """Minimal trim partial DFA for the language, canonically numbered.

    States and letters are indexed once into a table of ints, minimized
    there (see ``DfaTable.minimal``) and translated back at the end.
    """
    return DfaTable.of(dfa).minimal()


def product(x: SymbolicNfa | SymbolicDfa, y: SymbolicNfa | SymbolicDfa) -> SymbolicNfa:
    """Intersection product, reachable pairs only."""
    nx, ny = as_nfa(x), as_nfa(y)
    letters = _sorted_letters(nx.alphabet | ny.alphabet)
    dx, dy = nx.delta, ny.delta
    names: dict[tuple[str, str], str] = {}
    order: list[tuple[str, str]] = []
    for s in sorted(nx.initials):
        for t in sorted(ny.initials):
            names[(s, t)] = f"p{len(order)}"
            order.append((s, t))
    initials = frozenset(names.values())
    transitions = set()
    i = 0
    while i < len(order):
        s, t = order[i]
        i += 1
        for letter in letters:
            for s2 in sorted(dx.get((s, letter), ())):
                for t2 in sorted(dy.get((t, letter), ())):
                    pair = (s2, t2)
                    if pair not in names:
                        names[pair] = f"p{len(order)}"
                        order.append(pair)
                    transitions.add((names[(s, t)], letter, names[pair]))
    finals = frozenset(
        names[(s, t)] for (s, t) in order if s in nx.finals and t in ny.finals
    )
    return SymbolicNfa(
        alphabet=nx.alphabet | ny.alphabet,
        states=frozenset(names.values()),
        initials=initials,
        finals=finals,
        transitions=frozenset(transitions),
        registers=max(nx.registers, ny.registers),
    )


def moves_by_source(transitions) -> dict[str, list[tuple[TransitionLabel, str]]]:
    """The (letter, target) pairs leaving each source of some (source, letter, target) triples."""
    moves: dict[str, list[tuple[TransitionLabel, str]]] = {}
    for s, x, t in transitions:
        moves.setdefault(s, []).append((x, t))
    return moves


def shortlex_search(starts, successors, accepting) -> SymbolicWord | None:
    """Shortlex-least word leading from ``starts`` to an accepting node, or None.

    ``successors(node)`` lists the (letter, node) pairs that leave a node, in
    any order.  Nodes are visited once, in groups that share their least
    access word: a group's successors by one letter, less every node seen
    before, form the next group.  Groups are expanded in the order they are
    found, letters in ``letter_key`` order, so they come in shortlex order of
    their words even where one word reaches several nodes.  The first group
    holding an accepting node carries the witness.
    """
    seen = set(starts)
    queue = [((), frozenset(seen))]
    for word, group in queue:
        if any(map(accepting, group)):
            return word
        moves: dict[TransitionLabel, set] = {}
        for node in group:
            for letter, target in successors(node):
                if target not in seen:
                    moves.setdefault(letter, set()).add(target)
        for letter in sorted(moves, key=letter_key):
            targets = moves[letter] - seen
            if targets:
                seen |= targets
                queue.append((word + (letter,), targets))
    return None


def shortest_accepted(fa: SymbolicNfa | SymbolicDfa) -> SymbolicWord | None:
    """Shortest accepted word; ties broken by the letter order, None if empty."""
    nfa = as_nfa(fa)
    moves = moves_by_source(nfa.transitions)
    return shortlex_search(nfa.initials, lambda s: moves.get(s, ()), nfa.finals.__contains__)


def _first_difference(x, y, symmetric: bool) -> SymbolicWord | None:
    """Shortlex-least word of L(x) \\ L(y), or of the symmetric difference, or None.

    One search over pairs (state of x or None, state of y or None), None
    standing for a missing move, that follows the letters of x, and of y too
    when the difference is symmetric.  An NFA operand is determinized first.
    """
    dx, dy = (fa if isinstance(fa, SymbolicDfa) else determinize(fa) for fa in (x, y))
    outx, outy = {}, {}
    for out, dfa in ((outx, dx), (outy, dy)):
        for s, letter in dfa.delta:
            out.setdefault(s, []).append(letter)

    def successors(pair):
        s, t = pair
        letters = outx.get(s, []) + outy.get(t, []) if symmetric else outx.get(s, ())
        return [(a, (dx.delta.get((s, a)), dy.delta.get((t, a)))) for a in letters]

    def accepting(pair) -> bool:
        in_x, in_y = pair[0] in dx.finals, pair[1] in dy.finals
        return in_x != in_y if symmetric else in_x and not in_y

    return shortlex_search([(dx.initial, dy.initial)], successors, accepting)


def symbolic_inclusion(x, y) -> SymbolicWord | None:
    """Shortlex-least witness of L(x) \\ L(y), or None when L(x) is included in L(y)."""
    return _first_difference(x, y, False)


def symbolic_equivalence(x, y) -> SymbolicWord | None:
    """Shortlex-least witness in the symmetric difference, or None when equivalent."""
    return _first_difference(x, y, True)
