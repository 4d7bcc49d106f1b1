"""Finite automata over symbolic letters.

These are ordinary NFAs/DFAs whose alphabet consists of TransitionLabel
values.  They carry the symbolic-language side of every construction: the
data-word semantics never appears here.  An NFA is the view of an input
automaton and keeps its string states.  A DFA is an int table: states
0..n-1, initial state 0, letters indexed in ``letter_key`` order.  Every
operation that synthesizes a DFA numbers it canonically (breadth-first from
the initial state, expanding letters in their order), which makes minimal
automata comparable by plain structural equality.  Two kernels do the work:
``subset_construction`` numbers, and ``shortlex_search`` stops at the
shortlex-least word reaching an accepting node.  Every pair walk, of an
automaton x and a DFA y that follows it, runs on ``paired_moves``: y goes to
-1 where it has no move, and states of x that reach no final state are left
out.  Inclusion, equivalence, emptiness and the normal-form check search it,
and intersect and complement_bounded number it.
Both automaton classes are frozen and hand out only immutable values (the
NFA's moves by source are read-only), so a cached result cannot be changed
by its callers.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping
from dataclasses import dataclass
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
        # Read-only: every Automaton shares its symbolic view.
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
    """A DFA on states 0..n-1, initial state 0, over letter indices.

    Letter x is the x-th letter of the alphabet in ``letter_key`` order (see
    ``letters``), and ``rows[s][x]`` is the target of state s on it, or -1
    when s has no move.
    """

    alphabet: frozenset[TransitionLabel]
    rows: tuple[tuple[int, ...], ...]
    finals: frozenset[int]
    registers: int = 0

    initial = 0  # not a field: every table starts in state 0

    @property
    def states(self) -> range:
        return range(len(self.rows))

    @cached_property
    def letters(self) -> tuple[TransitionLabel, ...]:
        return tuple(sorted(self.alphabet, key=letter_key))

    @cached_property
    def _index(self) -> dict[TransitionLabel, int]:
        return {x: i for i, x in enumerate(self.letters)}

    def column(self, letter: TransitionLabel) -> int | None:
        """The index of a letter in the rows, None when it is outside the alphabet."""
        return self._index.get(letter)

    @property
    def transitions(self) -> tuple[tuple[int, TransitionLabel, int], ...]:
        """Every move as (state, letter, target), by state, then letter."""
        letters = self.letters
        return tuple((s, letters[x], t)
                     for s, row in enumerate(self.rows) for x, t in enumerate(row) if t >= 0)

    def accepts(self, word: SymbolicWord) -> bool:
        index, rows, state = self._index, self.rows, 0
        for letter in word:
            x = index.get(letter)
            if x is None:
                return False
            state = rows[state][x]
            if state < 0:
                return False
        return state in self.finals


def _as_nfa(fa: SymbolicNfa | SymbolicDfa) -> SymbolicNfa:
    if isinstance(fa, SymbolicNfa):
        return fa
    return SymbolicNfa(
        alphabet=fa.alphabet,
        states=frozenset(fa.states),
        initials=frozenset({fa.initial}),
        finals=fa.finals,
        transitions=frozenset(fa.transitions),
        registers=fa.registers,
    )


def renumber(dfa: SymbolicDfa) -> SymbolicDfa:
    """Canonical state numbering: BFS from the initial state, letters in order.

    Unreachable states are dropped.  Two minimal DFAs of the same language
    come out structurally equal.
    """
    rows = dfa.rows
    return subset_construction(
        0,
        lambda s: [(x, t) for x, t in enumerate(rows[s]) if t >= 0],
        dfa.finals.__contains__,
        dfa.alphabet,
        dfa.registers,
    )


def isomorphic(d1: SymbolicDfa, d2: SymbolicDfa) -> bool:
    """Structural equality up to state numbers (trim both sides first via renumber).

    Moves are compared by letter, so DFAs over different alphabets that use
    the same letters compare equal.
    """
    a, b = renumber(d1), renumber(d2)
    return (
        len(a.rows) == len(b.rows)
        and a.finals == b.finals
        and set(a.transitions) == set(b.transitions)
    )


def _coreachable(sources, finals) -> set:
    """The states that reach a final state; ``sources[t]`` lists the states moving to t."""
    live = set(finals)
    stack = list(live)
    while stack:
        for s in sources[stack.pop()]:
            if s not in live:
                live.add(s)
                stack.append(s)
    return live


def minimize(dfa: SymbolicDfa) -> SymbolicDfa:
    """Minimal trim partial DFA for the language, canonically numbered.

    Moore partition refinement on the table completed by a sink state,
    appended last so that a missing move (-1) indexes it: blocks split by
    (block, blocks of the successors) until their number stops growing.
    The quotient keeps the blocks reachable from the initial block through
    blocks that can reach a final one, numbered breadth-first with letters in
    order.  The initial state survives even when the language is empty,
    because a DFA needs one.
    """
    rows = dfa.rows + ((-1,) * len(dfa.alphabet),)
    block = [int(s in dfa.finals) for s in range(len(rows))]
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
    q_finals = {block[s] for s in dfa.finals}
    sources: list[list[int]] = [[] for _ in range(count)]
    for b, row in enumerate(q_rows):
        for t in row:
            sources[t].append(b)
    alive = _coreachable(sources, q_finals)
    return subset_construction(
        block[0],
        lambda b: [(x, t) for x, t in enumerate(q_rows[b]) if t in alive],
        q_finals.__contains__,
        dfa.alphabet,
        dfa.registers,
    )


def subset_construction(start, successors, accepting, alphabet, registers: int) -> SymbolicDfa:
    """Breadth-first subset construction over letter indices, canonically numbered.

    ``successors(subset)`` lists the (letter index, next subset) pairs that
    leave a subset, by increasing letter index, and ``accepting(subset)``
    tells whether it is final.  Subsets are numbered in the order they are
    found, so the numbering does not depend on how their members are named.
    A subset may be any hashable value, a single state or a pair of states
    too: this is the one canonical numbering, which ``determinize``,
    ``minimize``, ``renumber``, the normal-form and well-formedness DFAs,
    the canonical general path and the boolean operations all run on.
    """
    width = len(alphabet)
    names = {start: 0}
    order = [start]
    rows: list[tuple[int, ...]] = []
    for subset in order:
        row = [-1] * width
        for x, target in successors(subset):
            t = names.get(target)
            if t is None:
                t = names[target] = len(order)
                order.append(target)
            row[x] = t
        rows.append(tuple(row))
    finals = frozenset(s for s, subset in enumerate(order) if accepting(subset))
    return SymbolicDfa(alphabet, tuple(rows), finals, registers)


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


def determinize(nfa: SymbolicNfa) -> SymbolicDfa:
    """Subset construction, reachable part only, canonically numbered."""
    every = range(len(nfa.alphabet))
    index = {x: i for i, x in enumerate(sorted(nfa.alphabet, key=letter_key))}
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


def complement(dfa: SymbolicDfa, alphabet=None) -> SymbolicDfa:
    """Complete over the union of the DFA's alphabet and the given one, swap finals.

    Missing moves go to a new sink state, numbered last, which is accepting
    in the result.
    """
    alpha = dfa.alphabet if alphabet is None else dfa.alphabet | frozenset(alphabet)
    columns = [dfa.column(x) for x in sorted(alpha, key=letter_key)]
    sink = len(dfa.rows)
    rows = tuple(
        tuple(sink if x is None or row[x] < 0 else row[x] for x in columns)
        for row in dfa.rows
    ) + ((sink,) * len(columns),)
    return SymbolicDfa(alpha, rows, frozenset(range(sink + 1)) - dfa.finals, dfa.registers)


def product(x: SymbolicNfa | SymbolicDfa, y: SymbolicNfa | SymbolicDfa) -> SymbolicNfa:
    """Intersection product, reachable pairs only."""
    nx, ny = _as_nfa(x), _as_nfa(y)
    letters = sorted(nx.alphabet | ny.alphabet, key=letter_key)
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
    nfa = _as_nfa(fa)
    moves = moves_by_source(nfa.transitions)
    return shortlex_search(nfa.initials, lambda s: moves.get(s, ()), nfa.finals.__contains__)


def paired_moves(x, y: SymbolicDfa, symmetric: bool = False):
    """The ``successors`` of the pairs (state of x, state of y) along the moves of x.

    x has states, finals and ``(source, letter, target)`` transitions: an
    Automaton, or a SymbolicDfa, whose rows are read directly.  y follows
    each move of x and goes to -1 where it has no move; -1 has no moves.
    Moves into states of x that cannot reach a final state are dropped; like
    -1, such a state accepts nothing, so every witness stays the same.
    With ``symmetric``, y's own moves on letters x does not read lead to (-1, t).
    """
    # Per state of x: (letter, target, column of the letter in y or -1).
    column = y._index.get
    if isinstance(x, SymbolicDfa):
        columns = [(a, column(a, -1)) for a in x.letters]
        out = {s: [(a, s2, c) for (a, c), s2 in zip(columns, row) if s2 >= 0]
               for s, row in enumerate(x.rows)}
        sources = [[] for _ in range(len(x.rows) + 1)]  # the last one for -1
        for s, row in enumerate(x.rows):
            for s2 in row:
                sources[s2].append(s)
    else:
        out, sources = defaultdict(list), defaultdict(list)
        for s, a, s2 in x.transitions:
            out[s].append((a, s2, column(a, -1)))
            sources[s2].append(s)
    live = _coreachable(sources, x.finals)
    if len(live) < len(x.states):
        out = {s: [m for m in moves if m[1] in live] for s, moves in out.items()}
    # Rows of y gain a column -1 of -1, and state -1 a row of -1.
    rows = tuple(row + (-1,) for row in y.rows) + ((-1,) * (len(y.letters) + 1),)

    def successors(pair):
        row, moves = rows[pair[1]], out.get(pair[0], ())
        step = [(a, (s2, row[c])) for a, s2, c in moves]
        if symmetric:
            read = {c for _, _, c in moves}
            step += [(a, (-1, t2)) for c, (a, t2) in enumerate(zip(y.letters, row))
                     if t2 >= 0 and c not in read]
        return step
    return successors


def _first_difference(x, y, symmetric: bool) -> SymbolicWord | None:
    """Shortlex-least word of L(x) \\ L(y), or of the symmetric difference, or None.

    A ``shortlex_search`` over ``paired_moves``; NFA operands are determinized.
    """
    dx, dy = (fa if isinstance(fa, SymbolicDfa) else determinize(fa) for fa in (x, y))

    def accepting(pair) -> bool:
        in_x, in_y = pair[0] in dx.finals, pair[1] in dy.finals
        return in_x != in_y if symmetric else in_x and not in_y

    return shortlex_search([(0, 0)], paired_moves(dx, dy, symmetric), accepting)


def symbolic_inclusion(x, y) -> SymbolicWord | None:
    """Shortlex-least witness of L(x) \\ L(y), or None when L(x) is included in L(y)."""
    return _first_difference(x, y, False)


def symbolic_equivalence(x, y) -> SymbolicWord | None:
    """Shortlex-least witness in the symmetric difference, or None when equivalent."""
    return _first_difference(x, y, True)
