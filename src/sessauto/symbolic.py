"""Finite automata over symbolic letters.

These are ordinary NFAs/DFAs whose alphabet consists of TransitionLabel
values.  They carry the symbolic-language side of every construction: the
data-word semantics never appears here.  An input automaton is read
through its ``StateIndex``, its states numbered once.  A ``SymbolicNfa``
keeps string states; no library path reads one, and tests and the
benchmark's checks build them as references: ``product``,
``shortest_accepted`` and ``determinize`` take one and nothing else.  A
DFA is its alphabet, its rows and its finals, and nothing else (the
register bound belongs to the automaton read back from it): an int table
on states 0..n-1, initial state 0, letters indexed in ``letter_key``
order.  A ``LazyDfa`` is a DFA
given by its move function, whose states are numbered and expanded when
they are first read.  Every operation that synthesizes a DFA numbers it
canonically (breadth-first from the initial state, expanding letters in
their order): a LazyDfa explored in full by ``table``, which makes
minimal automata comparable by plain structural equality.
``determinize_ids`` returns its LazyDfa unexplored.  ``shortlex_search``
stops at the shortlex-least word reaching an accepting node, and reads a
LazyDfa only that far.  Every pair walk, of an automaton's index or a DFA
x and a DFA y that follows it, runs on ``paired_moves``: y goes to -1
where it has no move.  ``_first_difference`` searches it, the one
difference search: inclusion, equivalence, universality and the
normal-form check.  Emptiness searches it for a common word, and intersect
and complement_bounded number it.
The index, the NFA and the int table are frozen and hand out only
immutable values (the index's moves by label and the NFA's ``delta`` are
read-only), so a cached result cannot be changed by its callers.  A
LazyDfa grows as it is read, and nothing caches one.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from operator import or_
from types import MappingProxyType

from .words import SymbolicWord, TransitionLabel, letter_key


@dataclass(frozen=True)
class SymbolicNfa:
    alphabet: frozenset[TransitionLabel]
    states: frozenset[str]
    initials: frozenset[str]
    finals: frozenset[str]
    transitions: frozenset[tuple[str, TransitionLabel, str]]

    @cached_property
    def delta(self) -> Mapping[tuple[str, TransitionLabel], frozenset[str]]:
        # Read-only: a cached value that no caller can change.
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


class StateIndex(namedtuple("StateIndex", "names initial finals moves live labels")):
    """An automaton's states numbered 0..n-1 in sorted-name order, and its moves on those ids:
    ``names[q]`` is the name of state q, ``moves[q]`` lists its (letter, target id) pairs,
    ``finals`` and ``live`` (the ids that reach a final state) are frozensets of ids, and
    ``labels`` is the alphabet."""

    def __reduce__(self):  # pickled without ``by_label``, which is rebuilt when read
        return StateIndex, tuple(self)

    @cached_property
    def by_label(self) -> Mapping[str, tuple]:
        """Each label -> id -> the (kind, register, target id) of its moves, as a run reads them."""
        rows = {label: [[] for _ in self.names] for label in self.labels}
        for s, out in enumerate(self.moves):
            for (label, op), t in out:
                if label in rows:  # a run never reads a label outside the alphabet
                    rows[label][s].append((*op, t))
        return MappingProxyType({label: tuple(map(tuple, r)) for label, r in rows.items()})


def index_states(states, initial, finals, alphabet, transitions) -> StateIndex:
    """The ``StateIndex`` of an automaton's parts: the one numbering of its states."""
    names = tuple(sorted(states))
    ids = {q: i for i, q in enumerate(names)}
    moves, sources = [[] for _ in names], [[] for _ in names]
    for s, x, t in transitions:
        s, t = ids[s], ids[t]
        moves[s].append((x, t))
        sources[t].append(s)
    final_ids = frozenset(map(ids.__getitem__, finals))
    return StateIndex(names, ids[initial], final_ids, tuple(map(tuple, moves)),
                      frozenset(_coreachable(sources, final_ids)), alphabet)


class _Lettered:
    """The letters of an ``alphabet`` in ``letter_key`` order, which number a DFA's columns."""

    alphabet: frozenset[TransitionLabel]

    @cached_property
    def letters(self) -> tuple[TransitionLabel, ...]:
        return tuple(sorted(self.alphabet, key=letter_key))

    @cached_property
    def _index(self) -> dict[TransitionLabel, int]:
        return {x: i for i, x in enumerate(self.letters)}

    def column(self, letter: TransitionLabel) -> int | None:
        """The index of a letter in the rows, None when it is outside the alphabet."""
        return self._index.get(letter)


@dataclass(frozen=True)
class SymbolicDfa(_Lettered):
    """A DFA on states 0..n-1, initial state 0, over letter indices.

    Letter x is the x-th letter of the alphabet in ``letter_key`` order (see
    ``letters``), and ``rows[s][x]`` is the target of state s on it, or -1
    when s has no move.
    """

    alphabet: frozenset[TransitionLabel]
    rows: tuple[tuple[int, ...], ...]
    finals: frozenset[int]

    initial = 0  # not a field: every table starts in state 0

    @property
    def states(self) -> range:
        return range(len(self.rows))

    def row(self, s: int) -> tuple[int, ...]:
        return self.rows[s]

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


class LazyDfa(_Lettered):
    """A DFA whose states are numbered and expanded when they are first read.

    ``successors(node)`` lists the (letter index, next node) pairs that leave
    a node, by increasing letter index, and ``accepting(node)`` tells whether
    it is final.  A node may be any hashable value: a subset of states, held
    as an int bitset over their ids (see ``members``), or a pair holding one.
    The start node is state 0; every other node is numbered when a row
    first reaches it, and is final when it is in ``finals``.  ``row(s)``
    computes the moves of state s; a walk reads only the rows it reaches,
    and keeps those it reads again (see ``paired_moves``).  ``table`` reads
    every row.
    """

    initial = 0  # the start node's number

    def __init__(self, start, successors, accepting, alphabet):
        self.alphabet = alphabet
        self._successors, self._accepting = successors, accepting
        self._ids = {start: 0}
        self._nodes = [start]
        self.finals = {0} if accepting(start) else set()

    def row(self, s: int) -> tuple[int, ...]:
        ids, nodes = self._ids, self._nodes
        row = [-1] * len(self.alphabet)
        for x, target in self._successors(nodes[s]):
            t = ids.get(target)
            if t is None:
                t = ids[target] = len(nodes)
                nodes.append(target)
                if self._accepting(target):
                    self.finals.add(t)
            row[x] = t
        return tuple(row)

    def table(self) -> SymbolicDfa:
        """Every state reachable from 0, expanded, as one int table, canonically numbered.

        On a LazyDfa nothing has read before, the rows are read from 0 up,
        which numbers the states breadth-first with letters in order: nodes,
        int bitsets over their members' ids wherever members are pooled, are
        numbered in the order they are found, so the numbering does not
        depend on how their members are named or which ids they get.  This is
        the one canonical numbering: ``minimize``, ``renumber`` and the
        boolean operations run on it, and so does every LazyDfa explored in
        full, ``determinize``, the normal-form and well-formedness DFAs and
        ``canonicalize`` among them.
        """
        # The loop also reaches the states that the rows it reads append.
        row = self.row
        rows = tuple([row(s) for s, _ in enumerate(self._nodes)])
        return SymbolicDfa(self.alphabet, rows, frozenset(self.finals))


def renumber(dfa: SymbolicDfa) -> SymbolicDfa:
    """Canonical state numbering: BFS from the initial state, letters in order.

    Unreachable states are dropped.  Two minimal DFAs of the same language
    come out structurally equal.
    """
    rows = dfa.rows
    return LazyDfa(0, lambda s: [(x, t) for x, t in enumerate(rows[s]) if t >= 0],
                   dfa.finals.__contains__, dfa.alphabet).table()


def isomorphic(d1: SymbolicDfa, d2: SymbolicDfa) -> bool:
    """Structural equality of the reachable parts up to state numbers (both ``renumber``ed).

    Only unreachable states are dropped: a reachable state that accepts
    nothing still counts, so a DFA with one is not isomorphic to its
    ``minimize``.  Moves are compared by letter, so DFAs over different
    alphabets that use the same letters compare equal.
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
    return LazyDfa(block[0], lambda b: [(x, t) for x, t in enumerate(q_rows[b]) if t in alive],
                   q_finals.__contains__, dfa.alphabet).table()


def members(subset: int) -> list[int]:
    """The ids of a subset held as an int bitset: bit i is set when member i is in it."""
    out = []
    while subset:
        low = subset & -subset
        out.append(low.bit_length() - 1)
        subset ^= low
    return out


def pooled_moves(rows, letters) -> list[tuple[int, int]]:
    """Targets a subset reaches by each letter index in ``letters``, where it reaches any.

    ``rows`` holds one row per member of the subset: ``row[x]`` is the int
    bitset of that member's target ids by letter index x, and the targets of
    the subset are their OR.
    """
    if not rows:
        return []
    pooled = rows[0]
    for row in rows[1:]:
        pooled = list(map(or_, pooled, row))
    return [(x, targets) for x in letters if (targets := pooled[x])]


def determinize(nfa: SymbolicNfa) -> SymbolicDfa:
    """Subset construction, reachable part only, canonically numbered: ``determinize_ids``
    explored in full."""
    ids = {s: i for i, s in enumerate(nfa.states)}
    moves: list[list[tuple[TransitionLabel, int]]] = [[] for _ in ids]
    for s, x, t in nfa.transitions:
        moves[ids[s]].append((x, ids[t]))
    return determinize_ids(moves, sum(1 << ids[s] for s in nfa.initials),
                           sum(1 << ids[s] for s in nfa.finals), nfa.alphabet).table()


def determinize_ids(moves, start: int, finals: int, alphabet) -> LazyDfa:
    """The subset construction of an NFA on ids 0..n-1 as an unexplored ``LazyDfa``:
    ``moves[s]`` lists the (letter, target id) pairs leaving s, a letter outside ``alphabet``
    skipped, and ``start``, ``finals`` and the subsets are bitsets of ids.  ``table()``
    numbers its reachable part canonically; a search reads only the rows it reaches."""
    dfa = LazyDfa(start, lambda subset: pooled_moves([rows[s] for s in members(subset)], every),
                  lambda subset: subset & finals != 0, alphabet)
    column = dfa._index  # the rows below are built before the first move is read
    rows = [[0] * len(column) for _ in moves]
    for row, out in zip(rows, moves):
        for x, t in out:
            if x in column:
                row[column[x]] |= 1 << t
    every = range(len(column))
    return dfa


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
    return SymbolicDfa(alpha, rows, frozenset(range(sink + 1)) - dfa.finals)


def product(nx: SymbolicNfa, ny: SymbolicNfa) -> SymbolicNfa:
    """Intersection product, reachable pairs only."""
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
    for s, t in order:  # which also reaches the pairs appended below
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
    )


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


def shortest_accepted(nfa: SymbolicNfa) -> SymbolicWord | None:
    """Shortest accepted word; ties broken by the letter order, None if empty."""
    delta = nfa.delta
    return shortlex_search(nfa.initials,
                           lambda s: [(x, t) for x in nfa.alphabet for t in delta.get((s, x), ())],
                           nfa.finals.__contains__)


class _Memo(dict):
    """A dict that computes a missing key's value by ``compute(key)``, and keeps it."""

    def __init__(self, compute):
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


def paired_moves(x, y, along: str = "x", columns: bool = False):
    """The ``successors`` of the pairs (state of x, state of y) of two automata read together.

    y is a DFA, a SymbolicDfa or a LazyDfa.  x is one too or, to search
    for inclusion or emptiness, an automaton's ``StateIndex``, whose moves
    into states outside ``live`` are dropped: like -1 below, such a state
    accepts nothing, so every witness stays the same.  Nothing is built up
    front: the moves of each state of x, and each row of y, are worked out
    when the walk first reaches them, once however many pairs they are in.
    ``along``:
      "x"       every move of x; y follows it and goes to -1 where it has
                no move, and -1 has no moves;
      "both"    only the moves of x that y follows;
      "either"  as "x", and y's own moves on letters x does not read lead
                to (-1, t).
    Moves are labeled by their letter, or with ``columns`` (x a DFA, not
    "either") by the letter's index in x, as a ``LazyDfa`` reads.
    """
    column = y._index.get
    if isinstance(x, (SymbolicDfa, LazyDfa)):
        keys = range(len(x.letters)) if columns else x.letters
        to_y = [column(a, -1) for a in x.letters]
        out = _Memo(lambda s: [(a, s2, c) for a, c, s2 in zip(keys, to_y, x.row(s)) if s2 >= 0])
    else:
        moves, live = x.moves, x.live
        out = _Memo(lambda s: [(a, s2, column(a, -1)) for a, s2 in moves[s] if s2 in live])
    out[-1] = ()  # in a pair of the symmetric walk, -1 stands for x too
    # y's rows as the walk reaches them, padded: a letter y lacks reads the
    # column -1 of -1, and the row of -1 is all -1.
    rows = _Memo(lambda t: y.row(t) + (-1,))
    rows[-1] = (-1,) * (len(y.letters) + 1)
    both, either = along == "both", along == "either"

    def successors(pair):
        moves, row = out[pair[0]], rows[pair[1]]
        if both:
            return [(a, (s2, t2)) for a, s2, c in moves if (t2 := row[c]) >= 0]
        step = [(a, (s2, row[c])) for a, s2, c in moves]
        if either:
            read = {c for _, _, c in moves}
            step += [(a, (-1, t2)) for c, (a, t2) in enumerate(zip(y.letters, row))
                     if t2 >= 0 and c not in read]
        return step
    return successors


def _first_difference(x, y, symmetric: bool) -> SymbolicWord | None:
    """Shortlex-least word of L(x) \\ L(y), or of the symmetric difference, or None.

    The one difference search: a ``shortlex_search`` over ``paired_moves``
    from (x.initial, 0).  y is a DFA, x one too or, for inclusion, an
    automaton's ``StateIndex``; a LazyDfa is explored only as far as the
    search goes.
    """
    def accepting(pair) -> bool:
        in_x, in_y = pair[0] in x.finals, pair[1] in y.finals
        return in_x != in_y if symmetric else in_x and not in_y

    return shortlex_search([(x.initial, 0)], paired_moves(x, y, "either" if symmetric else "x"),
                           accepting)


def symbolic_inclusion(x, y) -> SymbolicWord | None:
    """Shortlex-least witness of L(x) \\ L(y), or None when L(x) is included in L(y)."""
    return _first_difference(x, y, False)


def symbolic_equivalence(x, y) -> SymbolicWord | None:
    """Shortlex-least witness in the symmetric difference, or None when equivalent."""
    return _first_difference(x, y, True)
