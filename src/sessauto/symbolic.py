"""Finite automata over symbolic letters.

These are ordinary NFAs/DFAs whose alphabet consists of TransitionLabel
values.  They carry the symbolic-language side of every construction: the
data-word semantics never appears here.  An input automaton is read
through its ``StateIndex``, its states numbered once.  A ``SymbolicNfa``
keeps string states; no library path reads one, and tests and the
benchmark's checks build them as references: ``product``,
``shortest_accepted`` and ``determinize`` take one and nothing else.  A
DFA is its alphabet, its rows and its finals (the register bound belongs
to the automaton read back from it): an int table on states 0..n-1,
initial state 0, letters indexed in ``letter_key`` order, or a
``SubsetDfa``, whose states are numbered and expanded when they are first
read.  ``SubsetDfa`` is the one lazy DFA of the library: a lazy subset
construction over interned members, guarded by a DFA read alongside and
with a reduction applied to each target subset, once per (guard state,
target subset) that its rows meet, whose state it keeps; plain
determinization has neither.  Every operation that synthesizes a
DFA numbers it canonically (breadth-first from the initial state, letters
in order), which makes minimal automata comparable by plain equality.
Every decision runs one search, ``pair_search``: breadth-first over the
pairs of states of two DFAs on the union of their letters, whose rows it
zips by column, -1 standing for no state.  It reads a SubsetDfa only as
far as the witness; ``pair_table`` is the same walk in full.  Inclusion and
equivalence prune it up to congruence (``congruence``, after Bonchi & Pous,
POPL 2013): a pair that the pairs expanded before it already relate, their
sets of members closed under union, is not expanded, and the witness stays
the least.
The index, the NFA and the int table are frozen and hand out only
immutable values (the index's moves by label and the NFA's ``delta`` are
read-only), so a cached result cannot be changed by its callers; no cache
hands out a SubsetDfa, which grows as it is read.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import itemgetter, or_
from types import MappingProxyType

from .congruence import up_to_congruence
from .words import SymbolicWord, TransitionLabel, letter_key, symbolic_alphabet


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
                rows[label][s].append((*op, t))
        return MappingProxyType({label: tuple(map(tuple, r)) for label, r in rows.items()})


def index_states(states, initial, finals, alphabet, registers: int, transitions) -> StateIndex:
    """The ``StateIndex`` of an automaton's parts: the one numbering of its states.  A move off
    the labels or registers 1..``registers`` raises ValueError, a name off ``states`` KeyError."""
    names = tuple(sorted(states))
    ids = {q: i for i, q in enumerate(names)}
    moves, sources = [[] for _ in names], [[] for _ in names]
    letters = symbolic_alphabet(alphabet, registers)  # one set lookup a move, but for local ones
    for s, x, t in transitions:
        if x not in letters and (x.label not in alphabet or not 1 <= x.op.register <= registers):
            raise ValueError(f"the move {s} -{x}-> {t} is outside the symbolic alphabet")
        s, t = ids[s], ids[t]
        moves[s].append((x, t))
        sources[t].append(s)
    final_ids = frozenset(map(ids.__getitem__, finals))
    return StateIndex(names, ids[initial], final_ids, tuple(map(tuple, moves)),
                      frozenset(_coreachable(sources, final_ids)), alphabet)


@lru_cache(maxsize=256)
def _letter_order(alphabet: frozenset[TransitionLabel]) -> tuple[tuple, Mapping]:
    """The letters of an alphabet in ``letter_key`` order, and each one's index: one sort per
    alphabet, shared by every DFA over it."""
    letters = tuple(sorted(alphabet, key=letter_key))
    return letters, {x: i for i, x in enumerate(letters)}


class _Lettered:
    """The letters of an ``alphabet`` in ``letter_key`` order, which number a DFA's columns."""

    alphabet: frozenset[TransitionLabel]

    @cached_property
    def letters(self) -> tuple[TransitionLabel, ...]:
        return _letter_order(self.alphabet)[0]

    @cached_property
    def _index(self) -> Mapping[TransitionLabel, int]:
        return _letter_order(self.alphabet)[1]

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


def renumber(dfa: SymbolicDfa) -> SymbolicDfa:
    """Canonical state numbering: BFS from the initial state, letters in order.

    Unreachable states are dropped.  Two minimal DFAs of the same language
    come out structurally equal.
    """
    return pair_table(dfa, dfa, ALONG_X, lambda pair: pair[0] in dfa.finals)


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
    The quotient, its moves into blocks that reach no final one set to -1,
    is ``renumber``ed: block 0 is the initial block, as state 0's signature
    is the first numbered.  The initial state survives even when the
    language is empty, because a DFA needs one.
    """
    rows = dfa.rows + ((-1,) * len(dfa.alphabet),)
    block = [int(s in dfa.finals) for s in range(len(rows))]
    count = len(set(block))
    # Per state, the blocks of its successors in one C call: itemgetter of
    # one index returns a scalar, and of none raises, so no letters read ().
    successors = [itemgetter(*row) for row in rows] if dfa.alphabet else [lambda _: ()] * len(rows)
    while True:
        signatures: dict[tuple, int] = {}
        block = [signatures.setdefault((b, blocks(block)), len(signatures))
                 for b, blocks in zip(block, successors)]
        if len(signatures) == count:
            break
        count = len(signatures)

    q_rows: list[tuple[int, ...] | None] = [None] * count
    for s, row in enumerate(rows):
        if q_rows[block[s]] is None:
            q_rows[block[s]] = tuple(map(block.__getitem__, row))
    q_finals = {block[s] for s in dfa.finals}
    sources: list[list[int]] = [[] for _ in range(count)]
    for b, row in enumerate(q_rows):
        for t in row:
            sources[t].append(b)
    alive = _coreachable(sources, q_finals)
    quotient = tuple(tuple(t if t in alive else -1 for t in row) for row in q_rows)
    return renumber(SymbolicDfa(dfa.alphabet, quotient, frozenset(q_finals)))


def members(subset: int) -> list[int]:
    """The ids of a subset held as an int bitset: bit i is set when member i is in it."""
    out = []
    while subset:
        low = subset & -subset
        out.append(low.bit_length() - 1)
        subset ^= low
    return out


def _unreduced(n: int, targets: int) -> int:
    """The reduction that keeps every member."""
    return targets


class SubsetDfa(_Lettered):
    """The subset construction, guarded and reduced: the one lazy DFA of the library.

    A member is a hashable key, interned to the next id when first met
    (member i's key is ``keys[i]``); a subset is the int bitset of its
    members' ids (see ``members``).  ``expand(key)`` lists a member's moves
    as (column of ``guard``, target key) pairs, and ``final(key)`` tells
    whether it accepts.  A member's row, its target bitset by column, is
    computed when a subset first holds it; a subset's moves OR its members'
    rows.

    A node is (state of ``guard``, subset), from (0, the subset of
    ``start``'s keys), and is final when its guard state is and it holds a
    final member.  A column the guard's row reads -1 on is no move, and each
    target subset is cut to ``reduce(n, targets)``, n the guard's next
    state, before it is numbered: a cut to nothing is no move.  Plain
    determinization takes ``_unguarded`` and ``_unreduced``.

    ``row`` looks each cell (n, targets) up in the table's dict for n: the
    state its cut was numbered, or -1.  So ``reduce`` runs once per distinct
    cell however many rows pool it; it must depend on nothing else, and keep
    whole what it keeps and the start subset, as both reductions and the
    identity do, so that a node's own cell holds its state.  A miss numbers
    its node as the row meets it, columns in order: a walk reads only the
    rows it reaches, and keeps those it reads again (see ``pair_search``).
    """

    initial = 0  # the start node's number

    def __init__(self, guard: SymbolicDfa, start, expand, final, reduce):
        self.keys: list = []
        self._rows: list[list[int] | None] = []  # member id -> its row, once a subset holds it
        self._finals = 0  # the bitset of the final members
        self._member: dict = {}  # key -> member id
        self._cells = [{} for _ in guard.rows]  # guard state -> targets -> state, or -1
        self._expand, self._final, self._reduce, self._guard = expand, final, reduce, guard
        self.alphabet, self.finals = guard.alphabet, set()
        self.letters, self._index = _letter_order(self.alphabet)  # set, not computed when read
        self._guards, self._subsets = [], []  # each state's node: its guard state and subset
        self._number(0, sum(1 << self._id(key) for key in start))

    def _id(self, key) -> int:
        # The key's member id, the next one when the key is met for the first time.
        i = self._member.get(key)
        if i is None:
            i = self._member[key] = len(self.keys)
            self.keys.append(key)
            self._rows.append(None)
            if self._final(key):
                self._finals |= 1 << i
        return i

    def _row(self, i: int) -> list[int]:
        row = self._rows[i] = [0] * len(self.alphabet)
        ids = self._member
        for x, key in self._expand(self.keys[i]):
            row[x] |= 1 << (ids[key] if key in ids else self._id(key))
        return row

    def _number(self, n: int, subset: int) -> int:
        # The node's state, the next one when it is first met: its own cell, as it is its own cut.
        cell = self._cells[n]
        t = cell.get(subset)
        if t is None:
            t = cell[subset] = len(self._subsets)
            self._guards.append(n)
            self._subsets.append(subset)
            if n in self._guard.finals and subset & self._finals:
                self.finals.add(t)
        return t

    def row(self, s: int) -> tuple[int, ...]:
        subset, rows, pooled = self._subsets[s], self._rows, None
        while subset:  # the members, lowest id first
            low = subset & -subset
            subset ^= low
            i = low.bit_length() - 1
            row = rows[i] or self._row(i)
            pooled = row if pooled is None else list(map(or_, pooled, row))
        if pooled is None:
            return (-1,) * len(self.alphabet)
        cells, out = self._cells, []
        for targets, n2 in zip(pooled, self._guard.rows[self._guards[s]]):
            t = -1
            if targets and n2 >= 0:
                t = cells[n2].get(targets)
                if t is None:
                    kept = self._reduce(n2, targets)
                    t = cells[n2][targets] = self._number(n2, kept) if kept else -1
            out.append(t)
        return tuple(out)

    def table(self) -> SymbolicDfa:
        """Every state reachable from 0, expanded, as one int table, canonically numbered.

        On a SubsetDfa nothing has read before, the rows are read from 0 up,
        which numbers the nodes breadth-first with letters in order, as they
        are found, whatever their members' names or ids: the one canonical
        numbering, which ``pair_table`` gives too.
        """
        # The loop also reaches the states that the rows it reads append.
        row = self.row
        rows = tuple([row(s) for s, _ in enumerate(self._subsets)])
        return SymbolicDfa(self.alphabet, rows, frozenset(self.finals))


@lru_cache(maxsize=256)
def _unguarded(alphabet) -> SymbolicDfa:
    """Plain determinization's guard, one per alphabet: one final state reading every letter."""
    return SymbolicDfa(alphabet, ((0,) * len(alphabet),), frozenset({0}))


def determinize(nfa: SymbolicNfa) -> SymbolicDfa:
    """Subset construction, reachable part only, canonically numbered: ``_subsets`` in full."""
    return _subsets(nfa).table()


def _subsets(nfa: SymbolicNfa) -> SubsetDfa:
    """The subset construction of an NFA, unexplored: a ``SubsetDfa`` over its states numbered,
    a letter outside its alphabet skipped."""
    ids = {s: i for i, s in enumerate(nfa.states)}
    column = _letter_order(nfa.alphabet)[1]
    moves: list[list[tuple[int, int]]] = [[] for _ in ids]
    for s, x, t in nfa.transitions:
        if x in column:
            moves[ids[s]].append((column[x], ids[t]))
    finals = {ids[s] for s in nfa.finals}
    return SubsetDfa(_unguarded(nfa.alphabet), [ids[s] for s in nfa.initials],
                     moves.__getitem__, finals.__contains__, _unreduced)


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


class _Memo(dict):
    """A dict that computes a missing key's value by ``compute(key)``, and keeps it."""

    def __init__(self, compute):
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


# The follow rules of the pair walk: it goes on with a pair (s, t) of next
# states, -1 standing for no state, when follow((s, t)) >= 0.
ALONG_X = itemgetter(0)  # wherever x moves; y follows it, or goes to -1
ALONG_BOTH = min  # where both move
ALONG_EITHER = max  # where either moves


def _rows(dfa, letters):
    """A DFA's rows by state, on the columns of ``letters``, which hold its own, and the row of
    -1, all -1.  A SubsetDfa's rows, and widened ones, are computed when first read, and kept."""
    if len(dfa.alphabet) < len(letters):  # a letter the DFA lacks reads the -1 appended
        columns = [-1 if (c := dfa.column(a)) is None else c for a in letters]
        rows = _Memo(lambda s: tuple(map((dfa.row(s) + (-1,)).__getitem__, columns)))
    elif isinstance(dfa, SubsetDfa):
        rows = _Memo(dfa.row)
    else:
        return [*dfa.rows, (-1,) * len(letters)]
    rows[-1] = (-1,) * len(letters)
    return rows


def _pair_walk(x, y, follow, accepting, stop: bool, prune=None):
    """The pair walk of two DFAs on the union of their letters: a pair (s, t) moves to
    ``zip(row s of x, row t of y)``, rows read as the walk reaches them.  The pairs ``follow``
    goes on with are numbered breadth-first from (0, 0), letters in order, and expanded, as far
    as the first pair ``accepting`` holds when ``stop``.  A pair ``prune`` holds, asked just
    before it would be expanded, keeps its number and accepting check but gets the row of -1:
    a leaf.  Returns the union alphabet, its letters, the rows, the pairs numbered after each
    row, and the accepting pairs' numbers."""
    alphabet = x.alphabet | y.alphabet
    letters = (x.letters if len(x.alphabet) == len(alphabet) else
               y.letters if len(y.alphabet) == len(alphabet) else _letter_order(alphabet)[0])
    xs = _rows(x, letters)
    ys = xs if y is x else _rows(y, letters)
    pairs, finals = [], []

    def number(pair) -> int:  # given when the pair is first read; -1 when it is not followed
        if follow(pair) < 0:
            return -1
        pairs.append(pair)
        if accepting(pair):
            finals.append(len(pairs) - 1)
        return len(pairs) - 1

    memo = _Memo(number)
    memo[-1, -1] = -1  # no follow rule goes on with no state on either side
    number = memo.__getitem__
    number((0, 0))
    rows, ends, leaf = [], [], (-1,) * len(letters)
    for pair in pairs:  # which also reaches the pairs numbered below
        if stop and finals:
            break
        if prune is not None and prune(pair):
            rows.append(leaf)
        else:
            s, t = pair
            rows.append(tuple(map(number, zip(xs[s], ys[t]))))
        ends.append(len(pairs))
    return alphabet, letters, rows, ends, finals


def pair_table(x, y, follow, accepting) -> SymbolicDfa:
    """The DFA of the pairs of states of x and y that ``follow`` goes on with, with finals
    ``accepting``, over the union of their letters: the pair walk in full, numbered canonically."""
    alphabet, _, rows, _, finals = _pair_walk(x, y, follow, accepting, False)
    return SymbolicDfa(alphabet, tuple(rows), frozenset(finals))


def pair_search(x, y, follow, accepting, prune=None) -> SymbolicWord | None:
    """Shortlex-least word leading the pair (0, 0) of two DFAs to a pair ``accepting`` holds, or
    None: the one search of the library, the pair walk as far as the first such pair.  The walk
    is deterministic, so breadth-first order with letters in order is shortlex order of the
    pairs' least access words.  The witness is spelled from the rows: a pair's number was given
    by the first row holding it, at the first column that does.

    ``prune``, when given, is asked about each pair before it is expanded, and makes leaves of
    those it holds (see ``_pair_walk``).  Inclusion and equivalence pass
    ``congruence.up_to_congruence``, which prunes only pairs that some pair expanded before them
    has a shorter witness for, so the witness stays the same."""
    _, letters, rows, ends, finals = _pair_walk(x, y, follow, accepting, True, prune)
    if not finals:
        return None
    word, n = [], finals[0]
    while n:
        row = bisect_right(ends, n)  # the first row that numbered n
        word.append(letters[rows[row].index(n)])
        n = row
    return tuple(reversed(word))


def _nodes(dfa) -> tuple[list[int], list[int]] | None:
    """A DFA's states as sets of members, for ``up_to_congruence``: a SubsetDfa's guard state
    and member bitset by state, None for a table, whose state s is the singleton 1 << s."""
    return (dfa._guards, dfa._subsets) if isinstance(dfa, SubsetDfa) else None


def shortest_accepted(nfa: SymbolicNfa) -> SymbolicWord | None:
    """Shortest accepted word; ties broken by the letter order, None if empty: a ``pair_search``
    of the subset construction, read as far as the search goes, paired with itself."""
    dfa = _subsets(nfa)
    return pair_search(dfa, dfa, ALONG_X, lambda pair: pair[0] in dfa.finals)


def symbolic_inclusion(x, y) -> SymbolicWord | None:
    """Shortlex-least witness of L(x) \\ L(y), or None when L(x) is included in L(y).

    The pair search prunes up to congruence (``congruence.up_to_congruence``),
    and the witness stays the least.  A pair P of sets "agrees on" a word v
    when v is in both of its languages or in neither, which for inclusion's
    (X ∪ Y, Y) means v is not in L(X) \\ L(Y).  Under fixed guard states a
    language is a union homomorphism of the set, so agreeing on v is a
    congruence for union: a pair in the congruence closure of pairs that
    all agree on v agrees on v too.  Let w* = u·v be the least word of the
    difference, and suppose u is the first prefix of w* whose pair P the
    walk pruned.  The walk reaches P by u, as it expanded every pair of a
    shorter prefix, so P's access word is u or before it.  P disagrees on
    v, so some pair P' expanded before P disagrees on v too; its access
    word u' comes before P's in shortlex order, as the walk expands pairs
    in that order.  Then u'·v, which leads x and y to the states of P' and
    on along v, is in the difference and shortlex-before u·v = w*: no
    prefix of w* is pruned.  Every accepting pair the walk reaches is reached by a
    word of the difference, and w*'s pair by w* itself, so the first one it
    numbers is reached by w*.  The same holds for equivalence.
    """
    in_x, in_y = x.finals, y.finals
    return pair_search(x, y, ALONG_X, lambda pair: pair[0] in in_x and pair[1] not in in_y,
                       up_to_congruence(_nodes(x), _nodes(y), True))


def symbolic_equivalence(x, y) -> SymbolicWord | None:
    """Shortlex-least witness in the symmetric difference, or None when equivalent: a pair
    search pruned up to congruence, whose witness stays the least (see ``symbolic_inclusion``)."""
    in_x, in_y = x.finals, y.finals
    return pair_search(x, y, ALONG_EITHER, lambda pair: (pair[0] in in_x) != (pair[1] in in_y),
                       up_to_congruence(_nodes(x), _nodes(y), False))
