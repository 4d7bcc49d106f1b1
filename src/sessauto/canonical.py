"""Canonical forms of session automata.

Every data language of a session automaton has one symbolic language made of
normal forms only: the set snf(L).  The canonical automaton is the minimal
DFA of that set.  It is computed in three steps:

    1. nf_automaton(k, labels): the DFA of all normal forms over k registers,
       whose states are NfState values with arithmetic moves,
    2. tilde(A): an NFA accepting every well-formed symbolic word that shares
       its concretizations with some word A accepts (register relabeling),
    3. product of the two, determinized and minimized.

Every DFA here, the normal-form and well-formedness DFAs too, is a
``LazyDfa`` of ``symbolic``, a move function whose states are numbered as
they are first read, or that DFA explored in full: the int table
(SymbolicDfa) of the one ``subset_construction``.  A search reads only what
it reaches.
``lazy_nf_automaton`` is the arithmetic move rule of step 1, which
``nf_automaton`` explores in full.

Step 3 never builds the product or tilde(A) itself: normal_form_table is one
subset construction whose states pair a normal-form state with a set of
tilde(A) states.  A tilde state is one int, an injection's bits and one bit
for the id of its state in A's ``state_index``, and a set of them is one
int bitset.  A set keeps only its maximal members, which leaves its
language as it was, so the minimal DFA is the same from far fewer subsets
(universal automata over k registers get exactly the 2^k of the minimal
DFA); see normal_form_table.

When every symbolic word A accepts is already a normal form, snf(L(A)) is
L_symb(A) itself (snf(concretize(u)) = u for a normal form u), so the
canonical automaton is just A determinized and minimized.  This holds for
every hypothesis of the learner and every output of intersect and
complement_bounded.  One shortlex search over ``paired_moves`` of A and the
normal-form DFA, nf_violation_witness, finds the least accepted word that is
not a normal form; A accepts only normal forms when there is none, and the
learner returns the witness as a counterexample to its own hypothesis.

``snf_dfa`` is the DFA of snf(L(A)) before minimizing, a LazyDfa either
way: A determinized on that fast path, normal_form_table otherwise.  Two
session automata accept the same data words exactly when their sets of
normal forms coincide, so every decision and boolean operation of
``langops``, and the reference teacher's equivalence query, is a DFA search
or construction over snf_dfa, explored only as far as it goes.
canonicalize, snf_dfa minimized in full, is the output form only: the
canonical automaton itself, which a reference teacher also keeps of its
target, since every membership query walks it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .automata import Automaton, require_session
from .symbolic import (
    LazyDfa,
    SymbolicDfa,
    SymbolicNfa,
    determinize_ids,
    members,
    minimize,
    paired_moves,
    pooled_moves,
    shortlex_search,
)
from .words import (
    OpKind,
    RegisterOp,
    SymbolicWord,
    TransitionLabel,
    letter_key,
    symbolic_alphabet,
)


class NfState(NamedTuple):
    """State of the normal-form DFA.

    ``top`` is the greatest register initialized so far; ``promised`` are the
    registers whose current value must be reused before the register may be
    written again (a fresh write to r promises every register below r).
    """

    top: int
    promised: frozenset[int]


def _register_dfa(registers: int, labels, start, moves, accepting) -> LazyDfa:
    """The DFA whose node reads every label with each (operation, node) pair of ``moves(node)``."""
    alphabet = symbolic_alphabet(labels, registers)
    index = {x: i for i, x in enumerate(sorted(alphabet, key=letter_key))}
    return LazyDfa(
        start,
        lambda node: sorted((index[TransitionLabel(a, op)], target)
                            for op, target in moves(node) for a in labels),
        accepting,
        alphabet,
        registers,
    )


def lazy_nf_automaton(registers: int, labels: frozenset[str]) -> LazyDfa:
    """DFA of all symbolic normal forms over the given registers and labels, explored on demand.

    From state (top, promised):
      fresh r  allowed when r <= top+1 and r is not promised; moves to
               (max(top, r), promised + all registers below r)
      reuse r  allowed when r <= top; moves to (top, promised - {r})
    Accepting states are those without pending promises.  The DFA has 2^k
    states; a search that stops early reads only the few it reaches.
    """
    if registers < 1:
        raise ValueError("the normal-form automaton needs at least one register")

    def moves(s: NfState):
        for r in range(1, registers + 1):
            if r - 1 <= s.top and r not in s.promised:
                yield RegisterOp(OpKind.FRESH, r), NfState(max(s.top, r),
                                                          s.promised | frozenset(range(1, r)))
            if r <= s.top:
                yield RegisterOp(OpKind.REUSE, r), NfState(s.top, s.promised - {r})

    return _register_dfa(registers, labels, NfState(0, frozenset()), moves,
                         lambda s: not s.promised)


@lru_cache(maxsize=256)
def nf_automaton(registers: int, labels: frozenset[str]) -> SymbolicDfa:
    """DFA of all symbolic normal forms over the given registers and labels: the
    whole ``lazy_nf_automaton``."""
    return lazy_nf_automaton(registers, labels).table()


@lru_cache(maxsize=256)
def wf_automaton(registers: int, labels: frozenset[str]) -> SymbolicDfa:
    """DFA of all well-formed symbolic words: reuse only after a fresh write.

    A node is the set of registers written so far; every node is accepting.
    """
    if registers < 1:
        raise ValueError("the well-formedness automaton needs at least one register")

    def moves(written: frozenset[int]):
        for r in range(1, registers + 1):
            yield RegisterOp(OpKind.FRESH, r), written | {r}
            if r in written:
                yield RegisterOp(OpKind.REUSE, r), written

    return _register_dfa(registers, labels, frozenset(), moves, lambda written: True).table()


_REUSE = OpKind.REUSE  # read once: an enum class lookup costs ten times a global's


def _relabelings(op: RegisterOp, inj: int, k: int) -> list[tuple[int, int]]:
    """Output registers a transition with this operation may use, each with the injection after it.

    An injection is an int: bit (r-1)*k + o-1 is set when output register o
    holds the value of register r of the automaton, so row r (its k bits
    from (r-1)*k) and column o each hold at most one set bit.  A reuse of r
    reads the output register in r's row, and has no move when the row is
    empty.  A fresh write of r may pick any output register o: r's row and
    o's column are cleared, so whoever held o before loses it, and the bit
    (r, o) is set.
    """
    shift, ones = (op.register - 1) * k, (1 << k) - 1
    row = inj >> shift & ones
    if op.kind is _REUSE:
        return [(row.bit_length(), inj)] if row else []
    inj &= ~(ones << shift)
    column = ((1 << k * k) - 1) // ones  # column 1: bit (r-1)*k of every row r
    return [(o, inj & ~(column << o - 1) | 1 << shift + o - 1) for o in range(1, k + 1)]


def tilde(a: Automaton) -> SymbolicNfa:
    """Register-relabeling closure of a session automaton's symbolic language.

    The result accepts exactly the well-formed words that denote the same
    data words as some word in L_symb(a).  States pair a state of ``a`` with
    a partial injection, an int telling, for each register of ``a``, which
    output register currently holds the same value (see ``_relabelings``).
    A state is named ``q|inj``, the injection written as its int.
    """
    k = a.registers
    require_session(a)
    index = a.state_index
    start = (index.initial, 0)
    names = {start: f"{index.names[index.initial]}|0"}
    order = [start]
    transitions: set[tuple[str, TransitionLabel, str]] = set()
    for state, inj in order:  # which also reaches the states appended below
        src = names[(state, inj)]
        for x, target in index.moves[state]:
            for r, inj2 in _relabelings(x.op, inj, k):
                key = (target, inj2)
                if key not in names:
                    names[key] = f"{index.names[target]}|{inj2}"
                    order.append(key)
                letter = TransitionLabel(x.label, RegisterOp(x.op.kind, r))
                transitions.add((src, letter, names[key]))
    return SymbolicNfa(
        alphabet=symbolic_alphabet(a.alphabet, k),
        states=frozenset(names.values()),
        initials=frozenset({names[start]}),
        finals=frozenset(names[(s, inj)] for (s, inj) in order if s in index.finals),
        transitions=frozenset(transitions),
        registers=k,
    )


def normal_form_table(a: Automaton) -> LazyDfa:
    """A DFA of snf(L(a)): determinize(product(nf_automaton, tilde(a))) with pruned subsets.

    The subsets are built as they are first read (see ``LazyDfa``): in full
    by ``table()``, as far as it goes by a search.

    A subset is (normal-form state, set of tilde states): the normal-form DFA
    is deterministic, so every reachable subset of the product pairs all its
    members with one normal-form state.  A tilde state (q, inj) is one int,
    its mask: the injection's int (see ``_relabelings``), which takes the
    bits below k*k, with bit k*k + q set for q its state's id in
    ``a.state_index``.  Each mask is interned to an id the first time it is
    seen, and a set of tilde states is one int, the bitset of its members'
    ids (see ``members``).  The moves of each tilde state, as a target
    bitset by letter index, are computed once, when a subset first contains
    it; the moves of a subset OR its members' rows (``pooled_moves``) over
    only the letters the normal-form state can read.  A subset is accepting
    when its normal-form state is and it meets the bitset of the members
    that hold a final state of ``a``.

    Every subset is cut down to its maximal members before it is numbered.
    Tilde states with the same state q of ``a`` are ordered by inclusion of
    their injections' bits, and when inj is a proper part of inj',
    (q, inj') simulates (q, inj), so L(q, inj) is part of L(q, inj'):
      - a reuse of register r reads inj(r), which is inj'(r) too;
      - a fresh write rewires both alike, which keeps the inclusion;
      - finality depends on q alone.
    Dropping (q, inj) therefore keeps the subset's language, and with it the
    language of every state of the table, so ``minimize`` returns the same
    canonical DFA as the unpruned construction.  Tilde states that never
    survive pruning are never expanded.
    """
    k = a.registers
    require_session(a)
    index = a.state_index
    nf = nf_automaton(k, a.alphabet)
    nf_letters = [[x for x, t in enumerate(row) if t >= 0] for row in nf.rows]
    injection = (1 << k * k) - 1
    finals = sum(1 << k * k + q for q in index.finals)
    # Per state bit: (letter index per output register, operation, target bit).
    outgoing = {
        1 << k * k + q: [
            ([nf.column(TransitionLabel(x.label, RegisterOp(x.op.kind, r)))
              for r in range(1, k + 1)], x.op, 1 << k * k + target)
            for x, target in moves
        ]
        for q, moves in enumerate(index.moves)
    }
    ids: dict[int, int] = {}  # mask -> member id
    masks: list[int] = []  # member id -> mask
    tilde_rows: list[list[int] | None] = []  # member id -> target bitset by letter index
    final_ids = 0  # the bitset of the members that hold a final state of a

    def intern(m: int) -> int:
        nonlocal final_ids
        i = ids.get(m)
        if i is None:
            i = ids[m] = len(masks)
            masks.append(m)
            tilde_rows.append(None)
            if m & finals:
                final_ids |= 1 << i
        return i

    def expand(i: int) -> list[int]:
        row = tilde_rows[i] = [0] * len(nf.letters)
        m = masks[i]
        inj = m & injection
        for slots, op, target in outgoing[m ^ inj]:
            for r, inj2 in _relabelings(op, inj, k):
                row[slots[r - 1]] |= 1 << intern(target | inj2)
        return row

    maximal_of: dict[int, int] = {}

    def maximal(targets: int) -> int:
        # The members no other member simulates.  m2 simulates m when
        # m & m2 == m: the same state of a, and every bit of m's injection
        # is in m2's.  Such an m2 is a larger mask, so taken by mask, largest
        # first, every member meets those that simulate it before itself.
        # Ids do not follow masks: a member may be interned after one that
        # simulates it.
        if targets & (targets - 1) == 0:
            return targets
        kept = maximal_of.get(targets)
        if kept is None:
            above: list[int] = []
            kept = targets
            for m in sorted(map(masks.__getitem__, members(targets)), reverse=True):
                for m2 in above:
                    if m & m2 == m:
                        kept ^= 1 << ids[m]
                        break
                else:
                    above.append(m)
            maximal_of[targets] = kept
        return kept

    def successors(state):
        n, subset = state
        rows = [tilde_rows[i] or expand(i) for i in members(subset)]
        return [(x, (nf.rows[n][x], maximal(targets)))
                for x, targets in pooled_moves(rows, nf_letters[n])]

    def accepting(state) -> bool:
        n, subset = state
        return n in nf.finals and subset & final_ids != 0

    start = 1 << intern(1 << k * k + index.initial)
    return LazyDfa((0, start), successors, accepting, nf.alphabet, k)


def nf_violation_witness(a: Automaton) -> SymbolicWord | None:
    """Shortlex-least symbolic word the automaton accepts that is not a normal form, or None.

    A ``shortlex_search`` over ``paired_moves(a.state_index, nf)``, nf the
    normal-form DFA, which leaves out the states of a that reach no final
    state.  -1 stands for a prefix that is no normal form any more: nf could
    not read one of its letters.  A witness ends in a final state of a
    paired with -1 or with a non-final normal-form state.  Register
    automata raise NotSessionAutomaton.
    """
    require_session(a)
    index = a.state_index
    nf = nf_automaton(a.registers, a.alphabet)
    return shortlex_search(
        [(index.initial, nf.initial)],
        paired_moves(index, nf),
        lambda pair: pair[0] in index.finals and pair[1] not in nf.finals,
    )


def snf_dfa(a: Automaton) -> LazyDfa:
    """A DFA of snf(L(a)), not minimized and unexplored, for a search to read as far as it goes.

    Automata that accept only normal forms are determinized from their
    ``state_index`` (``determinize_ids``): their symbolic language already is
    snf(L(a)).  Others get the ``normal_form_table``, one lazy subset
    construction over the normal-form DFA and tilde(a).  ``table()`` explores
    either in full.  Register automata raise NotSessionAutomaton.
    """
    if nf_violation_witness(a) is not None:
        return normal_form_table(a)
    index = a.state_index
    return determinize_ids(index.moves, 1 << index.initial, sum(1 << q for q in index.finals),
                           nf_automaton(a.registers, a.alphabet).alphabet, a.registers)


@lru_cache(maxsize=256)
def canonicalize(a: Automaton) -> SymbolicDfa:
    """Minimal DFA of snf(L(a)), the canonical form of the automaton's language: ``snf_dfa``
    minimized.  Register automata raise NotSessionAutomaton."""
    return minimize(snf_dfa(a).table())
