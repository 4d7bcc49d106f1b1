"""Canonical forms of session automata.

Every data language of a session automaton has one symbolic language made of
normal forms only: the set snf(L).  The canonical automaton is the minimal
DFA of that set.  It is computed in three steps:

    1. nf_automaton(k, labels): the DFA of all normal forms over k registers,
    2. tilde(A): an NFA accepting every well-formed symbolic word that shares
       its concretizations with some word A accepts (register relabeling),
    3. product of the two, determinized and minimized.

Every DFA here is an int table (SymbolicDfa), canonically numbered, or a
``SubsetDfa`` of ``symbolic``, a subset construction whose states are
numbered as they are first read and which ``table`` explores in full into
such a table.  A search reads only what it reaches.  A DFA carries no
register bound: the automaton built from one, by ``from_symbolic_dfa``,
gets it from its caller.

The normal-form and well-formedness DFAs are int tables that read no
label: label j's letters take the 2k columns from 2k*j on, and each DFA's
one move rule reads a block by arithmetic.  Each is explored over one label
once per k (``_one_label``), and over any labels it is that table, each row
repeated once per label.  A question is asked over the registers it needs:
universality over k registers reads the table over min(k, k_A + 1), which
has the same least witness (see ``langops.is_universal_bounded``).

Step 3 never builds the product or tilde(A) itself: normal_form_table is
``symbolic.SubsetDfa`` guarded by the normal-form DFA, its members tilde(A)
states, each one int (an injection's bits and one bit for its state's id in
A's ``state_index``).  Two named reductions, each with its proof, cut every
target set before it is numbered.  ``_maximal`` keeps its maximal members,
so the minimal DFA is the same from far fewer subsets (universal automata
over k registers get exactly the 2^k of the minimal DFA).  ``_trim`` drops
the members paired with a normal-form state that promises an output
register no register of A holds, a promise that can never end (the
antichain idea of De Wulf, Doyen, Henzinger & Raskin, CAV 2006, in its
simplest form).  Members whose state of A reaches no final state are never
reached: the moves into them are left out.

When every symbolic word A accepts is already a normal form, snf(L(A)) is
L_symb(A) itself (snf(concretize(u)) = u for a normal form u), so the
canonical automaton is just A determinized and minimized.  This holds for
every hypothesis of the learner and every output of intersect and
complement_bounded.  The check is an inclusion, nf_violation_witness: one
pair search of A's ``symbolic_dfa``, its ``state_index`` determinized as
far as the search goes, against the normal-form DFA finds the least word A
accepts that is not a normal form.  A accepts only normal forms when there
is none; the learner returns the witness as a counterexample.

``snf_dfa`` is the DFA of snf(L(A)) before minimizing, a SubsetDfa either
way: ``symbolic_dfa`` on that fast path, normal_form_table otherwise.  Two
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

from .automata import Automaton, require_session
from .symbolic import (
    SubsetDfa,
    SymbolicDfa,
    SymbolicNfa,
    _letter_order,
    _unguarded,
    _unreduced,
    members,
    minimize,
    symbolic_inclusion,
)
from .words import (
    OpKind,
    RegisterOp,
    SymbolicWord,
    TransitionLabel,
    label_columns,
    symbolic_alphabet,
)


def _nf_moves(k: int, node: tuple[int, int]) -> list[tuple[int, tuple[int, int]]]:
    """The moves of a normal-form state over one label (see ``_one_label``).

    A state is (top, promised): the greatest register initialized so far,
    and the mask (bit r-1 for register r) of the registers whose value must
    be reused before the register may be written again.
      fresh r  allowed when r <= top+1 and r is not promised; moves to
               (max(top, r), promised + all registers below r)
      reuse r  allowed when r <= top; moves to (top, promised - {r})
    Accepting states are those without pending promises.
    """
    top, promised = node
    return ([(r - 1, (max(top, r), promised | (1 << r - 1) - 1))
             for r in range(1, min(top + 1, k) + 1) if not promised >> r - 1 & 1]
            + [(k + r - 1, (top, promised & ~(1 << r - 1))) for r in range(1, top + 1)])


def _wf_moves(k: int, written: int) -> list[tuple[int, int]]:
    """The moves of a well-formedness state over one label: reuse only after a fresh write.  A
    state is the mask of the registers written so far; every state is accepting."""
    return ([(r - 1, written | 1 << r - 1) for r in range(1, k + 1)]
            + [(k + r - 1, written) for r in range(1, k + 1) if written >> r - 1 & 1])


# Each DFA's moves over one label, its start, whether a state is final, and its name.
_NF = (_nf_moves, (0, 0), lambda node: not node[1], "normal-form")
_WF = (_wf_moves, 0, lambda node: True, "well-formedness")


@lru_cache(maxsize=64)
def _one_label(dfa, registers: int) -> tuple[SymbolicDfa, tuple]:
    """``_NF`` or ``_WF`` over one label, in full, and each state's key: one table per k,
    numbered breadth-first from the start, moves in column order.  ``letter_key`` orders letters
    by label, then fresh before reuse, then register, so fresh r is column r-1 and reuse r
    column k + r-1."""
    moves, start, accepting, name = dfa
    if registers < 1:
        raise ValueError(f"the {name} automaton needs at least one register")
    keys, ids, rows = [start], {start: 0}, []
    for key in keys:  # which also reaches the keys appended below
        row = [-1] * (2 * registers)
        for x, target in moves(registers, key):
            t = ids.get(target)
            if t is None:
                t = ids[target] = len(keys)
                keys.append(target)
            row[x] = t
        rows.append(tuple(row))
    finals = frozenset(s for s, key in enumerate(keys) if accepting(key))
    alphabet = symbolic_alphabet(frozenset({""}), registers)
    return SymbolicDfa(alphabet, tuple(rows), finals), tuple(keys)


def _repeated(dfa, registers: int, labels: frozenset[str]) -> SymbolicDfa:
    """``_NF`` or ``_WF`` over ``labels``, in full: the one-label table, each row repeated once per
    label, as breadth-first numbering meets every state on label 0's letters: label j's block
    takes the 2k columns from 2k*j on, and no move depends on the label."""
    table, _ = _one_label(dfa, registers)
    if not labels:  # only the start state is reached
        return SymbolicDfa(frozenset(), ((),), table.finals & {0})
    return SymbolicDfa(symbolic_alphabet(labels, registers),
                       tuple(row * len(labels) for row in table.rows), table.finals)


@lru_cache(maxsize=256)
def nf_automaton(registers: int, labels: frozenset[str]) -> SymbolicDfa:
    """DFA of all symbolic normal forms over the given registers and labels (see ``_nf_moves``),
    its 2^k states read off the one normal-form table per k."""
    return _repeated(_NF, registers, labels)


@lru_cache(maxsize=256)
def wf_automaton(registers: int, labels: frozenset[str]) -> SymbolicDfa:
    """DFA of all well-formed symbolic words over the given registers and labels (see
    ``_wf_moves``), read off the one well-formedness table per k."""
    return _repeated(_WF, registers, labels)


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
    )


def _maximal(masks: list[int], targets: int) -> int:
    """The members of ``targets`` that no other member simulates, ``masks[i]`` the mask of
    member i (see ``normal_form_table``).

    Tilde states with the same state q of ``a`` are ordered by inclusion of
    their injections' bits, and when inj is a proper part of inj',
    (q, inj') simulates (q, inj), so L(q, inj) is part of L(q, inj'):
      - a reuse of register r reads inj(r), which is inj'(r) too;
      - a fresh write rewires both alike, which keeps the inclusion;
      - finality depends on q alone.
    Dropping (q, inj) therefore keeps the subset's language, and with it the
    language of every state of the table, so ``minimize`` returns the same
    canonical DFA as the unreduced construction.  Tilde states that never
    survive are never expanded.

    m2 simulates m when m & m2 == m: the same state of ``a``, and every bit
    of m's injection is in m2's.  Such an m2 is a larger mask, so taken by
    mask, largest first, every member meets those that simulate it before
    itself.  Ids do not follow masks: a member may be interned after one
    that simulates it.
    """
    above: list[int] = []
    kept = targets
    for i in sorted(members(targets), key=masks.__getitem__, reverse=True):
        m = masks[i]
        for m2 in above:
            if m & m2 == m:
                kept ^= 1 << i
                break
        else:
            above.append(m)
    return kept


def _trim(masks: list[int], kept: int, promised: int, k: int) -> int:
    """The members of ``kept`` that may accept from a normal-form state whose promised mask is
    ``promised``: those whose injection fills every promised output register.

    A member (q, inj) paired with the normal-form state n = (top, promised)
    accepts nothing when some promised output register o is in no row of
    inj: no register of ``a`` holds o's value.  Only a reuse of o ends the
    promise, and the normal-form DFA forbids a fresh write to o while o is
    promised.  tilde(a) reuses o only through a register r of ``a`` with
    inj(r) = o, and no move but a fresh write of o puts o back into inj's
    image.  So o stays promised, and no final state of the normal-form DFA
    follows.

    The trim keeps every subset's language, so the canonical DFA and every
    shortlex-least witness stay the same.  It commutes with ``_maximal``:
    when inj is part of inj', the image of inj is part of that of inj', so
    whenever a member is dropped, so is every member it simulates.  It reads
    only bits, never names, so the numbering stays name-independent.
    """
    injection, ones = (1 << k * k) - 1, (1 << k) - 1
    for i in members(kept):
        inj = masks[i] & injection
        # The rows of an injection are disjoint k-bit masks, so their sum is
        # their union, which the sum mod 2^k - 1 is unless it is all ones.
        if promised & ~((inj % ones or ones) if inj else 0):
            kept ^= 1 << i
    return kept


def normal_form_table(a: Automaton) -> SubsetDfa:
    """A DFA of snf(L(a)): determinize(product(nf_automaton, tilde(a))), its subsets reduced.

    A ``SubsetDfa`` guarded by the normal-form DFA, which is deterministic,
    so a subset of the product pairs all its members with one normal-form
    state.  A member, a tilde state (q, inj), is one int, its mask: the
    injection's int (see ``_relabelings``) in the bits below k*k, and the bit
    k*k + q for q's id in ``a.state_index``.  It is final when q is.  The
    moves into states that reach no final state are left out.  Each target
    subset is cut to its ``_maximal`` members, then by ``_trim`` for the
    promised mask read off the nodes of the one normal-form table per k.
    The table reduces each (normal-form state, targets) once; the first cut
    is also cached per target, so it serves every normal-form state the
    target leads to.
    """
    k = a.registers
    require_session(a)
    index = a.state_index
    nf = nf_automaton(k, a.alphabet)
    promised = [p for _, p in _one_label(_NF, k)[1]]
    injection = (1 << k * k) - 1
    finals = sum(1 << k * k + q for q in index.finals)
    # Per state bit: (column of the move's operation on output register 0, one before its
    # column on register 1, see ``_one_label``, operation, target bit), for the moves into
    # states that reach a final one.
    columns = label_columns(a.alphabet, k)
    outgoing = {
        1 << k * k + q: [
            (columns[x.label][-1 if x.op.kind is _REUSE else 1] - 1, x.op, 1 << k * k + target)
            for x, target in moves if target in index.live
        ]
        for q, moves in enumerate(index.moves)
    }

    def expand(m: int) -> list[tuple[int, int]]:
        inj = m & injection
        return [(base + r, target | inj2)
                for base, op, target in outgoing[m ^ inj] for r, inj2 in _relabelings(op, inj, k)]

    # The reductions read the members' masks, ``keys`` below: not the table, which holds reduce.
    maximal: dict[int, int] = {}

    def reduce(n: int, targets: int) -> int:
        kept = targets
        if targets & targets - 1:
            kept = maximal.get(targets)
            if kept is None:
                kept = maximal[targets] = _maximal(keys, targets)
        p = promised[n]
        return _trim(keys, kept, p, k) if p else kept

    table = SubsetDfa(nf, (1 << k * k + index.initial,), expand, finals.__and__, reduce)
    keys = table.keys
    return table


def symbolic_dfa(a: Automaton) -> SubsetDfa:
    """L_symb(a) determinized from ``a.state_index``, unexplored: a ``SubsetDfa`` over its state
    ids.  Moves into states that reach no final state are left out: the language stays, and a
    search meets no subset that accepts nothing."""
    index = a.state_index
    alphabet = symbolic_alphabet(a.alphabet, a.registers)
    column, live = _letter_order(alphabet)[1], index.live
    moves = [[(column[x], t) for x, t in out if t in live] for out in index.moves]
    return SubsetDfa(_unguarded(alphabet), (index.initial,), moves.__getitem__,
                     index.finals.__contains__, _unreduced)


def nf_violation_witness(a: Automaton) -> SymbolicWord | None:
    """Shortlex-least symbolic word the automaton accepts that is not a normal form, or None.

    The inclusion of L_symb(a) in the normal forms: ``symbolic_inclusion``
    of its ``symbolic_dfa`` in the normal-form DFA, which goes to -1
    on a prefix that is no normal form any more.  Register automata raise
    NotSessionAutomaton.  The search runs once per automaton: its result, a
    tuple or None, is kept on the frozen instance as ``state_index`` is, so
    the learner's check of a hypothesis and the teacher's ``snf_dfa`` of it
    share one search.
    """
    require_session(a)
    cached = vars(a)
    if "nf_violation_witness" not in cached:
        cached["nf_violation_witness"] = symbolic_inclusion(
            symbolic_dfa(a), nf_automaton(a.registers, a.alphabet))
    return cached["nf_violation_witness"]


def snf_dfa(a: Automaton) -> SubsetDfa:
    """A DFA of snf(L(a)), not minimized and unexplored, for a search to read as far as it goes.

    A ``SubsetDfa`` either way.  Automata that accept only normal forms give
    their ``symbolic_dfa``: their symbolic language already is snf(L(a)).
    Others get the ``normal_form_table``, guarded by the normal-form DFA and
    reduced, over tilde(a).  ``table()`` explores either in full.  Register
    automata raise NotSessionAutomaton.
    """
    return normal_form_table(a) if nf_violation_witness(a) is not None else symbolic_dfa(a)


@lru_cache(maxsize=256)
def canonicalize(a: Automaton) -> SymbolicDfa:
    """Minimal DFA of snf(L(a)), the canonical form of the automaton's language: ``snf_dfa``
    minimized.  Register automata raise NotSessionAutomaton."""
    return minimize(snf_dfa(a).table())
