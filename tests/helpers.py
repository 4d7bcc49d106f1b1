"""Shared test utilities: fixtures, oracles and random generators.

The acceptance-style oracles here are deliberately independent of the library
internals they check: NFA acceptance is a hand-rolled frontier loop, and the
data-word space is enumerated through value patterns (restricted growth
strings) rather than through the library's own equivalence machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, product as product_of
from operator import itemgetter
from pathlib import Path
from random import Random
from typing import NamedTuple

from sessauto import (
    Automaton,
    DataWord,
    Learner,
    MembershipOracle,
    NoBreakpoint,
    NotClosed,
    NotWellFormed,
    OpKind,
    RegisterOp,
    SymbolicDfa,
    SymbolicWord,
    TeacherInconsistent,
    TraceEvent,
    Transition,
    TransitionLabel,
    UnknownLabel,
    as_symbolic_nfa,
    canonicalize,
    concretize,
    determinize,
    format_data_word,
    format_symbolic_word,
    from_symbolic_dfa,
    letter_key,
    max_register,
    minimize,
    nf_automaton,
    nf_violation_witness,
    parse_automaton,
    parse_data_word,
    parse_symbolic_word,
    process_counterexample,
    simulate,
    snf,
    symbolic_alphabet,
    symbolic_equivalence,
    symbolic_inclusion,
    wf_automaton,
    word_key,
)
from sessauto.automata import require_session
from sessauto.canonical import _relabelings, tilde
from sessauto.langops import _pair_table
from sessauto.learner import ReferenceTeacher
from sessauto.symbolic import (
    LazyDfa,
    SymbolicNfa,
    complement,
    product,
    shortest_accepted,
    subset_construction,
)
from sessauto.words import _reject_local

FIXTURES = Path(__file__).parent / "fixtures"


def fixture(name: str) -> Automaton:
    return parse_automaton((FIXTURES / f"{name}.sra").read_text())


def dw(text: str):
    return parse_data_word(text)


def sw(text: str):
    return parse_symbolic_word(text)


def letter(label: str, kind: str, register: int) -> TransitionLabel:
    return TransitionLabel(label, RegisterOp(OpKind(kind), register))


@dataclass(frozen=True)
class NamedDfa:
    """A DFA on string states with moves keyed by (state, letter).

    The reference oracles below are written on it; ``as_table`` and ``as_named``
    are the one adapter between it and the library's int tables.
    """

    alphabet: frozenset[TransitionLabel]
    states: frozenset[str]
    initial: str
    finals: frozenset[str]
    delta: dict[tuple[str, TransitionLabel], str]
    registers: int = 0


def as_table(dfa: NamedDfa) -> SymbolicDfa:
    """The same DFA as an int table: the initial state is 0, the others follow sorted."""
    names = [dfa.initial] + sorted(dfa.states - {dfa.initial})
    ids = {s: i for i, s in enumerate(names)}
    letters = _sorted_letters(dfa.alphabet)
    rows = tuple(
        tuple(ids[dfa.delta[(s, x)]] if (s, x) in dfa.delta else -1 for x in letters)
        for s in names
    )
    return SymbolicDfa(dfa.alphabet, rows, frozenset(ids[s] for s in dfa.finals), dfa.registers)


def as_named(dfa: SymbolicDfa) -> NamedDfa:
    """The same DFA with its states named "0", "1", ..."""
    return NamedDfa(
        alphabet=dfa.alphabet,
        states=frozenset(map(str, dfa.states)),
        initial=str(dfa.initial),
        finals=frozenset(map(str, dfa.finals)),
        delta={(str(s), x): str(t) for s, x, t in dfa.transitions},
        registers=dfa.registers,
    )


def as_nfa(fa) -> SymbolicNfa:
    """An NFA as it is; an int-table or named DFA as an NFA on its named states."""
    if isinstance(fa, SymbolicNfa):
        return fa
    if isinstance(fa, SymbolicDfa):
        fa = as_named(fa)
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


def fig5c_dfa() -> SymbolicDfa:
    """Hand-coded expected canonical form of the fig5a language."""
    edges = {
        ("q0", "a:*1"): "q1",
        ("q1", "a:*1"): "q1",
        ("q1", "b:^1"): "q1",
        ("q1", "a:*2"): "q2",
        ("q2", "a:*2"): "q2",
        ("q2", "b:^2"): "q2",
        ("q2", "b:^1"): "q3",
        ("q3", "a:*1"): "q3",
        ("q3", "b:^1"): "q3",
        ("q3", "b:^2"): "q3",
        ("q3", "a:*2"): "q2",
    }
    delta = {(s, sw(x)[0]): t for (s, x), t in edges.items()}
    return as_table(NamedDfa(
        alphabet=frozenset(x for (_, x) in delta),
        states=frozenset({"q0", "q1", "q2", "q3"}),
        initial="q0",
        finals=frozenset({"q0", "q1", "q3"}),
        delta=delta,
        registers=2,
    ))


def nfa_accepts_brute(nfa, word) -> bool:
    """Frontier simulation written from scratch, as an oracle for symbolic ops."""
    frontier = set(nfa.initials)
    for x in word:
        nxt = set()
        for (s, y, t) in nfa.transitions:
            if s in frontier and y == x:
                nxt.add(t)
        frontier = nxt
    return bool(frontier & nfa.finals)


def enumerate_symbolic_words(alphabet, max_len):
    words = [()]
    last = [()]
    for _ in range(max_len):
        last = [w + (x,) for w in last for x in alphabet]
        words.extend(last)
    return words


def random_session_automaton(
    rng: Random,
    labels=("a", "b"),
    max_states: int = 4,
    registers: int = 2,
    name: str = "rand",
) -> Automaton:
    n = rng.randint(1, max_states)
    states = [f"q{i}" for i in range(n)]
    transitions = set()
    for _ in range(rng.randint(0, 3 * n)):
        kind = rng.choice((OpKind.FRESH, OpKind.REUSE))
        transitions.add(
            Transition(
                rng.choice(states),
                TransitionLabel(rng.choice(labels), RegisterOp(kind, rng.randint(1, registers))),
                rng.choice(states),
            )
        )
    finals = frozenset(s for s in states if rng.random() < 0.5)
    return Automaton(
        name=name,
        alphabet=frozenset(labels),
        registers=registers,
        states=frozenset(states),
        initial="q0",
        finals=finals,
        transitions=frozenset(transitions),
    )


def random_data_word(rng: Random, labels=("a", "b"), max_len=8, max_value=4):
    n = rng.randint(0, max_len)
    return tuple((rng.choice(labels), rng.randint(1, max_value)) for _ in range(n))


def random_run_word(rng: Random, a: Automaton, length: int, pool: int | None = None):
    """The letters read along one random run of ``a``, at most ``length`` of them.

    With a ``pool``, values come from 1..pool and value v may occur only
    before position (v + 2) * length / pool, so values die at staggered
    points of the word.  Without one, every fresh or local move takes a value
    never seen before, so a session ends once no register holds its value.
    The run stops early when no move fits.
    """
    moves = sorted(a.transitions, key=lambda t: (t.source, letter_key(t.label), t.target))
    state, regs, used, out = a.initial, [None] * a.registers, set(), []

    def live(v, i):
        return pool is None or i < (v + 2) * length // pool

    for i in range(length):
        options = []
        for t in moves:
            if t.source != state:
                continue
            kind, r = t.label.op.kind, t.label.op.register
            if kind is OpKind.REUSE:
                if regs[r - 1] is not None and live(regs[r - 1], i):
                    options.append((t, regs[r - 1]))
            elif pool is None:
                options.append((t, len(out) + 1))
            else:
                taken = used if kind is OpKind.FRESH else regs
                options.extend((t, v) for v in range(1, pool + 1) if live(v, i) and v not in taken)
        if not options:
            break
        t, d = rng.choice(options)
        if t.label.op.kind is not OpKind.REUSE:
            regs[t.label.op.register - 1] = d
        used.add(d)
        state = t.target
        out.append((t.label.label, d))
    return tuple(out)


def perturb(rng: Random, word):
    """The word with one letter's value replaced by another value of the word (or itself)."""
    if not word:
        return word
    i = rng.randrange(len(word))
    return word[:i] + ((word[i][0], rng.choice(word)[1]),) + word[i + 1:]


def reference_simulate(a: Automaton, word) -> bool:
    """Membership by breadth-first search that keeps dead register contents.

    The configuration set grows with every value still held in a register,
    so this is only fast on words with few distinct values; it is the oracle
    for ``simulate``, which forgets a value after its last occurrence.  It
    groups the moves by (state, label) itself, on the state names, so it
    shares no index with ``simulate``.
    """
    for label, _ in word:
        if label not in a.alphabet:
            raise UnknownLabel(f"label {label!r} is not in the alphabet of {a.name}")
    k = a.registers
    moves: dict[tuple[str, str], list[tuple[OpKind, int, str]]] = {}
    for source, (label, (kind, reg)), target in a.transitions:
        moves.setdefault((source, label), []).append((kind, reg, target))
    confs: set[tuple[str, tuple]] = {(a.initial, (None,) * k)}
    used: set[int] = set()
    for label, d in word:
        nxt: set[tuple[str, tuple]] = set()
        for state, regs in confs:
            for kind, reg, target in moves.get((state, label), ()):
                if kind is OpKind.REUSE:
                    if regs[reg - 1] != d:
                        continue
                    nxt.add((target, regs))
                elif kind is OpKind.LOCAL:
                    if d in regs:
                        continue
                    nxt.add((target, regs[: reg - 1] + (d,) + regs[reg:]))
                else:
                    if d in used:
                        continue
                    nxt.add((target, regs[: reg - 1] + (d,) + regs[reg:]))
        used.add(d)
        confs = nxt
        if not confs:
            return False
    return any(state in a.finals for state, _ in confs)


def reference_sessions(word: DataWord) -> dict[int, tuple[int, int]]:
    """Per value, the interval from its first to its last occurrence (1-based).

    A copy kept apart from ``sessions``, so that ``reference_bound`` and
    ``reference_snf`` share no bug with the code they check.
    """
    out: dict[int, tuple[int, int]] = {}
    for i, (_, d) in enumerate(word, 1):
        first, _ = out.get(d, (i, i))
        out[d] = (first, i)
    return out


def reference_snf(word: DataWord) -> SymbolicWord:
    """Symbolic normal form of a data word.

    The oracle for ``snf``: it takes the smallest free register with ``min``
    and builds each letter through the checked constructors.  A first
    occurrence takes a fresh write to the smallest free register; a later
    occurrence reuses the register assigned at the first occurrence.  A
    register becomes free again at the last occurrence of its value, so the
    number of registers used equals the session bound of the word.
    """
    spans = reference_sessions(word)
    # Free registers are `freed` plus everything >= next_new.
    freed: set[int] = set()
    next_new = 1
    assigned: dict[int, int] = {}
    out = []
    for i, (a, d) in enumerate(word, 1):
        first, last = spans[d]
        if first == i:
            r = min(freed) if freed else next_new
            assigned[d] = r
            out.append(TransitionLabel(a, RegisterOp(OpKind.FRESH, r)))
            if last != i:
                # The register stays busy until the value's last occurrence.
                if freed:
                    freed.remove(r)
                else:
                    next_new = r + 1
        else:
            r = assigned[d]
            out.append(TransitionLabel(a, RegisterOp(OpKind.REUSE, r)))
            if last == i:
                freed.add(r)
    return tuple(out)


def reference_bound(word) -> int:
    """Session bound by counting, at every position, the sessions that cover it."""
    spans = list(reference_sessions(word).values())
    best = 0
    for i in range(1, len(word) + 1):
        covering = sum(1 for lo, hi in spans if lo <= i <= hi)
        if covering > best:
            best = covering
    return best


def reference_canonicalize(a: Automaton) -> SymbolicDfa:
    """Canonical DFA by the general construction only: nf × tilde, determinized, minimized.

    ``canonicalize`` skips the relabeling closure for automata that accept
    only normal forms; this is the oracle its shortcut is compared against.
    """
    nf = nf_automaton(a.registers, a.alphabet)
    return minimize(determinize(product(nf, tilde(a))))


def _frozenset_pooled_moves(rows, letters) -> list[tuple[int, frozenset[int]]]:
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


def frozenset_determinize(nfa: SymbolicNfa) -> SymbolicDfa:
    """``determinize`` with every subset a frozenset of state ids.

    The construction as it stood before subsets became int bitsets, kept
    verbatim as the oracle of its numbering: the result must be equal, not
    only isomorphic.
    """
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
        lambda subset: _frozenset_pooled_moves([table[s] for s in subset], every),
        lambda subset: not finals.isdisjoint(subset),
        nfa.alphabet,
        nfa.registers,
    )


def _moves_by_source(transitions) -> dict[str, list[tuple[TransitionLabel, str]]]:
    """The (letter, target) pairs leaving each source of some (source, letter, target) triples.

    The grouping ``normal_form_table`` read before automata had a state
    index, kept here so that its oracle below numbers the states itself.
    """
    moves: dict[str, list[tuple[TransitionLabel, str]]] = {}
    for s, x, t in transitions:
        moves.setdefault(s, []).append((x, t))
    return moves


def frozenset_normal_form_table(a: Automaton) -> LazyDfa:
    """``normal_form_table`` with every subset a frozenset of tilde masks.

    The construction as it stood before subsets became int bitsets over
    interned member ids, kept verbatim as the oracle of its numbering: the
    tables must be equal, which ``minimize`` alone cannot tell.
    """
    k = a.registers
    require_session(a)
    nf = nf_automaton(k, a.alphabet)
    nf_letters = [[x for x, t in enumerate(row) if t >= 0] for row in nf.rows]
    state_bit = {q: 1 << k * k + i for i, q in enumerate(sorted(a.states))}
    injection = (1 << k * k) - 1
    finals = sum(state_bit[q] for q in a.finals)
    # Per state bit: (letter index per output register, operation, target bit).
    outgoing = {
        state_bit[q]: [
            ([nf.column(TransitionLabel(x.label, RegisterOp(x.op.kind, r)))
              for r in range(1, k + 1)], x.op, state_bit[target])
            for x, target in moves
        ]
        for q, moves in _moves_by_source(a.transitions).items()
    }
    tilde_rows: dict[int, list[list[int]]] = {}

    def expand(m: int) -> list[list[int]]:
        row = tilde_rows[m] = [[] for _ in nf.letters]
        inj = m & injection
        for slots, op, target in outgoing.get(m ^ inj, ()):
            for r, inj2 in _relabelings(op, inj, k):
                row[slots[r - 1]].append(target | inj2)
        return row

    maximal_of: dict[frozenset[int], frozenset[int]] = {}

    def maximal(targets: frozenset[int]) -> frozenset[int]:
        # The members no other member simulates.  m2 simulates m when
        # m & m2 == m: the same state of a, and every bit of m's injection
        # is in m2's.  Such an m2 is a larger int, so taken largest first,
        # every member meets those that simulate it before itself.  A set
        # that loses no member is returned as it is, with its hash already
        # computed.
        if len(targets) == 1:
            return targets
        kept = maximal_of.get(targets)
        if kept is None:
            above: list[int] = []
            for m in sorted(targets, reverse=True):
                for m2 in above:
                    if m & m2 == m:
                        break
                else:
                    above.append(m)
            kept = targets if len(above) == len(targets) else frozenset(above)
            maximal_of[targets] = kept
        return kept

    def successors(state):
        n, subset = state
        rows = [tilde_rows.get(m) or expand(m) for m in subset]
        return [(x, (nf.rows[n][x], maximal(targets)))
                for x, targets in _frozenset_pooled_moves(rows, nf_letters[n])]

    def accepting(state) -> bool:
        n, subset = state
        return n in nf.finals and any(m & finals for m in subset)

    start = frozenset({state_bit[a.initial]})
    return LazyDfa((0, start), successors, accepting, nf.alphabet, k)


class PartialInjection(NamedTuple):
    """Partial injective map between register indices, as sorted pairs."""

    pairs: tuple[tuple[int, int], ...] = ()

    def get(self, r: int) -> int | None:
        return dict(self.pairs).get(r)

    def rewire(self, source: int, target: int) -> "PartialInjection":
        """Map source to target, dropping whatever previously used either end."""
        kept = tuple(
            (a, b) for a, b in self.pairs if a != source and b != target
        )
        return PartialInjection(tuple(sorted(kept + ((source, target),))))


def reference_relabelings(op: RegisterOp, inj: PartialInjection, k: int) -> list[tuple[int, PartialInjection]]:
    """The relabeling rule on injections kept as sorted pairs; the oracle of ``_relabelings``.

    A reuse reads the output register that holds its register's value, and
    has no move when none does.  A fresh write may pick any output register;
    whoever used that output register before loses it.
    """
    if op.kind is OpKind.REUSE:
        mapped = inj.get(op.register)
        return [] if mapped is None else [(mapped, inj)]
    return [(r, inj.rewire(op.register, r)) for r in range(1, k + 1)]


def injection_bits(inj: PartialInjection, k: int) -> int:
    """The pairs r>o of an injection as the int ``_relabelings`` reads: bit (r-1)*k + o-1 each."""
    return sum(1 << (r - 1) * k + o - 1 for r, o in inj.pairs)


def partial_injections(k: int) -> list[PartialInjection]:
    """Every partial injection from registers 1..k to registers 1..k."""
    out = []
    for image in product_of(range(k + 1), repeat=k):
        used = [o for o in image if o]
        if len(used) == len(set(used)):
            out.append(PartialInjection(tuple((r, o) for r, o in enumerate(image, 1) if o)))
    return out


def reference_nf_violation_witness(hypothesis: Automaton):
    """Shortest accepted non-normal form, from the product with the complemented normal-form DFA.

    ``nf_violation_witness`` finds the same word by a search that builds
    neither; this is its oracle.  The product is determinized first: the
    plain breadth-first search of ``reference_shortest_accepted`` finds the
    shortlex-least word only on deterministic input.
    """
    alpha = symbolic_alphabet(hypothesis.alphabet, hypothesis.registers)
    outside = complement(nf_automaton(hypothesis.registers, frozenset(hypothesis.alphabet)), alpha)
    return reference_shortest_accepted(determinize(product(as_symbolic_nfa(hypothesis), outside)))


class EagerTraceLearner(Learner):
    """``Learner`` as it was when it formatted the trace during the run.

    ``_log`` and ``run`` are verbatim copies of that version: ``_log`` copied
    the memo entries answered since its last call into ``trace`` as
    ``MembershipQuery`` events, and a ``finally`` flushed the rest when the
    run raised.  ``Learner.trace`` renders the same list when read; this is
    its oracle.
    """

    trace = None  # a plain attribute here, shadowing Learner's read-only property

    def __init__(self, teacher, labels, max_queries=100_000):
        super().__init__(teacher, labels, max_queries)
        self.trace = []
        self._logged = 0  # memo entries already in the trace
        self._size = self.table.size()

    def _log(self, event: str | None = None, detail: str = "") -> None:
        """Append the queries answered since the last call, then ``event``.

        The queries carry the table size (k, upper rows, columns) recorded at
        that call, i.e. at the start of the phase that asked them; the event
        carries the current size, which is recorded for the next call.
        """
        k, upper, columns = self._size
        memo = self.oracle.memo
        for word, answer in islice(memo.items(), self._logged, None):
            query = f"{format_symbolic_word(word)} -> {'+' if answer else '-'}"
            self.trace.append(TraceEvent("MembershipQuery", query, k, upper, columns))
        self._logged = len(memo)
        self._size = self.table.size()
        if event is not None:
            self.trace.append(TraceEvent(event, detail, *self._size))

    def run(self) -> Automaton:
        table, oracle = self.table, self.oracle
        try:
            while True:
                self._log()
                table.close(oracle)
                self._log(
                    "TableClosed",
                    "upper=[" + ", ".join(format_symbolic_word(u) for u in table.upper)
                    + "] columns=[" + ", ".join(format_symbolic_word(v) for v in table.columns)
                    + "]",
                )
                hypothesis = table.build_hypothesis(oracle)
                oracle.equivalence_queries += 1
                z = nf_violation_witness(hypothesis)
                if z is not None:
                    self._log("NfViolation", format_symbolic_word(z))
                else:
                    counterexample = self.teacher.equivalence(hypothesis)
                    if counterexample is None:
                        self._log("EquivalenceQuery", "equivalent")
                        return hypothesis
                    self._log("EquivalenceQuery", format_data_word(counterexample))
                    z = snf(counterexample)
                    if not z:
                        raise TeacherInconsistent("the empty word cannot be a counterexample")
                before = table.registers
                extended, suffix = process_counterexample(table, z, oracle)
                if extended:
                    self._log("AlphabetExtended", f"registers {before} -> {table.registers}")
                if suffix is not None:
                    self._log("CounterexampleProcessed", format_symbolic_word(suffix))
        finally:
            # A run that raises still leaves every answered query in the trace.
            self._log()


# The observation table and the counterexample steps as they were when the
# table found the upper row of a row in three places (``unmatched``,
# ``successor`` and ``build_hypothesis``), verbatim but for their names.  The
# learner now reads one ``states`` map; these are its oracle, down to the
# order of the queries.
class ReferenceObservationTable:
    """Observation table over symbolic letters.

    ``upper`` is prefix-closed and its rows stay pairwise distinct; the lower
    part consists of all one-letter extensions of upper words.  Rows are read
    through the oracle, which memoizes every cell.  Each word's row is cached
    and only extended by the cells of columns added since it was last read,
    which relies on columns never being removed or reordered.
    """

    def __init__(self, labels: frozenset[str]):
        self.labels = labels
        self.registers = 0
        self.upper: list[SymbolicWord] = [()]
        self.columns: list[SymbolicWord] = [()]
        self._rows: dict[SymbolicWord, tuple[bool, ...]] = {}
        self.extend_alphabet(1)

    def size(self) -> tuple[int, int, int]:
        """(k, upper rows, columns): the table size that trace events carry."""
        return self.registers, len(self.upper), len(self.columns)

    def letters(self) -> tuple[TransitionLabel, ...]:
        return self._letters

    def row(self, word: SymbolicWord, oracle: MembershipOracle) -> tuple[bool, ...]:
        row = self._rows.get(word, ())
        if len(row) < len(self.columns):
            row += tuple(oracle(word + v) for v in self.columns[len(row):])
            self._rows[word] = row
        return row

    def _lower_words(self):
        upper = set(self.upper)
        for u in self.upper:
            for x in self.letters():
                if u + (x,) not in upper:
                    yield u + (x,)

    def unmatched(self, oracle: MembershipOracle) -> list[SymbolicWord]:
        """Lower words whose row matches no upper row."""
        upper_rows = {self.row(u, oracle) for u in self.upper}
        return [w for w in self._lower_words() if self.row(w, oracle) not in upper_rows]

    def is_closed(self, oracle: MembershipOracle) -> bool:
        return not self.unmatched(oracle)

    def close(self, oracle: MembershipOracle) -> list[SymbolicWord]:
        """Promote unmatched lower rows until closed; returns the promoted words.

        Among several candidates the shortlex-greatest is promoted, which is
        what keeps replayed runs stable.
        """
        promoted = []
        while True:
            candidates = self.unmatched(oracle)
            if not candidates:
                return promoted
            chosen = max(candidates, key=word_key)
            self.upper.append(chosen)
            promoted.append(chosen)

    def extend_alphabet(self, registers: int) -> None:
        if registers < self.registers:
            raise ValueError("the symbolic alphabet never shrinks")
        self.registers = registers
        self._letters = tuple(sorted(symbolic_alphabet(self.labels, registers), key=letter_key))

    def add_column(self, suffix: SymbolicWord) -> None:
        if suffix in self.columns:
            raise TeacherInconsistent(
                f"distinguishing word {format_symbolic_word(suffix)} is already a column"
            )
        self.columns.append(suffix)

    def successor(self, u: SymbolicWord, x: TransitionLabel, oracle: MembershipOracle) -> SymbolicWord:
        """The upper word whose row equals row(u + x); defined when closed."""
        target = self.row(u + (x,), oracle)
        for candidate in self.upper:
            if self.row(candidate, oracle) == target:
                return candidate
        raise NotClosed(f"no upper row matches {format_symbolic_word(u + (x,))}")

    def build_hypothesis(self, oracle: MembershipOracle) -> Automaton:
        """Complete symbolically deterministic session automaton of the table."""
        rows = [self.row(u, oracle) for u in self.upper]
        if len(set(rows)) != len(rows):
            raise TeacherInconsistent("upper rows are not pairwise distinct")
        index = {u: i for i, u in enumerate(self.upper)}
        by_row = {row: u for row, u in zip(rows, self.upper)}
        transitions = set()
        for u in self.upper:
            for x in self.letters():
                target_row = self.row(u + (x,), oracle)
                if target_row not in by_row:
                    raise NotClosed(
                        f"row of {format_symbolic_word(u + (x,))} matches no upper row"
                    )
                transitions.add(
                    Transition(f"__u{index[u]}", x, f"__u{index[by_row[target_row]]}")
                )
        finals = frozenset(
            f"__u{index[u]}" for u in self.upper if oracle(u)
        )
        return Automaton(
            name="hypothesis",
            alphabet=frozenset(self.labels),
            registers=self.registers,
            states=frozenset(f"__u{i}" for i in range(len(self.upper))),
            initial="__u0",
            finals=finals,
            transitions=frozenset(transitions),
        )


def reference_find_breakpoint(
    table: ObservationTable,
    z: SymbolicWord,
    oracle: MembershipOracle,
) -> SymbolicWord | None:
    """Binary search for the distinguishing suffix of a counterexample.

    g(i) asks for the word that follows the hypothesis for i-1 letters, jumps
    to the reached state's access word, and appends the rest of z.  g flips
    between 1 and m+1 on a genuine counterexample; the flip position yields a
    suffix that splits two currently equal rows.  Returns None when g does
    not flip (the counterexample does not disagree with this hypothesis).
    """
    if not z:
        return None
    access = [()]
    for letter in z:
        access.append(table.successor(access[-1], letter, oracle))

    def g(i: int) -> bool:
        return oracle(access[i - 1] + z[i - 1 :])

    lo, hi = 1, len(z) + 1
    if g(lo) == g(hi):
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if g(mid) == g(lo):
            lo = mid
        else:
            hi = mid
    return z[lo:]


def reference_process_counterexample(
    table: ObservationTable,
    z: SymbolicWord,
    oracle: MembershipOracle,
) -> tuple[bool, SymbolicWord | None]:
    """Fold one counterexample (already in normal form) into the table.

    Returns (alphabet_extended, added_column).  When the word needs more
    registers than the table knows, the alphabet grows first; the break-point
    search then only runs if the table is still closed, per the main loop's
    contract.
    """
    extended = False
    needed = max_register(z)
    if needed > table.registers:
        table.extend_alphabet(needed)
        extended = True
    if not table.is_closed(oracle):
        return extended, None
    suffix = reference_find_breakpoint(table, z, oracle)
    if suffix is None:
        if extended:
            # The extension changed the hypothesis out from under z; harmless.
            return extended, None
        raise NoBreakpoint(
            f"counterexample {format_symbolic_word(z)} does not distinguish anything"
        )
    table.add_column(suffix)
    return extended, suffix


class ReferenceTableLearner(Learner):
    """``Learner`` on ``ReferenceObservationTable``; ``run`` is a verbatim copy
    but for the name of the ``process_counterexample`` it calls."""

    def __init__(self, teacher, labels, max_queries=100_000):
        super().__init__(teacher, labels, max_queries)
        self.table = ReferenceObservationTable(frozenset(labels))

    def run(self) -> Automaton:
        table, oracle = self.table, self.oracle
        while True:
            table.close(oracle)
            upper = ", ".join(format_symbolic_word(u) for u in table.upper)
            columns = ", ".join(format_symbolic_word(v) for v in table.columns)
            self._log("TableClosed", f"upper=[{upper}] columns=[{columns}]")
            hypothesis = table.build_hypothesis(oracle)
            oracle.equivalence_queries += 1
            z = nf_violation_witness(hypothesis)
            if z is not None:
                self._log("NfViolation", format_symbolic_word(z))
            else:
                counterexample = self.teacher.equivalence(hypothesis)
                if counterexample is None:
                    self._log("EquivalenceQuery", "equivalent")
                    return hypothesis
                self._log("EquivalenceQuery", format_data_word(counterexample))
                z = snf(counterexample)
                if not z:
                    raise TeacherInconsistent("the empty word cannot be a counterexample")
            before = table.registers
            extended, suffix = reference_process_counterexample(table, z, oracle)
            if extended:
                self._log("AlphabetExtended", f"registers {before} -> {table.registers}")
            if suffix is not None:
                self._log("CounterexampleProcessed", format_symbolic_word(suffix))


# Well-formedness and the position classes of a symbolic word, by their
# definitions: oracles of the one-pass ``concretize`` and of the
# well-formedness DFA.
def is_well_formed(word: SymbolicWord) -> bool:
    """Every reuse of a register must be preceded by a fresh write to it."""
    _reject_local(word, "well-formedness")
    written: set[int] = set()
    for letter in word:
        if letter.op.kind is OpKind.REUSE:
            if letter.op.register not in written:
                return False
        else:
            written.add(letter.op.register)
    return True


def symbolic_classes(word: SymbolicWord) -> list[set[int]]:
    """Partition of positions 1..n into groups that denote the same data value.

    Two positions fall together when they use the same register and no fresh
    write to that register happens in between (up to and including the later
    position).  Classes are listed in order of their first position.
    """
    _reject_local(word, "the position equivalence")
    current: dict[int, set[int]] = {}
    classes: list[set[int]] = []
    for i, letter in enumerate(word, 1):
        r = letter.op.register
        if letter.op.kind is OpKind.FRESH or r not in current:
            group: set[int] = {i}
            classes.append(group)
            current[r] = group
        else:
            current[r].add(i)
    return classes


# ``concretize`` and ``is_concretization`` as they were when they went
# through ``is_well_formed`` and ``symbolic_classes``, verbatim but for their
# names: the oracles of the one-pass versions.
def reference_concretize(word: SymbolicWord) -> DataWord:
    """Smallest concretization of a well-formed symbolic word (values 1, 2, ...)."""
    if not is_well_formed(word):
        raise NotWellFormed(f"cannot concretize {' '.join(map(str, word)) or 'word'}: "
                            "a register is reused before being written")
    value_of_position: dict[int, int] = {}
    for number, group in enumerate(symbolic_classes(word), 1):
        for i in group:
            value_of_position[i] = number
    return tuple((letter.label, value_of_position[i]) for i, letter in enumerate(word, 1))


def reference_is_concretization(word: DataWord, symbolic: SymbolicWord) -> bool:
    """True when the data word's labels and value-equality pattern match the symbolic word."""
    if any(x.op.kind is OpKind.LOCAL for x in symbolic):
        return False
    if not is_well_formed(symbolic):
        return False
    if len(word) != len(symbolic):
        return False
    if any(a != x.label for (a, _), x in zip(word, symbolic)):
        return False
    class_of_position: dict[int, int] = {}
    for number, group in enumerate(symbolic_classes(symbolic)):
        for i in group:
            class_of_position[i] = number
    values_to_class: dict[int, int] = {}
    for i, (_, d) in enumerate(word, 1):
        c = class_of_position[i]
        if values_to_class.setdefault(d, c) != c:
            return False
    # Distinct classes must carry distinct values.
    return len(set(values_to_class.values())) == len(values_to_class)


# ``includes``, ``equivalent`` and ``is_universal_bounded`` as they were when
# they searched pairs of minimized canonical DFAs, and universality the whole
# normal-form DFA, verbatim but for their names: the oracles of the searches
# over lazily explored tables.
def reference_includes(a: Automaton, b: Automaton) -> DataWord | None:
    """None when L(a) is a subset of L(b); otherwise a data word in L(a) \\ L(b)."""
    require_session(a, b)
    witness = symbolic_inclusion(canonicalize(a), canonicalize(b))
    return None if witness is None else concretize(witness)


def reference_equivalent(a: Automaton, b: Automaton) -> DataWord | None:
    """None when L(a) = L(b); otherwise a shortest data word in the symmetric difference."""
    require_session(a, b)
    witness = symbolic_equivalence(canonicalize(a), canonicalize(b))
    return None if witness is None else concretize(witness)


def reference_is_universal_bounded(a: Automaton, k: int) -> DataWord | None:
    """None when L(a) contains every k-bounded data word; otherwise a missing one."""
    require_session(a)
    if k < 1:
        raise ValueError("universality needs a bound k >= 1")
    witness = symbolic_inclusion(nf_automaton(k, a.alphabet), canonicalize(a))
    return None if witness is None else concretize(witness)


def reference_is_empty(a: Automaton):
    """``is_empty`` as it was before its pair search: the product with the
    well-formedness DFA, then ``shortest_accepted``.  Kept as its oracle."""
    require_session(a)
    wf = wf_automaton(a.registers, a.alphabet)
    witness = shortest_accepted(product(as_symbolic_nfa(a), wf))
    return None if witness is None else concretize(witness)


def reference_intersect(a: Automaton, b: Automaton) -> Automaton:
    """``intersect`` as it was before its pair construction: the string-keyed
    product of the canonical DFAs, determinized and minimized.  Kept as its oracle."""
    require_session(a, b)
    k = min(a.registers, b.registers)
    dfa = minimize(determinize(product(canonicalize(a), canonicalize(b))))
    return from_symbolic_dfa(dfa, f"{a.name}_and_{b.name}", a.alphabet | b.alphabet, k)


def reference_complement_bounded(a: Automaton) -> Automaton:
    """``complement_bounded`` as it was before its pair construction: the
    normal-form DFA times the completed complement of the canonical DFA.
    Kept as its oracle."""
    require_session(a)
    k = a.registers
    alpha = symbolic_alphabet(a.alphabet, k)
    outside = complement(canonicalize(a), alpha)
    dfa = minimize(determinize(product(nf_automaton(k, a.alphabet), outside)))
    return from_symbolic_dfa(dfa, f"not_{a.name}", a.alphabet, k)


# ``intersect``, ``complement_bounded`` and ``ReferenceTeacher.equivalence`` as
# they were when they read minimized canonical DFAs, verbatim but for their
# names: the oracles of the versions that pair ``snf_dfa`` tables.
def canonicalizing_intersect(a: Automaton, b: Automaton) -> Automaton:
    """Session automaton for L(a) & L(b), over min(k_a, k_b) registers.

    The product of the canonical DFAs works because a data word lies in both
    languages exactly when its normal form does, and normal forms needing
    more than min(k_a, k_b) registers belong to neither canonical language.
    """
    require_session(a, b)
    k = min(a.registers, b.registers)
    x, y = canonicalize(a), canonicalize(b)
    dfa = _pair_table(x, y, "both", lambda s, t: s in x.finals and t in y.finals)
    return from_symbolic_dfa(dfa, f"{a.name}_and_{b.name}", a.alphabet | b.alphabet, k)


def canonicalizing_complement_bounded(a: Automaton) -> Automaton:
    """Session automaton for the k-bounded words outside L(a), k = a.registers.

    Complementing the canonical DFA alone is not enough: the raw complement
    also accepts well-formed words that are not normal forms, and their
    concretizations can lie inside L(a).  Intersecting with the normal-form
    language keeps exactly one symbolic word per excluded data word: the
    pairs of the normal-form DFA and the canonical DFA (-1 past its moves)
    where the first accepts and the second does not.
    """
    require_session(a)
    k = a.registers
    nf, can = nf_automaton(k, a.alphabet), canonicalize(a)
    dfa = _pair_table(nf, can, "x", lambda n, c: n in nf.finals and c not in can.finals)
    return from_symbolic_dfa(dfa, f"not_{a.name}", a.alphabet, k)


class CanonicalizingTeacher(ReferenceTeacher):
    def equivalence(self, hypothesis: Automaton) -> DataWord | None:
        witness = symbolic_equivalence(canonicalize(hypothesis), self._canonical)
        return None if witness is None else concretize(witness)


def reference_shortest_accepted(fa):
    """Breadth-first search one state at a time, stopping at the first final state.

    The chain that ``shortest_accepted``, ``symbolic_inclusion`` and
    ``symbolic_equivalence`` replaced with one grouped search, kept as their
    oracle on deterministic input.  On an NFA it may miss the shortlex-least
    word: two states that share an access word are expanded one after the
    other, all letters of the first before any of the second.
    """
    nfa = as_nfa(fa)
    letters = _sorted_letters(nfa.alphabet)
    delta = nfa.delta
    seen = {}
    queue = []
    for s in sorted(nfa.initials):
        if s not in seen:
            seen[s] = ()
            queue.append(s)
    for s in queue:
        if s in nfa.finals:
            return seen[s]
    i = 0
    while i < len(queue):
        s = queue[i]
        i += 1
        for x in letters:
            for t in sorted(delta.get((s, x), ())):
                if t not in seen:
                    seen[t] = seen[s] + (x,)
                    if t in nfa.finals:
                        return seen[t]
                    queue.append(t)
    return None


def reference_inclusion(x, y):
    """Shortest witness of L(x) \\ L(y): the complement of y, the product, then the search."""
    alpha = as_nfa(x).alphabet | as_nfa(y).alphabet
    outside = complement(determinize(as_nfa(y)), alpha)
    return reference_shortest_accepted(product(x, outside))


def reference_equivalence(x, y):
    """Shortest witness in the symmetric difference: the lesser of two inclusion witnesses."""
    witnesses = [w for w in (reference_inclusion(x, y), reference_inclusion(y, x))
                 if w is not None]
    if not witnesses:
        return None
    return min(witnesses, key=word_key)


def brute_accepted(fa, letters, max_len):
    """The accepted words of up to max_len letters over the given letters, in shortlex order.

    Every nonempty frontier is extended by every letter, scanning the transitions.
    """
    nfa = as_nfa(fa)
    letters = sorted(letters, key=letter_key)
    level = [((), frozenset(nfa.initials))]
    out = [w for w, frontier in level if frontier & nfa.finals]
    for _ in range(max_len):
        level = [
            (w + (x,), frozenset(t for s, y, t in nfa.transitions if s in frontier and y == x))
            for w, frontier in level
            if frontier
            for x in letters
        ]
        out.extend(w for w, frontier in level if frontier & nfa.finals)
    return out


def reference_determinize(nfa: SymbolicNfa) -> NamedDfa:
    """Subset construction on string states and letter-keyed dicts.

    ``determinize`` runs the same construction on int ids through the subset
    kernel it shares with the canonical general path; this is its oracle.
    """
    letters = _sorted_letters(nfa.alphabet)
    delta = nfa.delta
    start = frozenset(nfa.initials)
    names: dict[frozenset, str] = {start: "0"}
    order = [start]
    out: dict[tuple[str, TransitionLabel], str] = {}
    i = 0
    while i < len(order):
        subset = order[i]
        i += 1
        for x in letters:
            target = frozenset(t for s in subset for t in delta.get((s, x), ()))
            if not target:
                continue
            if target not in names:
                names[target] = str(len(order))
                order.append(target)
            out[(names[subset], x)] = names[target]
    finals = frozenset(names[s] for s in order if s & nfa.finals)
    return NamedDfa(
        alphabet=nfa.alphabet,
        states=frozenset(names.values()),
        initial="0",
        finals=finals,
        delta=out,
        registers=nfa.registers,
    )


def reference_renumber(dfa: NamedDfa) -> NamedDfa:
    """Breadth-first renumbering on string states and letter-keyed dicts.

    ``renumber`` and ``minimize`` number states through the subset kernel;
    this is their oracle.
    """
    letters = _sorted_letters(dfa.alphabet)
    names = {dfa.initial: "0"}
    order = [dfa.initial]
    i = 0
    while i < len(order):
        s = order[i]
        i += 1
        for x in letters:
            t = dfa.delta.get((s, x))
            if t is not None and t not in names:
                names[t] = str(len(order))
                order.append(t)
    delta = {
        (names[s], x): names[t]
        for (s, x), t in dfa.delta.items()
        if s in names and t in names
    }
    return NamedDfa(
        alphabet=dfa.alphabet,
        states=frozenset(names.values()),
        initial="0",
        finals=frozenset(names[s] for s in dfa.finals if s in names),
        delta=delta,
        registers=dfa.registers,
    )


def reference_minimize(dfa: NamedDfa) -> NamedDfa:
    """Moore refinement on string states and letter-keyed dicts.

    ``minimize`` runs on an int transition table; this is its oracle, down
    to the state numbering.
    """
    sink = "sink"
    while sink in dfa.states:
        sink = "_" + sink
    delta = dict(dfa.delta)
    for s in list(dfa.states) + [sink]:
        for x in dfa.alphabet:
            delta.setdefault((s, x), sink)
    total = NamedDfa(dfa.alphabet, dfa.states | {sink}, dfa.initial, dfa.finals, delta,
                        registers=dfa.registers)
    letters = _sorted_letters(total.alphabet)

    block: dict[str, int] = {s: (1 if s in total.finals else 0) for s in total.states}
    while True:
        signature = {
            s: (block[s], tuple(block[total.delta[(s, x)]] for x in letters))
            for s in total.states
        }
        renamed: dict[tuple, int] = {}
        for s in sorted(total.states):
            renamed.setdefault(signature[s], len(renamed))
        new_block = {s: renamed[signature[s]] for s in total.states}
        if new_block == block:
            break
        block = new_block

    # Quotient automaton on blocks.
    q_initial = block[total.initial]
    q_finals = {block[s] for s in total.finals}
    q_delta = {
        (block[s], x): block[total.delta[(s, x)]]
        for s in total.states
        for x in letters
    }

    # Keep blocks that are reachable from the initial and can reach a final.
    reachable = {q_initial}
    stack = [q_initial]
    while stack:
        b = stack.pop()
        for x in letters:
            t = q_delta[(b, x)]
            if t not in reachable:
                reachable.add(t)
                stack.append(t)
    alive = set(q_finals)
    changed = True
    while changed:
        changed = False
        for (b, _), t in q_delta.items():
            if t in alive and b not in alive:
                alive.add(b)
                changed = True
    keep = (reachable & alive) | {q_initial}

    delta = {
        (str(b), x): str(t)
        for (b, x), t in q_delta.items()
        if b in keep and t in keep and t in alive
    }
    out = NamedDfa(
        alphabet=dfa.alphabet,
        states=frozenset(str(b) for b in keep),
        initial=str(q_initial),
        finals=frozenset(str(b) for b in q_finals if b in keep),
        delta=delta,
        registers=dfa.registers,
    )
    return reference_renumber(out)


def universal(k: int, labels=("a", "b")) -> Automaton:
    """One accepting state reading every fresh and reuse letter: every k-bounded data word."""
    return Automaton(
        name=f"univ{k}",
        alphabet=frozenset(labels),
        registers=k,
        states=frozenset({"u"}),
        initial="u",
        finals=frozenset({"u"}),
        transitions=frozenset(
            Transition("u", TransitionLabel(x, RegisterOp(kind, r)), "u")
            for x in labels
            for kind in (OpKind.FRESH, OpKind.REUSE)
            for r in range(1, k + 1)
        ),
    )


def permute_values(rng: Random, word):
    values = sorted({d for _, d in word})
    shuffled = values[:]
    rng.shuffle(shuffled)
    mapping = dict(zip(values, shuffled))
    return tuple((a, mapping[d]) for a, d in word)


def _growth_strings(n):
    """All value patterns of length n: pattern[i] in 0..max(pattern[:i])+1."""
    if n == 0:
        yield ()
        return
    stack = [((0,), 0)]
    while stack:
        prefix, top = stack.pop()
        if len(prefix) == n:
            yield prefix
            continue
        for v in range(top + 2):
            stack.append((prefix + (v,), max(top, v)))


def enumerate_word_classes(labels, max_len):
    """One representative data word per equivalence class of length <= max_len.

    Every word over values {1..max_len} is a relabeling of exactly one of
    these (labels kept, values permuted), so membership questions over the
    full space reduce to these representatives.
    """
    out = []
    for n in range(max_len + 1):
        label_seqs = [()]
        for _ in range(n):
            label_seqs = [seq + (a,) for seq in label_seqs for a in labels]
        for pattern in _growth_strings(n):
            for seq in label_seqs:
                out.append(tuple((a, v + 1) for a, v in zip(seq, pattern)))
    return out


def membership_vector(automaton, representatives):
    return [simulate(automaton, w) for w in representatives]


def duplicate_state(a: Automaton, state: str, copy_name: str) -> Automaton:
    """Split a state into twins: same out-edges, parallel in-edges.

    Nondeterministic duplication keeps the language: any run through the
    original can route through either twin.
    """
    extra = set()
    for t in a.transitions:
        if t.source == state:
            extra.add(Transition(copy_name, t.label, copy_name if t.target == state else t.target))
        if t.target == state:
            extra.add(Transition(t.source, t.label, copy_name))
    finals = a.finals | ({copy_name} if state in a.finals else frozenset())
    return Automaton(
        name=a.name + "_dup",
        alphabet=a.alphabet,
        registers=a.registers,
        states=a.states | {copy_name},
        initial=a.initial,
        finals=finals,
        transitions=a.transitions | extra,
    )


def add_dead_state(a: Automaton, name: str) -> Automaton:
    """Add a reachable but non-accepting trap state."""
    label = sorted(a.alphabet)[0]
    letter = TransitionLabel(label, RegisterOp(OpKind.FRESH, 1))
    return Automaton(
        name=a.name + "_dead",
        alphabet=a.alphabet,
        registers=a.registers,
        states=a.states | {name},
        initial=a.initial,
        finals=a.finals,
        transitions=a.transitions
        | {Transition(a.initial, letter, name), Transition(name, letter, name)},
    )
