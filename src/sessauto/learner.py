"""Active learning of session automata from membership and equivalence queries.

The learner builds the canonical automaton of an unknown data language using
an observation table over symbolic letters.  Membership of a symbolic word is
derived from data-word membership: words that are not in normal form are
rejected without asking the teacher (no data word has them as its normal
form), everything else is concretized and sent on.  Counterexamples are data
words; their normal forms are folded into the table through a binary search
for a break-point, which adds one distinguishing column per counterexample.
A counterexample may also reveal that more registers are needed, in which
case the symbolic alphabet grows instead.  The reference teacher answers a
data word in one pass over it: it walks its target's canonical DFA along
the word's register assignment, ``snf_registers``, the core that ``snf``
builds its letters from, and never builds the normal form.

A cell costs one dictionary lookup for its normal-form check.  The normal-form
DFA over k registers accepts a word over registers up to m <= k exactly when
the DFA over m does, and every table word stays within the table's k, since
the alphabet grows before a column that needs more registers is added.  So
the table keeps the state of ``nf_automaton(k, labels)`` after each row word,
one letter on from its parent's, and whether each column read from each
state ends in a final state.  Any other word, such as one of the break-point
search, is checked by the definition: snf(concretize(u)) = u.  ``close``
reads the rows once and, after each promotion, only the rows of the
promoted word's extensions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import Automaton, Transition
from .canonical import canonicalize, nf_automaton, nf_violation_witness, snf_dfa
from .errors import (
    NoBreakpoint,
    NotClosed,
    NotWellFormed,
    QueryBudgetExceeded,
    TeacherInconsistent,
    UnknownLabel,
    UnsupportedOp,
)
from .formats import format_data_word, format_symbolic_word
from .symbolic import symbolic_equivalence
from .words import (
    DataWord,
    SymbolicWord,
    concretize,
    label_columns,
    max_register,
    snf,
    snf_registers,
    word_key,
)


class Teacher:
    """Answers membership and equivalence queries about an unknown language."""

    def membership(self, word: DataWord) -> bool:
        raise NotImplementedError

    def equivalence(self, hypothesis: Automaton) -> DataWord | None:
        """None when the hypothesis is correct, else a misclassified data word."""
        raise NotImplementedError


class ReferenceTeacher(Teacher):
    """Perfect teacher backed by a known target automaton.

    A membership query walks the target's canonical DFA along the word's
    register assignment, ``snf_registers``, without building its normal
    form: each code is read as a column through ``label_columns``.  A label
    outside the target's alphabet, a register above its k or a missing move
    rejects the word: exactly the words whose normal form the DFA does not
    accept.
    """

    def __init__(self, target: Automaton):
        self._canonical = canonicalize(target)
        self._registers = target.registers
        self._columns = label_columns(target.alphabet, target.registers)

    def membership(self, word: DataWord) -> bool:
        codes = snf_registers(word)
        if max(codes, default=0) > self._registers:  # the word's session bound
            return False
        columns, rows, state = self._columns, self._canonical.rows, 0
        for (a, _), c in zip(word, codes):
            label = columns.get(a)
            if label is None:
                return False
            state = rows[state][label[c]]
            if state < 0:
                return False
        return state in self._canonical.finals

    def equivalence(self, hypothesis: Automaton) -> DataWord | None:
        witness = symbolic_equivalence(snf_dfa(hypothesis), self._canonical)
        return None if witness is None else concretize(witness)


class ScriptedTeacher(ReferenceTeacher):
    """Replays a fixed list of counterexamples, for reproducing known runs.

    Once the script is exhausted the hypothesis is checked against the
    target; a still-wrong hypothesis at that point means the script was too
    short, which is reported as an inconsistent teacher.
    """

    def __init__(self, target: Automaton, counterexamples):
        super().__init__(target)
        self._script = list(counterexamples)

    def equivalence(self, hypothesis: Automaton) -> DataWord | None:
        if self._script:
            return self._script.pop(0)
        witness = super().equivalence(hypothesis)
        if witness is not None:
            raise TeacherInconsistent(
                "counterexample script exhausted but the hypothesis is still wrong "
                f"(e.g. on {format_data_word(witness)})"
            )
        return None


def reference_teacher(target: Automaton) -> Teacher:
    return ReferenceTeacher(target)


def scripted_teacher(target: Automaton, counterexamples) -> Teacher:
    return ScriptedTeacher(target, counterexamples)


@dataclass
class TraceEvent:
    event: str
    detail: str
    k: int
    upper_rows: int
    columns: int


def _walk(nf, state: int | None, word: SymbolicWord) -> int | None:
    """The state of a normal-form DFA after ``word`` from ``state``: -1 once no normal form has
    the prefix read, None when a letter is outside the DFA's alphabet."""
    for letter in word:
        x = nf.column(letter)
        if x is None:
            return None
        if state is not None and state >= 0:
            state = nf.rows[state][x]
    return state


class MembershipOracle:
    """Memoized symbolic membership on top of a data-word teacher.

    Only normal forms reach the teacher; every other word is a definite
    non-member of any canonical symbolic language.  ``memo`` gains one entry
    per answered first-time query, in the order they were answered, so it
    doubles as the query log.  Calling the oracle looks a word up in the memo
    and checks a first-time word for normal form in full, by the definition:
    it is one when it is the normal form of its own concretization, which
    needs no DFA over the word's registers.  That concretization is the data
    word the teacher is asked, so a word is concretized once.  ``answer``
    takes a first-time word whose check the caller has made (the table's
    cells do).
    """

    def __init__(self, teacher: Teacher, labels: frozenset[str], budget: int | None = None):
        if budget is not None and budget < 0:
            raise ValueError(f"the query budget must be at least 0, got {budget}")
        self.teacher = teacher
        self.labels = labels
        self.budget = budget
        self.memo: dict[SymbolicWord, bool] = {}
        self.teacher_queries = 0
        self.equivalence_queries = 0

    def _charge(self) -> None:
        if self.budget is not None:
            spent = len(self.memo) + self.equivalence_queries
            if spent >= self.budget:
                raise QueryBudgetExceeded(f"query budget of {self.budget} exhausted")

    def _normal_form_data(self, word: SymbolicWord) -> DataWord | None:
        """The word's concretization when the word is a normal form, None when it is not."""
        for letter in word:
            if letter.label not in self.labels:
                raise UnknownLabel(f"label {letter.label!r} is outside the learning alphabet")
        # snf(concretize(u)) = u exactly when u is a normal form, whatever its k; an ill-formed
        # word and one with a local letter have no concretization.
        try:
            data = concretize(word)
        except (NotWellFormed, UnsupportedOp):
            return None
        return data if snf(data) == word else None

    def __call__(self, word: SymbolicWord) -> bool:
        answer = self.memo.get(word)
        if answer is None:
            self._charge()  # an exhausted budget is reported before an unknown label
            answer = self._ask(word, self._normal_form_data(word))
        return answer

    def answer(self, word: SymbolicWord, normal: bool) -> bool:
        """Answer a word not in the memo yet, ``normal`` telling whether it is a normal form."""
        self._charge()
        return self._ask(word, concretize(word) if normal else None)

    def _ask(self, word: SymbolicWord, data: DataWord | None) -> bool:
        # ``data`` is the word's concretization, None when the word is no normal form.
        if data is not None:
            answer = self.teacher.membership(data)
            self.teacher_queries += 1
        else:
            answer = False
        self.memo[word] = answer
        return answer


class ObservationTable:
    """Observation table over symbolic letters.

    ``upper`` is prefix-closed and its rows stay pairwise distinct, so
    ``states`` numbers them: upper row i is state i of the hypothesis.  The
    lower part consists of all extensions of upper words by one of
    ``letters``.  Rows are read through the oracle, which memoizes every
    cell.  Each word's row is cached and only extended by the cells of
    columns added since it was last read, which relies on columns never
    being removed or reordered.

    A first-time cell u·v goes to ``MembershipOracle.answer`` with its
    normal-form verdict read off two caches of ``nf_automaton(registers,
    labels)``: the state after each row word u, its parent's state moved by
    one letter (-1 once no normal form starts with u), and, per (state,
    column index), whether the column read from that state ends in a final
    state.  A word or column with a letter outside that DFA's alphabet takes
    the oracle's full check, which raises ``UnknownLabel`` on a label outside
    the learning alphabet.  ``extend_alphabet`` resets both caches.
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

    def _nf_state(self, word: SymbolicWord) -> int | None:
        states = self._nf_states
        if word not in states:
            parent = self._nf_state(word[:-1]) if word else self._nf.initial
            states[word] = _walk(self._nf, parent, word[-1:])
        return states[word]

    def _is_normal(self, state: int | None, column: int) -> bool | None:
        """Whether a row word in ``state`` followed by the column is a normal form, None when
        only the oracle's full check can tell."""
        ends = self._column_ends
        key = (state, column)
        if key not in ends:
            end = _walk(self._nf, state, self.columns[column])
            ends[key] = None if end is None else end in self._nf.finals
        return ends[key]

    def row(self, word: SymbolicWord, oracle: MembershipOracle) -> tuple[bool, ...]:
        row = self._rows.get(word, ())
        if len(row) < len(self.columns):
            state, memo, cells = self._nf_state(word), oracle.memo, []
            for j in range(len(row), len(self.columns)):
                w = word + self.columns[j]
                answer = memo.get(w)
                if answer is None:
                    normal = self._is_normal(state, j)
                    answer = oracle(w) if normal is None else oracle.answer(w, normal)
                cells.append(answer)
            row += tuple(cells)
            self._rows[word] = row
        return row

    def states(self, oracle: MembershipOracle) -> dict[tuple[bool, ...], int]:
        """Each upper row, mapped to the index of its upper word."""
        return {self.row(u, oracle): i for i, u in enumerate(self.upper)}

    def unmatched(self, oracle: MembershipOracle) -> list[SymbolicWord]:
        """Lower words whose row matches no upper row (an upper word matches its own)."""
        states = self.states(oracle)
        lower = (u + (x,) for u in self.upper for x in self.letters)
        return [w for w in lower if self.row(w, oracle) not in states]

    def close(self, oracle: MembershipOracle) -> None:
        """Promote unmatched lower rows until closed.

        Among several candidates the shortlex-greatest is promoted, which is
        what keeps replayed runs stable.  The rows are read once; a promotion
        drops the candidates that now match an upper row and reads only the
        rows of the promoted word's extensions, in letter order: the only rows
        that a full rescan would read for the first time.
        """
        candidates, states = self.unmatched(oracle), self.states(oracle)
        while candidates:
            w = max(candidates, key=word_key)
            self.upper.append(w)
            states[self.row(w, oracle)] = len(self.upper) - 1
            candidates = [c for c in candidates if self.row(c, oracle) not in states]
            candidates += [v for v in (w + (x,) for x in self.letters)
                           if self.row(v, oracle) not in states]

    def extend_alphabet(self, registers: int) -> None:
        if registers < self.registers:
            raise ValueError("the symbolic alphabet never shrinks")
        self.registers = registers
        self._nf = nf_automaton(registers, self.labels)
        self.letters = self._nf.letters
        self._nf_states: dict[SymbolicWord, int | None] = {}
        self._column_ends: dict[tuple[int | None, int], bool | None] = {}

    def add_column(self, suffix: SymbolicWord) -> None:
        if suffix in self.columns:
            raise TeacherInconsistent(
                f"distinguishing word {format_symbolic_word(suffix)} is already a column"
            )
        self.columns.append(suffix)

    def build_hypothesis(self, oracle: MembershipOracle) -> Automaton:
        """Complete symbolically deterministic session automaton of the table."""
        states = self.states(oracle)
        if len(states) != len(self.upper):
            raise TeacherInconsistent("upper rows are not pairwise distinct")
        names, new, transitions = [f"__u{i}" for i in range(len(self.upper))], tuple.__new__, []
        for name, u in zip(names, self.upper):
            for x in self.letters:
                target = states.get(self.row(u + (x,), oracle))
                if target is None:
                    raise NotClosed(
                        f"row of {format_symbolic_word(u + (x,))} matches no upper row"
                    )
                transitions.append(new(Transition, (name, x, names[target])))
        return Automaton(
            name="hypothesis",
            alphabet=frozenset(self.labels),
            registers=self.registers,
            states=frozenset(names),
            initial=names[0],
            finals=frozenset(name for name, u in zip(names, self.upper) if oracle(u)),
            transitions=frozenset(transitions),
        )


def find_breakpoint(
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
    Raises NotClosed when a prefix of z leaves the table's upper rows.
    """
    if not z:
        return None
    states = table.states(oracle)
    access = [()]
    for letter in z:
        w = access[-1] + (letter,)
        state = states.get(table.row(w, oracle))
        if state is None:
            raise NotClosed(f"no upper row matches {format_symbolic_word(w)}")
        access.append(table.upper[state])

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


def process_counterexample(
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
    if table.unmatched(oracle):
        return extended, None
    suffix = find_breakpoint(table, z, oracle)
    if suffix is None:
        if extended:
            # The extension changed the hypothesis out from under z; harmless.
            return extended, None
        raise NoBreakpoint(
            f"counterexample {format_symbolic_word(z)} does not distinguish anything"
        )
    table.add_column(suffix)
    return extended, suffix


class Learner:
    """Drives the whole learning loop; keeps the table around for inspection.

    ``trace`` is built from the oracle's memo and the run's events when read.
    """

    def __init__(self, teacher: Teacher, labels, max_queries: int | None = 100_000):
        self.teacher = teacher
        labels = frozenset(labels)
        if not labels:
            raise ValueError("learning needs a non-empty label alphabet")
        self.oracle = MembershipOracle(teacher, labels, max_queries)
        self.table = ObservationTable(labels)
        self._start = self.table.size()
        self._events = []  # (memo entries answered before it, event, detail, table size after it)

    def _log(self, event: str, detail) -> None:
        """Record an event.  Its detail is the text the trace shows, but a ``TableClosed`` event's
        is the table's (upper words, columns), which ``trace`` formats when read."""
        self._events.append((len(self.oracle.memo), event, detail, self.table.size()))

    @property
    def trace(self) -> list[TraceEvent]:
        """Every answered query and every event, in order, in a new list.

        A ``MembershipQuery`` carries the table size (k, upper rows, columns)
        at the event before it, the start of the phase that asked it; any other
        event the size right after it.  A raising run's last queries come last.
        """
        memo = list(self.oracle.memo.items())
        trace, done, size = [], 0, self._start
        for answered, *event in self._events + [(len(memo),)]:
            for word, answer in memo[done:answered]:
                query = f"{format_symbolic_word(word)} -> {'+' if answer else '-'}"
                trace.append(TraceEvent("MembershipQuery", query, *size))
            if event:
                name, detail, size = event
                if name == "TableClosed":
                    upper, columns = (", ".join(map(format_symbolic_word, words)) for words in detail)
                    detail = f"upper=[{upper}] columns=[{columns}]"
                trace.append(TraceEvent(name, detail, *size))
            done = answered
        return trace

    def run(self) -> Automaton:
        table, oracle = self.table, self.oracle
        while True:
            table.close(oracle)
            self._log("TableClosed", (tuple(table.upper), tuple(table.columns)))
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


def learn(
    teacher: Teacher,
    labels,
    max_queries: int | None = 100_000,
) -> tuple[Automaton, list[TraceEvent]]:
    """Learn the canonical session automaton of the teacher's language."""
    driver = Learner(teacher, labels, max_queries)
    automaton = driver.run()
    return automaton, driver.trace
