import time
from itertools import product
from operator import itemgetter
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    FIXTURES,
    EagerTraceLearner,
    ReferenceTableLearner,
    dw,
    fixture,
    perturb,
    random_data_word,
    random_run_word,
    random_session_automaton,
    reference_canonicalize,
    reference_nf_violation_witness,
    reference_register_dfa,
    sw,
    universal,
)
from sessauto import (
    Automaton,
    Learner,
    MembershipOracle,
    NoBreakpoint,
    NotClosed,
    ObservationTable,
    QueryBudgetExceeded,
    RegisterOp,
    SessautoError,
    Teacher,
    TeacherInconsistent,
    Transition,
    TransitionLabel,
    UnknownLabel,
    bound,
    canonicalize,
    equivalent,
    format_symbolic_word,
    learn,
    nf_violation_witness,
    reference_teacher,
    scripted_teacher,
    simulate,
    snf,
    validate,
)
from sessauto import canonical as canonical_module
from sessauto import learner as learner_module
from sessauto.learner import ReferenceTeacher, ScriptedTeacher, find_breakpoint

SCRIPT = [dw("a:3 b:3"), dw("a:7 a:4 b:7"), dw("a:9 a:3 b:9 b:3")]


def golden_run(fig5a):
    return learn(scripted_teacher(fig5a, SCRIPT), {"a", "b"})


def test_golden_trace_table_snapshots(fig5a):
    _, trace = golden_run(fig5a)
    snapshots = [e.detail for e in trace if e.event == "TableClosed"]
    assert snapshots == [
        "upper=[-, b:^1] columns=[-]",
        "upper=[-, b:^1, a:*1] columns=[-, b:^1]",
        "upper=[-, b:^1, a:*1, a:*1 a:*2] columns=[-, b:^1]",
        "upper=[-, b:^1, a:*1, a:*1 a:*2, a:*1 a:*2 b:^1] columns=[-, b:^1, b:^2]",
    ]


def test_golden_trace_equivalence_queries(fig5a):
    _, trace = golden_run(fig5a)
    answers = [e.detail for e in trace if e.event == "EquivalenceQuery"]
    assert answers == ["a:3 b:3", "a:7 a:4 b:7", "a:9 a:3 b:9 b:3", "equivalent"]
    assert [e.detail for e in trace if e.event == "NfViolation"] == []


def test_golden_trace_alphabet_and_columns(fig5a):
    _, trace = golden_run(fig5a)
    assert [e.detail for e in trace if e.event == "AlphabetExtended"] == [
        "registers 1 -> 2"
    ]
    assert [e.detail for e in trace if e.event == "CounterexampleProcessed"] == [
        "b:^1",
        "b:^2",
    ]


def test_golden_result_matches_target(fig5a):
    learned, _ = golden_run(fig5a)
    assert validate(learned) == []
    assert len(learned.states) == 5
    assert equivalent(learned, fig5a) is None


def test_reference_teacher_learns_fig5a(fig5a):
    learned, trace = learn(reference_teacher(fig5a), {"a", "b"})
    assert equivalent(learned, fig5a) is None
    assert any(e.event == "EquivalenceQuery" and e.detail == "equivalent" for e in trace)


def test_learn_empty_language():
    dead = Automaton(
        name="dead",
        alphabet=frozenset({"a"}),
        registers=1,
        states=frozenset({"q0"}),
        initial="q0",
        finals=frozenset(),
        transitions=frozenset(),
    )
    learned, trace = learn(reference_teacher(dead), {"a"})
    assert learned.finals == frozenset()
    assert len(learned.states) == 1
    assert [e.event for e in trace if e.event == "EquivalenceQuery"] == ["EquivalenceQuery"]


def test_learn_all_one_bounded_words():
    full = Automaton(
        name="full",
        alphabet=frozenset({"a"}),
        registers=1,
        states=frozenset({"q0"}),
        initial="q0",
        finals=frozenset({"q0"}),
        transitions=frozenset(
            {
                Transition("q0", TransitionLabel("a", RegisterOp.fresh(1)), "q0"),
                Transition("q0", TransitionLabel("a", RegisterOp.reuse(1)), "q0"),
            }
        ),
    )
    learned, _ = learn(reference_teacher(full), {"a"})
    assert equivalent(learned, full) is None


def test_random_convergence():
    rng = Random(501)
    for i in range(12):
        target = random_session_automaton(rng, name=f"t{i}")
        learned, _ = learn(reference_teacher(target), target.alphabet)
        assert equivalent(learned, target) is None


def test_oracle_short_circuits_non_normal_forms(fig5a):
    oracle = MembershipOracle(reference_teacher(fig5a), frozenset({"a", "b"}))
    assert oracle(sw("a:^1")) is False
    assert oracle(sw("b:*2")) is False
    # ends on an unfulfilled promise to reuse register 1
    assert oracle(sw("b:*1 b:*2")) is False
    assert oracle.teacher_queries == 0
    assert oracle(sw("a:*1 b:^1")) is True
    assert oracle.teacher_queries == 1
    # memoized: asking again costs nothing
    assert oracle(sw("a:*1 b:^1")) is True
    assert oracle.teacher_queries == 1


def test_oracle_accepts_epsilon_as_normal_form(fig5a):
    oracle = MembershipOracle(reference_teacher(fig5a), frozenset({"a", "b"}))
    assert oracle(()) is True
    assert oracle.teacher_queries == 1


def test_the_full_normal_form_check_reads_one_row_per_letter():
    # 30 registers: the normal-form DFA has 2^30 states, and the check reads none of them.
    class Yes(Teacher):
        def membership(self, word):
            return True

    labels = frozenset({"a", "b"})
    word = snf(tuple(("a", d) for d in range(1, 31)) + tuple(("b", d) for d in range(30, 0, -1)))
    assert len(word) == 60 and max(x.op.register for x in word) == 30
    oracle = MembershipOracle(Yes(), labels)
    start = time.perf_counter()
    assert oracle(word) is True
    assert oracle(word[:-1]) is False  # register 1 is still promised
    assert oracle(word[:29] + word[30:]) is False  # register 30 is reused before it is written
    assert time.perf_counter() - start < 1.0
    assert oracle.teacher_queries == 1
    with pytest.raises(UnknownLabel):
        oracle(word + sw("c:*1"))


def test_the_full_normal_form_check_matches_the_normal_form_dfa(fig5a):
    # Every word of at most 3 letters over {a, b} x {fresh, reuse, local} x
    # registers 1..4, ill-formed ones and those with a local letter too, against
    # the tests' own normal-form DFA over 4 registers.
    labels = frozenset({"a", "b"})
    nf, _ = reference_register_dfa("nf", 4, labels)
    letters = [TransitionLabel(label, op(r)) for label in sorted(labels)
               for op in (RegisterOp.fresh, RegisterOp.reuse, RegisterOp.local)
               for r in range(1, 5)]
    words = [w for n in range(4) for w in product(letters, repeat=n)]
    assert len(words) == 14425
    oracle = MembershipOracle(reference_teacher(fig5a), labels)
    for word in words:
        assert (oracle._normal_form_data(word) is not None) == nf.accepts(word), \
            format_symbolic_word(word)
    with pytest.raises(UnknownLabel):
        oracle._normal_form_data(sw("a:*1 c:^1"))


def test_query_budget(fig5a):
    with pytest.raises(QueryBudgetExceeded):
        learn(reference_teacher(fig5a), {"a", "b"}, max_queries=5)


def test_an_exhausted_budget_is_reported_before_an_unknown_label(fig5a):
    labels = frozenset({"a", "b"})
    with pytest.raises(QueryBudgetExceeded):
        MembershipOracle(reference_teacher(fig5a), labels, budget=0)(sw("c:*1"))
    with pytest.raises(UnknownLabel):
        MembershipOracle(reference_teacher(fig5a), labels, budget=None)(sw("c:*1"))


def test_a_first_time_query_checks_the_budget_once(fig5a):
    oracle = MembershipOracle(reference_teacher(fig5a), frozenset({"a", "b"}), budget=10)
    charge, charges = oracle._charge, []
    oracle._charge = lambda: charges.append(None) or charge()
    oracle(sw("a:*1 b:^1"))
    oracle.answer(sw("a:*1"), True)
    oracle(sw("a:*1 b:^1"))  # a memo hit is not charged
    assert len(charges) == 2


def test_a_first_time_query_concretizes_its_word_once(fig5a, monkeypatch):
    # The full normal-form check concretizes the word, and the teacher is asked that data word.
    calls, asked = [], []
    real_concretize = learner_module.concretize
    monkeypatch.setattr(learner_module, "concretize", lambda w: calls.append(w) or real_concretize(w))
    teacher = reference_teacher(fig5a)
    membership = teacher.membership
    teacher.membership = lambda w: asked.append(w) or membership(w)
    oracle = MembershipOracle(teacher, frozenset({"a", "b"}))
    # A member, a normal form fig5a rejects, the empty word and an ill-formed word.
    for word, member in [(sw("a:*1 b:^1"), True), (sw("b:*1"), False), ((), True),
                         (sw("a:^1"), False)]:
        calls.clear()
        assert oracle(word) is member
        assert calls == [word]
        oracle(word)  # a memo hit concretizes nothing
        assert calls == [word]
    calls.clear()
    oracle.answer(sw("a:*1 b:^1 a:*1 b:^1"), True)
    oracle.answer(sw("a:*1 a:*2"), False)  # no normal form: nothing to ask
    assert calls == [sw("a:*1 b:^1 a:*1 b:^1")]
    assert asked == [dw("a:1 b:1"), dw("b:1"), (), dw("a:1 b:1 a:2 b:2")]
    assert oracle.teacher_queries == 4


def test_negative_budget_is_refused(fig5a):
    labels = frozenset({"a", "b"})
    with pytest.raises(ValueError, match="at least 0"):
        MembershipOracle(reference_teacher(fig5a), labels, budget=-1)
    with pytest.raises(ValueError, match="at least 0"):
        Learner(reference_teacher(fig5a), labels, max_queries=-1)
    # A budget of 0 is valid: the first query exhausts it.
    with pytest.raises(QueryBudgetExceeded):
        learn(reference_teacher(fig5a), labels, max_queries=0)


def test_scripted_teacher_useless_counterexample(fig5a):
    # a:1 is classified correctly by every hypothesis along the way
    with pytest.raises(NoBreakpoint):
        learn(scripted_teacher(fig5a, [dw("a:1")]), {"a", "b"})


def test_scripted_teacher_exhausted(fig5a):
    with pytest.raises(TeacherInconsistent):
        learn(scripted_teacher(fig5a, []), {"a", "b"})


def test_counterexample_with_unknown_label(fig5a):
    # the oracle refuses a query whose label the learner does not learn over
    with pytest.raises(UnknownLabel, match="label 'z' is outside the learning alphabet"):
        learn(scripted_teacher(fig5a, [(("z", 1),)]), fig5a.alphabet)


def test_scripted_teacher_empty_counterexample(fig5a):
    with pytest.raises(TeacherInconsistent):
        learn(scripted_teacher(fig5a, [()]), {"a", "b"})


@pytest.mark.parametrize(
    "script, budget, error",
    [
        (None, 5, QueryBudgetExceeded),
        (None, 40, QueryBudgetExceeded),
        (None, 60, QueryBudgetExceeded),
        ([], None, TeacherInconsistent),
        ([dw("a:1")], None, NoBreakpoint),
    ],
)
def test_trace_of_a_run_that_raises_logs_every_answered_query(fig5a, script, budget, error):
    teacher = reference_teacher(fig5a) if script is None else scripted_teacher(fig5a, script)
    learner = Learner(teacher, {"a", "b"}, max_queries=budget)
    with pytest.raises(error):
        learner.run()
    logged = [e.detail for e in learner.trace if e.event == "MembershipQuery"]
    memo = learner.oracle.memo
    assert logged == [f"{format_symbolic_word(w)} -> {'+' if a else '-'}" for w, a in memo.items()]
    assert memo


def test_learner_needs_labels(fig5a):
    with pytest.raises(ValueError):
        Learner(reference_teacher(fig5a), frozenset())


def test_reference_teacher_returns_shortest_counterexample(fig5a):
    eps_only = Automaton(
        name="eps",
        alphabet=fig5a.alphabet,
        registers=1,
        states=frozenset({"q0"}),
        initial="q0",
        finals=frozenset({"q0"}),
        transitions=frozenset(),
    )
    assert reference_teacher(fig5a).equivalence(eps_only) == dw("a:1")


def test_table_guards(fig5a):
    oracle = MembershipOracle(reference_teacher(fig5a), frozenset({"a", "b"}))
    table = ObservationTable(frozenset({"a", "b"}))
    # Unclosed: the row of b:^1 (a non-normal form, so -) is not the row of the empty word (+).
    assert table.unmatched(oracle)
    with pytest.raises(NotClosed):
        find_breakpoint(table, (table.letters[-1],), oracle)
    with pytest.raises(NotClosed):
        table.build_hypothesis(oracle)
    table.close(oracle)
    assert table.unmatched(oracle) == []
    with pytest.raises(TeacherInconsistent):
        table.add_column(())
    with pytest.raises(ValueError):
        table.extend_alphabet(0)


def test_nf_violation_witness_finds_ill_formed_acceptance():
    bad = Automaton(
        name="bad",
        alphabet=frozenset({"a"}),
        registers=1,
        states=frozenset({"q0"}),
        initial="q0",
        finals=frozenset({"q0"}),
        transitions=frozenset(
            {Transition("q0", TransitionLabel("a", RegisterOp.reuse(1)), "q0")}
        ),
    )
    assert nf_violation_witness(bad) == sw("a:^1")


def test_nf_violation_witness_clean(fig5a):
    learned, _ = golden_run(fig5a)
    assert nf_violation_witness(learned) is None


def test_fig5a_trace_is_pinned(fig5a):
    # Every event and query in order, as recorded with rows recomputed on each read:
    # caching rows must neither drop nor reorder a first-time query.
    learner = Learner(reference_teacher(fig5a), {"a", "b"})
    learner.run()
    lines = [f"{e.event}\t{e.detail}\t{e.k}\t{e.upper_rows}\t{e.columns}" for e in learner.trace]
    assert lines == (FIXTURES / "fig5a_learn_trace.tsv").read_text().splitlines()
    assert learner.oracle.teacher_queries == 41
    assert len(learner.oracle.memo) == 113


@st.composite
def targets(draw):
    """Small random session automata over {a, b} with k <= 3 registers."""
    rng = draw(st.randoms())
    return random_session_automaton(rng, registers=draw(st.integers(1, 3)), name="target")


class RecordingTeacher(Teacher):
    """Reference teacher that keeps every hypothesis it is asked about."""

    def __init__(self, target):
        self.inner = reference_teacher(target)
        self.hypotheses = []

    def membership(self, word):
        return self.inner.membership(word)

    def equivalence(self, hypothesis):
        self.hypotheses.append(hypothesis)
        return self.inner.equivalence(hypothesis)


@settings(max_examples=15, deadline=None)
@given(rng=st.randoms(), registers=st.integers(1, 2))
def test_table_cell_verdicts_match_the_full_normal_form_check(rng, registers):
    # Every first-time cell reaches the oracle through answer(), with the verdict
    # the table read off its cached normal-form states.
    target = random_session_automaton(rng, registers=registers, name="target")
    learner = Learner(reference_teacher(target), target.alphabet, max_queries=None)
    oracle, verdicts = learner.oracle, []
    answer = oracle.answer

    def recording_answer(word, normal):
        verdicts.append((word, normal))
        return answer(word, normal)

    oracle.answer = recording_answer
    learner.run()
    assert verdicts
    for word, normal in verdicts:
        assert normal == (oracle._normal_form_data(word) is not None)


def test_one_normal_form_walk_per_round(fig5a, monkeypatch):
    teacher = reference_teacher(fig5a)  # the target's own walk is done here
    walks = []
    search = canonical_module.symbolic_inclusion

    def counting_search(*args):
        walks.append(args)
        return search(*args)

    monkeypatch.setattr(canonical_module, "symbolic_inclusion", counting_search)
    learner = Learner(teacher, {"a", "b"})
    learner.run()
    assert len(walks) == learner.oracle.equivalence_queries > 1


@settings(max_examples=25, deadline=None)
@given(target=targets())
def test_hypotheses_take_the_canonical_fast_path(target):
    teacher = RecordingTeacher(target)
    Learner(teacher, target.alphabet, max_queries=None).run()
    for hypothesis in teacher.hypotheses:
        assert nf_violation_witness(hypothesis) is None
        assert canonicalize(hypothesis) == reference_canonicalize(hypothesis)


@settings(max_examples=25, deadline=None)
@given(target=targets())
def test_nf_violation_witness_matches_reference_on_hypotheses(target):
    # Every hypothesis the table builds, including those the teacher never sees.
    learner = Learner(reference_teacher(target), target.alphabet, max_queries=None)
    built = []
    build = learner.table.build_hypothesis

    def recording_build(oracle):
        built.append(build(oracle))
        return built[-1]

    learner.table.build_hypothesis = recording_build
    learner.run()
    for hypothesis in built:
        assert nf_violation_witness(hypothesis) == reference_nf_violation_witness(hypothesis)


@settings(max_examples=25, deadline=None)
@given(
    target=st.sampled_from(["fig5a", "fig1b", "fig2b"]).map(fixture) | targets(),
    rng=st.randoms(),
    length=st.integers(100, 1000),
    pool=st.integers(1, 8),
)
def test_learned_simulated_and_canonical_membership_agree_on_long_words(target, rng, length, pool):
    # Without a pool every session ends once no register holds its value; with
    # one, values die at staggered points, so sessions overlap up to k.
    learned = Learner(reference_teacher(target), target.alphabet, max_queries=None).run()
    canonical = canonicalize(target)
    for a in (target, learned):
        for w in (random_run_word(rng, a, length), random_run_word(rng, a, length, pool=pool)):
            for x in (w, perturb(rng, w)):
                assert simulate(learned, x) == simulate(target, x) == canonical.accepts(snf(x))


EMPTY_LABELS = Automaton("none", frozenset(), 1, frozenset({"q0"}), "q0", frozenset({"q0"}), frozenset())


@settings(max_examples=60, deadline=None)
@given(
    target=(st.sampled_from(["fig5a", "fig1b", "fig2b", "tickets3"]).map(fixture)
            | st.just(EMPTY_LABELS) | st.integers(1, 3).map(universal) | targets()),
    rng=st.randoms(),
    length=st.integers(100, 1000),
    pool=st.integers(1, 8),
)
def test_teacher_membership_agrees_with_the_normal_form_and_simulate(target, rng, length, pool):
    # The teacher walks the canonical DFA along snf_registers' codes; a scripted
    # teacher inherits the walk.  Words: the empty one, random short ones whose
    # bound may exceed k, one with k + 1 overlapping sessions, run words whose
    # sessions overlap, and each of them with a label outside the alphabet.  A
    # universal target accepts every normal form over k registers, so only the
    # bound rejects its words of bound k + 1.
    k, labels = target.registers, sorted(target.alphabet) or ["a"]
    over = tuple((labels[0], v) for v in range(1, k + 2))
    words = [(), over + over[::-1]]
    words += [random_data_word(rng, labels, max_len=10, max_value=k + 2) for _ in range(20)]
    if target.alphabet:
        w = random_run_word(rng, target, length, pool=pool)
        words += [w, perturb(rng, w)]
    assert bound(words[1]) == k + 1
    canonical = canonicalize(target)
    teachers = [ReferenceTeacher(target), ScriptedTeacher(target, [])]
    for w in words:
        verdict = canonical.accepts(snf(w))
        assert [t.membership(w) for t in teachers] == [verdict, verdict]
        if set(map(itemgetter(0), w)) <= target.alphabet:
            assert simulate(target, w) == verdict
        else:
            with pytest.raises(UnknownLabel):
                simulate(target, w)
        i = rng.randint(0, len(w))
        outside = w[:i] + (("zz", rng.randint(1, k + 2)),) + w[i:]
        assert [t.membership(outside) for t in teachers] == [False, False]
        assert not canonical.accepts(snf(outside))


def test_three_register_memberships_agree_on_a_long_overlapping_word():
    # Ticket i opens, i-1 is used and i-2 closes: three sessions are open at
    # once over 3000 letters, k = 3.
    tickets3 = fixture("tickets3")
    letters = [("open", 1), ("open", 2)]
    letters += [x for i in range(3, 1003) for x in (("open", i), ("use", i - 1), ("close", i - 2))]
    w = tuple(letters[:3000])
    learned = Learner(reference_teacher(tickets3), tickets3.alphabet, max_queries=None).run()
    canonical = canonicalize(tickets3)
    rng = Random(3)
    verdicts = []
    for x in (w, *(perturb(rng, w) for _ in range(6))):
        verdicts.append(simulate(tickets3, x))
        assert canonical.accepts(snf(x)) == simulate(learned, x) == verdicts[-1]
    assert verdicts == [True] + [False] * 6


def assert_trace_matches_eager_reference(make_teacher, labels, budget):
    """Run the learner and its eager-trace reference on fresh teachers; both
    must end alike (same automaton or same error) with equal traces."""
    runs = []
    for cls in (Learner, EagerTraceLearner):
        learner = cls(make_teacher(), labels, max_queries=budget)
        try:
            outcome = learner.run()
        except SessautoError as err:
            outcome = type(err)
        runs.append((outcome, learner))
    (outcome, learner), (reference_outcome, reference) = runs
    assert outcome == reference_outcome
    first, second = learner.trace, learner.trace
    assert first == second == reference.trace
    first[0].detail = "changed"
    first.append(first[0])
    assert learner.trace == second


@settings(max_examples=25, deadline=None)
@given(target=targets(), budget=st.sampled_from([5, 40, 200, 5_000]))
def test_trace_matches_the_eager_reference(target, budget):
    assert_trace_matches_eager_reference(lambda: reference_teacher(target), target.alphabet, budget)


@pytest.mark.parametrize(
    "script, budget",
    [(None, 5), (None, 40), (None, 60), ([], None), ([dw("a:1")], None), (None, 100_000), (SCRIPT, None)],
)
def test_fig5a_trace_matches_the_eager_reference(fig5a, script, budget):
    def make_teacher():
        return reference_teacher(fig5a) if script is None else scripted_teacher(fig5a, script)

    assert_trace_matches_eager_reference(make_teacher, {"a", "b"}, budget)


def assert_run_matches_reference_table(make_teacher, labels, budget):
    """Run the learner and its copy on the earlier table on fresh teachers; both
    must end alike (same automaton or same error) after the same trace."""
    runs = []
    for cls in (Learner, ReferenceTableLearner):
        learner = cls(make_teacher(), labels, max_queries=budget)
        try:
            outcome = learner.run()
        except SessautoError as err:
            outcome = type(err)
        runs.append((outcome, learner.trace, learner.table.upper, learner.table.columns))
    assert runs[0] == runs[1]


@settings(max_examples=25, deadline=None)
@given(target=targets(), budget=st.sampled_from([5, 40, None]))
def test_run_matches_the_reference_table(target, budget):
    assert_run_matches_reference_table(lambda: reference_teacher(target), target.alphabet, budget)


@pytest.mark.parametrize(
    "script, budget",
    [(None, 5), (None, 40), (None, 60), ([], None), ([dw("a:1")], None), (None, 100_000), (SCRIPT, None)],
)
def test_fig5a_run_matches_the_reference_table(fig5a, script, budget):
    def make_teacher():
        return reference_teacher(fig5a) if script is None else scripted_teacher(fig5a, script)

    assert_run_matches_reference_table(make_teacher, {"a", "b"}, budget)
