from dataclasses import replace
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    CanonicalizingTeacher,
    add_dead_state,
    canonicalizing_complement_bounded,
    canonicalizing_intersect,
    dw,
    enumerate_word_classes,
    random_session_automaton,
    reference_complement_bounded,
    reference_equivalent,
    reference_includes,
    reference_intersect,
    reference_is_empty,
    reference_is_universal_bounded,
    universal,
)
from sessauto import (
    Automaton,
    NotSessionAutomaton,
    RegisterOp,
    Transition,
    TransitionLabel,
    bound,
    canonicalize,
    classify,
    complement_bounded,
    data_equivalent,
    equivalent,
    includes,
    intersect,
    is_empty,
    is_universal_bounded,
    nf_automaton,
    serialize_automaton,
    simulate,
    union,
    validate,
)
from sessauto.learner import ReferenceTeacher
from test_automata import SESSION_OPS, automata
from test_canonical import AUTOMATA_K2, EMPTY, FORK, NAMED, chain

REPS = enumerate_word_classes(("a", "b"), 4)


def lang(a):
    return frozenset(i for i, w in enumerate(REPS) if simulate(a, w))


def test_intersect_union_brute_force():
    rng = Random(401)
    for _ in range(30):
        x = random_session_automaton(rng, name="x")
        y = random_session_automaton(rng, name="y")
        lx, ly = lang(x), lang(y)
        both = intersect(x, y)
        either = union(x, y)
        assert validate(both) == []
        assert validate(either) == []
        assert lang(both) == lx & ly
        assert lang(either) == lx | ly


def test_union_keeps_larger_register_count():
    rng = Random(402)
    x = random_session_automaton(rng, registers=1, name="x")
    y = random_session_automaton(rng, registers=2, name="y")
    assert union(x, y).registers == 2
    assert intersect(x, y).registers == 1


def test_union_distinct_alphabets():
    rng = Random(403)
    x = random_session_automaton(rng, labels=("a",), name="x")
    y = random_session_automaton(rng, labels=("b",), name="y")
    u = union(x, y)
    assert u.alphabet == {"a", "b"}

    def strict_lang(a):
        out = set()
        for i, w in enumerate(REPS):
            if any(label not in a.alphabet for label, _ in w):
                continue
            if simulate(a, w):
                out.add(i)
        return frozenset(out)

    assert lang(u) == strict_lang(x) | strict_lang(y)


def test_complement_bounded_brute_force():
    rng = Random(404)
    for _ in range(25):
        a = random_session_automaton(rng)
        comp = complement_bounded(a)
        la = lang(a)
        lc = lang(comp)
        for i, w in enumerate(REPS):
            if bound(w) <= a.registers:
                assert (i in lc) == (i not in la)
            else:
                assert i not in lc


def test_complement_is_involution_on_bounded_words():
    rng = Random(405)
    for _ in range(10):
        a = random_session_automaton(rng)
        la = lang(a)
        twice = complement_bounded(complement_bounded(a))
        bounded = frozenset(
            i for i, w in enumerate(REPS) if bound(w) <= a.registers
        )
        assert lang(twice) == la & bounded


def test_includes_and_equivalent_brute_force():
    rng = Random(406)
    agree = 0
    for _ in range(40):
        x = random_session_automaton(rng, name="x")
        y = random_session_automaton(rng, name="y")
        lx, ly = lang(x), lang(y)
        w = includes(x, y)
        if w is None:
            assert lx <= ly
            agree += 1
        else:
            assert simulate(x, w) and not simulate(y, w)
        w = equivalent(x, y)
        if w is None:
            assert lx == ly
        else:
            assert simulate(x, w) != simulate(y, w)
    assert agree > 3


def test_equivalent_reflexive_and_invariant():
    rng = Random(407)
    for _ in range(15):
        a = random_session_automaton(rng)
        assert equivalent(a, a) is None
        assert includes(a, a) is None


def test_union_includes_both_parts():
    rng = Random(408)
    for _ in range(15):
        x = random_session_automaton(rng, name="x")
        y = random_session_automaton(rng, name="y")
        u = union(x, y)
        assert includes(x, u) is None
        assert includes(y, u) is None
        both = intersect(x, y)
        assert includes(both, x) is None
        assert includes(both, y) is None


def test_is_empty_brute_force():
    rng = Random(409)
    seen_empty = 0
    for _ in range(40):
        a = random_session_automaton(rng)
        w = is_empty(a)
        if w is None:
            seen_empty += 1
            assert lang(a) == frozenset()
        else:
            assert simulate(a, w)
    assert seen_empty > 3


def test_is_empty_witness_is_least_on_nondeterministic_input():
    assert is_empty(FORK) == dw("a:1 a:2")


@st.composite
def sparse_automata(draw):
    """Session automata over {a, b} with k <= 3 and any set of moves, reuses before writes too.

    The initial state is final only when it is the only state, so most
    witnesses are longer than the empty word.
    """
    k = draw(st.integers(1, 3))
    states = [f"q{i}" for i in range(draw(st.integers(1, 5)))]
    letters = st.builds(TransitionLabel, st.sampled_from("ab"),
                        st.builds(RegisterOp, st.sampled_from(SESSION_OPS), st.integers(1, k)))
    moves = st.builds(Transition, st.sampled_from(states), letters, st.sampled_from(states))
    return Automaton("e", frozenset("ab"), k, frozenset(states), "q0",
                     draw(st.frozensets(st.sampled_from(states[1:] or states))),
                     draw(st.frozensets(moves, min_size=2 * len(states), max_size=16)))


@settings(max_examples=100, deadline=None)
@given(a=automata(SESSION_OPS) | sparse_automata())
@example(a=FORK)
@example(a=chain("a:^1", "a:*1"))
@example(a=chain("a:*1", "a:^2", final_only=False))
def test_is_empty_matches_reference(a):
    for c in (a, add_dead_state(a, "trap")):
        assert is_empty(c) == reference_is_empty(c)


@settings(max_examples=40, deadline=None)
@given(a=AUTOMATA_K2, b=AUTOMATA_K2)
@example(a=EMPTY, b=EMPTY)
@example(a=universal(2), b=chain("a:*1", "b:*2", "a:^1"))
def test_boolean_ops_match_reference(a, b):
    # The pair constructions build the automata the product chains built, to the letter.
    for c, d in ((a, b), (add_dead_state(a, "trap"), add_dead_state(b, "trap"))):
        assert serialize_automaton(intersect(c, d)) == serialize_automaton(reference_intersect(c, d))
        assert (serialize_automaton(complement_bounded(c))
                == serialize_automaton(reference_complement_bounded(c)))


@settings(max_examples=40, deadline=None)
@given(a=automata(SESSION_OPS), b=automata(SESSION_OPS))
@example(a=EMPTY, b=EMPTY)
@example(a=universal(2), b=chain("a:*1", "b:*2", "a:^1"))
@example(a=universal(3), b=universal(2))
def test_decisions_match_reference(a, b):
    # Searches over lazily explored tables stop at the witness the minimal DFAs gave.
    for c, d in ((a, b), (add_dead_state(a, "trap"), add_dead_state(b, "trap"))):
        assert includes(c, d) == reference_includes(c, d)
        assert includes(d, c) == reference_includes(d, c)
        assert equivalent(c, d) == reference_equivalent(c, d)
        for k in (c.registers, c.registers + 1):
            assert is_universal_bounded(c, k) == reference_is_universal_bounded(c, k)


def assert_same_as_canonicalizing(a, b):
    """intersect, complement_bounded and the teacher's equivalence query answer
    as their versions that read minimized canonical DFAs did, to the letter."""
    assert serialize_automaton(intersect(a, b)) == serialize_automaton(canonicalizing_intersect(a, b))
    assert (serialize_automaton(complement_bounded(a))
            == serialize_automaton(canonicalizing_complement_bounded(a)))
    assert ReferenceTeacher(a).equivalence(b) == CanonicalizingTeacher(a).equivalence(b)


@settings(max_examples=40, deadline=None)
@given(a=AUTOMATA_K2, b=AUTOMATA_K2)
@example(a=EMPTY, b=EMPTY)
@example(a=universal(2), b=chain("a:*1", "b:*2", "a:^1"))
def test_snf_table_operations_match_canonicalizing_ones(a, b):
    for c, d in ((a, b), (add_dead_state(a, "trap"), add_dead_state(b, "trap"))):
        assert_same_as_canonicalizing(c, d)
        assert_same_as_canonicalizing(d, c)


# universal(1..4) and the session fixtures, each paired with every one of them.
SMALL_NAMED = [a for a in NAMED if a.name != "univ5"]


@pytest.mark.parametrize("a", SMALL_NAMED, ids=[a.name for a in SMALL_NAMED])
def test_snf_table_operations_on_named_automata_match_canonicalizing_ones(a):
    for b in SMALL_NAMED:
        assert_same_as_canonicalizing(a, b)


def test_decisions_and_boolean_operations_canonicalize_nothing(fig5a, fig2b):
    # canonicalize is the output form only: on automata it has not seen,
    # every operation but the teacher's set-up leaves its cache alone.
    rng = Random(18)
    fresh = [random_session_automaton(rng, name=f"fresh{i}") for i in range(4)]
    fresh += [add_dead_state(x, "fresh_trap") for x in (fig5a, fig2b, universal(3))]
    teacher = ReferenceTeacher(fig5a)
    misses = canonicalize.cache_info().misses
    for a, b in zip(fresh, fresh[1:]):
        intersect(a, b)
        complement_bounded(a)
        includes(a, b)
        equivalent(a, b)
        is_empty(a)
        is_universal_bounded(a, a.registers)
        teacher.equivalence(a)
    assert canonicalize.cache_info().misses == misses


def test_universality_at_large_k_builds_no_normal_form_dfa(fig5a):
    # nf_automaton(40, ...) would have 2^40 states; the search reads the few it reaches.
    nf_automaton(fig5a.registers, fig5a.alphabet)
    before = nf_automaton.cache_info()
    assert is_universal_bounded(fig5a, 40) == dw("b:1")
    after = nf_automaton.cache_info()
    assert (after.misses, after.currsize) == (before.misses, before.currsize)


def test_is_empty_counts_only_data_acceptance(fig5a):
    # a final state reachable only through ill-formed symbolic words is
    # still empty as a data language
    a = fig5a.__class__(
        name="illformed",
        alphabet=fig5a.alphabet,
        registers=2,
        states=frozenset({"q0", "q1"}),
        initial="q0",
        finals=frozenset({"q1"}),
        transitions=frozenset(
            {
                t.__class__("q0", l, "q1")
                for t in fig5a.transitions
                for l in [t.label]
                if l.op.kind.value == "reuse"
            }
        ),
    )
    assert is_empty(a) is None


def test_universality(fig2b, fig5a):
    # fig2b accepts every 2-bounded word over {a}
    assert is_universal_bounded(fig2b, 2) is None
    assert is_universal_bounded(fig2b, 1) is None
    # but not every 3-bounded word; the witness must be exactly 3-bounded
    w = is_universal_bounded(fig2b, 3)
    assert w is not None
    assert bound(w) == 3
    assert not simulate(fig2b, w)
    assert data_equivalent(w, dw("a:1 a:2 a:3 a:1 a:2"))
    # fig5a misses b-words
    w = is_universal_bounded(fig5a, 1)
    assert w is not None
    assert not simulate(fig5a, w)


def test_universality_rejects_bad_bound(fig2b):
    with pytest.raises(ValueError):
        is_universal_bounded(fig2b, 0)


def test_ops_reject_non_session(fig1a, fig2b):
    # The message names the first argument that is not a session automaton.
    other = replace(fig1a, name="other")
    for x, y in ((fig1a, fig2b), (fig2b, fig1a), (fig1a, other)):
        for op in (intersect, union, includes, equivalent):
            with pytest.raises(NotSessionAutomaton, match="^fig1a is not"):
                op(x, y)
    for call in (complement_bounded, is_empty, lambda a: is_universal_bounded(a, 2)):
        with pytest.raises(NotSessionAutomaton, match="^fig1a is not"):
            call(fig1a)


def test_results_are_session_automata():
    rng = Random(410)
    x = random_session_automaton(rng, name="x")
    y = random_session_automaton(rng, name="y")
    for out in (intersect(x, y), union(x, y), complement_bounded(x)):
        assert classify(out).value == "session"
        assert validate(out) == []
