from dataclasses import replace
from random import Random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from helpers import (
    CanonicalizingTeacher,
    add_dead_state,
    canonicalizing_complement_bounded,
    canonicalizing_intersect,
    duplicate_state,
    dw,
    enumerate_word_classes,
    explored_within,
    random_session_automaton,
    fixture,
    reference_complement_bounded,
    reference_equivalence,
    reference_equivalent,
    reference_inclusion,
    reference_includes,
    reference_intersect,
    reference_is_empty,
    reference_is_universal_bounded,
    universal,
)
from sessauto import (
    Automaton,
    Learner,
    NotSessionAutomaton,
    RegisterOp,
    Transition,
    TransitionLabel,
    bound,
    canonicalize,
    classify,
    complement_bounded,
    concretize,
    data_equivalent,
    equivalent,
    includes,
    intersect,
    is_empty,
    is_universal_bounded,
    nf_automaton,
    parse_automaton,
    reference_teacher,
    serialize_automaton,
    simulate,
    symbolic_equivalence,
    symbolic_inclusion,
    union,
    validate,
)
from sessauto import congruence
from sessauto.canonical import snf_dfa, symbolic_dfa
from sessauto.congruence import up_to_congruence
from sessauto.symbolic import ALONG_EITHER, ALONG_X, _nodes, pair_search
from sessauto.learner import MembershipOracle, ReferenceTeacher
from test_automata import SESSION_OPS, automata
from test_canonical import AUTOMATA_K4, EMPTY, FORK, K4_SUBSETS, NAMED, chain

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


def test_complement_keeps_the_register_count():
    rng = Random(404)
    for k in (1, 2, 3):
        a = random_session_automaton(rng, registers=k, max_states=3, name="a")
        assert complement_bounded(a).registers == k
    wide = random_session_automaton(rng, registers=1, name="wide")
    wide = replace(wide, registers=3)  # declares registers it never uses
    assert complement_bounded(wide).registers == 3


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
@given(a=automata(SESSION_OPS), b=automata(SESSION_OPS))
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
    assert_decisions_match_reference(a, b)


@settings(max_examples=15, deadline=None)
@given(a=AUTOMATA_K4, b=AUTOMATA_K4)
def test_decisions_match_reference_at_four_registers(a, b):
    # The references canonicalize both sides, which takes seconds on some draws
    # (see AUTOMATA_K4): only those whose snf DFAs have at most K4_SUBSETS subsets.
    assume(all(explored_within(snf_dfa(c), K4_SUBSETS) for c in (a, b)))
    assert_decisions_match_reference(a, b)


def assert_decisions_match_reference(a, b):
    # Searches over lazily explored tables stop at the witness the minimal DFAs gave.
    for c, d in ((a, b), (add_dead_state(a, "trap"), add_dead_state(b, "trap"))):
        assert includes(c, d) == reference_includes(c, d)
        assert includes(d, c) == reference_includes(d, c)
        assert equivalent(c, d) == reference_equivalent(c, d)
        # The search reads the table over min(k, registers + 1), which differs from k's first at
        # k = registers + 2; the reference walks the whole normal-form DFA over k.
        for k in range(1, c.registers + 3):
            assert is_universal_bounded(c, k) == reference_is_universal_bounded(c, k)


def concrete(witness):
    return None if witness is None else concretize(witness)


# Pairs over different symbolic alphabets, which the pair search widens to
# their union: univ3 and univ4 differ in registers, fig2b (label a) and univ2
# (labels a and b) in labels.  The references search the product of one
# canonical DFA with the other's complement over the union of the alphabets.
UNIV2, UNIV3, UNIV4, FIG2B = universal(2), universal(3), universal(4), fixture("fig2b")


@pytest.mark.parametrize("a, b", [(UNIV3, UNIV4), (UNIV4, UNIV3), (FIG2B, UNIV2), (UNIV2, FIG2B)],
                         ids=["univ3-univ4", "univ4-univ3", "fig2b-univ2", "univ2-fig2b"])
def test_witnesses_over_different_alphabets_match_references(a, b):
    ca, cb = canonicalize(a), canonicalize(b)
    assert includes(a, b) == concrete(reference_inclusion(ca, cb))
    assert equivalent(a, b) == concrete(reference_equivalence(ca, cb))
    assert ReferenceTeacher(b).equivalence(a) == equivalent(a, b)
    for k in range(max(1, a.registers - 1), a.registers + 3):
        nf = nf_automaton(k, a.alphabet)
        assert is_universal_bounded(a, k) == concrete(reference_inclusion(nf, ca))


def test_the_least_difference_may_start_with_a_letter_one_side_lacks():
    assert equivalent(FIG2B, UNIV2) == equivalent(UNIV2, FIG2B) == dw("b:1")
    assert includes(UNIV4, UNIV3) == dw("a:1 a:2 a:3 a:4 a:1 a:2 a:3")
    assert includes(FIG2B, UNIV2) is None and includes(UNIV3, UNIV4) is None


def search(x, y, inclusion: bool, prune=None):
    """The witness of inclusion or equivalence by ``pair_search``, with the node filter given."""
    if inclusion:
        return pair_search(x, y, ALONG_X, lambda pair: pair[0] in x.finals and pair[1] not in y.finals,
                           prune)
    return pair_search(x, y, ALONG_EITHER, lambda pair: (pair[0] in x.finals) != (pair[1] in y.finals),
                       prune)


def assert_pruned_searches_match_unpruned(build_x, build_y):
    # Both inclusions and equivalence, both orders, each search on DFAs of its own.
    for pruned, inclusion in ((symbolic_inclusion, True), (symbolic_equivalence, False)):
        for bx, by in ((build_x, build_y), (build_y, build_x)):
            assert pruned(bx(), by()) == search(bx(), by(), inclusion)


def relabeled(a: Automaton, label: str, name: str) -> Automaton:
    """a with the label ``label`` renamed ``name``."""
    rename = {label: name}
    return replace(a, name=a.name + "_relabeled",
                   alphabet=frozenset(rename.get(x, x) for x in a.alphabet),
                   transitions=frozenset(
                       Transition(t.source, TransitionLabel(rename.get(t.label.label, t.label.label),
                                                            t.label.op), t.target)
                       for t in a.transitions))


@st.composite
def related_pairs(draw):
    """An automaton with k <= 3 and two to four states, and another: drawn on its own, or a copy
    of the first with a state split into twins, a dead state, one more declared register or a
    label renamed.  The copies are where the filter prunes: in about a quarter of the twin, dead
    and register draws, against one in fifty of the drawn ones."""
    a = draw(automata(SESSION_OPS, sizes=st.integers(2, 4)))
    kind = draw(st.sampled_from(("drawn", "twin", "dead", "register", "label")))
    if kind == "drawn":
        b = draw(automata(SESSION_OPS))
    elif kind == "twin":
        b = duplicate_state(a, draw(st.sampled_from(sorted(a.states))), "twin")
    elif kind == "dead":
        b = add_dead_state(a, "trap")
    elif kind == "register":
        b = replace(a, registers=a.registers + 1)
    else:
        b = relabeled(a, draw(st.sampled_from(sorted(a.alphabet))), "c")
    return (a, b) if draw(st.booleans()) else (b, a)


# The unpruned walk of two DFAs of one language reads every reachable pair, up to the
# product of their sizes: only draws whose snf DFAs have at most this many subsets.
PRUNED_SUBSETS = 300


def moves(name: str, registers: int, finals: str, *lines: str) -> Automaton:
    """An automaton over {a, b} from its moves, "source label kind register target", q0 initial."""
    text = [f"automaton {name}", "labels a b", f"registers {registers}"]
    states = sorted({"q0"} | {w for line in lines for w in line.split()[::4]})
    text += [f"states {' '.join(states)}", "initial q0", f"final {finals}"]
    return parse_automaton("\n".join(text + [f"trans {line}" for line in lines]) + "\n")


# Pairs that filters pruning too much get wrong, drawn and then shrunk against broken copies
# of the filter: one that tests X ⊆ Y↓ alone in equivalence, one whose rules fire when their
# need meets the set, and one that prunes every pair whose members some rule gives.
TOO_EAGER = [
    (moves("twins", 2, "q0", "q0 a fresh 2 q0", "q0 a fresh 2 q1", "q0 a fresh 2 twin",
           "q0 b fresh 2 q0", "q0 b fresh 2 twin", "q1 a reuse 2 q0", "q1 b reuse 2 q0",
           "twin a fresh 2 q1"), EMPTY),
    (moves("meet", 3, "q2", "q0 a fresh 3 q1", "q0 a fresh 3 q2", "q0 a reuse 3 q1",
           "q1 a fresh 2 q1", "q1 a reuse 3 q0", "q2 a fresh 2 q0", "q2 b reuse 2 q0"),
     moves("meet2", 3, "q1", "q0 a fresh 3 q1", "q0 a fresh 3 q2", "q0 a reuse 3 q1",
           "q1 a fresh 1 q1", "q1 a reuse 3 q0", "q2 a fresh 2 q0", "q2 b reuse 1 q1",
           "q2 b reuse 2 q0")),
    (EMPTY, moves("given", 2, "q0 q1", "q0 a fresh 1 q0", "q0 a reuse 1 q1", "q0 b fresh 2 q0",
                  "q0 b fresh 2 q1", "q0 b reuse 1 q0")),
]


@settings(max_examples=100, deadline=None)
@given(pair=related_pairs())
@example(pair=(fixture("fig1b"), duplicate_state(fixture("fig1b"), "s1", "twin")))
@example(pair=(universal(2), universal(3)))
@example(pair=TOO_EAGER[0])
@example(pair=TOO_EAGER[1])
@example(pair=TOO_EAGER[2])
def test_pruned_searches_match_unpruned_ones(pair):
    a, b = pair
    assume(all(explored_within(snf_dfa(c), PRUNED_SUBSETS) for c in pair))
    assert_pruned_searches_match_unpruned(lambda: snf_dfa(a), lambda: snf_dfa(b))
    for c in pair:
        # The normal-form check's pair, and universality's over one register more.
        nf = nf_automaton(c.registers, c.alphabet)
        assert_pruned_searches_match_unpruned(lambda: symbolic_dfa(c), lambda: nf)
        wider = nf_automaton(c.registers + 1, c.alphabet)
        assert_pruned_searches_match_unpruned(lambda: wider, lambda: snf_dfa(c))


def expanded_pairs(x, y, inclusion: bool, pruned: bool) -> tuple[int, object]:
    """The pairs the search of inclusion or equivalence expands, with the filter or without,
    and its witness."""
    prune = up_to_congruence(_nodes(x), _nodes(y), inclusion) if pruned else lambda pair: False
    expanded = []

    def counted(pair):
        leaf = prune(pair)
        if not leaf:
            expanded.append(pair)
        return leaf

    witness = search(x, y, inclusion, counted)
    return len(expanded), witness


FIG1B = fixture("fig1b")
RANDOM25 = random_session_automaton(Random(25), max_states=5, name="r25")


# fig1b's snf DFA has 12 subsets, and each pair of the walk holds a member that no pair
# before it holds, so none is pruned.  The seed-25 automaton against its twin copy walks
# 38 pairs, of which the filter expands 27.
@pytest.mark.parametrize("a, b, unpruned, pruned", [
    (FIG1B, duplicate_state(FIG1B, "s1", "twin"), 12, 12),
    (RANDOM25, duplicate_state(RANDOM25, "q0", "twin"), 38, 27),
], ids=["fig1b-twin", "random25-twin"])
def test_pruning_expands_the_pinned_number_of_pairs(a, b, unpruned, pruned):
    for inclusion in (True, False):
        for c, d in ((a, b), (b, a)):
            assert expanded_pairs(snf_dfa(c), snf_dfa(d), inclusion, False) == (unpruned, None)
            assert expanded_pairs(snf_dfa(c), snf_dfa(d), inclusion, True) == (pruned, None)


def test_pairs_of_single_members_are_expanded_untested(fig5a, monkeypatch):
    # Two deterministic sides pair single members only: no pair is ever tested.
    def untested(*args):
        raise AssertionError("a pair was tested")

    monkeypatch.setattr(congruence, "_Rules", untested)
    learned = Learner(reference_teacher(fig5a), fig5a.alphabet).run()
    canonical = canonicalize(fig5a)
    assert symbolic_equivalence(symbolic_dfa(learned), canonical) is None
    assert symbolic_inclusion(canonical, symbolic_dfa(learned)) is None
    assert symbolic_inclusion(symbolic_dfa(learned), nf_automaton(2, fig5a.alphabet)) is None


def assert_same_as_canonicalizing(a, b):
    """intersect, complement_bounded and the teacher's equivalence query answer
    as their versions that read minimized canonical DFAs did, to the letter."""
    assert serialize_automaton(intersect(a, b)) == serialize_automaton(canonicalizing_intersect(a, b))
    assert (serialize_automaton(complement_bounded(a))
            == serialize_automaton(canonicalizing_complement_bounded(a)))
    assert ReferenceTeacher(a).equivalence(b) == CanonicalizingTeacher(a).equivalence(b)


@settings(max_examples=40, deadline=None)
@given(a=automata(SESSION_OPS), b=automata(SESSION_OPS))
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
    # nf_automaton(40, ...) would have 2^40 states; the search reads the table over
    # registers + 1 = 3, which has the same least witness.  Neither universality nor
    # the oracle's full check builds anything over 10^9 or 10^6 registers.
    nf_automaton(fig5a.registers + 1, fig5a.alphabet)
    before = nf_automaton.cache_info()
    assert is_universal_bounded(fig5a, 40) == dw("b:1")
    assert is_universal_bounded(fig5a, 10**9) == dw("b:1")
    after = nf_automaton.cache_info()
    assert (after.misses, after.currsize) == (before.misses, before.currsize)
    oracle = MembershipOracle(ReferenceTeacher(fig5a), fig5a.alphabet)
    assert oracle((TransitionLabel("a", RegisterOp.fresh(10**6)),)) is False


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
