import gc
import tracemalloc
import weakref
from dataclasses import replace
from random import Random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from helpers import (
    FIXTURES,
    NamedDfa,
    add_dead_state,
    as_named,
    as_nfa,
    as_table,
    coreachable_states,
    dead_member,
    dw,
    enumerate_symbolic_words,
    explored_within,
    fig5c_dfa,
    fixture,
    frozenset_determinize,
    frozenset_normal_form_table,
    injection_bits,
    is_well_formed,
    nf_promises,
    partial_injections,
    random_data_word,
    random_session_automaton,
    reference_canonicalize,
    reference_equivalence,
    reference_inclusion,
    reference_nf_violation_witness,
    reference_register_dfa,
    reference_relabelings,
    reference_shortest_accepted,
    sw,
    universal,
)
from sessauto import (
    Automaton,
    AutomatonClass,
    NotSessionAutomaton,
    OpKind,
    RegisterOp,
    SymbolicDfa,
    Transition,
    accepts_symbolic,
    as_symbolic_nfa,
    canonicalize,
    classify,
    complement_bounded,
    concretize,
    determinize,
    from_symbolic_dfa,
    intersect,
    isomorphic,
    max_register,
    minimize,
    nf_automaton,
    nf_violation_witness,
    parse_automaton,
    renumber,
    simulate,
    snf,
    symbolic_alphabet,
    symbolic_equivalence,
    symbolic_inclusion,
    wf_automaton,
)
from sessauto import canonical, symbolic
from sessauto.canonical import (
    _maximal,
    _relabelings,
    _trim,
    normal_form_table,
    snf_dfa,
    symbolic_dfa,
    tilde,
)
from sessauto.symbolic import SubsetDfa, members, product, shortest_accepted
from test_automata import SESSION_OPS, automata

A = frozenset({"a"})
AB = frozenset({"a", "b"})


def expected_nf2() -> SymbolicDfa:
    """The four-state automaton of all normal forms over two registers."""
    edges = {
        ("n0", "a:*1"): "n1",
        ("n1", "a:*1"): "n1",
        ("n1", "a:^1"): "n1",
        ("n1", "a:*2"): "n2",
        ("n2", "a:*2"): "n2",
        ("n2", "a:^2"): "n2",
        ("n2", "a:^1"): "n3",
        ("n3", "a:*1"): "n3",
        ("n3", "a:^1"): "n3",
        ("n3", "a:^2"): "n3",
        ("n3", "a:*2"): "n2",
    }
    delta = {(s, sw(x)[0]): t for (s, x), t in edges.items()}
    return as_table(NamedDfa(
        alphabet=symbolic_alphabet(A, 2),
        states=frozenset({"n0", "n1", "n2", "n3"}),
        initial="n0",
        finals=frozenset({"n0", "n1", "n3"}),
        delta=delta,
    ))


def test_nf2_shape():
    nf = nf_automaton(2, A)
    assert len(nf.states) == 4
    assert isomorphic(nf, expected_nf2())


def reached(dfa: SymbolicDfa, word) -> int:
    state = dfa.initial
    for x in word:
        state = dfa.rows[state][dfa.column(x)]
    return state


def test_nf2_state_names():
    # States are numbered breadth-first from (top 0, no promises), letters in order.
    nf = nf_automaton(2, A)
    top0, top1, top2_promised1, top2 = (
        reached(nf, sw(u)) for u in ("", "a:*1", "a:*1 a:*2", "a:*1 a:*2 a:^1"))
    assert (top0, top1, top2_promised1, top2) == (0, 1, 2, 3)
    assert nf.states == range(4)
    assert nf.finals == {top0, top1, top2}


@pytest.mark.parametrize("k", [1, 2, 3])
def test_nf_and_wf_are_canonically_numbered(k):
    # Breadth-first from the initial state, letters in order, as renumber numbers them.
    for dfa in (nf_automaton(k, AB), wf_automaton(k, AB)):
        assert dfa == renumber(dfa)


def test_nf1_shape():
    nf = nf_automaton(1, A)
    assert nf.states == range(2)
    assert nf.finals == set(nf.states)
    assert nf.accepts(sw("a:*1 a:^1 a:*1"))
    assert not nf.accepts(sw("a:^1"))


def test_nf_rejects_bad_registers():
    with pytest.raises(ValueError):
        nf_automaton(0, A)
    with pytest.raises(ValueError):
        wf_automaton(0, A)


def test_nf_membership_is_snf_fixpoint():
    nf = nf_automaton(2, AB)
    for u in enumerate_symbolic_words(sorted(symbolic_alphabet(AB, 2), key=str), 4):
        if is_well_formed(u):
            expect = snf(concretize(u)) == u
        else:
            expect = False
        assert nf.accepts(u) == expect


def test_nf_examples():
    nf = nf_automaton(2, AB)
    assert nf.accepts(())
    assert nf.accepts(sw("a:*1 b:*2 a:^1 b:^2"))
    # register 2 written before register 1
    assert not nf.accepts(sw("a:*2"))
    # promise broken: register 1 must be reused before a second write
    assert not nf.accepts(sw("a:*1 a:*2 a:*1"))
    assert nf.accepts(sw("a:*1 a:*2 a:^1 a:*1"))
    # not the minimal free register
    assert not nf.accepts(sw("a:*1 a:^1 a:*2"))


@st.composite
def words_within(draw):
    """(k, a symbolic word over at most k <= 3 registers): any letters, or a normal form."""
    k = draw(st.integers(1, 3))
    letters = sorted(symbolic_alphabet(AB, k), key=str)
    data = st.lists(st.tuples(st.sampled_from(["a", "b"]), st.integers(1, k)), min_size=1, max_size=8)
    return k, draw(st.lists(st.sampled_from(letters), min_size=1, max_size=8) | data.map(snf))


@settings(max_examples=200, deadline=None)
@given(case=words_within())
def test_nf_automaton_is_monotone_in_the_registers(case):
    # The learner's table checks every word on the DFA over its own k registers.
    k, w = case
    expect = nf_automaton(max_register(w), AB).accepts(w)
    for registers in range(k, 6):
        assert nf_automaton(registers, AB).accepts(w) == expect


def test_wf_automaton_matches_predicate():
    wf = wf_automaton(2, AB)
    for u in enumerate_symbolic_words(sorted(symbolic_alphabet(AB, 2), key=str), 4):
        assert wf.accepts(u) == is_well_formed(u)


def test_partial_injection():
    # k = 2: bit (r-1)*2 + o-1 holds the pair r>o
    fresh, reuse = RegisterOp.fresh, RegisterOp.reuse
    assert _relabelings(reuse(1), 0, 2) == []
    inj = dict(_relabelings(fresh(1), 0, 2))[2]
    assert inj == 0b10
    # a reuse reads the output register that holds its register's value
    assert _relabelings(reuse(1), inj, 2) == [(2, inj)]
    # a new source claiming the same target evicts the old pair
    inj2 = dict(_relabelings(fresh(2), inj, 2))[2]
    assert inj2 == 0b1000 and _relabelings(reuse(1), inj2, 2) == []
    # rewriting the same source replaces its target
    inj3 = dict(_relabelings(fresh(1), inj, 2))[1]
    assert inj3 == 0b01 and _relabelings(reuse(1), inj3, 2) == [(1, inj3)]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_relabelings_match_the_pairs_reference(k):
    # Every partial injection over k <= 3 registers, every operation: the int
    # rule agrees with the rule on sorted pairs, move for move.
    ops = [RegisterOp(kind, r) for kind in OpKind for r in range(1, k + 1)]
    injections = partial_injections(k)
    assert len(injections) == [2, 7, 34][k - 1]
    for inj in injections:
        for op in ops:
            want = [(o, injection_bits(after, k)) for o, after in reference_relabelings(op, inj, k)]
            assert _relabelings(op, injection_bits(inj, k), k) == want


def test_tilde_state_count(fig5a):
    assert len(tilde(fig5a).states) == 7


def test_tilde_contains_well_formed_part_of_language(fig2b, fig5a):
    # tilde keeps every well-formed accepted word (identity relabeling);
    # ill-formed ones have no concretizations and fall away
    rng = Random(301)
    for a in (fig2b, fig5a):
        t = tilde(a)
        letters = sorted(t.alphabet, key=str)
        for _ in range(300):
            u = tuple(rng.choice(letters) for _ in range(rng.randint(0, 5)))
            if accepts_symbolic(a, u) and is_well_formed(u):
                assert t.accepts(u)


def test_tilde_register_relabeling(fig5a):
    t = tilde(fig5a)
    # fig5a only ever writes register r with a and reads r with b, but the
    # relabeled language may route values through either output register
    assert t.accepts(sw("a:*2 b:^2"))
    assert t.accepts(sw("a:*2 a:*1 b:^2 b:^1"))
    # reading a register nothing maps to is impossible
    assert not t.accepts(sw("b:^1"))


def test_canonical_fig5a_is_fig5c(fig5a):
    got = canonicalize(fig5a)
    assert len(got.states) == 4
    assert isomorphic(got, fig5c_dfa())


def test_canonical_fig2b_is_all_normal_forms(fig2b):
    got = canonicalize(fig2b)
    assert isomorphic(got, minimize(determinize(as_nfa(nf_automaton(2, A)))))


def test_canonical_membership_tracks_data_membership():
    rng = Random(302)
    for _ in range(40):
        a = random_session_automaton(rng)
        can = canonicalize(a)
        for _ in range(25):
            w = random_data_word(rng, max_len=6, max_value=3)
            assert can.accepts(snf(w)) == simulate(a, w)


def test_canonical_accepts_only_normal_forms():
    rng = Random(303)
    nf = nf_automaton(2, AB)
    for _ in range(25):
        a = random_session_automaton(rng)
        can = canonicalize(a)
        for u in enumerate_symbolic_words(sorted(can.alphabet, key=str), 3):
            if can.accepts(u):
                assert nf.accepts(u)


def test_canonical_is_a_fixpoint():
    rng = Random(304)
    for _ in range(25):
        a = random_session_automaton(rng)
        can = canonicalize(a)
        again = canonicalize(from_symbolic_dfa(can, "again", a.alphabet, a.registers))
        assert isomorphic(can, again)


def test_canonical_of_empty_language():
    a = random_session_automaton(Random(1), max_states=1)
    empty = a.__class__(
        name="void",
        alphabet=a.alphabet,
        registers=a.registers,
        states=a.states,
        initial=a.initial,
        finals=frozenset(),
        transitions=a.transitions,
    )
    can = canonicalize(empty)
    assert can.finals == frozenset()
    assert len(can.states) == 1


EMPTY = Automaton("void", AB, 2, frozenset({"q0"}), "q0", frozenset(), frozenset())
# Every property here draws k <= 3 but the two that take this strategy, whose
# references grow too fast at k = 3.  Widened to k <= 3, they passed in five
# runs each: test_canonical_fast_path_on_normal_form_automata took 0.4-17.4 s
# (47.9 s in an earlier run) and test_witnesses_match_reference_on_dfas
# 1.2-13.9 s (15.0 s), and one more run of the two grew past 4 GB in five
# minutes before it was stopped.
AUTOMATA_K2 = automata(SESSION_OPS).filter(lambda a: a.registers <= 2)


def assert_canonical_path(a, only_normal_forms):
    """canonicalize agrees with the general construction, and the walk's witness with the product's."""
    assert canonicalize(a) == reference_canonicalize(a)
    assert nf_violation_witness(a) == reference_nf_violation_witness(a)
    if only_normal_forms:
        assert nf_violation_witness(a) is None


@settings(max_examples=15, deadline=None)
@given(a=AUTOMATA_K2, b=AUTOMATA_K2)
@example(a=EMPTY, b=EMPTY)
def test_canonical_fast_path_on_normal_form_automata(a, b):
    # Canonical forms, intersections and complements accept normal forms only.
    assert_canonical_path(from_symbolic_dfa(canonicalize(a), "c", a.alphabet, a.registers), True)
    assert_canonical_path(intersect(a, b), True)
    assert_canonical_path(complement_bounded(a), True)


def chain(*letters, final_only=True):
    """Automaton reading the letters along q0, q1, ...: accepting at its end, or only at q0."""
    steps = [sw(x)[0] for x in letters]
    states = [f"q{i}" for i in range(len(steps) + 1)]
    return Automaton(
        "chain", AB, 2, frozenset(states), "q0",
        frozenset({states[-1] if final_only else "q0"}),
        frozenset(Transition(s, x, t) for s, x, t in zip(states, steps, states[1:])),
    )


@settings(max_examples=30, deadline=None)
@given(a=automata(SESSION_OPS))
# Accepted while register 1 is still promised: only the final-state check sees it.
@example(a=chain("a:*1", "a:*2"))
# Not a normal form, but no final state follows it: only the live-state restriction passes it.
@example(a=chain("a:^1", final_only=False))
def test_canonical_general_path_on_random_automata(a):
    assert_canonical_path(a, False)


# k = 4: the column offsets of the normal-form table differ at every k.  Two-state
# automata only, and a bound on the subsets the reference explores: one of 30
# sampled draws had a canonical form of 65 921 states, which canonicalize built in
# 5.4 s and reference_canonicalize in 169 s, and the unpruned reference ran past
# 30 s on a draw whose snf DFA has three subsets (a sweep of such draws grew past
# 3 GB).  At 5 000, 51 of 200 draws were left out and the slowest draw compared
# took 0.35 s.
AUTOMATA_K4 = automata(SESSION_OPS, registers=st.just(4), sizes=st.just(2))
K4_SUBSETS = 5000


@settings(max_examples=15, deadline=None)
@given(a=AUTOMATA_K4)
def test_canonical_general_path_at_four_registers(a):
    reference = reference_canonicalize(a, K4_SUBSETS)
    assume(reference is not None)
    assert canonicalize(a) == reference
    assert nf_violation_witness(a) == reference_nf_violation_witness(a)


@st.composite
def normal_form_parts(draw):
    """The normal-form DFA over k <= 3 registers less some moves, with any states accepting.

    Accepting only normal-form finals gives an automaton without violations;
    an accepting state with pending promises gives violations that only the
    final-state check sees.
    """
    k = draw(st.integers(1, 3))
    nf = as_named(nf_automaton(k, AB))
    dropped = draw(st.frozensets(st.sampled_from(sorted(nf.delta, key=str))))
    finals = draw(st.frozensets(st.sampled_from(sorted(nf.states))))
    moves = {key: t for key, t in nf.delta.items() if key not in dropped}
    part = NamedDfa(nf.alphabet, nf.states, nf.initial, finals, moves)
    return from_symbolic_dfa(as_table(part), "part", AB, k)


def branches(*paths):
    """Automaton reading each path of letters from q0 into one accepting state f."""
    transitions = set()
    for i, path in enumerate(paths):
        steps = [sw(x)[0] for x in path]
        states = ["q0"] + [f"p{i}_{j}" for j in range(1, len(steps))] + ["f"]
        transitions |= {Transition(s, x, t) for s, x, t in zip(states, steps, states[1:])}
    states = frozenset({"q0", "f"} | {q for t in transitions for q in (t.source, t.target)})
    return Automaton("branches", AB, 2, states, "q0", frozenset({"f"}), frozenset(transitions))


# A depth-first walk that takes letters in order meets a:*1 a:*1 a:^2 before the
# shorter b:*1 b:^2; one that pushes them on a stack meets b:*1 b:^2 before a:*1 a:^2.
LONG_FIRST = branches(("a:*1", "a:*1", "a:^2"), ("b:*1", "b:^2"))
SAME_LENGTH = branches(("a:*1", "a:^2"), ("b:*1", "b:^2"))
# Both paths read a:*1 first; expanding p0_1 fully before p1_1 meets a:*1 b:*2 first.
FORK = branches(("a:*1", "b:*2"), ("a:*1", "a:*2"))


@settings(max_examples=60, deadline=None)
@given(a=automata(SESSION_OPS) | normal_form_parts())
@example(a=LONG_FIRST)
@example(a=SAME_LENGTH)
@example(a=FORK)
@example(a=chain("a:*1", "a:*2"))
@example(a=from_symbolic_dfa(nf_automaton(3, AB), "nf", AB, 3))
def test_nf_violation_witness_matches_reference(a):
    for c in (a, add_dead_state(a, "trap")):
        assert nf_violation_witness(c) == reference_nf_violation_witness(c)


def test_nf_violation_witness_is_shortlex_least():
    assert nf_violation_witness(LONG_FIRST) == sw("b:*1 b:^2")
    assert nf_violation_witness(SAME_LENGTH) == sw("a:*1 a:^2")
    assert nf_violation_witness(FORK) == sw("a:*1 a:*2")
    assert nf_violation_witness(chain("a:*1", "a:*2")) == sw("a:*1 a:*2")
    assert nf_violation_witness(from_symbolic_dfa(nf_automaton(3, AB), "nf", AB, 3)) is None


@settings(max_examples=40, deadline=None)
@given(a=AUTOMATA_K2, b=AUTOMATA_K2)
def test_witnesses_match_reference_on_dfas(a, b):
    """On DFA operands the one search answers as the complement-product-search chain did."""
    x, y = canonicalize(a), canonicalize(b)
    nf = nf_automaton(a.registers, AB)
    # Determinized with a trap state: tables that may hold states reaching no final state.
    xd, yd = (determinize(as_symbolic_nfa(add_dead_state(c, "trap"))) for c in (a, b))
    for p, q in ((x, y), (y, x), (nf, x), (x, nf), (nf, nf_automaton(b.registers, AB)),
                 (xd, yd), (yd, xd), (xd, y), (nf, xd)):
        assert symbolic_inclusion(p, q) == reference_inclusion(p, q)
        assert symbolic_equivalence(p, q) == reference_equivalence(p, q)
        assert shortest_accepted(as_nfa(p)) == reference_shortest_accepted(p)


def test_cached_canonical_form_is_read_only(fig5a):
    # The table is a tuple of tuples and the DFA is frozen: nothing can be assigned.
    with pytest.raises(AttributeError):
        canonicalize(fig5a).rows = ()
    with pytest.raises(AttributeError):
        canonicalize(fig5a).rows.clear()
    with pytest.raises(TypeError):
        canonicalize(fig5a).rows[0][0] = 0
    with pytest.raises(AttributeError):
        canonicalize(fig5a).finals.add(1)
    assert canonicalize(fig5a).accepts(snf(dw("a:1 b:1")))


def test_canonicalize_rejects_register_automata(fig1a):
    # The general path must not read local letters as fresh ones.
    with pytest.raises(NotSessionAutomaton):
        canonicalize(fig1a)
    with pytest.raises(NotSessionAutomaton):
        normal_form_table(fig1a)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_canonical_universal_is_all_normal_forms(k):
    can = canonicalize(universal(k))
    assert len(can.states) == 2 ** k
    if k <= 3:
        assert can == reference_canonicalize(universal(k))


# Two-state automata keep canonicalize below seconds at k = 3 (three-state ones
# reach canonical forms of thousands of states).  The general path took ~2 s on
# a 44-state k = 3 input and ran out of an 8 s limit on a 78-state one, so only
# inputs of up to 20 states take it here.
SMALL = automata(SESSION_OPS).filter(lambda a: len(a.states) <= 2)


@settings(max_examples=10, deadline=None)
@given(a=SMALL, b=SMALL)
@example(a=EMPTY, b=EMPTY)
@example(a=universal(3), b=universal(2))
def test_general_path_matches_fast_path(a, b):
    # All three accept normal forms only, so determinizing them gives snf(L) directly.
    for c in (from_symbolic_dfa(canonicalize(a), "c", a.alphabet, a.registers),
              intersect(a, b), complement_bounded(a)):
        if len(c.states) <= 20:
            assert minimize(normal_form_table(c).table()) == minimize(determinize(as_symbolic_nfa(c)))


@settings(max_examples=30, deadline=None)
@given(a=automata(SESSION_OPS))
@example(a=universal(3))
def test_normal_form_table_is_the_determinized_product(a):
    # Pruned subsets keep their languages: same minimal DFA, never more subsets.
    nf = nf_automaton(a.registers, a.alphabet)
    product_dfa = determinize(product(as_nfa(nf), tilde(a)))
    table = normal_form_table(a).table()
    assert minimize(table) == minimize(product_dfa)
    assert len(table.rows) <= len(product_dfa.states)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_normal_form_table_of_universal_is_minimal(k):
    # Every subset of universal(k) shrinks to the injections no other one extends;
    # unpruned, k = 4 has 79 subsets and k = 5 has 475.
    assert len(normal_form_table(universal(k)).table().rows) == 2 ** k


@settings(max_examples=40, deadline=None)
@given(a=automata(SESSION_OPS))
@example(a=universal(3))
@example(a=EMPTY)
def test_pruned_table_matches_reference(a):
    # The unpruned reference took up to 0.5 s per draw below 5 000 pruned subsets
    # and 6 s at 23 376; at least 15 of 600 draws were larger than that.
    dfa = normal_form_table(a)
    assume(explored_within(dfa, 5000))
    assert minimize(dfa.table()) == reference_canonicalize(a)


def assert_same_tables(a):
    # Equal, numbering and all: the bitset construction builds the same subsets,
    # trimmed and pruned alike, in the same order, which comparing minimal DFAs
    # cannot see.  (Shortlex-least witnesses do not depend on the numbering.)
    assert normal_form_table(a).table() == frozenset_normal_form_table(a)
    nfa = as_symbolic_nfa(a)
    assert determinize(nfa) == frozenset_determinize(nfa)


@settings(max_examples=40, deadline=None)
@given(a=automata(SESSION_OPS))
@example(a=EMPTY)
def test_bitset_tables_match_frozenset_reference(a):
    assume(explored_within(normal_form_table(a), 5000))
    assert_same_tables(a)


# universal(1..5) and every session automaton among the fixtures.
NAMED = [universal(k) for k in range(1, 6)] + [
    a for a in map(fixture, sorted(p.stem for p in FIXTURES.glob("*.sra")))
    if classify(a) is AutomatonClass.SESSION
]


@pytest.mark.parametrize("a", NAMED, ids=[a.name for a in NAMED])
def test_bitset_tables_of_named_automata_match_frozenset_reference(a):
    assert_same_tables(a)


def counting_reductions(calls: list):
    """A stand-in for ``SubsetDfa`` that logs every (guard state, targets) its reduction reads,
    one list per table, in ``calls``."""
    def build(guard, start, expand, final, reduce):
        seen = []
        calls.append(seen)

        def counted(n, targets):
            seen.append((n, targets))
            return reduce(n, targets)

        return SubsetDfa(guard, start, expand, final, counted)

    return build


def assert_one_reduction_per_cell(a):
    # The (guard state, targets) -> state cache: each cell's target subset is reduced
    # once per table, however many rows pool it, and the tables stay the same.  The
    # normal-form DFA is a SubsetDfa too: it is built before the stand-in counts.
    nf_automaton(a.registers, a.alphabet)
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(canonical, "SubsetDfa", counting_reductions(calls))
        patch.setattr(symbolic, "SubsetDfa", counting_reductions(calls))
        assert normal_form_table(a).table() == frozenset_normal_form_table(a)
        nfa = as_symbolic_nfa(a)
        assert determinize(nfa) == frozenset_determinize(nfa)
        symbolic_dfa(a).table()
    assert len(calls) == 3
    for seen in calls:
        assert len(seen) == len(set(seen))


@pytest.mark.parametrize("a", [fixture("fig1b"), universal(3)], ids=["fig1b", "univ3"])
def test_subset_dfa_reduces_each_cell_once_on_named_automata(a):
    assert_one_reduction_per_cell(a)


@settings(max_examples=30, deadline=None)
@given(a=automata(SESSION_OPS))
@example(a=EMPTY)
def test_subset_dfa_reduces_each_cell_once(a):
    assume(explored_within(normal_form_table(a), 5000))
    assert_one_reduction_per_cell(a)


@pytest.mark.parametrize("build, a", [(normal_form_table, fixture("fig1b")),
                                      (normal_form_table, universal(3)),
                                      (symbolic_dfa, universal(2))],
                         ids=["nf_table-fig1b", "nf_table-univ3", "symbolic_dfa-univ2"])
def test_explored_subset_tables_are_freed_without_the_cyclic_collector(build, a):
    # A table that held a bound method of itself, or a reduction closing over the
    # table, would be cyclic garbage, left to the collector: that cost decide
    # about 5 %.  Reference counting alone must free an explored table.
    enabled = gc.isenabled()
    gc.disable()
    try:
        dfa = build(a)
        dfa.table()
        ref = weakref.ref(dfa)
        del dfa
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def assert_trim_keeps_languages(a):
    """The trimmed table is no larger than the untrimmed construction, and has its minimal DFA."""
    trimmed = normal_form_table(a).table()
    untrimmed = frozenset_normal_form_table(a, trim=False)
    assert len(trimmed.rows) <= len(untrimmed.rows)
    assert minimize(trimmed) == minimize(untrimmed)


@settings(max_examples=30, deadline=None)
@given(a=automata(SESSION_OPS))
@example(a=EMPTY)
def test_trim_keeps_languages(a):
    assert_trim_keeps_languages(a)


@pytest.mark.parametrize("a", NAMED, ids=[a.name for a in NAMED])
def test_trim_keeps_languages_of_named_automata(a):
    assert_trim_keeps_languages(a)


def test_trimmed_table_sizes(fig1b):
    # fig1b loses one subset; universal(k) has none to lose (see
    # test_normal_form_table_of_universal_is_minimal).
    assert len(frozenset_normal_form_table(fig1b, trim=False).rows) == 13
    assert len(normal_form_table(fig1b).table().rows) == 12


@settings(max_examples=40, deadline=None)
@given(a=automata(SESSION_OPS))
@example(a=fixture("fig1b"))
@example(a=chain("a:*1", "a:*2"))
@example(a=add_dead_state(universal(2), "trap"))
def test_trimmed_members_accept_nothing(a):
    """Every (normal-form state, tilde state) pair the trim drops has an empty language in the
    product of the normal-form DFA and tilde(a), by coreachability in that product."""
    k = a.registers
    nf, t = as_nfa(nf_automaton(k, a.alphabet)), tilde(a)
    # Every state of both is initial: product names the initial pairs p0, p1, ... in
    # sorted order, and reaches every pair from them.
    nf_states, t_states = sorted(nf.states), sorted(t.states)
    pairs = product(replace(nf, initials=nf.states), replace(t, initials=t.states))
    live = set(pairs.finals)
    grew = True
    while grew:
        grew = False
        for s, _, s2 in pairs.transitions:
            if s2 in live and s not in live:
                live.add(s)
                grew = True
    promises = nf_promises(k, a.alphabet)
    states_live = coreachable_states(a)
    for i, n in enumerate(nf_states):
        for j, member in enumerate(t_states):
            q, inj = member.rsplit("|", 1)
            if dead_member(promises[int(n)], q, int(inj), k, states_live):
                assert f"p{i * len(t_states) + j}" not in live, (n, member)


def tilde_masks(k: int):
    """Tilde states over k registers and states 0..2 of an automaton, keyed as
    ``normal_form_table`` keys them: an injection's int and the bit k*k + q."""
    return st.builds(lambda q, inj: 1 << k * k + q | injection_bits(inj, k),
                     st.integers(0, 2), st.sampled_from(partial_injections(k)))


@st.composite
def members_and_subset(draw):
    """k <= 3, distinct tilde masks by member id, and a nonempty bitset of those ids."""
    k = draw(st.integers(1, 3))
    masks = draw(st.lists(tilde_masks(k), min_size=1, max_size=12, unique=True))
    return k, masks, draw(st.integers(1, (1 << len(masks)) - 1))


@settings(max_examples=200, deadline=None)
@given(drawn=members_and_subset())
def test_maximal_keeps_the_members_no_other_contains(drawn):
    _, masks, targets = drawn
    ids = members(targets)
    kept = [i for i in ids if not any(j != i and masks[i] & masks[j] == masks[i] for j in ids)]
    assert members(_maximal(masks, targets)) == kept
    # A subset table reads a kept subset's cell as its node's: the cut keeps it whole.
    assert _maximal(masks, _maximal(masks, targets)) == _maximal(masks, targets)


@settings(max_examples=200, deadline=None)
@given(drawn=members_and_subset(), data=st.data())
def test_trim_drops_the_members_dead_member_drops(drawn, data):
    k, masks, kept = drawn
    promised = data.draw(st.frozensets(st.integers(1, k)))
    injection, states = (1 << k * k) - 1, range(3)  # every state live: only promises drop
    alive = [i for i in members(kept) if not dead_member(
        promised, (masks[i] >> k * k).bit_length() - 1, masks[i] & injection, k, states)]
    mask = sum(1 << r - 1 for r in promised)
    assert members(_trim(masks, kept, mask, k)) == alive
    assert _trim(masks, _trim(masks, kept, mask, k), mask, k) == _trim(masks, kept, mask, k)


# Each reduction switched off: a stand-in that keeps every member it is given.
UNREDUCED = {"_maximal": lambda masks, targets: targets,
             "_trim": lambda masks, kept, promised, k: kept}


def assert_unreduced_keeps_languages(a, reduction):
    reduced = normal_form_table(a).table()
    expected = canonicalize(a)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(canonical, reduction, UNREDUCED[reduction])
        table = normal_form_table(a).table()
    assert minimize(table) == expected
    assert len(table.rows) >= len(reduced.rows)


@pytest.mark.parametrize("reduction", sorted(UNREDUCED))
@pytest.mark.parametrize("a", NAMED, ids=[a.name for a in NAMED])
def test_each_reduction_keeps_languages_of_named_automata(a, reduction):
    assert_unreduced_keeps_languages(a, reduction)


@pytest.mark.parametrize("reduction", sorted(UNREDUCED))
@settings(max_examples=30, deadline=None)
@given(a=automata(SESSION_OPS))
@example(a=fixture("fig1b"))
def test_each_reduction_keeps_languages(reduction, a):
    assert_unreduced_keeps_languages(a, reduction)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_one_table_per_k_serves_every_label_set(k):
    # Label j's letters take the columns from 2k*j on, and no move depends on the
    # label, so every label set reads the one-label table, each row repeated once
    # per label.
    one = {build: build(k, A) for build in (nf_automaton, wf_automaton)}
    for labels in (A, AB, frozenset({"z"}), frozenset(["y", "b", "a"]),
                   frozenset({"req", "ack", "x", "open", "close"})):
        for build, kind in ((nf_automaton, "nf"), (wf_automaton, "wf")):
            dfa = build(k, labels)
            assert dfa.rows == tuple(row * len(labels) for row in one[build].rows)
            assert dfa.finals == one[build].finals
            assert dfa == reference_register_dfa(kind, k, labels)[0]


def test_normal_form_and_well_formedness_dfas_without_labels():
    # Only the start state is reached: no letter leaves it.
    for build, kind in ((nf_automaton, "nf"), (wf_automaton, "wf")):
        assert build(3, frozenset()) == reference_register_dfa(kind, 3, ())[0] == SymbolicDfa(
            frozenset(), ((),), frozenset({0}))


@pytest.mark.parametrize("dfa", [canonical._NF, canonical._WF], ids=["nf", "wf"])
def test_normal_form_and_well_formedness_dfas_explore_in_linear_memory(dfa):
    # Either table in full keeps one small key a state: well under 1 KB a state at
    # k = 12, where a bitset a state, as wide as the states met, would take about
    # 5 KB and make the exploration quadratic in memory.
    tracemalloc.start()
    try:
        table, _ = canonical._one_label.__wrapped__(dfa, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table.rows) == 4096
    assert peak < 1500 * len(table.rows)


def assert_snf_dfa(a):
    # One type on both paths; on the fast path, the subset construction of the
    # automaton itself less its moves into states that reach no final state,
    # numbered canonically whatever its state names.
    dfa = snf_dfa(a)
    assert isinstance(dfa, SubsetDfa)
    if nf_violation_witness(a) is None:
        live = coreachable_states(a)
        trimmed = replace(a, transitions=frozenset(t for t in a.transitions if t.target in live))
        assert dfa.table() == determinize(as_symbolic_nfa(trimmed))


def test_snf_dfa_of_named_automata():
    # No fixture file accepts only normal forms; the boolean operations' outputs
    # on them and the learned goldens do.
    session = [a for a in NAMED if not a.name.startswith("univ")]
    normal_forms_only = (
        [intersect(a, b) for a in session for b in session]
        + [complement_bounded(a) for a in session]
        + [parse_automaton(p.read_text()) for p in sorted((FIXTURES / "golden").glob("learn_*.sra"))]
    )
    for a in normal_forms_only:
        assert nf_violation_witness(a) is None, a.name
    for a in NAMED + normal_forms_only:
        assert_snf_dfa(a)


@settings(max_examples=25, deadline=None)
@given(a=automata(SESSION_OPS))
@example(a=EMPTY)
def test_snf_dfa_of_random_automata(a):
    assert_snf_dfa(a)
    assert_snf_dfa(from_symbolic_dfa(canonicalize(a), "c", a.alphabet, a.registers))


@pytest.mark.parametrize("build", [nf_automaton, wf_automaton])
def test_register_dfa_caches_are_bounded(build):
    # Every relabeled automaton brings its own alphabet, so an unbounded cache
    # grows with every distinct one a long-running process sees.
    bound = build.cache_info().maxsize
    assert bound is not None
    for i in range(bound + 10):
        build(1, frozenset({f"label{i}"}))
    assert build.cache_info().currsize <= bound
