from random import Random

from hypothesis import example, given, settings, strategies as st

from helpers import (
    brute_accepted,
    enumerate_symbolic_words,
    NamedDfa,
    as_named,
    as_table,
    letter,
    nfa_accepts_brute,
    reference_determinize,
    reference_minimize,
    reference_renumber,
    sw,
)
from sessauto import (
    SymbolicDfa,
    determinize,
    isomorphic,
    minimize,
    renumber,
    symbolic_equivalence,
    symbolic_inclusion,
    word_key,
)
from sessauto.symbolic import SymbolicNfa, complement, product, shortest_accepted

AB = (letter("a", "fresh", 1), letter("b", "reuse", 1))


def random_nfa(rng: Random, alphabet=AB, max_states=4) -> SymbolicNfa:
    n = rng.randint(1, max_states)
    states = [f"s{i}" for i in range(n)]
    transitions = frozenset(
        (rng.choice(states), rng.choice(alphabet), rng.choice(states))
        for _ in range(rng.randint(0, 3 * n))
    )
    initials = frozenset(rng.sample(states, rng.randint(1, n)))
    finals = frozenset(s for s in states if rng.random() < 0.5)
    return SymbolicNfa(
        alphabet=frozenset(alphabet),
        states=frozenset(states),
        initials=initials,
        finals=finals,
        transitions=transitions,
    )


WORDS = enumerate_symbolic_words(AB, 5)


def language(acceptor):
    return frozenset(w for w in WORDS if acceptor.accepts(w))


def test_determinize_preserves_language():
    rng = Random(101)
    for _ in range(100):
        nfa = random_nfa(rng)
        dfa = determinize(nfa)
        for w in WORDS:
            assert dfa.accepts(w) == nfa_accepts_brute(nfa, w)


def test_determinize_is_deterministic_and_reachable():
    rng = Random(102)
    for _ in range(50):
        dfa = determinize(random_nfa(rng))
        # one target or -1 per state and letter, every target a state
        assert all(len(row) == len(dfa.alphabet) for row in dfa.rows)
        for s, _, t in dfa.transitions:
            assert s in dfa.states and t in dfa.states
        # subset construction keeps only reachable states
        frontier = [dfa.initial]
        reached = {dfa.initial}
        while frontier:
            s = frontier.pop()
            for t in dfa.rows[s]:
                if t >= 0 and t not in reached:
                    reached.add(t)
                    frontier.append(t)
        assert reached == set(dfa.states)


def test_minimize_preserves_language():
    rng = Random(103)
    for _ in range(100):
        nfa = random_nfa(rng)
        dfa = minimize(determinize(nfa))
        for w in WORDS:
            assert dfa.accepts(w) == nfa_accepts_brute(nfa, w)


def test_minimize_idempotent():
    rng = Random(104)
    for _ in range(50):
        m1 = minimize(determinize(random_nfa(rng)))
        m2 = minimize(m1)
        assert isomorphic(m1, m2)


def test_minimal_forms_of_equal_languages_are_isomorphic():
    rng = Random(105)
    pools: dict[frozenset, object] = {}
    hits = 0
    for _ in range(300):
        dfa = minimize(determinize(random_nfa(rng)))
        lang = language(dfa)
        if lang in pools:
            hits += 1
            assert isomorphic(dfa, pools[lang])
        else:
            pools[lang] = dfa
    assert hits > 20


def test_product_is_intersection():
    rng = Random(106)
    for _ in range(60):
        x, y = random_nfa(rng), random_nfa(rng)
        prod = product(x, y)
        for w in WORDS:
            expect = nfa_accepts_brute(x, w) and nfa_accepts_brute(y, w)
            assert prod.accepts(w) == expect


def test_complement_swaps_membership():
    rng = Random(108)
    for _ in range(60):
        dfa = determinize(random_nfa(rng))
        comp = complement(dfa)
        for w in WORDS:
            assert comp.accepts(w) != dfa.accepts(w)


def test_complement_over_larger_alphabet():
    x = letter("c", "fresh", 1)
    nfa = random_nfa(Random(109))
    comp = complement(determinize(nfa), alphabet=frozenset(AB) | {x})
    assert comp.accepts((x,))
    assert comp.accepts((x, AB[0]))


def test_shortest_accepted_is_shortlex_least():
    rng = Random(110)
    for _ in range(60):
        nfa = random_nfa(rng)
        got = shortest_accepted(nfa)
        accepted = sorted(language(nfa), key=word_key)
        if not accepted:
            # empty up to the probe length; the automaton may still accept
            # longer words, so only check consistency when a witness exists
            if got is not None:
                assert len(got) > 5
            continue
        assert got == accepted[0]


def test_shortest_accepted_empty_language():
    dead = SymbolicNfa(
        alphabet=frozenset(AB),
        states=frozenset({"s0"}),
        initials=frozenset({"s0"}),
        finals=frozenset(),
        transitions=frozenset({("s0", AB[0], "s0")}),
    )
    assert shortest_accepted(dead) is None


def test_symbolic_inclusion_and_equivalence():
    rng = Random(111)
    checked_holds = 0
    for _ in range(80):
        x, y = random_nfa(rng), random_nfa(rng)
        lx, ly = language(x), language(y)
        w = symbolic_inclusion(x, y)
        if w is None:
            assert lx <= ly
            checked_holds += 1
        else:
            assert nfa_accepts_brute(x, w) and not nfa_accepts_brute(y, w)
        w = symbolic_equivalence(x, y)
        if w is None:
            assert lx == ly
        else:
            assert nfa_accepts_brute(x, w) != nfa_accepts_brute(y, w)
    assert checked_holds > 5


def test_equivalence_witness_is_least_difference():
    x = SymbolicNfa(
        alphabet=frozenset(AB),
        states=frozenset({"s0"}),
        initials=frozenset({"s0"}),
        finals=frozenset({"s0"}),
        transitions=frozenset({("s0", AB[0], "s0")}),
    )
    y = SymbolicNfa(
        alphabet=frozenset(AB),
        states=frozenset({"s0"}),
        initials=frozenset({"s0"}),
        finals=frozenset({"s0"}),
        transitions=frozenset(),
    )
    # languages differ first on the one-letter word a:*1
    assert symbolic_equivalence(x, y) == sw("a:*1")


def test_a_dead_state_of_x_leaves_the_moves_of_y():
    # x reads a:*1 only into state 1, which cannot accept, and accepts b:*1;
    # y goes on to accept a:*1 a:*1, and accepts b:*1 too.
    a, b = sw("a:*1 b:*1")
    x = SymbolicDfa(frozenset({a, b}), ((1, 2), (1, -1), (-1, -1)), frozenset({2}))
    y = SymbolicDfa(frozenset({a, b}), ((1, 3), (2, -1), (-1, -1), (-1, -1)), frozenset({2, 3}))
    assert symbolic_equivalence(x, y) == sw("a:*1 a:*1")
    assert symbolic_equivalence(y, x) == sw("a:*1 a:*1")
    assert symbolic_inclusion(y, x) == sw("a:*1 a:*1")
    assert symbolic_inclusion(x, y) is None


LETTERS = AB + (letter("a", "reuse", 1), letter("b", "fresh", 2))


@st.composite
def tables(draw):
    """Random automata over up to four letters, as (states, alphabet, edges, finals)."""
    states = [f"s{i}" for i in range(draw(st.integers(1, 6)))]
    alphabet = draw(st.frozensets(st.sampled_from(LETTERS)))
    edges = []
    if alphabet:
        edge = st.tuples(st.sampled_from(states), st.sampled_from(sorted(alphabet, key=str)),
                         st.sampled_from(states))
        edges = draw(st.lists(edge, max_size=4 * len(states)))
    return states, alphabet, edges, draw(st.frozensets(st.sampled_from(states)))


@st.composite
def partial_dfas(draw):
    states, alphabet, edges, finals = draw(tables())
    return NamedDfa(alphabet, frozenset(states), "s0", finals,
                    {(s, x): t for s, x, t in edges}, registers=1)


@st.composite
def nfas(draw):
    states, alphabet, edges, finals = draw(tables())
    initials = draw(st.frozensets(st.sampled_from(states)))
    return SymbolicNfa(alphabet, frozenset(states), initials, finals, frozenset(edges), registers=1)


ONE = frozenset({"s0"})


@settings(max_examples=150, deadline=None)
@given(dfa=partial_dfas())
# One state: empty language, every word over a complete loop, no letters at all.
@example(dfa=NamedDfa(frozenset(AB), ONE, "s0", frozenset(), {(("s0", x)): "s0" for x in AB}))
@example(dfa=NamedDfa(frozenset(AB), ONE, "s0", ONE, {(("s0", x)): "s0" for x in AB}))
@example(dfa=NamedDfa(frozenset(), ONE, "s0", ONE, {}))
def test_minimize_matches_reference(dfa):
    assert as_named(minimize(as_table(dfa))) == reference_minimize(dfa)


@settings(max_examples=150, deadline=None)
@given(nfa=nfas())
def test_determinize_matches_reference(nfa):
    assert as_named(determinize(nfa)) == reference_determinize(nfa)


@settings(max_examples=150, deadline=None)
@given(dfa=partial_dfas())
def test_renumber_matches_reference(dfa):
    assert as_named(renumber(as_table(dfa))) == reference_renumber(dfa)


# q0 reads a:*1 into both q1 and q2; q1 then reads b:^1 and q2 a:*1 into f.
# Expanding q1 fully before q2 reaches f by a:*1 b:^1 first.
FORK = SymbolicNfa(
    alphabet=frozenset(AB),
    states=frozenset({"q0", "q1", "q2", "f"}),
    initials=frozenset({"q0"}),
    finals=frozenset({"f"}),
    transitions=frozenset({("q0", AB[0], "q1"), ("q0", AB[0], "q2"),
                           ("q1", AB[1], "f"), ("q2", AB[0], "f")}),
)
NOTHING = SymbolicNfa(frozenset(AB), ONE, ONE, frozenset(), frozenset())


def test_witnesses_are_shortlex_least_on_nondeterministic_input():
    assert shortest_accepted(FORK) == sw("a:*1 a:*1")
    assert symbolic_inclusion(FORK, NOTHING) == sw("a:*1 a:*1")
    assert symbolic_equivalence(NOTHING, FORK) == sw("a:*1 a:*1")


@settings(max_examples=150, deadline=None)
@given(x=nfas(), y=nfas(), deterministic=st.booleans())
@example(x=FORK, y=NOTHING, deterministic=False)
def test_witnesses_are_brute_force_least(x, y, deterministic):
    if deterministic:
        x, y = determinize(x), determinize(y)
    letters = x.alphabet | y.alphabet
    in_x = brute_accepted(x, letters, 5)
    in_y = brute_accepted(y, letters, 5)
    cases = [
        (shortest_accepted(x), in_x),
        (symbolic_inclusion(x, y), [w for w in in_x if w not in in_y]),
        (symbolic_equivalence(x, y), sorted(set(in_x) ^ set(in_y), key=word_key)),
    ]
    for got, words in cases:
        if words:
            assert got == words[0]
        else:
            assert got is None or len(got) > 5
