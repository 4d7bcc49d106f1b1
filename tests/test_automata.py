from dataclasses import replace
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    dw,
    permute_values,
    perturb,
    random_data_word,
    random_run_word,
    random_session_automaton,
    reference_simulate,
    sw,
)
from sessauto import (
    Automaton,
    AutomatonClass,
    NotSessionAutomaton,
    OpKind,
    RegisterOp,
    Transition,
    TransitionLabel,
    UnknownLabel,
    accepts_symbolic,
    as_symbolic_nfa,
    canonicalize,
    classify,
    from_symbolic_dfa,
    is_data_deterministic,
    is_symbolically_deterministic,
    minimize,
    determinize,
    simulate,
    snf,
    validate,
)
from sessauto.automata import require_session
from sessauto.canonical import nf_violation_witness, normal_form_table

WORD_8 = dw("req:8 req:4 ack:8 req:3 ack:4 req:8 ack:3 ack:8")
WORD_6 = dw("req:8 req:4 ack:8 req:3 ack:4 ack:3")


def test_membership_fixture_words(fig1a, fig1b):
    assert simulate(fig1a, WORD_8)
    assert not simulate(fig1b, WORD_8)
    assert simulate(fig1b, WORD_6)
    assert simulate(fig1a, WORD_6)


def test_fresh_requires_globally_new_value(fig1b):
    # value 8 is reused for a new request after its session closed: the
    # register automaton allows it, the session automaton does not
    w = dw("req:8 ack:8 req:8 ack:8")
    assert not simulate(fig1b, w)


def test_local_allows_recycled_value(fig1a):
    w = dw("req:8 ack:8 req:8 ack:8")
    assert simulate(fig1a, w)


def test_simulate_unknown_label(fig1a):
    with pytest.raises(UnknownLabel):
        simulate(fig1a, dw("zzz:1"))


def test_simulate_empty_word(fig1a, fig2b):
    assert simulate(fig1a, ())
    assert simulate(fig2b, ())


def test_membership_is_permutation_invariant():
    rng = Random(202)
    for _ in range(50):
        a = random_session_automaton(rng)
        for _ in range(10):
            w = random_data_word(rng, max_len=6, max_value=3)
            assert simulate(a, w) == simulate(a, permute_values(rng, w))


LABELS = ("a", "b")
SESSION_OPS = (OpKind.FRESH, OpKind.REUSE)
REGISTER_OPS = (OpKind.LOCAL, OpKind.REUSE)
FRESH_REGISTER_OPS = (OpKind.FRESH, OpKind.LOCAL, OpKind.REUSE)


@st.composite
def automata(draw, kinds):
    """Automata over {a, b} with k <= 3 and operations from ``kinds``.

    Every state has a move of every kind, so random runs seldom get stuck.
    """
    k = draw(st.integers(1, 3))
    states = [f"q{i}" for i in range(draw(st.integers(1, 3)))]

    def moves(sources, ops):
        letters = st.builds(TransitionLabel, st.sampled_from(LABELS),
                            st.builds(RegisterOp, ops, st.integers(1, k)))
        return st.builds(Transition, sources, letters, st.sampled_from(states))

    backbone = {draw(moves(st.just(s), st.just(kind))) for s in states for kind in kinds}
    extra = draw(st.frozensets(moves(st.sampled_from(states), st.sampled_from(kinds)), max_size=12))
    return Automaton(
        name="h",
        alphabet=frozenset(LABELS),
        registers=k,
        states=frozenset(states),
        initial="q0",
        finals=draw(st.frozensets(st.sampled_from(states))),
        transitions=frozenset(backbone) | extra,
    )


@pytest.mark.parametrize("kinds", [SESSION_OPS, REGISTER_OPS, FRESH_REGISTER_OPS],
                         ids=["session", "register", "fresh-register"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_simulate_matches_unpruned_reference(kinds, data):
    # At most 8 distinct values, so the reference's configuration sets stay small.
    a = data.draw(automata(kinds))
    rng = data.draw(st.randoms(use_true_random=True))
    w = random_run_word(rng, a, data.draw(st.integers(100, 1000)), pool=data.draw(st.integers(1, 8)))
    for x in (w, perturb(rng, w)):
        assert_matches_reference_per_end_state(a, x)


def assert_matches_reference_per_end_state(a, word):
    # One check per end state: a lone accept bit hides runs lost or gained on the way.
    for q in sorted(a.states):
        b = replace(a, finals=frozenset({q}))
        assert simulate(b, word) == reference_simulate(b, word)


# simulate erases a value at its last letter; one word per kind of move that
# letter can take, each read on after the erasure.
@pytest.mark.parametrize("name, text", [
    # reuse: 1 dies at b:1 while 2 is held, in either register
    ("fig5a", "a:1 a:2 b:1 a:3 b:2 b:3"),
    ("fig5a", "a:1 a:2 b:2 a:3 b:1 b:3"),
    ("fig1a", "req:8 req:4 ack:8 req:3 ack:4 ack:3"),
    # fresh, the value's only occurrence: 3 (2 in fig3) is never read
    ("fig5a", "a:1 a:2 b:1 a:3 b:2"),
    ("fig1b", "req:1 ack:1 req:2 req:3 ack:2"),
    ("fig3", "req:1 ack:1 req:2 req:3 ack:3"),
    # local: 5 (4 in fig3) occurs once; 8 (1 in fig3) recurs and ends on a local write
    ("fig1a", "req:8 ack:8 req:4 req:5 ack:4"),
    ("fig1a", "req:8 ack:8 req:4 ack:4 req:8"),
    ("fig3", "req:1 ack:1 req:2 ack:1 ack:2"),
    ("fig3", "req:1 ack:2 ack:2 req:3 ack:4 ack:3"),
])
def test_simulate_erases_at_the_last_letter(request, name, text):
    assert_matches_reference_per_end_state(request.getfixturevalue(name), dw(text))


def seeded_automaton(seed: int, kinds, k: int) -> Automaton:
    """An automaton like those ``automata`` draws, from a seeded Random and with k registers."""
    rng = Random(seed)
    states = ["q0", "q1", "q2"]

    def move(source, kind):
        x = TransitionLabel(rng.choice(LABELS), RegisterOp(kind, rng.randint(1, k)))
        return Transition(source, x, rng.choice(states))

    transitions = {move(s, kind) for s in states for kind in kinds}
    transitions |= {move(rng.choice(states), rng.choice(kinds)) for _ in range(12)}
    return Automaton("h", frozenset(LABELS), k, frozenset(states), "q0",
                     frozenset(rng.sample(states, 2)), frozenset(transitions))


@pytest.mark.parametrize("kinds", [SESSION_OPS, REGISTER_OPS, FRESH_REGISTER_OPS],
                         ids=["session", "register", "fresh-register"])
def test_simulate_matches_unpruned_reference_k4(kinds):
    a = seeded_automaton(4, kinds, 4)
    rng = Random(2000)
    w = random_run_word(rng, a, 2000, pool=8)
    assert len(w) == 2000
    for x in (w, perturb(rng, w)):
        assert_matches_reference_per_end_state(a, x)


@settings(max_examples=10, deadline=None)
@given(a=automata(SESSION_OPS), rng=st.randoms(use_true_random=True), length=st.integers(1000, 3000))
def test_simulate_matches_canonical_path_on_long_words(a, rng, length):
    # Every fresh move takes a new value: many short sessions, too many values for the reference.
    w = random_run_word(rng, a, length)
    for x in (w, perturb(rng, w)):
        assert simulate(a, x) == canonicalize(a).accepts(snf(x))


def test_simulate_baseline_word_agrees_with_canonical_path(fig5a):
    # a:1 b:1 ... a:2000 b:2000; a search that keeps dead values needs seconds here.
    w = tuple(x for d in range(1, 2001) for x in (("a", d), ("b", d)))
    canonical = canonicalize(fig5a)
    assert simulate(fig5a, w) and canonical.accepts(snf(w))
    # b must reuse a held value, and 2001 never occurred.
    rejected = w[:-1] + (("b", 2001),)
    assert not simulate(fig5a, rejected) and not canonical.accepts(snf(rejected))


def test_classify(fig1a, fig1b, fig2b, fig3):
    assert classify(fig1a) is AutomatonClass.REGISTER
    assert classify(fig1b) is AutomatonClass.SESSION
    assert classify(fig2b) is AutomatonClass.SESSION
    assert classify(fig3) is AutomatonClass.FRESH_REGISTER


def test_classify_no_transitions():
    a = Automaton("t", frozenset({"a"}), 1, frozenset({"q0"}), "q0", frozenset({"q0"}), frozenset())
    assert classify(a) is AutomatonClass.SESSION


def test_validate_clean_fixture(fig1a, fig1b, fig2b, fig3, fig5a):
    for a in (fig1a, fig1b, fig2b, fig3, fig5a):
        assert validate(a) == []


def test_validate_diagnostics():
    a = Automaton(
        name="bad name",
        alphabet=frozenset({"a", "b c"}),
        registers=0,
        states=frozenset({"q0", "q 1"}),
        initial="nowhere",
        finals=frozenset({"ghost"}),
        transitions=frozenset(
            {
                Transition("q0", TransitionLabel("zzz", RegisterOp.fresh(1)), "q0"),
                Transition("q0", TransitionLabel("a", RegisterOp.fresh(5)), "gone"),
            }
        ),
    )
    issues = validate(a)
    prefixes = {msg.split(":")[0] for msg in issues}
    assert prefixes == {
        "BadName",
        "BadLabelToken",
        "BadStateToken",
        "RegistersNotPositive",
        "InitialNotAState",
        "FinalNotAState",
        "TransitionEndpointNotAState",
        "UnknownLabel",
        "RegisterOutOfRange",
    }


def test_validate_empty_states():
    a = Automaton("t", frozenset({"a"}), 1, frozenset(), "q0", frozenset(), frozenset())
    issues = validate(a)
    assert any(msg.startswith("NoStates") for msg in issues)


def test_determinism_predicates(fig2b, fig5a):
    # two fresh transitions with different registers from one state
    assert is_symbolically_deterministic(fig2b)
    assert not is_data_deterministic(fig2b)
    assert not is_data_deterministic(fig5a)


def test_data_deterministic_example(fig1b):
    # fig1b itself is not; from s0 two fresh ops on req race for the same value
    assert not is_data_deterministic(fig1b)
    pruned = Automaton(
        name="pruned",
        alphabet=fig1b.alphabet,
        registers=fig1b.registers,
        states=fig1b.states,
        initial=fig1b.initial,
        finals=fig1b.finals,
        transitions=frozenset(
            t for t in fig1b.transitions
            if not (t.source == "s0" and t.target == "s2")
        ),
    )
    assert is_data_deterministic(pruned)


def test_data_determinism_needs_session(fig1a):
    with pytest.raises(NotSessionAutomaton):
        is_data_deterministic(fig1a)


@pytest.mark.parametrize(
    "check",
    [require_session, as_symbolic_nfa, is_data_deterministic, nf_violation_witness,
     normal_form_table, canonicalize],
)
def test_session_checks_name_the_class(check, fig1a, fig3):
    for a in (fig1a, fig3):
        with pytest.raises(NotSessionAutomaton) as err:
            check(a)
        assert str(err.value) == f"{a.name} is not a session automaton (class {classify(a).value})"


def test_symbolic_nondeterminism():
    x = TransitionLabel("a", RegisterOp.fresh(1))
    a = Automaton(
        "t",
        frozenset({"a"}),
        1,
        frozenset({"q0", "q1"}),
        "q0",
        frozenset({"q1"}),
        frozenset({Transition("q0", x, "q0"), Transition("q0", x, "q1")}),
    )
    assert not is_symbolically_deterministic(a)


def test_accepts_symbolic(fig5a):
    assert accepts_symbolic(fig5a, sw("a:*1 b:^1"))
    assert accepts_symbolic(fig5a, sw("a:*1 a:*2 b:^2 b:^1"))
    # reads labels literally: the ill-formed b:^1 still has a path
    assert accepts_symbolic(fig5a, sw("b:^1"))
    # but a:^1 labels no transition at all
    assert not accepts_symbolic(fig5a, sw("a:^1"))
    assert accepts_symbolic(fig5a, ())


def test_accepts_symbolic_unknown_label(fig5a):
    # the same error simulate raises for a data letter with that label
    with pytest.raises(UnknownLabel, match="label 'z' is not in the alphabet of fig5a"):
        accepts_symbolic(fig5a, sw("z:*1"))
    with pytest.raises(UnknownLabel, match="label 'z' is not in the alphabet of fig5a"):
        simulate(fig5a, dw("z:1"))


def test_accepts_symbolic_needs_session(fig1a):
    with pytest.raises(NotSessionAutomaton):
        accepts_symbolic(fig1a, sw("req:*1"))
    # a failed view is not cached: asking again raises again
    for _ in range(2):
        with pytest.raises(NotSessionAutomaton):
            as_symbolic_nfa(fig1a)


def test_symbolic_view_is_read_only(fig5a):
    nfa = as_symbolic_nfa(fig5a)
    key = ("q", sw("a:*1")[0])
    assert key in nfa.delta
    with pytest.raises(AttributeError):
        nfa.delta.clear()
    with pytest.raises(TypeError):
        nfa.delta[key] = frozenset()
    with pytest.raises(AttributeError):
        nfa.delta[key].add("q")
    assert accepts_symbolic(fig5a, sw("a:*1 b:^1"))


def test_as_symbolic_nfa_matches_accepts_symbolic(fig2b, fig5a):
    rng = Random(203)
    for a in (fig2b, fig5a):
        nfa = as_symbolic_nfa(a)
        letters = sorted(nfa.alphabet, key=str)
        for _ in range(200):
            u = tuple(rng.choice(letters) for _ in range(rng.randint(0, 6)))
            assert nfa.accepts(u) == accepts_symbolic(a, u)


def test_as_symbolic_nfa_alphabet_covers_all_ops(fig5a):
    nfa = as_symbolic_nfa(fig5a)
    # every label with every fresh/reuse op up to k, even if unused
    assert len(nfa.alphabet) == len(fig5a.alphabet) * 2 * fig5a.registers


def test_from_symbolic_dfa_round_trip(fig5a):
    dfa = minimize(determinize(as_symbolic_nfa(fig5a)))
    back = from_symbolic_dfa(dfa, "again", fig5a.alphabet, fig5a.registers)
    assert validate(back) == []
    assert classify(back) is AutomatonClass.SESSION
    rng = Random(204)
    for _ in range(100):
        w = random_data_word(rng, max_len=6, max_value=3)
        assert simulate(back, w) == simulate(fig5a, w)
