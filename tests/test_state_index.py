"""An automaton's states are numbered once, and how they are named changes no result.

Every reader of an automaton's moves reads its ``state_index``, which numbers
the states in sorted-name order.  A copy whose names sort the other way round
gets the opposite numbering, and must still give the same answers, witnesses
and tables, numbering and all.
"""

import pickle
from random import Random

import pytest
from hypothesis import given, settings

from helpers import dw, fixture, perturb, random_data_word, random_run_word, universal
from sessauto import (
    Automaton,
    AutomatonClass,
    NotSessionAutomaton,
    Transition,
    accepts_symbolic,
    canonicalize,
    classify,
    equivalent,
    includes,
    is_data_deterministic,
    is_empty,
    nf_violation_witness,
    simulate,
    snf,
)
from sessauto import automata as automata_module
from sessauto.canonical import normal_form_table, snf_dfa, tilde
from test_automata import SESSION_OPS, automata
from test_canonical import NAMED

SMALL_NAMED = [a for a in NAMED if a.name != "univ5"]


def reversed_names(a: Automaton) -> Automaton:
    """A copy of ``a`` whose state names sort in the reverse order of its own."""
    order = sorted(a.states)
    width = len(str(len(order)))
    rename = {q: f"r{len(order) - 1 - i:0{width}d}" for i, q in enumerate(order)}
    return Automaton(
        name=a.name,
        alphabet=a.alphabet,
        registers=a.registers,
        states=frozenset(rename.values()),
        initial=rename[a.initial],
        finals=frozenset(rename[q] for q in a.finals),
        transitions=frozenset(Transition(rename[s], x, rename[t]) for s, x, t in a.transitions),
    )


def assert_names_do_not_matter(a: Automaton, seed: int) -> None:
    b = reversed_names(a)
    assert b.state_index.initial == len(a.states) - 1 - a.state_index.initial
    rng = Random(seed)
    labels = sorted(a.alphabet)
    for _ in range(30):
        w = random_run_word(rng, a, rng.randint(0, 8), pool=4)
        for word in (w, perturb(rng, w), random_data_word(rng, labels, max_len=6)):
            assert simulate(b, word) == simulate(a, word)
    assert nf_violation_witness(b) == nf_violation_witness(a)
    assert is_empty(b) == is_empty(a)
    assert snf_dfa(b).table() == snf_dfa(a).table()
    assert normal_form_table(b).table() == normal_form_table(a).table()
    assert canonicalize(b) == canonicalize(a)
    assert includes(a, b) is None and includes(b, a) is None and equivalent(b, a) is None
    u = universal(a.registers, labels)
    assert includes(u, b) == includes(u, a)
    assert equivalent(b, u) == equivalent(a, u)


@pytest.mark.parametrize("a", SMALL_NAMED, ids=[a.name for a in SMALL_NAMED])
def test_state_names_do_not_matter_on_named_automata(a):
    assert_names_do_not_matter(a, 19)


@settings(max_examples=40, deadline=None)
@given(a=automata(SESSION_OPS))
def test_state_names_do_not_matter(a):
    assert_names_do_not_matter(a, 23)


@pytest.mark.parametrize("name", ["fig5a", "fig2b", "tickets3"])
def test_an_automaton_is_indexed_once(monkeypatch, name):
    calls = []
    index_states = automata_module.index_states

    def counting(*parts):
        calls.append(parts)
        return index_states(*parts)

    monkeypatch.setattr(automata_module, "index_states", counting)
    a = fixture(name)  # a new object, with nothing cached on it
    word = random_run_word(Random(7), a, 6)
    simulate(a, word)
    accepts_symbolic(a, snf(word))
    is_data_deterministic(a)
    nf_violation_witness(a)
    is_empty(a)
    snf_dfa(a).table()
    normal_form_table(a).table()
    tilde(a)
    assert len(calls) == 1


def test_the_index_is_read_only(fig5a):
    index = fig5a.state_index
    assert fig5a.state_index is index
    with pytest.raises(TypeError):
        index.by_label["a"] = ()
    with pytest.raises(AttributeError):
        index.moves[0].append(None)


def test_a_used_automaton_still_pickles():
    a = fixture("fig5a")
    simulate(a, dw("a:1 b:1"))  # builds the index and its moves by label
    copy = pickle.loads(pickle.dumps(a))
    assert copy == a and copy.state_index == a.state_index
    assert copy.state_index.by_label == a.state_index.by_label



class CountingSet(frozenset):
    """A frozenset that counts the loops over it."""

    def __iter__(self):
        self.loops.append(None)
        return super().__iter__()


def test_the_session_class_and_the_witness_are_read_once():
    fig2b = fixture("fig2b")
    transitions = CountingSet(fig2b.transitions)
    transitions.loops = []
    a = Automaton(fig2b.name, fig2b.alphabet, fig2b.registers, fig2b.states, fig2b.initial,
                  fig2b.finals, transitions)
    for _ in range(3):
        assert classify(a) is AutomatonClass.SESSION
    assert len(transitions.loops) == 1
    witnesses = [nf_violation_witness(a) for _ in range(3)]
    assert witnesses[0] is not None and all(w is witnesses[0] for w in witnesses)
    assert len(transitions.loops) == 2  # the class, then the state index the walk reads
    register = fixture("fig1a")
    for _ in range(2):
        with pytest.raises(NotSessionAutomaton, match="fig1a is not a session automaton"):
            nf_violation_witness(register)
    nf_violation_witness(fig2b)  # a used automaton pickles with what it cached
    copy = pickle.loads(pickle.dumps(fig2b))
    assert copy == fig2b and classify(copy) is AutomatonClass.SESSION
    assert nf_violation_witness(copy) == witnesses[0]
