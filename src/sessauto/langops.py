"""Boolean and decision operations on session-automaton languages.

Decisions go through canonical forms: two languages compare exactly like
their sets of normal forms, so inclusion, equivalence and universality over
k-bounded words are early-exit searches over a pair of canonical DFAs, which
stop at the shortlex-least symbolic witness.  That witness is a normal form,
and it is returned concretized: a genuine separating data word.
"""

from __future__ import annotations

from .automata import Automaton, AutomatonClass, Transition, classify, from_symbolic_dfa
from .canonical import canonicalize, nf_automaton, wf_automaton
from .errors import NotSessionAutomaton
from .symbolic import (
    complement,
    determinize_table,
    moves_by_source,
    product,
    shortlex_search,
    symbolic_equivalence,
    symbolic_inclusion,
)
from .words import DataWord, concretize, symbolic_alphabet


def _require_session(*automata: Automaton) -> None:
    for a in automata:
        if classify(a) is not AutomatonClass.SESSION:
            raise NotSessionAutomaton(
                f"{a.name} is not a session automaton (class {classify(a).value})"
            )


def intersect(a: Automaton, b: Automaton) -> Automaton:
    """Session automaton for L(a) & L(b), over min(k_a, k_b) registers.

    The product of the canonical DFAs works because a data word lies in both
    languages exactly when its normal form does, and normal forms needing
    more than min(k_a, k_b) registers belong to neither canonical language.
    """
    _require_session(a, b)
    k = min(a.registers, b.registers)
    dfa = determinize_table(product(canonicalize(a), canonicalize(b))).minimal()
    return from_symbolic_dfa(dfa, f"{a.name}_and_{b.name}", a.alphabet | b.alphabet, k)


def union(a: Automaton, b: Automaton) -> Automaton:
    """Session automaton for L(a) | L(b): disjoint copies behind a fresh initial state."""
    _require_session(a, b)
    left = {s: f"__a_{s}" for s in a.states}
    right = {s: f"__b_{s}" for s in b.states}
    initial = "__init"
    transitions = set()
    for t in a.transitions:
        transitions.add(Transition(left[t.source], t.label, left[t.target]))
        if t.source == a.initial:
            transitions.add(Transition(initial, t.label, left[t.target]))
    for t in b.transitions:
        transitions.add(Transition(right[t.source], t.label, right[t.target]))
        if t.source == b.initial:
            transitions.add(Transition(initial, t.label, right[t.target]))
    finals = {left[s] for s in a.finals} | {right[s] for s in b.finals}
    if a.initial in a.finals or b.initial in b.finals:
        finals.add(initial)
    return Automaton(
        name=f"{a.name}_or_{b.name}",
        alphabet=a.alphabet | b.alphabet,
        registers=max(a.registers, b.registers),
        states=frozenset(left.values()) | frozenset(right.values()) | {initial},
        initial=initial,
        finals=frozenset(finals),
        transitions=frozenset(transitions),
    )


def complement_bounded(a: Automaton) -> Automaton:
    """Session automaton for the k-bounded words outside L(a), k = a.registers.

    Complementing the canonical DFA alone is not enough: the raw complement
    also accepts well-formed words that are not normal forms, and their
    concretizations can lie inside L(a).  Intersecting with the normal-form
    language keeps exactly one symbolic word per excluded data word.
    """
    _require_session(a)
    k = a.registers
    alpha = symbolic_alphabet(a.alphabet, k)
    outside = complement(canonicalize(a), alpha)
    dfa = determinize_table(product(nf_automaton(k, a.alphabet), outside)).minimal()
    return from_symbolic_dfa(dfa, f"not_{a.name}", a.alphabet, k)


def includes(a: Automaton, b: Automaton) -> DataWord | None:
    """None when L(a) is a subset of L(b); otherwise a data word in L(a) \\ L(b)."""
    _require_session(a, b)
    witness = symbolic_inclusion(canonicalize(a), canonicalize(b))
    return None if witness is None else concretize(witness)


def equivalent(a: Automaton, b: Automaton) -> DataWord | None:
    """None when L(a) = L(b); otherwise a shortest data word in the symmetric difference."""
    _require_session(a, b)
    witness = symbolic_equivalence(canonicalize(a), canonicalize(b))
    return None if witness is None else concretize(witness)


def is_empty(a: Automaton) -> DataWord | None:
    """None when L(a) is empty; otherwise an accepted data word.

    A session automaton accepts some data word exactly when its symbolic
    language contains a well-formed word: one ``shortlex_search`` over pairs
    (state of a, state of the well-formedness DFA, all final) finds the least.
    """
    _require_session(a)
    wf = wf_automaton(a.registers, a.alphabet)
    moves = moves_by_source(a.transitions)

    def successors(pair):
        q, w = pair
        return [(x, (q2, w2)) for x, q2 in moves.get(q, ())
                if (w2 := wf.delta.get((w, x))) is not None]

    witness = shortlex_search([(a.initial, wf.initial)], successors,
                              lambda pair: pair[0] in a.finals)
    return None if witness is None else concretize(witness)


def is_universal_bounded(a: Automaton, k: int) -> DataWord | None:
    """None when L(a) contains every k-bounded data word; otherwise a missing one."""
    _require_session(a)
    if k < 1:
        raise ValueError("universality needs a bound k >= 1")
    witness = symbolic_inclusion(nf_automaton(k, a.alphabet), canonicalize(a))
    return None if witness is None else concretize(witness)
