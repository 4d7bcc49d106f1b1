"""Boolean and decision operations on session-automaton languages.

Two languages compare exactly like their sets of normal forms, snf(L).  So
inclusion, equivalence and universality over k-bounded words are early-exit
searches over pairs of states of two DFAs of such sets, which stop at the
shortlex-least symbolic witness.  Neither DFA is minimized, and each is
explored only as far as the search goes: ``snf_dfa`` of an automaton, and
for universality the normal-form DFA, whose 2^k states are computed by
arithmetic as they are reached.  Both DFAs are deterministic, so the least
accepting pair carries the least word of the difference, whichever DFAs
of the two languages are paired.  That witness is a normal form, and it is
returned concretized: a genuine separating data word.  The boolean
operations that return automata, intersect and complement_bounded, are one
``subset_construction`` over pairs of states of two snf tables (or of the
normal-form DFA and one), minimized once, at the end: the minimal DFA is
the same whichever DFAs of the languages are paired.  All of them, and
emptiness, walk ``symbolic.paired_moves``.
"""

from __future__ import annotations

from .automata import Automaton, Transition, from_symbolic_dfa, require_session
from .canonical import lazy_nf_automaton, nf_automaton, snf_dfa, wf_automaton
from .symbolic import (
    SymbolicDfa,
    minimize,
    paired_moves,
    shortlex_search,
    subset_construction,
    symbolic_equivalence,
    symbolic_inclusion,
)
from .words import DataWord, concretize


def _pair_table(x, y, along: str, accepting) -> SymbolicDfa:
    """Minimal DFA, over the letters of x, of ``paired_moves(x, y, along)`` with finals ``accepting``."""
    return minimize(subset_construction(
        (0, 0), paired_moves(x, y, along, columns=True),
        lambda pair: accepting(*pair), x.alphabet, max(x.registers, y.registers)))


def intersect(a: Automaton, b: Automaton) -> Automaton:
    """Session automaton for L(a) & L(b), over min(k_a, k_b) registers.

    The product of the snf DFAs works because a data word lies in both
    languages exactly when its normal form does, and normal forms needing
    more than min(k_a, k_b) registers belong to neither set of normal forms.
    """
    k = min(a.registers, b.registers)
    x, y = snf_dfa(a), snf_dfa(b)
    dfa = _pair_table(x, y, "both", lambda s, t: s in x.finals and t in y.finals)
    return from_symbolic_dfa(dfa, f"{a.name}_and_{b.name}", a.alphabet | b.alphabet, k)


def union(a: Automaton, b: Automaton) -> Automaton:
    """Session automaton for L(a) | L(b): disjoint copies behind a fresh initial state."""
    require_session(a, b)
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

    Complementing the snf DFA alone is not enough: the raw complement also
    accepts well-formed words that are not normal forms, and their
    concretizations can lie inside L(a).  Intersecting with the normal-form
    language keeps exactly one symbolic word per excluded data word: the
    pairs of the normal-form DFA and the snf DFA (-1 past its moves) where
    the first accepts and the second does not.
    """
    k = a.registers
    nf, y = nf_automaton(k, a.alphabet), snf_dfa(a)
    dfa = _pair_table(nf, y, "x", lambda n, t: n in nf.finals and t not in y.finals)
    return from_symbolic_dfa(dfa, f"not_{a.name}", a.alphabet, k)


def includes(a: Automaton, b: Automaton) -> DataWord | None:
    """None when L(a) is a subset of L(b); otherwise a data word in L(a) \\ L(b)."""
    witness = symbolic_inclusion(snf_dfa(a), snf_dfa(b))
    return None if witness is None else concretize(witness)


def equivalent(a: Automaton, b: Automaton) -> DataWord | None:
    """None when L(a) = L(b); otherwise a shortest data word in the symmetric difference."""
    witness = symbolic_equivalence(snf_dfa(a), snf_dfa(b))
    return None if witness is None else concretize(witness)


def is_empty(a: Automaton) -> DataWord | None:
    """None when L(a) is empty; otherwise an accepted data word.

    A session automaton accepts some data word exactly when its symbolic
    language contains a well-formed word: one ``shortlex_search`` over
    ``paired_moves(a, wf, "both")``, wf the well-formedness DFA, finds the
    least.  It follows only the moves wf can follow, and every state of wf
    is final.
    """
    require_session(a)
    index = a.state_index
    wf = wf_automaton(a.registers, a.alphabet)
    witness = shortlex_search([(index.initial, wf.initial)], paired_moves(index, wf, "both"),
                              lambda pair: pair[0] in index.finals)
    return None if witness is None else concretize(witness)


def is_universal_bounded(a: Automaton, k: int) -> DataWord | None:
    """None when L(a) contains every k-bounded data word; otherwise a missing one.

    The normal-form DFA over k registers, which has 2^k states, is walked
    lazily: the search computes only the states it reaches before the
    witness, never the whole DFA.
    """
    require_session(a)
    if k < 1:
        raise ValueError("universality needs a bound k >= 1")
    witness = symbolic_inclusion(lazy_nf_automaton(k, a.alphabet), snf_dfa(a))
    return None if witness is None else concretize(witness)
