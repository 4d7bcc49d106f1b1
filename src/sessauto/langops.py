"""Boolean and decision operations on session-automaton languages.

Two languages compare exactly like their sets of normal forms, snf(L).  So
inclusion, equivalence and universality over k-bounded words are
``symbolic.pair_search``es over two DFAs of such sets, explored only as far
as the shortlex-least symbolic witness and never minimized: ``snf_dfa`` of
an automaton, and for universality the normal-form DFA over no more
registers than the automaton's plus one, which has the same least witness
as the one over k.  The walk is deterministic, so its least accepting pair
carries the least word of the difference whichever DFAs of the two
languages are paired.  Inclusion and equivalence prune it up to congruence
(Bonchi & Pous, POPL 2013, see ``symbolic.symbolic_inclusion``): a pair of
subsets that the pairs expanded before it already relate is a leaf, so two
DFAs of one language are no longer explored in full, and the witness stays
the same.  That witness is a normal form, returned concretized: a genuine
separating data word.  Emptiness searches an
automaton's own ``symbolic_dfa`` with the well-formedness DFA.  intersect
and complement_bounded explore the same walk in full (``pair_table``) and
minimize it once: the minimal DFA is the same whichever DFAs are paired.
A DFA has no register bound; each operation gives its automaton its own.
"""

from __future__ import annotations

from .automata import Automaton, Transition, from_symbolic_dfa, require_session
from .canonical import nf_automaton, snf_dfa, symbolic_dfa, wf_automaton
from .symbolic import (
    ALONG_BOTH,
    ALONG_X,
    minimize,
    pair_search,
    pair_table,
    symbolic_equivalence,
    symbolic_inclusion,
)
from .words import DataWord, concretize


def intersect(a: Automaton, b: Automaton) -> Automaton:
    """Session automaton for L(a) & L(b), over min(k_a, k_b) registers.

    The product of the snf DFAs works because a data word lies in both
    languages exactly when its normal form does, and normal forms needing
    more than min(k_a, k_b) registers belong to neither set of normal forms.
    """
    k = min(a.registers, b.registers)
    x, y = snf_dfa(a), snf_dfa(b)
    dfa = minimize(pair_table(x, y, ALONG_BOTH,
                              lambda pair: pair[0] in x.finals and pair[1] in y.finals))
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
    dfa = minimize(pair_table(nf, y, ALONG_X,
                              lambda pair: pair[0] in nf.finals and pair[1] not in y.finals))
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
    language contains a well-formed word: one ``pair_search`` of its
    ``symbolic_dfa`` paired with wf, the well-formedness DFA, along the moves
    both make, finds the least.  Every state of wf is final.
    """
    require_session(a)
    x = symbolic_dfa(a)
    witness = pair_search(x, wf_automaton(a.registers, a.alphabet), ALONG_BOTH,
                          lambda pair: pair[0] in x.finals)
    return None if witness is None else concretize(witness)


def is_universal_bounded(a: Automaton, k: int) -> DataWord | None:
    """None when L(a) contains every k-bounded data word; otherwise a missing one: the least
    normal form over k registers outside snf(L(a)), found over min(k, m + 1), m = a.registers.

    Suppose the least word w of NF_k \\ snf(L(a)) wrote a register above
    m + 1.  A normal form writes register r + 1 only after r, so w writes
    m + 1 first; let u be the prefix of w that ends at that write, and v be
    u followed by one reuse of each register u still promises.  v is a
    normal form over m + 1 registers, and shorter than w: after u, w must
    still make those reuses, as only a reuse ends a promise, and the later
    write of a register above m + 1.  ``snf_dfa(a)`` has letters only up to
    register m, so it rejects v, which is then a shorter witness than the
    least one.  So the least witness, and whether there is one, is the same
    over NF_{min(k, m + 1)}, the normal forms of NF_k over those registers.
    At k = m this is the table ``nf_violation_witness`` reads for
    ``snf_dfa(a)``.
    """
    require_session(a)
    if k < 1:
        raise ValueError("universality needs a bound k >= 1")
    nf = nf_automaton(min(k, a.registers + 1), a.alphabet)
    witness = symbolic_inclusion(nf, snf_dfa(a))
    return None if witness is None else concretize(witness)
