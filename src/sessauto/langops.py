"""Boolean and decision operations on session-automaton languages.

Decisions go through canonical forms: two languages compare exactly like
their sets of normal forms, so inclusion, equivalence and universality over
k-bounded words are early-exit searches over a pair of canonical DFAs, which
stop at the shortlex-least symbolic witness.  That witness is a normal form,
and it is returned concretized: a genuine separating data word.  The boolean
operations that return automata, intersect and complement_bounded, are one
``subset_construction`` over pairs of states of two int tables, minimized.
"""

from __future__ import annotations

from .automata import Automaton, Transition, from_symbolic_dfa, require_session
from .canonical import canonicalize, nf_automaton, wf_automaton
from .symbolic import (
    SymbolicDfa,
    minimize,
    shortlex_search,
    subset_construction,
    symbolic_equivalence,
    symbolic_inclusion,
)
from .words import DataWord, concretize, letter_key


def _pair_table(x: SymbolicDfa, y: SymbolicDfa, accepting, alphabet) -> SymbolicDfa:
    """Minimal DFA over the pairs (state of x, state of y or -1) reached along the moves of x.

    y follows each move of x, to -1 where it has none; -1 has no moves.
    ``accepting(s, t)`` tells the final pairs, and letters are indexed in
    the given alphabet, which holds those of x.
    """
    index = {letter: i for i, letter in enumerate(sorted(alphabet, key=letter_key))}
    # Per letter of x: its index in the alphabet and its column in y, or None.
    columns = [(index[letter], y.column(letter)) for letter in x.letters]
    rows_y = y.rows + ((-1,) * len(y.letters),)

    def successors(pair):
        s, t = pair
        return [(i, (s2, -1 if c is None else rows_y[t][c]))
                for (i, c), s2 in zip(columns, x.rows[s]) if s2 >= 0]

    return minimize(subset_construction((0, 0), successors, lambda pair: accepting(*pair),
                                        alphabet, max(x.registers, y.registers)))


def intersect(a: Automaton, b: Automaton) -> Automaton:
    """Session automaton for L(a) & L(b), over min(k_a, k_b) registers.

    The product of the canonical DFAs works because a data word lies in both
    languages exactly when its normal form does, and normal forms needing
    more than min(k_a, k_b) registers belong to neither canonical language.
    """
    require_session(a, b)
    k = min(a.registers, b.registers)
    x, y = canonicalize(a), canonicalize(b)
    dfa = _pair_table(x, y, lambda s, t: s in x.finals and t in y.finals, x.alphabet | y.alphabet)
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

    Complementing the canonical DFA alone is not enough: the raw complement
    also accepts well-formed words that are not normal forms, and their
    concretizations can lie inside L(a).  Intersecting with the normal-form
    language keeps exactly one symbolic word per excluded data word: the
    pairs of the normal-form DFA and the canonical DFA (-1 past its moves)
    where the first accepts and the second does not.
    """
    require_session(a)
    k = a.registers
    nf, can = nf_automaton(k, a.alphabet), canonicalize(a)
    dfa = _pair_table(nf, can, lambda n, c: n in nf.finals and c not in can.finals, nf.alphabet)
    return from_symbolic_dfa(dfa, f"not_{a.name}", a.alphabet, k)


def includes(a: Automaton, b: Automaton) -> DataWord | None:
    """None when L(a) is a subset of L(b); otherwise a data word in L(a) \\ L(b)."""
    require_session(a, b)
    witness = symbolic_inclusion(canonicalize(a), canonicalize(b))
    return None if witness is None else concretize(witness)


def equivalent(a: Automaton, b: Automaton) -> DataWord | None:
    """None when L(a) = L(b); otherwise a shortest data word in the symmetric difference."""
    require_session(a, b)
    witness = symbolic_equivalence(canonicalize(a), canonicalize(b))
    return None if witness is None else concretize(witness)


def is_empty(a: Automaton) -> DataWord | None:
    """None when L(a) is empty; otherwise an accepted data word.

    A session automaton accepts some data word exactly when its symbolic
    language contains a well-formed word: one ``shortlex_search`` over pairs
    (state of a, state of the well-formedness DFA, all final) finds the least.
    """
    require_session(a)
    wf = wf_automaton(a.registers, a.alphabet)
    # Per state of a: (letter, its column in wf, target) for the letters wf reads.
    moves: dict[str, list] = {}
    for q, x, q2 in a.transitions:
        if (i := wf.column(x)) is not None:
            moves.setdefault(q, []).append((x, i, q2))

    def successors(pair):
        q, w = pair
        return [(x, (q2, w2)) for x, i, q2 in moves.get(q, ()) if (w2 := wf.rows[w][i]) >= 0]

    witness = shortlex_search([(a.initial, wf.initial)], successors,
                              lambda pair: pair[0] in a.finals)
    return None if witness is None else concretize(witness)


def is_universal_bounded(a: Automaton, k: int) -> DataWord | None:
    """None when L(a) contains every k-bounded data word; otherwise a missing one."""
    require_session(a)
    if k < 1:
        raise ValueError("universality needs a bound k >= 1")
    witness = symbolic_inclusion(nf_automaton(k, a.alphabet), canonicalize(a))
    return None if witness is None else concretize(witness)
