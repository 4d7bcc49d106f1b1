"""Bisimulation up to congruence: the node filter of inclusion and equivalence.

Bonchi & Pous, "Checking NFA equivalence with bisimulations up to
congruence" (POPL 2013), for the pair walk of ``symbolic.pair_search``.  A
state of either DFA is a set of members: a ``SubsetDfa`` node is its guard
state and member bitset, a table's state s is the singleton 1 << s under
guard 0, and -1, no state, is the empty set under guard -1.  Its language
is its guard state's intersected with the union of its members', a union
homomorphism of the set under fixed guard states, so the walk's pairs are
grouped by their guard states.

The closure Z↓ of a set Z under the pairs (L, R) of a group expanded so far
adds R once L ⊆ Z, and L once R ⊆ Z.  Equivalence expands (X, Y), and
prunes it when X ⊆ Y↓ and Y ⊆ X↓: X and Y are then related by the
congruence closure of the expanded pairs.  Inclusion expands (X ∪ Y, Y),
and prunes it when X ⊆ Y↓, which is X ∪ Y ~ Y; as a rule's first side holds
its second, only its second side opens it.  This holds with the subset
reductions ``canonical._maximal`` and ``_trim`` in place, as both keep each
subset's language, and ``symbolic.symbolic_inclusion`` proves that the
witness stays the same.  The antichain pruning of De Wulf, Doyen, Henzinger
& Raskin (CAV 2006) is the case of one rule.

The module knows nothing of DFAs: the walk hands it each side's states as
(guard states, member bitsets) by state, or None for a table.
"""

from __future__ import annotations


def _closes(opens, z: list[int], goal: tuple[int, int]) -> bool:
    """Whether the closure of a set under some rules holds ``goal``.  A set is [x members, y
    members], and ``opens[side]`` maps the bit of a member to the rules (side, need, give) whose
    need has it lowest, 0 for an empty need: such a rule adds give to the other side once its
    side holds need.  A worklist: each member opens its rules when the set first holds it, and
    an opened rule is tried again each time the set grows, until it fires."""
    new, waiting = list(z), [*opens[0].get(0, ()), *opens[1].get(0, ())]
    while True:
        for side in (0, 1):
            by_member, bits = opens[side], new[side]
            while bits:
                low = bits & -bits
                bits ^= low
                waiting += by_member.get(low, ())
        new, left = [0, 0], []
        for rule in waiting:
            side, need, give = rule
            if need & ~z[side]:
                left.append(rule)
            else:
                other = 1 - side
                new[other] |= give & ~z[other]
                z[other] |= give
        if not (goal[0] & ~z[0] or goal[1] & ~z[1]):
            return True
        if not (new[0] or new[1]):
            return False
        waiting = left


class _Rules:
    """The expanded pairs (X, Y) under one pair of guard states, as rules: ``given`` holds the
    members some rule can add to each side, and ``opens()`` the rules by side and member (see
    ``_closes``), indexed when first asked for."""

    __slots__ = ("given", "pairs", "_opens", "_opened", "_inclusion")

    def __init__(self, inclusion: bool):
        # Inclusion asks only whether X joins a closure of Y, so every y member counts as given.
        self.given, self.pairs, self._inclusion = [0, -1 if inclusion else 0], [], inclusion
        self._opens: tuple[dict, dict] = ({}, {})
        self._opened = 0  # the pairs ``_opens`` holds

    def add(self, xs: int, ys: int) -> None:
        given = self.given
        given[0] |= xs
        given[1] |= ys
        self.pairs.append((xs, ys))

    def opens(self) -> tuple[dict, dict]:
        by_x, by_y = self._opens
        for xs, ys in self.pairs[self._opened:]:
            by_y.setdefault(ys & -ys, []).append((1, ys, xs))
            if not self._inclusion:
                by_x.setdefault(xs & -xs, []).append((0, xs, ys))
        self._opened = len(self.pairs)
        return self._opens


def up_to_congruence(nodes_x, nodes_y, inclusion: bool):
    """The filter of a walk of inclusion or equivalence: a function that tells whether to prune
    a pair (s, t), asked in the order the walk expands its pairs.  ``nodes_x`` and ``nodes_y``
    hold each side's guard states and member bitsets by state, None for a table.

    A pair of two sets of at most one member each, the only pairs of two deterministic sides
    (the learner's hypothesis against the canonical DFA, the normal-form check of a
    deterministic hypothesis), is expanded untested: it costs a lookup.  The rules take such
    pairs in when a pair is next tested.
    """
    gx_of, sx = nodes_x or (None, None)
    gy_of, sy = nodes_y or (None, None)
    rules: dict[tuple[int, int], _Rules] = {}  # by guard states
    untested: list[tuple[int, int]] = []  # the pairs expanded untested since the last test

    def sets(s: int, t: int) -> tuple[tuple[int, int], int, int]:
        # The pair's guard states and sets.  -1, no state, is the empty set under guard -1.
        gx, xs = (-1, 0) if s < 0 else (0, 1 << s) if sx is None else (gx_of[s], sx[s])
        gy, ys = (-1, 0) if t < 0 else (0, 1 << t) if sy is None else (gy_of[t], sy[t])
        return (gx, gy), xs, ys

    def rules_of(guards: tuple[int, int]) -> _Rules:
        group = rules.get(guards)
        if group is None:
            group = rules[guards] = _Rules(inclusion)
        return group

    def prune(pair: tuple[int, int]) -> bool:
        s, t = pair
        xs = sx[s] if sx and s >= 0 else 0  # a table's states are singletons: 0 stands for them
        ys = sy[t] if sy and t >= 0 else 0
        if not (xs & xs - 1 or ys & ys - 1):
            untested.append(pair)
            return False
        for s2, t2 in untested:
            guards, xs, ys = sets(s2, t2)
            rules_of(guards).add(xs, ys)
        untested.clear()
        guards, xs, ys = sets(s, t)
        group = rules_of(guards)
        # A member no rule gives joins no closure: one test rules most pairs out.
        if not (xs & ~group.given[0] or ys & ~group.given[1]):
            opens = group.opens()
            if _closes(opens, [0, ys], (xs, 0)) and (
                    inclusion or _closes(opens, [xs, 0], (0, ys))):
                return True
        group.add(xs, ys)  # expanded: a rule for the pairs after it
        return False

    return prune
