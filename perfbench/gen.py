"""Seeded input generation: automata, and logs walked from specs.

Everything here is a pure function of its arguments, so one seed always gives
the same inputs.  Nothing here calls the package code that the benchmark
times, apart from the automaton constructors.
"""

from __future__ import annotations

from random import Random

from sessauto import Automaton, OpKind, RegisterOp, Transition, TransitionLabel

KINDS = (OpKind.FRESH, OpKind.REUSE)


def relabel(a: Automaton, tag: str) -> Automaton:
    """Same automaton over labels ``<label>_<tag>``.

    Suffixing keeps the label order, so the copy costs exactly as much as the
    original, but it is a new key for every cache in the package.
    """
    new = {x: f"{x}_{tag}" for x in a.alphabet}
    return Automaton(
        name=f"{a.name}_{tag}",
        alphabet=frozenset(new.values()),
        registers=a.registers,
        states=a.states,
        initial=a.initial,
        finals=a.finals,
        transitions=frozenset(
            Transition(t.source, TransitionLabel(new[t.label.label], t.label.op), t.target)
            for t in a.transitions
        ),
    )


def relabel_word(word, tag: str) -> tuple:
    """A data word over the labels of ``relabel(a, tag)``."""
    return tuple((f"{x}_{tag}", d) for x, d in word)


def permute(a: Automaton, rng: Random) -> Automaton:
    """A renamed copy: registers permuted and states renamed.

    Permuting registers keeps the data language, so the copy has the same
    canonical form and costs the same to decide or learn, while its text
    differs.  Labels stay: their order steers every search in the package,
    so swapping them changes costs.
    """
    registers = list(range(1, a.registers + 1))
    rng.shuffle(registers)
    reg = dict(zip(range(1, a.registers + 1), registers))
    names = sorted(a.states)
    rng.shuffle(names)
    state = {s: f"s{i}" for i, s in enumerate(names)}
    return Automaton(
        name=a.name,
        alphabet=a.alphabet,
        registers=a.registers,
        states=frozenset(state.values()),
        initial=state[a.initial],
        finals=frozenset(state[s] for s in a.finals),
        transitions=frozenset(
            Transition(state[t.source],
                       TransitionLabel(t.label.label, RegisterOp(t.label.op.kind, reg[t.label.op.register])),
                       state[t.target])
            for t in a.transitions
        ),
    )


def universal(k: int, labels=("a", "b")) -> Automaton:
    """One accepting state that reads every fresh/reuse letter: all k-bounded words."""
    return Automaton(
        name=f"univ{k}",
        alphabet=frozenset(labels),
        registers=k,
        states=frozenset({"u"}),
        initial="u",
        finals=frozenset({"u"}),
        transitions=frozenset(
            Transition("u", TransitionLabel(x, RegisterOp(kind, r)), "u")
            for x in labels for kind in KINDS for r in range(1, k + 1)
        ),
    )


def random_session_automaton(rng: Random, k: int, n: int, density: float,
                             name: str, labels=("a", "b")) -> Automaton:
    """Each state gets each fresh/reuse letter with probability ``density``."""
    states = [f"q{i}" for i in range(n)]
    transitions = set()
    for s in states:
        for x in labels:
            for kind in KINDS:
                for r in range(1, k + 1):
                    if rng.random() < density:
                        transitions.add(
                            Transition(s, TransitionLabel(x, RegisterOp(kind, r)), rng.choice(states))
                        )
    return Automaton(
        name=name,
        alphabet=frozenset(labels),
        registers=k,
        states=frozenset(states),
        initial="q0",
        finals=frozenset(s for s in states if rng.random() < 0.5),
        transitions=frozenset(transitions),
    )


def duplicate_state(a: Automaton, state: str) -> Automaton:
    """Split a state into nondeterministic twins; the language does not change."""
    twin = f"{state}_twin"
    extra = set()
    for t in a.transitions:
        if t.source == state:
            extra.add(Transition(twin, t.label, twin if t.target == state else t.target))
        if t.target == state:
            extra.add(Transition(t.source, t.label, twin))
    return Automaton(
        name=f"{a.name}_dup",
        alphabet=a.alphabet,
        registers=a.registers,
        states=a.states | {twin},
        initial=a.initial,
        finals=a.finals | ({twin} if state in a.finals else frozenset()),
        transitions=a.transitions | extra,
    )


def is_session(a: Automaton) -> bool:
    return all(t.label.op.kind is not OpKind.LOCAL for t in a.transitions)


class Walker:
    """Generates data words along runs of a spec, so accepted logs are runs by construction.

    A walk reuses only the value written last, once or twice, then writes a
    new one: sessions rarely overlap and most values die early.
    """

    def __init__(self, spec: Automaton):
        self.spec = spec
        self.moves: dict[str, list[tuple[str, OpKind, int, str]]] = {}
        for t in sorted(spec.transitions, key=lambda t: (t.source, t.label.label, t.label.op.kind.value,
                                                          t.label.op.register, t.target)):
            self.moves.setdefault(t.source, []).append(
                (t.label.label, t.label.op.kind, t.label.op.register, t.target))
        # Graph distance to an accepting state, ignoring data, steers the end of a walk.
        self.dist = {s: 0 for s in spec.finals}
        changed = True
        while changed:
            changed = False
            for t in spec.transitions:
                d = self.dist.get(t.target)
                if d is not None and self.dist.get(t.source, d + 2) > d + 1:
                    self.dist[t.source] = d + 1
                    changed = True

    def walk(self, rng: Random, length: int, accept: bool) -> tuple[list[tuple[str, int]], int]:
        """At least ``length`` letters; with ``accept`` the walk ends in an accepting state.

        Also returns the largest value used: values are 1, 2, ... in order of
        first occurrence, so every value up to it has been seen.
        """
        state = self.spec.initial
        regs = [None] * (self.spec.registers + 1)
        word: list[tuple[str, int]] = []
        next_value = 1
        latest, left = 0, 0
        while len(word) < length or (accept and state not in self.spec.finals):
            enabled = [m for m in self.moves.get(state, ()) if m[1] is not OpKind.REUSE or regs[m[2]] is not None]
            if not enabled:
                raise ValueError(f"walk of {self.spec.name} is stuck in {state}")
            if len(word) >= length:
                best = min(self.dist.get(m[3], 10**9) for m in enabled)
                enabled = [m for m in enabled if self.dist.get(m[3], 10**9) == best]
            writes = [m for m in enabled if m[1] is not OpKind.REUSE]
            mine = [m for m in enabled if m[1] is OpKind.REUSE and m[2] == latest]
            if left > 0 and mine:
                pool = mine
                left -= 1
            else:
                pool = writes or enabled
            label, kind, reg, target = rng.choice(pool)
            if kind is OpKind.REUSE:
                value = regs[reg]
            else:
                value = next_value
                next_value += 1
                regs[reg] = value
                latest, left = reg, rng.randint(1, 2)
            word.append((label, value))
            state = target
            if len(word) > length + 100:
                raise ValueError(f"walk of {self.spec.name} found no accepting state")
        return word, next_value - 1


def _label_kinds(spec: Automaton) -> dict[str, set[OpKind]]:
    kinds: dict[str, set[OpKind]] = {}
    for t in spec.transitions:
        kinds.setdefault(t.label.label, set()).add(t.label.op.kind)
    return kinds


def rejection_rules(spec: Automaton) -> list[str]:
    """Rules that make any log rejected, read off the spec's own transitions."""
    kinds = _label_kinds(spec)
    rules = []
    if any(ks == {OpKind.REUSE} for ks in kinds.values()):
        rules.append("reuse_unseen")
    if any(ks == {OpKind.FRESH} for ks in kinds.values()):
        rules.append("fresh_seen")
    if is_session(spec):
        rules.append("overlap_k_plus_1")
    return rules


def rejected_log(walker: Walker, rng: Random, length: int, rule: str) -> list[tuple[str, int]]:
    """A run prefix followed by letters that no run of the spec can read.

    reuse_unseen      a label that only reuses, carrying a value never seen:
                      a reuse reads a register, and registers hold seen values
    fresh_seen        a label that only writes fresh values, carrying a seen value
    overlap_k_plus_1  k+1 new values that are all read again, so k+1 sessions
                      overlap; a session automaton with k registers accepts only
                      k-bounded words
    """
    spec = walker.spec
    k = spec.registers
    tail = 2 * (k + 1) if rule == "overlap_k_plus_1" else 1
    prefix, top = walker.walk(rng, max(length - tail, 0), accept=False)
    kinds = _label_kinds(spec)
    if rule == "reuse_unseen":
        label = rng.choice(sorted(x for x, ks in kinds.items() if ks == {OpKind.REUSE}))
        return prefix + [(label, top + 1)]
    if rule == "fresh_seen":
        label = rng.choice(sorted(x for x, ks in kinds.items() if ks == {OpKind.FRESH}))
        if not top:
            prefix, top = prefix + [(label, 1)], 1
        return prefix + [(label, rng.randint(1, top))]
    labels = sorted(spec.alphabet)
    fresh = list(range(top + 1, top + k + 2))
    return prefix + [(rng.choice(labels), v) for v in fresh] + [(rng.choice(labels), v) for v in fresh]
