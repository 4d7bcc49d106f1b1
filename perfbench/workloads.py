"""The three workloads: how inputs are built, what one op is, and how it is checked.

A workload builds its ops in rounds.  ``Workload.build(seed, r, tag)`` is a
pure function of the seed and round number; ``tag`` only renames labels, so
the same round can be built twice with no cache in the package shared between
the copies.  Each op has ``run()``, the timed call into the package, and
``check(result)``, the untimed comparison with an oracle.  Ops call the
package through ``sessauto.<name>`` at call time, so tracing sees them.
"""

from __future__ import annotations

import time
from pathlib import Path
from random import Random

import sessauto as S
from sessauto.canonical import canonicalize as _canonicalize, nf_automaton as _nf_automaton

import gen
import oracle

SPECS = Path(__file__).resolve().parent / "specs"

# Spec -> log lengths.  On sequential logs ``simulate`` keeps k-1 dead register
# contents per configuration, so its cost grows like n**k: the k=3 spec gets
# shorter logs to keep each op within seconds.
LOG_SPECS = {
    "fig5a": (200, 400, 800, 1600),
    "fig1b": (200, 400, 800, 1600),
    "fig2b": (200, 400, 800, 1600),
    "tickets3": (16, 32, 64, 128),
    "fig1a": (200, 400, 800, 1600),
    "fig3": (200, 400, 800, 1600),
}

DECIDE_OPS = ("equivalent", "includes_ab", "includes_ba", "intersect", "complement",
              "is_empty", "is_universal")
BRUTE_LENGTH = 4
LEARN_CANONICAL_STATES = (8, 16)
LEARN_SAMPLE = 40
# Odd, so that the median op of a round is one target's, not the gap between two.
LEARN_TARGETS = 11


def cache_counters() -> dict:
    """Hits and misses of the package's memo caches, where it exposes them."""
    out = {}
    for name, fn in (("canonicalize", _canonicalize), ("nf_automaton", _nf_automaton)):
        info = fn.cache_info() if hasattr(fn, "cache_info") else None
        out[name] = (info.hits, info.misses) if info else (0, 0)
    return out


def load_spec(name: str):
    return S.parse_automaton((SPECS / f"{name}.sra").read_text(encoding="utf-8"))


class Round:
    """The ops of one round plus the input properties measured while building it."""

    def __init__(self, ops, props):
        self.ops = ops
        self.props = props


# --- logs ---------------------------------------------------------------------------

class LogOp:
    kind = "log"

    def __init__(self, spec, text, letters, accept, rule):
        self.spec = spec
        self.session = gen.is_session(spec)
        self.text = text
        self.letters = letters
        self.accept = accept
        self.rule = rule

    def run(self):
        word = S.parse_data_word(self.text)
        b = S.bound(word)
        member = S.simulate(self.spec, word)
        canonical = S.canonicalize(self.spec).accepts(S.snf(word)) if self.session else None
        return len(word), b, member, canonical

    def check(self, result) -> str | None:
        length, b, member, canonical = result
        if length != len(self.letters):
            return f"parsed {length} letters of {len(self.letters)}"
        if b != oracle.session_bound(self.letters):
            return f"bound {b}, sweep says {oracle.session_bound(self.letters)}"
        if member != self.accept:
            return f"simulate says {member} on a log built to be {self.accept} ({self.rule})"
        if self.session and canonical != self.accept:
            return f"canonical path says {canonical} on a log built to be {self.accept}"
        return None

    def facts(self, result) -> dict:
        return {}


def build_logs(seed: int, r: int, tag: str) -> Round:
    specs = {}
    for name in LOG_SPECS:
        spec = gen.relabel(load_spec(name), tag)
        if gen.is_session(spec):
            S.canonicalize(spec)  # canonical form built before timing, as a checker would
        specs[name] = (spec, gen.Walker(spec), gen.rejection_rules(spec))
    # Every spec at every length, half of them accepted.  The logs depend on
    # the seed only: every round checks the same logs, under new labels.
    plan = [(name, length, (i + j) % 2 == 0)
            for i, (name, lengths) in enumerate(LOG_SPECS.items()) for j, length in enumerate(lengths)]
    ops, below_k = [], 0
    for i, (name, length, accept) in enumerate(plan):
        spec, walker, rules = specs[name]
        rng = Random(f"logs:{seed}:{i}")
        if accept:
            rule = "run"
            letters, _ = walker.walk(rng, length, accept=True)
        else:
            rule = rules[i % len(rules)]
            letters = gen.rejected_log(walker, rng, length, rule)
        text = " ".join(f"{a}:{d}" for a, d in letters)
        below_k += oracle.session_bound(letters) < spec.registers
        ops.append(LogOp(spec, text, tuple(letters), accept, rule))
    props = {
        "letters_per_log": sum(len(op.letters) for op in ops) / len(ops),
        "bound_below_k_share": below_k / len(ops),
    }
    return Round(ops, props)


# --- decide -------------------------------------------------------------------------

class DecideCase:
    """Two automata put through every decision.

    Their memberships on every word class up to BRUTE_LENGTH are computed
    once, untimed, and serve the checks of every op of the case.
    """

    def __init__(self, name, a, b):
        self.name = name
        self.automata = (a, b)
        self._vectors = None
        self.words = None

    def vectors(self):
        if self._vectors is None:
            self.words = oracle.word_classes(self.automata[0].alphabet | self.automata[1].alphabet,
                                             BRUTE_LENGTH)
            self._vectors = [oracle.memberships(x, self.words) for x in self.automata]
        return self._vectors


class DecideOp:
    """One decision on the case's automata, relabelled under the op's own tag.

    No op shares a canonical form or normal-form automaton with another, so
    each pays for its own canonicalization, as a CLI call would.
    """

    kind = "decide"

    def __init__(self, case: DecideCase, op: str, tag: str):
        self.case = case
        self.op = op
        self.tag = tag
        self.automata = tuple(gen.relabel(x, tag) for x in case.automata)

    def run(self):
        a, b = self.automata
        op = self.op
        if op == "equivalent":
            return S.equivalent(a, b)
        if op == "includes_ab":
            return S.includes(a, b)
        if op == "includes_ba":
            return S.includes(b, a)
        if op == "intersect":
            return S.intersect(a, b)
        if op == "complement":
            return S.complement_bounded(a)
        if op == "is_empty":
            return S.is_empty(a)
        return S.is_universal_bounded(a, a.registers)

    def check(self, result) -> str | None:
        vectors = self.case.vectors()
        words = [gen.relabel_word(w, self.tag) for w in self.case.words]
        problem = oracle.check_decision(self.op, self.automata, result, words, vectors)
        return problem and f"{self.op} on {self.case.name}: {problem}"

    def facts(self, result) -> dict:
        """Canonical sizes of the case, once per case (its first op has built them)."""
        if self.op != DECIDE_OPS[0]:
            return {}
        return {"canonical_states": [len(_canonicalize(x).states) for x in self.automata]}


def decide_cases(seed: int, r: int) -> list[tuple[str, object, object]]:
    """The cases of round ``r``: the same structures every round, renamed.

    The random members are drawn from a stream that depends on neither seed
    nor round, so every run decides the same structures and pays the same
    cost; the seed and round rename them (registers, states), which changes
    the inputs but not their cost.  Drawing structures from the seed
    would make the spread between seeds that of the draw: k=3
    canonicalization is heavy-tailed (one draw of the same family takes 20 s).
    The sparse pair and the fig5a/fig1b, fig1b/fig2b and fig1b/univ2 pairs
    cost a few ms an op: they fill the middle of the cost range, where the
    median op falls, so that it does not sit in a gap between two op costs.
    """
    cases = []
    for j, (kind, k) in enumerate([("pair", 2), ("pair", 2), ("pair", 2), ("dup", 2),
                                   ("pair", 3), ("pair", 3), ("dup", 3)]):
        pool = Random(f"decide-pool:{j}")
        n, density = (pool.randint(3, 5), 0.6) if k == 2 else (3, 0.25)
        a = gen.random_session_automaton(pool, k, n, density, f"r{j}a")
        b = (gen.duplicate_state(a, "q0") if kind == "dup"
             else gen.random_session_automaton(pool, k, n, density, f"r{j}b"))
        cases.append((f"random{k}_{kind}", a, b))
    pool = Random("decide-pool:7")
    cases.append(("random2_sparse", gen.random_session_automaton(pool, 2, 3, 0.4, "sa"),
                  gen.random_session_automaton(pool, 2, 3, 0.4, "sb")))
    fig5a, fig1b, fig2b = (load_spec(x) for x in ("fig5a", "fig1b", "fig2b"))
    cases += [
        ("fig5a_univ2", fig5a, gen.universal(2)),
        ("fig2b_univ2", fig2b, gen.universal(2, labels=("a",))),
        ("fig1b_dup", fig1b, gen.duplicate_state(fig1b, "s1")),
        ("fig5a_fig1b", fig5a, fig1b),
        ("fig1b_fig2b", fig1b, fig2b),
        ("fig1b_univ2", fig1b, gen.universal(2)),
        ("univ3_univ4", gen.universal(3), gen.universal(4)),
    ]
    renamed = []
    for j, (name, a, b) in enumerate(cases):
        rng = Random(f"decide:{seed}:{r}:{j}")
        renamed.append((name, gen.permute(a, rng), gen.permute(b, rng)))
    return renamed


def build_decide(seed: int, r: int, tag: str) -> Round:
    ops, automata = [], []
    for j, (name, a, b) in enumerate(decide_cases(seed, r)):
        automata += [a, b]
        case = DecideCase(name, a, b)
        ops += [DecideOp(case, op, f"{tag}c{j}o{i}") for i, op in enumerate(DECIDE_OPS)]
    nf_closed = sum(S.nf_violation_witness(x) is None for x in automata)
    return Round(ops, {"nf_closed_share": nf_closed / len(automata),
                       "states_per_automaton": sum(len(x.states) for x in automata) / len(automata),
                       "registers_per_automaton": sum(x.registers for x in automata) / len(automata)})


# --- learn --------------------------------------------------------------------------

class CountingTeacher(S.Teacher):
    """Counts and times the queries a teacher answers."""

    def __init__(self, inner):
        self.inner = inner
        self.mq = self.eq = 0
        self.mq_s = self.eq_s = 0.0

    def membership(self, word):
        start = time.perf_counter()
        try:
            return self.inner.membership(word)
        finally:
            self.mq += 1
            self.mq_s += time.perf_counter() - start

    def equivalence(self, hypothesis):
        start = time.perf_counter()
        try:
            return self.inner.equivalence(hypothesis)
        finally:
            self.eq += 1
            self.eq_s += time.perf_counter() - start


class LearnOp:
    kind = "learn"

    def __init__(self, name, target, sample):
        self.name = name
        self.target = target
        self.sample = sample

    def run(self):
        teacher = CountingTeacher(S.reference_teacher(self.target))
        learner = S.Learner(teacher, self.target.alphabet)
        learned = learner.run()
        memo = getattr(learner.oracle, "memo", {})
        stats = {"teacher_mq": teacher.mq, "teacher_eq": teacher.eq,
                 "memo_entries": len(memo), "nf_rejected": len(memo) - teacher.mq,
                 "rounds": getattr(learner.oracle, "equivalence_queries", 0),
                 "mq_s": teacher.mq_s, "eq_s": teacher.eq_s}
        return learned, stats

    def check(self, result) -> str | None:
        learned, _ = result
        canonical = S.canonicalize(self.target)
        mine = S.minimize(S.determinize(S.as_symbolic_nfa(learned)))
        if not S.isomorphic(mine, canonical):
            return f"learned automaton of {self.name} is not the canonical one"
        for w in self.sample:
            if oracle.simulate(learned, w) != oracle.simulate(self.target, w):
                return f"learned automaton of {self.name} disagrees with the target on {w}"
        return None

    def facts(self, result) -> dict:
        return result[1]


def learn_targets(seed: int, r: int, tag: str) -> list[tuple[str, object]]:
    """Fixed targets, then random ones whose canonical size is in LEARN_CANONICAL_STATES.

    As in ``decide_cases``, every round learns the same structures, renamed by
    seed and round.  Candidates are screened under a fresh name each time, so
    every set-up pays for the screening.
    """
    targets = [(x, load_spec(x)) for x in ("fig5a", "fig1b", "fig2b")]
    targets.append(("univ3", gen.universal(3)))
    lo, hi = LEARN_CANONICAL_STATES
    pool = Random("learn-pool")
    while len(targets) < LEARN_TARGETS:
        candidate = gen.random_session_automaton(pool, 2, pool.randint(3, 4), 0.35, f"t{len(targets)}")
        if lo <= len(S.canonicalize(gen.relabel(candidate, tag)).states) <= hi:
            targets.append((f"random2_{len(targets)}", candidate))
    rng = Random(f"learn:{seed}:{r}")
    return [(name, gen.permute(t, rng)) for name, t in targets]


def build_learn(seed: int, r: int, tag: str) -> Round:
    ops, nf_closed, states = [], 0, 0
    targets = learn_targets(seed, r, tag)
    for j, (name, target) in enumerate(targets):
        nf_closed += S.nf_violation_witness(target) is None
        states += len(S.canonicalize(target).states)
        rng = Random(f"sample:{seed}:{r}:{j}")
        labels = sorted(target.alphabet)
        sample = [tuple((rng.choice(labels), rng.randint(1, 4)) for _ in range(rng.randint(0, 8)))
                  for _ in range(LEARN_SAMPLE)]
        tagged = gen.relabel(target, f"{tag}t{j}")
        ops.append(LearnOp(name, tagged, [gen.relabel_word(w, f"{tag}t{j}") for w in sample]))
    return Round(ops, {"nf_closed_share": nf_closed / len(targets),
                       "canonical_states_per_target": states / len(targets)})


class Workload:
    """How to build a round, and the tail percentile a run reports.

    The percentile is fixed per workload, so that runs that get through
    different numbers of rounds report the same quantile, and ``min_rounds``
    makes sure that at least ten samples lie beyond it.  A round holds ops of
    very different costs; each percentile falls amid the repeats of one op
    rather than in the gap between two, where it would jump with noise.
    """

    def __init__(self, build, tail_percentile: int, min_rounds: int):
        self.build = build
        self.tail_percentile = tail_percentile
        self.min_rounds = min_rounds


WORKLOADS = {
    "logs-sequential": Workload(build_logs, 77, 2),
    "decide": Workload(build_decide, 97, 4),
    "learn": Workload(build_learn, 85, 7),
}
