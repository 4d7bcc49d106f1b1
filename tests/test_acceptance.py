"""End-to-end acceptance checks.

One test per shipped guarantee; each prints a single pass line so a plain
run reads as a checklist.  The randomized suites are seeded and sized to
finish comfortably on a laptop.
"""

import math
import time
from random import Random

from helpers import (
    add_dead_state,
    duplicate_state,
    dw,
    enumerate_word_classes,
    fig5c_dfa,
    membership_vector,
    random_data_word,
    random_session_automaton,
)
from sessauto import (
    Learner,
    Teacher,
    bound,
    canonicalize,
    complement_bounded,
    concretize,
    equivalent,
    format_symbolic_word,
    includes,
    intersect,
    is_concretization,
    is_empty,
    is_k_bounded,
    isomorphic,
    learn,
    max_register,
    nf_automaton,
    reference_teacher,
    scripted_teacher,
    simulate,
    snf,
    tilde,
    union,
    validate,
)
from test_canonical import expected_nf2


def ok(n: int, detail: str) -> None:
    print(f"criterion {n:02d}: PASS - {detail}")


def test_criterion_01_normal_form_golden():
    got = format_symbolic_word(snf(dw("a:8 b:4 a:8 c:3 a:4 b:3 a:9")))
    assert got == "a:*1 b:*2 a:^1 c:*1 a:^2 b:^1 a:*1"
    ok(1, f"snf golden word -> {got}")


def test_criterion_02_session_bound():
    w = dw("a:4 b:2 a:4 a:3 c:2 c:1 b:3 c:1 c:3")
    assert bound(w) == 2
    assert is_k_bounded(w, 2) and not is_k_bounded(w, 1)
    ok(2, "four-session word has bound exactly 2")


def test_criterion_03_membership_fixtures(fig1a, fig1b):
    w8 = dw("req:8 req:4 ack:8 req:3 ack:4 req:8 ack:3 ack:8")
    w6 = dw("req:8 req:4 ack:8 req:3 ack:4 ack:3")
    assert simulate(fig1a, w8) is True
    assert simulate(fig1b, w8) is False
    assert simulate(fig1b, w6) is True
    ok(3, "fig1a accepts w8, fig1b rejects w8 and accepts w6")


def test_criterion_04_normal_form_automaton():
    nf = nf_automaton(2, frozenset({"a"}))
    assert len(nf.states) == 4
    assert isomorphic(nf, expected_nf2())
    ok(4, "two-register normal-form DFA matches the 4-state reference")


def test_criterion_05_canonicalization(fig5a):
    assert len(tilde(fig5a).states) == 7
    can = canonicalize(fig5a)
    assert len(can.states) == 4
    assert isomorphic(can, fig5c_dfa())
    ok(5, "canonical form of fig5a is the 4-state reference; tilde has 7 states")


def test_criterion_06_learning_golden_trace(fig5a):
    script = [dw("a:3 b:3"), dw("a:7 a:4 b:7"), dw("a:9 a:3 b:9 b:3")]
    learned, trace = learn(scripted_teacher(fig5a, script), {"a", "b"})
    snapshots = [e.detail for e in trace if e.event == "TableClosed"]
    assert snapshots[-1] == (
        "upper=[-, b:^1, a:*1, a:*1 a:*2, a:*1 a:*2 b:^1] columns=[-, b:^1, b:^2]"
    )
    answers = [e.detail for e in trace if e.event == "EquivalenceQuery"]
    assert answers == ["a:3 b:3", "a:7 a:4 b:7", "a:9 a:3 b:9 b:3", "equivalent"]
    assert isomorphic(canonicalize(learned), fig5c_dfa())
    ok(6, "scripted run reproduces the reference table and learns fig5a")


def test_criterion_07_language_operations_brute_force():
    t0 = time.perf_counter()
    reps = enumerate_word_classes(("a", "b"), 5)
    rng = Random(9107)

    # spot-check that class representatives stand in for the whole space:
    # literal enumeration over values {1..3} must agree with the class view
    literal = [()]
    tail = [()]
    for _ in range(3):
        tail = [w + ((a, d),) for w in tail for a in ("a", "b") for d in (1, 2, 3)]
        literal.extend(tail)
    for _ in range(3):
        x = random_session_automaton(rng, name="lx")
        y = random_session_automaton(rng, name="ly")
        u, v = union(x, y), intersect(x, y)
        c = complement_bounded(x)
        for w in literal:
            assert simulate(u, w) == (simulate(x, w) or simulate(y, w))
            assert simulate(v, w) == (simulate(x, w) and simulate(y, w))
            assert simulate(c, w) == (not simulate(x, w) and bound(w) <= x.registers)

    automata = 0
    while automata < 200:
        x = random_session_automaton(rng, name=f"x{automata}")
        y = random_session_automaton(rng, name=f"y{automata}")
        automata += 2
        vx = membership_vector(x, reps)
        vy = membership_vector(y, reps)
        vu = membership_vector(union(x, y), reps)
        vi = membership_vector(intersect(x, y), reps)
        vc = membership_vector(complement_bounded(x), reps)
        for w, mx, my, mu, mi, mc in zip(reps, vx, vy, vu, vi, vc):
            assert mu == (mx or my)
            assert mi == (mx and my)
            assert mc == (not mx and bound(w) <= x.registers)
        w = includes(x, y)
        if w is None:
            assert all(my for mx, my in zip(vx, vy) if mx)
        else:
            assert simulate(x, w) and not simulate(y, w)
        w = equivalent(x, y)
        if w is None:
            assert vx == vy
        else:
            assert simulate(x, w) != simulate(y, w)
        w = is_empty(x)
        if w is None:
            assert not any(vx)
        else:
            assert simulate(x, w)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 60.0
    ok(7, f"{automata} automata against {len(reps)} word classes in {elapsed:.1f}s")


def test_criterion_08_round_trips():
    rng = Random(9108)
    checked = 0
    while checked < 1000:
        # three distinct values cap the bound at 3
        w = random_data_word(rng, max_len=8, max_value=3)
        u = snf(w)
        assert max_register(u) == bound(w)
        assert is_concretization(w, u)
        assert snf(concretize(u)) == u
        checked += 1
    ok(8, f"{checked} random words survive snf round trips")


class _RecordingTeacher(Teacher):
    def __init__(self, inner: Teacher):
        self.inner = inner
        self.counterexamples = []

    def membership(self, word):
        return self.inner.membership(word)

    def equivalence(self, hypothesis):
        answer = self.inner.equivalence(hypothesis)
        if answer is not None:
            self.counterexamples.append(answer)
        return answer


def test_criterion_09_learner_convergence():
    rng = Random(9109)
    worst_eq = worst_mem = 0.0
    for i in range(50):
        target = random_session_automaton(rng, name=f"t{i}")
        teacher = _RecordingTeacher(reference_teacher(target))
        driver = Learner(teacher, target.alphabet)
        learned = driver.run()
        assert equivalent(learned, target) is None
        can = canonicalize(target)
        complete = all(t >= 0 for row in can.rows for t in row)
        n = len(can.states) + (0 if complete else 1)
        eq = driver.oracle.equivalence_queries
        assert eq <= n
        for w in teacher.counterexamples:
            assert max_register(snf(w)) <= target.registers
        m = max((len(w) for w in teacher.counterexamples), default=1)
        k, sigma = target.registers, len(target.alphabet)
        cap = 10 * (k * sigma * n * n + n * (math.log2(max(m, 2)))) + 10
        mem = len(driver.oracle.memo)
        assert mem <= cap
        worst_eq = max(worst_eq, eq / n)
        worst_mem = max(worst_mem, mem / cap)
    ok(9, f"50 runs converged; worst eq ratio {worst_eq:.2f}, mem ratio {worst_mem:.2f}")


def test_criterion_10_canonicity():
    rng = Random(9110)
    for i in range(50):
        base = random_session_automaton(rng, name=f"b{i}")
        left = duplicate_state(base, rng.choice(sorted(base.states)), "dup0")
        right = add_dead_state(base, "trap0")
        if rng.random() < 0.5:
            left = duplicate_state(left, rng.choice(sorted(left.states)), "dup1")
        if rng.random() < 0.5:
            right = add_dead_state(right, "trap1")
        assert left.states != right.states
        assert validate(left) == [] and validate(right) == []
        want = canonicalize(base)
        assert isomorphic(canonicalize(left), want)
        assert isomorphic(canonicalize(right), want)
    ok(10, "50 language-equal variant pairs share one canonical form")
