#!/usr/bin/env python3
"""Scaling sweeps: the data-word layers over word length, the learner, the teacher's membership
queries, universal automata, the decisions and declared registers.

Run from the root of a source checkout:

    python3 bench/scaling.py --label change --out BENCH.json

Word length.  For each fixture automaton (fig5a, fig1b, tickets3) it builds
one accepted word of n letters, n in {1e3, 1e4, 1e5}, and times
``parse_data_word`` on its text and ``bound``, ``snf`` and ``simulate`` on
the word.  Each point is the median of 5 runs.  A point whose runs take
longer than 60 s in all is recorded as a timeout, and the larger n of that
series are not run.  Per fixture and function, the growth exponent is the
least-squares slope of log time over log n.  Each of these layers is linear
in the word length for a fixed automaton, so an exponent above 1.2, or a
timeout, is flagged.

Learner.  For seeds 16, 1226 and 112 of the test generator
``random_session_automaton(Random(seed), registers=3)`` it runs the whole
``Learner`` against the reference teacher, with no query budget, and records
the target's canonical states, the memo entries, the teacher's membership
and equivalence queries, the table's columns and the median time of 3 runs.
Each run starts with the package's caches cleared, so it pays what a new
process pays, the target's canonical form included.  A point whose runs
take longer than 60 s in all is recorded as a timeout and flagged.

Teacher.  Over the data words the seed-16 learner asks the teacher, in
the order it asks them, it times ``ReferenceTeacher.membership`` alone:
the target's canonical form is built before the clock starts.  It records
the median of 5 passes over the words in microseconds per query, and the
number of words, letters and accepted words, which two checkouts that
answer alike share.  A point whose passes take longer than 60 s in all is
recorded as a timeout and flagged.

Universal automata.  For k = 1..6 it times ``canonicalize(universal(k))``
and ``is_universal_bounded(universal(k), k)``, each the median of 3 runs
from cold caches, and records the canonical states (2^k by the theory)
and the subsets of ``snf_dfa`` explored in full.  A point whose runs take
longer than 60 s in all is recorded as a timeout and flagged, and the
larger k of that series are not run.  One more point canonicalizes 60
random k = 3 automata of the benchmark generator
(``random_session_automaton``, 3 or 4 states, density 0.3) from cold
caches, the median of 3 runs, and records their subsets and canonical
states in total and a SHA-256 of the canonical DFAs, which two checkouts
that build the same canonical forms share.

Decisions.  For each case of the benchmark's decide workload,
``perfbench/workloads.py::decide_cases(0, 0)``, it times every kind of
``DECIDE_OPS`` (``DecideOp.run``, the inputs relabelled under a fixed tag
per run), each the median of 3 runs from cold caches, and records a SHA-256
of the witnesses and output automata of every op, which two checkouts that
decide alike share.  A point whose runs take longer than 60 s in all is
recorded as a timeout and flagged.

Declared registers.  For K = 8, 16, 24, 32 and 40 it times
``is_universal_bounded(fig5a, K)``, what ``sessauto universal -k K`` runs,
and the learner's full normal-form check of a first-time word that uses K
registers: ``MembershipOracle`` called on the normal form of a:1 .. a:K
b:K .. b:1, with a teacher that answers yes.  Each point is the median of
3 runs from cold caches, and records the answer: fig5a's witness b:1 and
True at every K.  Neither builds anything over K registers: universality
reads the normal-form table over fig5a's 2 registers + 1 whatever K, and
the check computes the normal form of the word's concretization, linear
in its 2K letters, so both should stay flat against 2^K.  A point whose
runs take longer than 60 s in all is recorded as a timeout and flagged,
and the larger K of that series are not run.

The package is imported from ``--src`` (default: ``src/`` of this checkout),
and the generators from ``tests/`` and ``perfbench/`` beside it, so the same
script measures another checkout.  The result is stored in the ``--out`` file under
``--label``, next to the runs already there, so one file holds the numbers
of a parent commit and of a change.  Stdlib only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import platform
import signal
import statistics
import sys
import time
from pathlib import Path
from random import Random

ROOT = Path(__file__).resolve().parent.parent
LENGTHS = (1_000, 10_000, 100_000)
RUNS = 5
TIMEOUT_S = 60.0
LIMIT = 1.2
LEARN_SEEDS = (16, 1226, 112)
LEARN_RUNS = 3
TEACHER_SEED = 16
UNIVERSAL_KS = range(1, 7)
UNIVERSAL_RUNS = 3
DRAWS, DRAW_SEED = 60, 24
DECIDE_RUNS = 3
REGISTER_KS = (8, 16, 24, 32, 40)
REGISTER_RUNS = 3


def fixture_word(name: str, n: int) -> tuple:
    """An accepted word of n letters whose sessions overlap as far as the fixture allows."""
    if name == "tickets3":
        # Ticket i opens, i-1 is used and i-2 closes: three tickets are open at a time.
        letters = [("open", 1), ("open", 2)]
        letters += [x for i in range(3, n // 3 + 3) for x in (("open", i), ("use", i - 1), ("close", i - 2))]
    else:
        # fig5a: a opens a session and b closes it; fig1b: the same with req and ack.
        a, b = ("a", "b") if name == "fig5a" else ("req", "ack")
        letters = [x for i in range(1, n // 2 + 2) for x in ((a, i), (b, i))]
    return tuple(letters[:n])


class Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise Timeout


def median_time(fn, arg, runs: int = RUNS) -> float | None:
    """Median seconds of ``runs`` calls, or None when they run past TIMEOUT_S in all."""
    times = []
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, TIMEOUT_S)
    try:
        for _ in range(runs):
            start = time.perf_counter()
            fn(arg)
            times.append(time.perf_counter() - start)
    except Timeout:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return statistics.median(times)


def exponent(points: list[tuple[int, float]]) -> float | None:
    """Least-squares slope of log time over log n."""
    if len(points) < 2:
        return None
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def word_sweep(S) -> dict:
    out = {}
    for name in ("fig5a", "fig1b", "tickets3"):
        a = S.parse_automaton((ROOT / "tests" / "fixtures" / f"{name}.sra").read_text())
        layers = {
            "parse_data_word": S.parse_data_word,
            "bound": S.bound,
            "snf": S.snf,
            "simulate": lambda w: S.simulate(a, w),
        }
        for fn_name, fn in layers.items():
            points, series = [], {}
            for n in LENGTHS:
                word = fixture_word(name, n)
                if len(word) != n or not S.simulate(a, word):
                    raise SystemExit(f"{name}: no accepted word of {n} letters")
                t = median_time(fn, S.format_data_word(word) if fn is S.parse_data_word else word)
                series[str(n)] = "timeout" if t is None else round(t, 6)
                if t is None:
                    break
                points.append((n, t))
            e = exponent(points)
            e = None if e is None else round(e, 3)
            out[f"{name}.{fn_name}"] = {
                "median_s": series,
                "exponent": e,
                "flagged": e is None or e > LIMIT or "timeout" in series.values(),
            }
            print(f"# {name} {fn_name}: {series}, exponent {e}", file=sys.stderr)
    return out


def cold(S) -> None:
    """Clear every cache of the package's modules, as a new process starts."""
    for name, module in list(sys.modules.items()):
        if name.startswith(f"{S.__name__}."):
            for f in vars(module).values():
                if hasattr(f, "cache_clear"):
                    f.cache_clear()


def learn_sweep(S, helpers) -> dict:
    out, learners = {}, []

    def learn(target):
        # A cold start, as in a new process: a hypothesis equal to one of an
        # earlier run would otherwise find its canonical form cached.
        cold(S)
        learner = S.Learner(S.reference_teacher(target), target.alphabet, max_queries=None)
        learner.run()
        learners.append(learner)

    for seed in LEARN_SEEDS:
        target = helpers.random_session_automaton(Random(seed), registers=3)
        point = {"canonical_states": len(S.canonicalize(target).states)}
        t = median_time(learn, target, LEARN_RUNS)
        if t is not None:
            oracle = learners[-1].oracle
            point.update(memo_entries=len(oracle.memo), teacher_queries=oracle.teacher_queries,
                         equivalence_queries=oracle.equivalence_queries,
                         columns=len(learners[-1].table.columns))
        point["median_s"] = "timeout" if t is None else round(t, 6)
        point["flagged"] = t is None
        out[f"seed{seed}"] = point
        print(f"# learn seed {seed}: {point}", file=sys.stderr)
    return out


def teacher_sweep(S, helpers) -> dict:
    target = helpers.random_session_automaton(Random(TEACHER_SEED), registers=3)
    asked = []

    class Recording(S.learner.ReferenceTeacher):
        def membership(self, word):
            asked.append(word)
            return super().membership(word)

    S.Learner(Recording(target), target.alphabet, max_queries=None).run()
    membership = S.reference_teacher(target).membership

    def ask(words):
        for w in words:
            membership(w)

    t = median_time(ask, asked)
    point = {"seed": TEACHER_SEED, "queries": len(asked), "letters": sum(map(len, asked)),
             "accepted": sum(map(membership, asked)),
             "us_per_query": "timeout" if t is None else round(t / len(asked) * 1e6, 3),
             "flagged": t is None}
    print(f"# teacher seed {TEACHER_SEED}: {point}", file=sys.stderr)
    return point


def universal_sweep(S, helpers, gen) -> dict:
    out = {}
    layers = {
        "canonicalize": S.canonicalize,
        "is_universal_bounded": lambda a: S.is_universal_bounded(a, a.registers),
    }
    for fn_name, fn in layers.items():
        def run(k, fn=fn):
            cold(S)
            fn(helpers.universal(k))

        series = {}
        for k in UNIVERSAL_KS:
            t = median_time(run, k, UNIVERSAL_RUNS)
            point = {"median_s": "timeout" if t is None else round(t, 6)}
            if t is not None:
                a = helpers.universal(k)
                point.update(canonical_states=len(S.canonicalize(a).rows),
                             subsets=len(S.canonical.snf_dfa(a).table().rows))
            series[str(k)] = point
            print(f"# universal {fn_name} k={k}: {point}", file=sys.stderr)
            if t is None:
                break
        out[fn_name] = {"points": series, "flagged": t is None}

    rng = Random(DRAW_SEED)
    draws = [gen.random_session_automaton(rng, 3, 3 + i % 2, 0.3, f"d{i}") for i in range(DRAWS)]

    def canonicalize_all(automata):
        cold(S)
        for a in automata:
            S.canonicalize(a)

    t = median_time(canonicalize_all, draws, UNIVERSAL_RUNS)
    point = {"draws": DRAWS, "seed": DRAW_SEED, "median_s": "timeout" if t is None else round(t, 6)}
    if t is not None:
        digest = hashlib.sha256()
        for a in draws:
            c = S.canonicalize(a)
            digest.update(repr((c.rows, sorted(c.finals))).encode())
        point.update(subsets=sum(len(S.canonical.snf_dfa(a).table().rows) for a in draws),
                     canonical_states=sum(len(S.canonicalize(a).rows) for a in draws),
                     canonical_sha256=digest.hexdigest())
    out["random3_draws"] = dict(point, flagged=t is None)
    print(f"# universal random k=3 draws: {point}", file=sys.stderr)
    return out


def registers_sweep(S) -> dict:
    out = {}
    fig5a = S.parse_automaton((ROOT / "tests" / "fixtures" / "fig5a.sra").read_text())

    class Yes(S.Teacher):
        def membership(self, word):
            return True

    def word(k):
        return S.snf(tuple(("a", d) for d in range(1, k + 1)) + tuple(("b", d) for d in range(k, 0, -1)))

    layers = {
        "is_universal_bounded": lambda k: S.is_universal_bounded(fig5a, k),
        "oracle_check": lambda k: S.MembershipOracle(Yes(), fig5a.alphabet)(word(k)),
    }
    for fn_name, fn in layers.items():
        answers = []

        def run(k, fn=fn):
            cold(S)
            answers.append(fn(k))

        series = {}
        for k in REGISTER_KS:
            t = median_time(run, k, REGISTER_RUNS)
            point = {"median_s": "timeout" if t is None else round(t, 6)}
            if t is not None:
                point["answer"] = repr(answers[-1])
            series[str(k)] = point
            print(f"# registers {fn_name} K={k}: {point}", file=sys.stderr)
            if t is None:
                break
        out[fn_name] = {"points": series, "flagged": t is None}
    return out


def describe(S, answer) -> str:
    """A decision's answer as text: an automaton serialized, a witness formatted, or None."""
    if isinstance(answer, S.Automaton):
        return S.serialize_automaton(answer)
    return "None" if answer is None else S.format_data_word(answer)


def decide_sweep(S, workloads) -> dict:
    cases, digest, flagged = {}, hashlib.sha256(), False
    for j, (name, a, b) in enumerate(workloads.decide_cases(0, 0)):
        case = workloads.DecideCase(name, a, b)
        point = {}
        for kind in workloads.DECIDE_OPS:
            answers = []

            def run(ops):
                cold(S)
                answers.append(next(ops).run())

            ops = iter([workloads.DecideOp(case, kind, f"s{j}") for _ in range(DECIDE_RUNS)])
            t = median_time(run, ops, DECIDE_RUNS)
            point[kind] = "timeout" if t is None else round(t, 6)
            flagged |= t is None
            digest.update(repr((name, kind, describe(S, answers[-1]) if t else "timeout")).encode())
        cases[f"{j}.{name}"] = point
        print(f"# decide {name}: {point}", file=sys.stderr)
    total = sum(t for point in cases.values() for t in point.values() if t != "timeout")
    return {"cases": cases, "total_s": round(total, 6), "answers_sha256": digest.hexdigest(),
            "flagged": flagged}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory that holds the sessauto package")
    parser.add_argument("--label", required=True, help="key of this run in the output file")
    parser.add_argument("--out", required=True, help="JSON file the run is stored in")
    args = parser.parse_args()
    checkout = Path(args.src).resolve().parent
    sys.path[:0] = [args.src, str(checkout / "tests"), str(checkout / "perfbench")]
    import gen
    import helpers
    import sessauto as S
    import workloads

    result = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "runs_per_point": RUNS,
        "learn_runs_per_point": LEARN_RUNS,
        "timeout_s": TIMEOUT_S,
        "series": word_sweep(S),
        "learn": learn_sweep(S, helpers),
        "teacher": teacher_sweep(S, helpers),
        "universal": universal_sweep(S, helpers, gen),
        "decide": decide_sweep(S, workloads),
        "registers": registers_sweep(S),
    }
    result["flagged"] = sorted([k for k, v in result["series"].items() if v["flagged"]]
                               + [f"learn.{k}" for k, v in result["learn"].items() if v["flagged"]]
                               + ["teacher"] * result["teacher"]["flagged"]
                               + [f"universal.{k}" for k, v in result["universal"].items()
                                  if v["flagged"]]
                               + ["decide"] * result["decide"]["flagged"]
                               + [f"registers.{k}" for k, v in result["registers"].items()
                                  if v["flagged"]])
    path = Path(args.out)
    doc = json.loads(path.read_text()) if path.exists() else {
        "lengths": list(LENGTHS), "learn_seeds": list(LEARN_SEEDS),
        "universal_ks": list(UNIVERSAL_KS), "register_ks": list(REGISTER_KS), "runs": {}}
    doc["runs"][args.label] = result
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps({"label": args.label, "flagged": result["flagged"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
