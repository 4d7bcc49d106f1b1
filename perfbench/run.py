#!/usr/bin/env python3
"""Benchmark of the sessauto package: log checking, language decisions, learning.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload learn --seed 1 --seconds 30 --trace 0

It imports the package from ``src/`` of that checkout, builds its inputs from
the seed, runs one op at a time in this process (closed loop, one client)
in whole rounds for about ``--seconds`` seconds, checks every answer against
an oracle that does not use the timed path, and prints one JSON object as
its last line.  With ``--trace 0`` the object holds the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics of a traced run.
``--workload all`` runs every workload, each in a fresh interpreter.  Input
properties, sample counts and failures go to ``.perfbench_out/`` and to the
``#`` lines printed before the result.

Every round repeats the same ops under new names, so runs that get through
different numbers of rounds see the same mix.  ``ops_per_s`` is the ops
completed over the time spent in ops (checks and set-up excluded);
``op_p50_ms`` and ``op_tail_ms`` are percentiles of every op's latency.
``setup_s`` is the median time to build a round (inputs, spec parsing,
canonical forms built before timing), over SETUP_BUILDS builds made before
any op runs (see ``time_setup``).

Times are host-scaled.  On a shared virtual machine the same op was seen to
take up to twice as long for minutes at a time, as other tenants load the
host.  So before every op, and before every timed build, the benchmark times
``reference_loop``, a fixed pure-Python loop that calls no package code, and
reports each time multiplied by REF_S over the median reference time around
it: the time the work would take on a host where the loop takes REF_S.  The
measured times are kept beside them, under ``raw`` in the ``#`` lines.

A traced run follows every op with a copy of it, rebuilt under new labels
so that no cache entry is shared, and runs the copy with spans around the
package's layer boundaries; the wrappers are in place only while a copy
runs.  Per-layer figures are per traced op and are measured times, not
host-scaled; ``trace.overhead_ratio`` is the traced ops' time over their
untraced twins'.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from random import Random

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

OP_LIMIT_S = 30
# Builds timed before the first op runs: ``setup_s`` is their median.
SETUP_BUILDS = 5
# Host scaling: the reference loop's nominal time, and how many reference
# times on either side of an op make up its host's speed.
REF_S = 0.001
REF_WINDOW = 5
CLI_LIMIT_S = 120

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

LANGOPS = ("equivalent", "includes", "intersect", "complement_bounded", "is_empty",
           "is_universal_bounded")

MODULES = ("formats", "words", "automata", "symbolic", "canonical", "langops", "learner")

# (name, unit, better): every per-layer metric a traced run prints.
PER_LAYER = [
    *[(f"{module}.self_s", "s/op", "lower") for module in MODULES],
    ("automata.simulate.self_s", "s/op", "lower"),
    ("automata.simulate.letters", "count/op", "lower"),
    ("words.bound.self_s", "s/op", "lower"),
    ("words.snf.self_s", "s/op", "lower"),
    ("formats.parse_data_word.self_s", "s/op", "lower"),
    ("symbolic.SymbolicDfa.accepts.self_s", "s/op", "lower"),
    ("canonical.tilde.self_s", "s/op", "lower"),
    ("canonical.tilde.out_states", "count/op", "lower"),
    ("canonical.tilde.out_transitions", "count/op", "lower"),
    ("symbolic.product.self_s", "s/op", "lower"),
    ("symbolic.product.out_states", "count/op", "lower"),
    ("symbolic.product.out_transitions", "count/op", "lower"),
    ("symbolic.determinize.self_s", "s/op", "lower"),
    ("symbolic.determinize.in_states", "count/op", "lower"),
    ("symbolic.determinize.out_states", "count/op", "lower"),
    ("symbolic.minimize.self_s", "s/op", "lower"),
    ("symbolic.minimize.out_states", "count/op", "lower"),
    ("canonical.canonicalize.calls", "count/op", "lower"),
    ("canonical.canonicalize.total_s", "s/op", "lower"),
    ("canonical.canonicalize.hits", "count/op", "higher"),
    ("canonical.canonicalize.misses", "count/op", "lower"),
    ("canonical.nf_automaton.hits", "count/op", "higher"),
    ("canonical.nf_automaton.misses", "count/op", "lower"),
    ("symbolic.complement.self_s", "s/op", "lower"),
    ("symbolic.shortest_accepted.self_s", "s/op", "lower"),
    *[(f"langops.{op}.{q}", unit, "lower") for op in LANGOPS
      for q, unit in (("calls", "count/op"), ("total_s", "s/op"))],
    ("learner.MembershipOracle.__call__.calls", "count/op", "lower"),
    ("learner.MembershipOracle.__call__.self_s", "s/op", "lower"),
    ("learner.ObservationTable.close.self_s", "s/op", "lower"),
    ("learner.ObservationTable.build_hypothesis.self_s", "s/op", "lower"),
    ("learner.nf_violation_witness.total_s", "s/op", "lower"),
    ("learner.teacher.membership.total_s", "s/op", "lower"),
    ("learner.teacher.equivalence.total_s", "s/op", "lower"),
    ("learner.memo_entries", "count", "lower"),
    ("learner.nf_rejected", "count", "lower"),
    ("learner.rounds", "count", "lower"),
    ("learner.teacher_mq_per_memo_entry", "ratio", "lower"),
    ("teacher_mq", "count", "lower"),
    ("teacher_eq", "count", "lower"),
    ("fail_ratio", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.span_coverage", "ratio", "higher"),
    ("cli.member_s", "s", "lower"),
    ("cli.equiv_s", "s", "lower"),
    ("cli.learn_s", "s", "lower"),
]


def die(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import ``sessauto`` from this checkout's ``src/``, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "sessauto" / "__init__.py").is_file():
        die(f"no package source at {src / 'sessauto'}; run from a sessauto checkout")
    sys.path.insert(0, str(src))
    import sessauto
    if Path(sessauto.__file__).resolve().parent != (src / "sessauto").resolve():
        die(f"imported sessauto from {sessauto.__file__}, not from {src}")
    return sessauto


class OpTimeout(BaseException):
    """Raised by the alarm inside an op that runs past OP_LIMIT_S.

    A BaseException, so that no handler inside the package can swallow it.
    """


def _alarm(signum, frame):
    raise OpTimeout()


class Outcome:
    """What is kept of one op: not its inputs or result, so memory stays flat."""

    def __init__(self, kind, round_no, latency, ref, status, detail, facts, caches, traced):
        self.kind = kind
        self.round_no = round_no
        self.latency = latency
        self.ref = ref  # the reference loop's time just before the op
        self.status = status
        self.detail = detail
        self.facts = facts  # counts the op reported, see the workloads' ``facts``
        self.caches = caches  # cache name -> (hits, misses) during the op
        self.traced = traced


# The reference loop's only data: reused, so the loop allocates nothing but small ints.
_REF_TABLE = dict.fromkeys(range(97), 0)


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop: the host's current speed.

    It calls no package code, so no change to the package moves it, and it
    allocates no containers, so neither the package's heap nor the state of
    the allocator after an op does.
    """
    table = _REF_TABLE
    for _ in range(2):  # the first pass warms the processor caches the op left cold
        t0 = time.perf_counter()
        for j in range(4000):
            k = j % 97
            table[k] = (table[k] + j) & 1023
        elapsed = time.perf_counter() - t0
    return elapsed


def time_setup(build, seed: int) -> list[tuple[float, float]]:
    """(seconds, reference seconds) of building rounds 0 .. SETUP_BUILDS - 1 once each.

    Each build starts from a collected heap and uses labels of its own, so it
    pays what a fresh process pays; the builds are then dropped, and the run
    builds its rounds again as it reaches them.  The reference time is the
    median of 2 * REF_WINDOW + 1 reference loops run just before the build.
    """
    times = []
    for r in range(SETUP_BUILDS):
        gc.collect()
        ref = statistics.median(reference_loop() for _ in range(2 * REF_WINDOW + 1))
        t0 = time.perf_counter()
        build(seed, r, f"s{r}")
        times.append((time.perf_counter() - t0, ref))
    return times


def op_stream(build, seed: int, props: list, traced: bool = False):
    """Ops of round 0, 1, 2, ..., each round built, untimed, just before it runs.

    Yields (round, op, traced); the rounds' input properties go to ``props``.
    With ``traced`` every op is followed by its copy from the same round
    rebuilt under new labels, to be traced: the two share no cache entry and
    see the same warm-up.
    """
    r = 0
    while True:
        current = build(seed, r, f"r{r}")
        props.append(current.props)
        copy = build(seed, r, f"t{r}") if traced else None
        for i, op in enumerate(current.ops):
            yield r, op, False
            if copy is not None:
                yield r, copy.ops[i], True
        r += 1


def run_ops(stream, seconds: float, min_rounds: int, peak_rss_kb: list, tracer=None) -> list[Outcome]:
    """Closed loop: the next op starts when the previous one and its check are done.

    Runs whole rounds, at least ``min_rounds``, until ``seconds`` have passed.
    Every round has the same mix of op kinds and sizes, so whole rounds keep
    medians and tails comparable between runs that get through different
    numbers of rounds.  ``peak_rss_kb[0]`` receives the peak resident size
    after ``min_rounds`` rounds: the package's caches keep growing with every
    round, so a later peak would grow with speed.
    """
    from workloads import cache_counters

    out: list[Outcome] = []
    start = time.perf_counter()
    for i, (round_no, op, traced) in enumerate(stream):
        if out and round_no != out[-1].round_no and round_no == min_rounds:
            peak_rss_kb[0] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if (out and round_no != out[-1].round_no and round_no >= min_rounds
                and time.perf_counter() - start >= seconds):
            break
        ref = reference_loop()
        status, detail, result, facts = "ok", "", None, {}
        caches = cache_counters()
        if traced:
            tracer.op = i
            tracer.patch(True)
            frame = tracer.enter("op")
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
            try:
                result = op.run()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OpTimeout:
            status, detail = "timeout", f"ran past {OP_LIMIT_S} s"
        except Exception as err:  # an op that raises is a failed op, not a crashed run
            status, detail = "error", repr(err)
        latency = time.perf_counter() - t0
        if traced:
            tracer.leave(frame)
            tracer.patch(False)
        caches = {name: (hits - caches[name][0], misses - caches[name][1])
                  for name, (hits, misses) in cache_counters().items()}
        if status == "ok":
            try:
                problem = op.check(result)
            except Exception as err:  # a check that cannot even run is a wrong answer
                problem = f"check raised {err!r}"
            if problem:
                status, detail = "wrong", problem
            else:
                facts = op.facts(result)
        if status != "ok":
            print(f"op {i} ({op.kind}, round {round_no}) {status}: {detail}", file=sys.stderr)
        out.append(Outcome(op.kind, round_no, latency, ref, status, detail, facts, caches, traced))
    return out


def percentile(latencies: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank percentile, and how many samples lie beyond it."""
    ranked = sorted(latencies)
    rank = max(1, math.ceil(p / 100 * len(ranked)))
    return ranked[rank - 1], len(ranked) - rank


def cli_smoke(S, seed: int) -> tuple[dict, list[str]]:
    """``sessauto member``, ``equiv`` and ``learn`` as subprocesses, checked against in-process answers."""
    import gen
    import workloads

    specs = HERE / "specs"
    fig5a = workloads.load_spec("fig5a")
    fig1b = workloads.load_spec("fig1b")
    letters, _ = gen.Walker(fig5a).walk(Random(f"cli:{seed}"), 40, accept=True)
    word = " ".join(f"{a}:{d}" for a, d in letters)
    witness = S.equivalent(fig5a, fig1b)
    teacher = S.reference_teacher(fig1b)
    learned = S.Learner(teacher, fig1b.alphabet).run()
    calls = {
        "member": (["member", str(specs / "fig5a.sra"), "-w", word],
                   0 if S.simulate(fig5a, tuple(letters)) else 1, ""),
        "equiv": (["equiv", str(specs / "fig5a.sra"), str(specs / "fig1b.sra")],
                  0 if witness is None else 1,
                  "" if witness is None else S.format_data_word(witness) + "\n"),
        "learn": (["learn", str(specs / "fig1b.sra")], 0, S.serialize_automaton(learned)),
    }
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    times, problems = {}, []
    for name, (argv, code, stdout) in calls.items():
        command = [sys.executable, "-c", "import sys; from sessauto.cli import main; sys.exit(main())",
                   *argv]
        t0 = time.perf_counter()
        done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CLI_LIMIT_S)
        times[name] = time.perf_counter() - t0
        if done.returncode != code or done.stdout != stdout:
            problems.append(f"cli {name}: exit {done.returncode}, want {code}; "
                            f"stdout {done.stdout[:200]!r}, want {stdout[:200]!r}")
    return times, problems


def host_scaled(outcomes) -> list[float]:
    """Each op's latency times REF_S over the median reference time of the ops around it."""
    refs = [o.ref for o in outcomes]
    return [o.latency * REF_S / statistics.median(refs[max(0, i - REF_WINDOW):i + REF_WINDOW + 1])
            for i, o in enumerate(outcomes)]


def timing_metrics(setup_s, latencies, done, tail_percentile) -> tuple[dict, int]:
    tail_s, beyond = percentile(latencies, tail_percentile)
    return {
        "setup_s": statistics.median(setup_s),
        "ops_per_s": done / sum(latencies),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_tail_ms": 1000 * tail_s,
    }, beyond


def end_to_end(setup_times, outcomes, tail_percentile, peak_rss_kb) -> tuple[dict, dict]:
    done = sum(o.status == "ok" for o in outcomes)
    scaled_setup = [elapsed * REF_S / ref for elapsed, ref in setup_times]
    metrics, beyond = timing_metrics(scaled_setup, host_scaled(outcomes), done, tail_percentile)
    metrics["peak_rss_mb"] = peak_rss_kb / 1024
    raw, _ = timing_metrics([elapsed for elapsed, _ in setup_times], [o.latency for o in outcomes],
                            done, tail_percentile)
    notes = {"samples": len(outcomes), "rounds": outcomes[-1].round_no + 1,
             "tail_percentile": tail_percentile, "samples_beyond_tail": beyond, "raw": raw,
             "reference_loop_ms": 1000 * statistics.median(o.ref for o in outcomes),
             "latencies_s": [o.latency for o in outcomes], "reference_s": [o.ref for o in outcomes],
             "setup_times_s": setup_times}
    return metrics, notes


def learn_counts(outcomes) -> dict:
    """Learner counters summed over round 0, which every run completes, so they repeat exactly."""
    keys = ("teacher_mq", "teacher_eq", "memo_entries", "nf_rejected", "rounds")
    total = dict.fromkeys(keys, 0)
    for o in outcomes:
        if o.kind == "learn" and o.round_no == 0 and o.status == "ok":
            for key in keys:
                total[key] += o.facts[key]
    return total


def per_layer(tracer, traced, untraced, counts, cli_times, failed, attempted) -> dict:
    m = len(traced)
    stats, sums = tracer.stats, tracer.counts

    def per_op(value):
        return value / m

    def stat(name, index):  # index 0: calls, 1: total seconds, 2: self seconds
        return stats.get(name, [0, 0.0, 0.0])[index]

    values = {module: 0.0 for module in MODULES}
    for name, (_, _, self_s) in stats.items():
        module = name.split(".")[0]
        if module in values:
            values[module] += self_s
    values = {f"{module}.self_s": per_op(self_s) for module, self_s in values.items()}
    for name, _, _ in PER_LAYER:
        layer, _, quantity = name.rpartition(".")
        if name in values:
            continue
        if quantity in ("calls", "total_s", "self_s"):
            values[name] = per_op(stat(layer, ("calls", "total_s", "self_s").index(quantity)))
        elif quantity in ("letters", "in_states", "out_states", "out_transitions"):
            values[name] = per_op(sums.get(name, 0))
    for cache in ("canonicalize", "nf_automaton"):
        values[f"canonical.{cache}.hits"] = per_op(sum(o.caches[cache][0] for o in traced))
        values[f"canonical.{cache}.misses"] = per_op(sum(o.caches[cache][1] for o in traced))
    learn_ops = [o for o in traced if o.kind == "learn" and o.status == "ok"]
    values["learner.teacher.membership.total_s"] = per_op(sum(o.facts["mq_s"] for o in learn_ops))
    values["learner.teacher.equivalence.total_s"] = per_op(sum(o.facts["eq_s"] for o in learn_ops))
    for key in ("memo_entries", "nf_rejected", "rounds"):
        values[f"learner.{key}"] = counts[key]
    values["learner.teacher_mq_per_memo_entry"] = (
        counts["teacher_mq"] / counts["memo_entries"] if counts["memo_entries"] else 0.0)
    values["teacher_mq"] = counts["teacher_mq"]
    values["teacher_eq"] = counts["teacher_eq"]
    values["fail_ratio"] = failed / attempted
    values["trace.overhead_ratio"] = sum(o.latency for o in traced) / sum(o.latency for o in untraced)
    op_total = stat("op", 1)
    values["trace.span_coverage"] = 1 - stat("op", 2) / op_total if op_total else 0.0
    for name in ("member", "equiv", "learn"):
        values[f"cli.{name}_s"] = cli_times.get(name, 0.0)
    missing = [name for name, _, _ in PER_LAYER if name not in values]
    if missing:
        raise RuntimeError(f"per-layer metrics not computed: {missing}")
    return values


def run_one(S, name: str, seed: int, seconds: int, traced: bool) -> dict:
    import workloads
    from spans import Tracer

    workload = workloads.WORKLOADS[name]
    build = workload.build
    signal.signal(signal.SIGALRM, _alarm)
    if any(sum(v) for v in workloads.cache_counters().values()):
        die("package caches are not empty at start; each run needs a fresh interpreter")

    props: list[dict] = []
    if not traced:
        setup_times = time_setup(build, seed)
        stream = op_stream(build, seed, props)
        peak_rss_kb = [0]
        outcomes = run_ops(stream, seconds, workload.min_rounds, peak_rss_kb)
        metrics, notes = end_to_end(setup_times, outcomes, workload.tail_percentile, peak_rss_kb[0])
    else:
        tracer = Tracer()
        tracer.install()
        stream = op_stream(build, seed, props, traced=True)
        outcomes = run_ops(stream, seconds, 1, [0], tracer)
        notes = {"ops_per_pass": len(outcomes) // 2, "spans": len(tracer.span_name),
                 "spans_dropped": tracer.dropped}
    untraced_ops = [o for o in outcomes if not o.traced]
    traced_ops = [o for o in outcomes if o.traced]

    cli_times, problems = cli_smoke(S, seed)
    for problem in problems:
        print(problem, file=sys.stderr)
    failed = sum(o.status != "ok" for o in outcomes)
    wrong = sum(o.status in ("wrong", "error") for o in outcomes) + len(problems)
    attempted = len(outcomes)
    if traced:
        metrics = per_layer(tracer, traced_ops, untraced_ops, learn_counts(untraced_ops), cli_times,
                            failed, attempted)
    units = dict(END_TO_END) if not traced else {n: u for n, u, _ in PER_LAYER}

    inputs = {key: statistics.mean(p[key] for p in props) for key in props[0]}
    states = [s for o in outcomes for s in o.facts.get("canonical_states", ())]
    if states:
        inputs["canonical_states_per_automaton"] = statistics.mean(states)
    caches = {f"{cache}_{kind}": sum(o.caches[cache][i] for o in outcomes)
              for cache in ("canonicalize", "nf_automaton") for i, kind in enumerate(("hits", "misses"))}
    notes.update(inputs=inputs, caches=caches, op_limit_s=OP_LIMIT_S, cli_s=cli_times,
                 failures=[(o.kind, o.round_no, o.status, o.detail)
                           for o in outcomes if o.status != "ok"][:20])
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(traced)}"
    if traced:
        tracer.write(OUT / f"{stem}.spans.tsv")
    report = {"correct": wrong == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    (OUT / f"{stem}.json").write_text(json.dumps({**report, "notes": notes}, indent=1) + "\n")
    for key, value in sorted(notes.items()):
        if key not in ("latencies_s", "reference_s"):
            print(f"# {key}: {json.dumps(value)}")
    return report


def run_all(args) -> dict:
    """Each workload in its own interpreter, so the package's caches start empty every time."""
    import workloads

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            die(f"workload {name} exited with {done.returncode}")
        print(f"# {name}: {lines[-1]}")
        report = json.loads(lines[-1])
        merged["correct"] &= report["correct"]
        merged["attempted"] += report["attempted"]
        merged["failed"] += report["failed"]
        for metric, value in report["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    return merged


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        die("--seconds must be at least 1")
    S = import_package()
    import workloads
    if args.workload == "all":
        report = run_all(args)
    elif args.workload in workloads.WORKLOADS:
        report = run_one(S, args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        die(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)} or all")
    print(json.dumps(report))


if __name__ == "__main__":
    main()
