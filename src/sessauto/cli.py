"""Command line interface.

Exit codes: predicates return 0 when the property holds and 1 when it fails
(printing a witness on standard output if there is one); anything that could
not even be attempted (usage, unreadable file, parse error) returns 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import langops
from .automata import accepts_symbolic, classify, from_symbolic_dfa, simulate, validate
from .canonical import canonicalize
from .errors import SessautoError
from .words import bound, snf
from .formats import (
    dot_export,
    format_data_word,
    format_symbolic_word,
    parse_automaton,
    parse_data_word,
    parse_symbolic_word,
    serialize_automaton,
)
from .learner import Learner, reference_teacher, scripted_teacher


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _load(path: str, check: bool = True):
    return parse_automaton(_read(path), check=check)


def _write_out(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _witness_exit(witness) -> int:
    if witness is None:
        return 0
    print(format_data_word(witness))
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sessauto",
        description="Session automata over data words: normal forms, canonical "
        "forms, language operations and active learning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an automaton file")
    p.add_argument("file")

    p = sub.add_parser("classify", help="print session, register or fresh-register")
    p.add_argument("file")

    p = sub.add_parser("snf", help="normal form of a data word")
    p.add_argument("-w", "--word", required=True)

    p = sub.add_parser("bound", help="session bound of a data word")
    p.add_argument("-w", "--word", required=True)

    p = sub.add_parser("member", help="does the automaton accept the data word")
    p.add_argument("file")
    p.add_argument("-w", "--word", required=True)

    p = sub.add_parser("symbolic-member", help="does the automaton accept the symbolic word")
    p.add_argument("file")
    p.add_argument("-u", "--word", required=True)

    p = sub.add_parser("canonical", help="canonical session automaton")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.add_argument("--dot")

    p = sub.add_parser("op", help="boolean operation on languages")
    p.add_argument("operation", choices=["union", "intersect", "complement"])
    p.add_argument("a")
    p.add_argument("b", nargs="?")
    p.add_argument("-o", "--output")

    p = sub.add_parser("include", help="is L(A) a subset of L(B)")
    p.add_argument("a")
    p.add_argument("b")

    p = sub.add_parser("equiv", help="is L(A) equal to L(B)")
    p.add_argument("a")
    p.add_argument("b")

    p = sub.add_parser("empty", help="is the language empty")
    p.add_argument("file")

    p = sub.add_parser("universal", help="does the language contain all k-bounded words")
    p.add_argument("file")
    p.add_argument("-k", type=int, required=True)

    p = sub.add_parser("learn", help="learn the canonical automaton of the target")
    p.add_argument("file")
    p.add_argument("--trace", help="write the learner's event trace as JSON lines")
    p.add_argument("--max-queries", type=int, default=100_000)
    p.add_argument("--script", help="file with one data-word counterexample per line")

    p = sub.add_parser("dot", help="Graphviz rendering of an automaton file")
    p.add_argument("file")
    p.add_argument("-o", "--output")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (SessautoError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "validate":
        diagnostics = validate(_load(args.file, check=False))
        for line in diagnostics:
            print(line)
        return 1 if diagnostics else 0

    if args.command == "classify":
        print(classify(_load(args.file)).value)
        return 0

    if args.command == "snf":
        print(format_symbolic_word(snf(parse_data_word(args.word))))
        return 0

    if args.command == "bound":
        print(bound(parse_data_word(args.word)))
        return 0

    if args.command == "member":
        return 0 if simulate(_load(args.file), parse_data_word(args.word)) else 1

    if args.command == "symbolic-member":
        return 0 if accepts_symbolic(_load(args.file), parse_symbolic_word(args.word)) else 1

    if args.command == "canonical":
        a = _load(args.file)
        dfa = canonicalize(a)
        out = from_symbolic_dfa(dfa, f"can_{a.name}", a.alphabet, a.registers)
        _write_out(serialize_automaton(out), args.output)
        if args.dot:
            _write_out(dot_export(dfa), args.dot)
        return 0

    if args.command == "op":
        a = _load(args.a)
        if args.operation == "complement":
            if args.b is not None:
                print("error: complement takes a single automaton", file=sys.stderr)
                return 2
            result = langops.complement_bounded(a)
        else:
            if args.b is None:
                print(f"error: {args.operation} takes two automata", file=sys.stderr)
                return 2
            b = _load(args.b)
            result = langops.union(a, b) if args.operation == "union" else langops.intersect(a, b)
        _write_out(serialize_automaton(result), args.output)
        return 0

    if args.command == "include":
        return _witness_exit(langops.includes(_load(args.a), _load(args.b)))

    if args.command == "equiv":
        return _witness_exit(langops.equivalent(_load(args.a), _load(args.b)))

    if args.command == "empty":
        return _witness_exit(langops.is_empty(_load(args.file)))

    if args.command == "universal":
        if args.k < 1:
            print("error: the bound k must be at least 1", file=sys.stderr)
            return 2
        return _witness_exit(langops.is_universal_bounded(_load(args.file), args.k))

    if args.command == "learn":
        if args.max_queries < 0:
            print("error: --max-queries must be at least 0", file=sys.stderr)
            return 2
        target = _load(args.file)
        if not target.alphabet:
            print("error: learning needs a target with at least one label", file=sys.stderr)
            return 2
        if args.script is not None:
            script = [
                parse_data_word(line)
                for line in _read(args.script).splitlines()
                if line.strip() and not line.lstrip().startswith("#")
            ]
            teacher = scripted_teacher(target, script)
        else:
            teacher = reference_teacher(target)
        driver = Learner(teacher, target.alphabet, args.max_queries)
        try:
            learned = driver.run()
        finally:
            # A run that raises still leaves every answered query in its trace.
            if args.trace:
                lines = [json.dumps(dataclasses.asdict(e)) for e in driver.trace]
                _write_out("\n".join(lines) + "\n", args.trace)
        print(serialize_automaton(learned), end="")
        return 0

    if args.command == "dot":
        _write_out(dot_export(_load(args.file)), args.output)
        return 0

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
