"""CLI outputs pinned byte for byte.

The files under ``fixtures/golden`` were written by the commands below and
must not drift: canonical forms, their DOT rendering (state names sort as
strings, so ``tickets3``'s 15 states pin that order), the automata of the
boolean operations, learned automata, and the exit codes and witnesses of
the decision commands.  Regenerate a file with the command its test runs,
for instance ``sessauto canonical tests/fixtures/fig5a.sra -o
tests/fixtures/golden/canonical_fig5a.sra --dot
tests/fixtures/golden/canonical_fig5a.dot`` or ``sessauto learn
tests/fixtures/fig5a.sra > tests/fixtures/golden/learn_fig5a.sra``, and only
when that output is meant to change.  ``witnesses.tsv`` has one line per
command: the command with fixture names for files, its exit code and what it
printed, separated by tabs.
"""

import pytest

from helpers import FIXTURES
from sessauto.cli import main

GOLDEN = FIXTURES / "golden"


SESSION_FIXTURES = ["fig1b", "fig2b", "fig5a", "tickets3"]
PAIRS = [(a, b) for a in SESSION_FIXTURES for b in SESSION_FIXTURES if a != b]
WITNESS_COMMANDS = (
    [["include", a, b] for a, b in PAIRS]
    + [["equiv", a, b] for a, b in PAIRS if a < b]
    + [["empty", a] for a in SESSION_FIXTURES]
    + [["universal", a, "-k", "2"] for a in SESSION_FIXTURES]
    + [["universal", a, "-k", "40"] for a in ("fig5a", "fig2b")]
)


def spec(name: str) -> str:
    return str(FIXTURES / f"{name}.sra")


@pytest.mark.parametrize("name", ["fig1b", "fig2b", "fig5a", "tickets3"])
def test_canonical_output_is_unchanged(name, tmp_path):
    out, dot = tmp_path / "out.sra", tmp_path / "out.dot"
    assert main(["canonical", spec(name), "-o", str(out), "--dot", str(dot)]) == 0
    assert out.read_bytes() == (GOLDEN / f"canonical_{name}.sra").read_bytes()
    assert dot.read_bytes() == (GOLDEN / f"canonical_{name}.dot").read_bytes()


@pytest.mark.parametrize("a, b", [("fig1b", "fig5a"), ("fig5a", "fig2b"),
                                  ("tickets3", "tickets3")])
def test_intersect_output_is_unchanged(a, b, tmp_path):
    out = tmp_path / "out.sra"
    assert main(["op", "intersect", spec(a), spec(b), "-o", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"intersect_{a}_{b}.sra").read_bytes()


@pytest.mark.parametrize("name", ["fig1b", "fig5a", "tickets3"])
def test_complement_output_is_unchanged(name, tmp_path):
    out = tmp_path / "out.sra"
    assert main(["op", "complement", spec(name), "-o", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"complement_{name}.sra").read_bytes()


@pytest.mark.parametrize("name", SESSION_FIXTURES)
def test_learn_output_is_unchanged(name, capsys):
    assert main(["learn", spec(name)]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / f"learn_{name}.sra").read_bytes()


def test_witnesses_are_unchanged(capsys):
    lines = []
    for command in WITNESS_COMMANDS:
        status = main([spec(x) if x in SESSION_FIXTURES else x for x in command])
        lines.append(f"{' '.join(command)}\t{status}\t{capsys.readouterr().out.rstrip()}\n")
    assert "".join(lines).encode() == (GOLDEN / "witnesses.tsv").read_bytes()
