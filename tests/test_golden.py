"""CLI outputs pinned byte for byte.

The files under ``fixtures/golden`` were written by the commands below and
must not drift: canonical forms, their DOT rendering (state names sort as
strings, so ``tickets3``'s 15 states pin that order) and the automata of the
boolean operations.  Regenerate a file with the command its test runs, for
instance ``sessauto canonical tests/fixtures/fig5a.sra -o
tests/fixtures/golden/canonical_fig5a.sra --dot
tests/fixtures/golden/canonical_fig5a.dot``, and only when that output is
meant to change.
"""

import pytest

from helpers import FIXTURES
from sessauto.cli import main

GOLDEN = FIXTURES / "golden"


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
