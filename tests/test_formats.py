from random import Random

import pytest

from helpers import FIXTURES, fixture, random_session_automaton
from sessauto import (
    InvalidAutomaton,
    ParseError,
    canonicalize,
    dot_export,
    format_data_word,
    format_symbolic_word,
    parse_automaton,
    parse_data_word,
    parse_symbolic_word,
    parse_word,
    serialize_automaton,
)


def test_parse_data_word():
    assert parse_data_word("a:8 b:4") == (("a", 8), ("b", 4))
    assert parse_data_word("  a:8   b:4  ") == (("a", 8), ("b", 4))
    assert parse_data_word("-") == ()
    assert parse_data_word("") == ()
    assert parse_data_word("x_1:0") == (("x_1", 0),)


def test_parse_data_word_errors():
    for bad in ("a", "a:", ":1", "a:1 b", "a:-3", "a:b", "a : 1"):
        with pytest.raises(ParseError):
            parse_data_word(bad)
    with pytest.raises(ParseError):
        parse_data_word(f"a:{2**64}")
    # the error names the offending letter
    with pytest.raises(ParseError) as info:
        parse_data_word("a:1 oops b:2")
    assert "letter 2" in str(info.value)


def test_parse_symbolic_word():
    u = parse_symbolic_word("a:*1 b:^2 c:o3")
    assert [str(x) for x in u] == ["a:*1", "b:^2", "c:o3"]
    assert parse_symbolic_word("-") == ()


def test_parse_symbolic_word_errors():
    for bad in ("a:1", "a:*", "*1", "a:*0", "a:x1", "a:^ 1"):
        with pytest.raises(ParseError):
            parse_symbolic_word(bad)


def test_parse_word_dispatch():
    assert parse_word("a:1") == (("a", 1),)
    assert parse_word("a:*1", symbolic=True) == parse_symbolic_word("a:*1")


def test_format_words():
    assert format_data_word((("a", 8), ("b", 4))) == "a:8 b:4"
    assert format_data_word(()) == "-"
    assert format_symbolic_word(parse_symbolic_word("a:*1 b:^2")) == "a:*1 b:^2"


def test_parse_fixture_files():
    for name in ("fig1a", "fig1b", "fig2b", "fig3", "fig5a"):
        a = fixture(name)
        assert a.name == name


def test_serialize_round_trip():
    rng = Random(601)
    for i in range(30):
        a = random_session_automaton(rng, name=f"r{i}")
        text = serialize_automaton(a)
        assert parse_automaton(text, check=False) == a


def test_serialize_round_trip_fixtures():
    for name in ("fig1a", "fig1b", "fig2b", "fig3", "fig5a"):
        a = fixture(name)
        assert parse_automaton(serialize_automaton(a)) == a


def test_serialize_is_stable():
    a = fixture("fig1a")
    assert serialize_automaton(a) == serialize_automaton(parse_automaton(serialize_automaton(a)))


def test_parse_automaton_reports_line_numbers():
    text = (FIXTURES / "fig5a.sra").read_text()
    broken = text.replace("trans q a fresh 1 q", "trans q a fresh q")
    with pytest.raises(ParseError) as info:
        parse_automaton(broken)
    assert info.value.line == text.splitlines().index("trans q a fresh 1 q") + 1
    assert "trans" in info.value.message


def test_parse_automaton_errors():
    base = "automaton t\nlabels a\nregisters 1\nstates q\ninitial q\nfinal q\n"
    cases = [
        ("automaton t\n" + base, "duplicate automaton"),
        (base + "registers 2\n", "duplicate registers"),
        (base + "initial q\n", "duplicate initial"),
        (base + "wibble q\n", "unknown directive"),
        (base + "trans q a sideways 1 q\n", "unknown operation"),
        (base + "trans q a fresh 0 q\n", "positive integer"),
        ("labels a\nregisters 1\nstates q\ninitial q\n", "missing automaton"),
        ("automaton t\nlabels a\nstates q\ninitial q\n", "missing registers"),
        ("automaton t\nlabels a\nregisters 1\nstates q\n", "missing initial"),
        ("automaton t\nlabels a\nregisters 1\ninitial q\n", "missing states"),
        ("automaton t!\n" + base[12:], "expected: automaton NAME"),
        (base + "registers\n", "duplicate registers"),
        # str.isdigit() admits superscripts, which int() rejects
        (base.replace("registers 1", "registers \u00b2"), "registers K"),
        (base + "trans q a fresh \u00b9 q\n", "positive integer"),
    ]
    for text, needle in cases:
        with pytest.raises(ParseError) as info:
            parse_automaton(text)
        assert needle in info.value.message


def test_parse_automaton_comments_and_blanks():
    text = (
        "# top comment\n"
        "automaton t  # trailing\n"
        "\n"
        "labels a\n"
        "registers 1\n"
        "states q\n"
        "initial q\n"
        "final q\n"
        "trans q a fresh 1 q  # loop\n"
    )
    a = parse_automaton(text)
    assert a.name == "t"
    assert len(a.transitions) == 1


def test_parse_automaton_validation_gate():
    # references a state never declared
    text = (
        "automaton t\nlabels a\nregisters 1\nstates q\ninitial q\nfinal q\n"
        "trans q a fresh 1 ghost\n"
    )
    with pytest.raises(InvalidAutomaton) as info:
        parse_automaton(text)
    assert any("ghost" in d for d in info.value.diagnostics)
    a = parse_automaton(text, check=False)
    assert a.name == "t"


def test_dot_export_automaton(fig5a):
    dot = dot_export(fig5a)
    assert dot.startswith("digraph fig5a {")
    assert '"q" [shape=doublecircle];' in dot
    assert "a,⊛1" in dot and "b,↑1" in dot
    assert dot == dot_export(fig5a)


def test_dot_export_register_ops(fig1a):
    dot = dot_export(fig1a)
    assert "⊙" in dot


def test_dot_export_symbolic(fig5a):
    dfa_dot = dot_export(canonicalize(fig5a))
    assert dfa_dot.startswith("digraph dfa {")
    assert "doublecircle" in dfa_dot
