import json

import pytest

from helpers import FIXTURES, dw
from sessauto import bound, equivalent, parse_automaton, parse_data_word, simulate
from sessauto.cli import main

FIG1A = str(FIXTURES / "fig1a.sra")
FIG1B = str(FIXTURES / "fig1b.sra")
FIG2B = str(FIXTURES / "fig2b.sra")
FIG5A = str(FIXTURES / "fig5a.sra")


def test_validate_ok(capsys):
    assert main(["validate", FIG1A]) == 0
    assert capsys.readouterr().out == ""


def test_validate_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.sra"
    bad.write_text(
        "automaton t\nlabels a\nregisters 1\nstates q\ninitial q\n"
        "trans q a fresh 5 q\n"
    )
    assert main(["validate", str(bad)]) == 1
    assert "RegisterOutOfRange" in capsys.readouterr().out


def test_validate_unparseable(tmp_path, capsys):
    bad = tmp_path / "bad.sra"
    bad.write_text("wibble\n")
    assert main(["validate", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_file(capsys):
    assert main(["classify", "/nonexistent/nowhere.sra"]) == 2
    assert "error:" in capsys.readouterr().err


def test_classify(capsys):
    assert main(["classify", FIG1A]) == 0
    assert capsys.readouterr().out.strip() == "register"
    assert main(["classify", FIG1B]) == 0
    assert capsys.readouterr().out.strip() == "session"


def test_classify_non_ascii_register_count(tmp_path, capsys):
    bad = tmp_path / "bad.sra"
    bad.write_text("automaton t\nlabels a\nregisters \u00b2\nstates q\ninitial q\n")
    assert main(["classify", str(bad)]) == 2
    assert "registers K" in capsys.readouterr().err


def test_snf(capsys):
    assert main(["snf", "-w", "a:8 b:4 a:8 c:3 a:4 b:3 a:9"]) == 0
    assert capsys.readouterr().out.strip() == "a:*1 b:*2 a:^1 c:*1 a:^2 b:^1 a:*1"


def test_snf_bad_word(capsys):
    assert main(["snf", "-w", "a:*1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_bound(capsys):
    assert main(["bound", "-w", "a:4 b:2 a:4 a:3 c:2 c:1 b:3 c:1 c:3"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_member(capsys):
    word = "req:8 req:4 ack:8 req:3 ack:4 req:8 ack:3 ack:8"
    assert main(["member", FIG1A, "-w", word]) == 0
    assert main(["member", FIG1B, "-w", word]) == 1


def test_symbolic_member():
    assert main(["symbolic-member", FIG5A, "-u", "a:*1 b:^1"]) == 0
    assert main(["symbolic-member", FIG5A, "-u", "a:^1"]) == 1


def test_symbolic_member_unknown_label(capsys):
    # exit 2 with the error member gives, not 1 for a rejected word
    assert main(["symbolic-member", FIG5A, "-u", "z:*1"]) == 2
    assert "error: label 'z' is not in the alphabet of fig5a" in capsys.readouterr().err
    assert main(["member", FIG5A, "-w", "z:1"]) == 2
    assert "error: label 'z' is not in the alphabet of fig5a" in capsys.readouterr().err


def test_canonical(tmp_path, capsys):
    out = tmp_path / "can.sra"
    dot = tmp_path / "can.dot"
    assert main(["canonical", FIG5A, "-o", str(out), "--dot", str(dot)]) == 0
    a = parse_automaton(out.read_text())
    assert len(a.states) == 4
    assert dot.read_text().startswith("digraph dfa {")
    # without -o the automaton goes to stdout
    assert main(["canonical", FIG5A]) == 0
    assert "automaton can_fig5a" in capsys.readouterr().out


def test_canonical_writes_the_declared_register_count(tmp_path):
    # fig5a declaring a third register it never uses: the canonical DFA has no
    # register count, and the automaton written from it keeps the declared one.
    wide = tmp_path / "wide.sra"
    wide.write_text((FIXTURES / "fig5a.sra").read_text().replace("registers 2", "registers 3"))
    out = tmp_path / "can.sra"
    assert main(["canonical", str(wide), "-o", str(out)]) == 0
    assert "registers 3" in out.read_text().splitlines()


def test_canonical_of_register_automaton_fails():
    assert main(["canonical", FIG1A]) == 2


def test_op_union_and_intersect(tmp_path):
    out = tmp_path / "out.sra"
    assert main(["op", "union", FIG2B, FIG5A, "-o", str(out)]) == 0
    u = parse_automaton(out.read_text())
    assert simulate(u, dw("a:1 a:2 b:1"))
    assert main(["op", "intersect", FIG2B, FIG5A, "-o", str(out)]) == 0
    both = parse_automaton(out.read_text())
    # common words are the all-distinct a-words: fig5a has no a-reuse loop
    assert simulate(both, dw("a:1 a:2"))
    assert not simulate(both, dw("a:1 a:1"))
    assert not simulate(both, dw("b:1"))


def test_op_complement(tmp_path):
    out = tmp_path / "out.sra"
    assert main(["op", "complement", FIG5A, "-o", str(out)]) == 0
    comp = parse_automaton(out.read_text())
    w = dw("b:1 b:1")
    assert simulate(comp, w) and not simulate(parse_automaton((FIXTURES / "fig5a.sra").read_text()), w)


def test_op_arity_errors(capsys):
    assert main(["op", "complement", FIG5A, FIG2B]) == 2
    assert "single automaton" in capsys.readouterr().err
    assert main(["op", "union", FIG5A]) == 2
    assert "two automata" in capsys.readouterr().err


def test_op_rejects_register_automaton(capsys):
    assert main(["op", "complement", FIG1A]) == 2
    assert "session" in capsys.readouterr().err


def test_include_and_equiv(tmp_path, capsys):
    assert main(["include", FIG5A, FIG2B]) == 1
    witness = parse_data_word(capsys.readouterr().out.strip())
    # every a-only word of fig5a is also in fig2b, so the witness needs a b
    assert "b" in [a for a, _ in witness]
    assert main(["include", FIG2B, FIG2B]) == 0
    assert capsys.readouterr().out == ""
    assert main(["equiv", FIG2B, FIG5A]) == 1
    assert parse_data_word(capsys.readouterr().out.strip())
    assert main(["equiv", FIG5A, FIG5A]) == 0


def test_empty(tmp_path, capsys):
    assert main(["empty", FIG5A]) == 1
    w = parse_data_word(capsys.readouterr().out.strip())
    assert w == ()  # shortest accepted word: fig5a accepts the empty word
    dead = tmp_path / "dead.sra"
    dead.write_text(
        "automaton dead\nlabels a\nregisters 1\nstates q\ninitial q\n"
        "trans q a fresh 1 q\n"
    )
    assert main(["empty", str(dead)]) == 0


def test_universal(capsys):
    assert main(["universal", FIG2B, "-k", "2"]) == 0
    assert main(["universal", FIG2B, "-k", "3"]) == 1
    w = parse_data_word(capsys.readouterr().out.strip())
    assert bound(w) == 3
    assert main(["universal", FIG2B, "-k", "0"]) == 2


def test_learn_reference(tmp_path, capsys):
    trace_path = tmp_path / "trace.jsonl"
    assert main(["learn", FIG5A, "--trace", str(trace_path)]) == 0
    learned = parse_automaton(capsys.readouterr().out)
    assert equivalent(learned, parse_automaton((FIXTURES / "fig5a.sra").read_text())) is None
    events = [json.loads(line) for line in trace_path.read_text().splitlines()]
    assert events[-1]["event"] == "EquivalenceQuery"
    assert events[-1]["detail"] == "equivalent"
    assert all(list(e) == ["event", "detail", "k", "upper_rows", "columns"] for e in events)
    pinned = (FIXTURES / "fig5a_learn_trace.tsv").read_text().splitlines()
    assert ["\t".join(str(v) for v in e.values()) for e in events] == pinned


def test_learn_trace_of_a_failed_run(tmp_path, capsys):
    trace_path = tmp_path / "trace.jsonl"
    assert main(["learn", FIG5A, "--max-queries", "40", "--trace", str(trace_path)]) == 2
    assert "budget" in capsys.readouterr().err
    events = [json.loads(line) for line in trace_path.read_text().splitlines()]
    pinned = (FIXTURES / "fig5a_learn_trace.tsv").read_text().splitlines()
    assert ["\t".join(str(v) for v in e.values()) for e in events] == pinned[:43]


def test_learn_scripted(tmp_path, capsys):
    script = tmp_path / "script.txt"
    script.write_text("# replayed counterexamples\na:3 b:3\na:7 a:4 b:7\na:9 a:3 b:9 b:3\n")
    assert main(["learn", FIG5A, "--script", str(script)]) == 0
    learned = parse_automaton(capsys.readouterr().out)
    assert len(learned.states) == 5


def test_learn_script_with_unknown_label(tmp_path, capsys):
    script = tmp_path / "script.txt"
    script.write_text("z:1\n")
    assert main(["learn", FIG5A, "--script", str(script)]) == 2
    assert "error: label 'z' is outside the learning alphabet" in capsys.readouterr().err


def test_learn_budget(capsys):
    assert main(["learn", FIG5A, "--max-queries", "3"]) == 2
    assert "budget" in capsys.readouterr().err


def test_learn_negative_budget(capsys):
    assert main(["learn", FIG5A, "--max-queries", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --max-queries must be at least 0\n"


def test_learn_target_without_labels(tmp_path, capsys):
    path = tmp_path / "e.sra"
    path.write_text("automaton e\nregisters 1\nstates q\ninitial q\nfinal q\n")
    assert main(["learn", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and "label" in err


def test_dot(tmp_path):
    out = tmp_path / "a.dot"
    assert main(["dot", FIG1A, "-o", str(out)]) == 0
    assert out.read_text().startswith("digraph fig1a {")


def test_usage_errors():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["snf"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["op", "xor", FIG5A, FIG2B])
    assert info.value.code == 2
