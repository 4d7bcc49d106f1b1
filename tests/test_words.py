import pickle
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    dw,
    enumerate_symbolic_words,
    enumerate_word_classes,
    is_well_formed,
    letter,
    permute_values,
    random_data_word,
    reference_bound,
    reference_concretize,
    reference_is_concretization,
    reference_sessions,
    reference_snf,
    sw,
    symbolic_classes,
)
from sessauto import (
    NotWellFormed,
    OpKind,
    RegisterOp,
    SessautoError,
    Transition,
    TransitionLabel,
    UnsupportedOp,
    ValueAbsent,
    as_symbolic_nfa,
    bound,
    concretize,
    data_equivalent,
    format_data_word,
    format_symbolic_word,
    is_concretization,
    is_k_bounded,
    letter_key,
    max_register,
    occurrence_bounds,
    sessions,
    snf,
    symbolic_alphabet,
)
from sessauto.words import label_columns, snf_registers


def test_snf_golden():
    w = dw("a:8 b:4 a:8 c:3 a:4 b:3 a:9")
    assert format_symbolic_word(snf(w)) == "a:*1 b:*2 a:^1 c:*1 a:^2 b:^1 a:*1"


def test_snf_empty():
    assert snf(()) == ()


def test_snf_single_letter():
    assert format_symbolic_word(snf(dw("a:5"))) == "a:*1"


def test_snf_repeated_value():
    assert format_symbolic_word(snf(dw("a:5 a:5 a:5"))) == "a:*1 a:^1 a:^1"


def test_snf_register_released_at_last_occurrence():
    # value 8 dies at position 3, value 4 is still live, so 3 reclaims register 1
    w = dw("a:8 b:4 a:8 c:3")
    assert format_symbolic_word(snf(w)) == "a:*1 b:*2 a:^1 c:*1"


def test_snf_isolated_values_share_register_one():
    w = dw("a:1 a:2 a:3")
    assert format_symbolic_word(snf(w)) == "a:*1 a:*1 a:*1"


def test_snf_single_occurrence_leaves_freed_register_waiting():
    # 1 frees register 1; 3 occurs once there and 4 then takes it again
    w = dw("a:1 a:2 a:1 a:3 a:4 a:4 a:2")
    assert format_symbolic_word(snf(w)) == "a:*1 a:*2 a:^1 a:*1 a:*1 a:^1 a:^2"


def test_snf_takes_the_smallest_freed_register():
    # registers 2 and 1 are freed, in that order, while 3 holds on
    w = dw("a:1 a:2 a:3 a:2 a:1 a:4 a:4 a:3")
    assert format_symbolic_word(snf(w)) == "a:*1 a:*2 a:*3 a:^2 a:^1 a:*1 a:^1 a:^3"


# 200 sessions nested in one another, each under its own label: a bound far above the ones
# whose letters snf keeps shared, and as many labels as sessions.
NESTED = tuple((f"x{i}", i) for i in range(1, 201)) + tuple((f"x{i}", i) for i in range(200, 0, -1))


@st.composite
def long_data_words(draw):
    """Words of 0-300 letters; a small value pool makes many sessions overlap,
    a large one makes most values occur once."""
    pool = draw(st.sampled_from((2, 6, 40, 100_000)))
    return tuple(draw(st.lists(st.tuples(st.sampled_from("ab"), st.integers(1, pool)), max_size=300)))


@pytest.mark.parametrize("labels", [(), ("a",), ("b", "a", "c")])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_label_columns_follow_letter_key(labels, k):
    # A code's column is its letter's index in the alphabet sorted by letter_key.
    letters = sorted(symbolic_alphabet(frozenset(labels), k), key=letter_key)
    columns = label_columns(frozenset(labels), k)
    assert sorted(columns) == sorted(labels)
    for a, row in columns.items():
        assert len(row) == 2 * k + 1
        for r in range(1, k + 1):
            assert letters[row[r]] == TransitionLabel(a, RegisterOp(OpKind.FRESH, r))
            assert letters[row[-r]] == TransitionLabel(a, RegisterOp(OpKind.REUSE, r))


@settings(max_examples=80, deadline=None)
@given(long_data_words())
@example(())
@example(dw("a:5"))
@example(dw("a:1 a:2 a:1 a:3 a:4 a:4 a:2"))  # 3 occurs once while register 1 waits
@example(dw("a:1 a:2 a:3 a:2 a:1 a:4 a:4 a:3"))  # registers 2 and 1 wait
@example(NESTED)
def test_snf_and_sessions_match_reference(word):
    assert snf(word) == reference_snf(word)
    # item order too: sessions lists values by first occurrence
    assert list(sessions(word).items()) == list(reference_sessions(word).items())


def test_snf_registers_codes():
    # +r a fresh write of register r, -r a reuse: registers 2 and 1 are freed, 3 holds on
    assert snf_registers(dw("a:1 a:2 a:3 a:2 a:1 a:4 a:4 a:3")) == [1, 2, 3, -2, -1, 1, -1, -3]
    assert snf_registers(()) == []


@settings(max_examples=80, deadline=None)
@given(long_data_words())
@example(())
@example(dw("a:5"))
@example(dw("a:1 a:2 a:1 a:3 a:4 a:4 a:2"))  # 3 occurs once while register 1 waits
@example(dw("a:1 a:2 a:3 a:2 a:1 a:4 a:4 a:3"))  # registers 2 and 1 wait
@example(NESTED)
def test_snf_registers_rebuild_the_reference_normal_form(word):
    codes = snf_registers(word)
    rebuilt = tuple(TransitionLabel(a, RegisterOp(OpKind.FRESH if c > 0 else OpKind.REUSE, abs(c)))
                    for (a, _), c in zip(word, codes))
    assert len(codes) == len(word)
    assert rebuilt == reference_snf(word)
    assert max(codes, default=0) == reference_bound(word)


@settings(max_examples=40, deadline=None)
@given(long_data_words())
@example(())
@example(dw("a:5"))
@example(dw("a:1 a:2 a:1 a:3 a:4 a:4 a:2"))  # 3 occurs once while register 1 waits
@example(NESTED)
def test_snf_letters_are_letters(word):
    # A plain tuple equals a letter, so only the types show how letters were built.
    u = snf(word)
    assert all(type(x) is TransitionLabel and type(x.op) is RegisterOp for x in u)
    assert sw(format_symbolic_word(u)) == u
    copy = pickle.loads(pickle.dumps(u))
    assert copy == u
    assert all(type(x) is TransitionLabel and type(x.op) is RegisterOp for x in copy)


def test_occurrence_bounds():
    w = dw("a:8 b:4 a:8 c:3 a:4 b:3 a:9")
    assert occurrence_bounds(w, 8) == (1, 3)
    assert occurrence_bounds(w, 4) == (2, 5)
    assert occurrence_bounds(w, 3) == (4, 6)
    assert occurrence_bounds(w, 9) == (7, 7)
    with pytest.raises(ValueAbsent):
        occurrence_bounds(w, 77)
    # value recurring with another label in between
    assert occurrence_bounds(dw("a:8 b:4 a:8 c:3 a:4 b:4 a:9"), 4) == (2, 6)


def test_sessions_and_bound():
    w = dw("a:4 b:2 a:4 a:3 c:2 c:1 b:3 c:1 c:3")
    assert sessions(w) == {4: (1, 3), 2: (2, 5), 3: (4, 9), 1: (6, 8)}
    assert bound(w) == 2
    assert is_k_bounded(w, 2)
    assert not is_k_bounded(w, 1)


def test_bound_empty_word():
    assert bound(()) == 0
    assert is_k_bounded((), 1)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("ab"), st.integers(1, 20)), max_size=80))
@example([])
@example([("a", 1)])
def test_bound_matches_reference(letters):
    word = tuple(letters)
    assert bound(word) == reference_bound(word)


def test_bound_disjoint_sessions():
    assert bound(dw("a:1 a:1 a:2 a:2")) == 1


def test_bound_nested_sessions():
    assert bound(dw("a:1 a:2 a:3 a:3 a:2 a:1")) == 3


def test_data_equivalent_permutation():
    u = dw("a:1 b:2 a:1")
    v = dw("a:9 b:5 a:9")
    assert data_equivalent(u, v)
    assert not data_equivalent(u, dw("a:9 b:5 a:5"))
    assert not data_equivalent(u, dw("b:9 a:5 b:9"))
    assert not data_equivalent(u, dw("a:1 b:2"))


def test_data_equivalent_iff_same_snf():
    rng = Random(20518)
    for _ in range(300):
        u = random_data_word(rng, max_len=6, max_value=3)
        v = random_data_word(rng, max_len=6, max_value=3)
        assert data_equivalent(u, v) == (snf(u) == snf(v))


def test_data_equivalent_closed_under_permutation():
    rng = Random(31)
    for _ in range(200):
        w = random_data_word(rng)
        assert data_equivalent(w, permute_values(rng, w))


def test_max_register():
    assert max_register(()) == 0
    assert max_register(sw("a:*1 b:*2 a:^1")) == 2
    assert max_register(sw("a:*3")) == 3


def test_is_well_formed():
    assert is_well_formed(sw("a:*1 b:*2 a:^1"))
    assert is_well_formed(())
    assert not is_well_formed(sw("a:^1"))
    assert not is_well_formed(sw("a:*1 b:^2"))
    # a register stays written once written
    assert is_well_formed(sw("a:*1 a:*2 a:^1 a:^1"))


def test_local_ops_rejected():
    with pytest.raises(UnsupportedOp):
        is_well_formed(sw("a:o1"))
    with pytest.raises(UnsupportedOp):
        symbolic_classes(sw("a:*1 a:o1"))
    with pytest.raises(UnsupportedOp):
        concretize(sw("a:o1"))


def test_symbolic_classes():
    u = sw("a:*1 b:*2 a:^1 c:*1 a:^2 b:^1 a:*1")
    assert symbolic_classes(u) == [{1, 3}, {2, 5}, {4, 6}, {7}]


def test_symbolic_classes_fresh_splits_register():
    # both letters use register 1 but the second write starts a new class
    assert symbolic_classes(sw("a:*1 a:*1")) == [{1}, {2}]
    assert symbolic_classes(sw("a:*1 a:^1 a:*1 a:^1")) == [{1, 2}, {3, 4}]


def test_concretize_round_trip():
    u = sw("a:*1 b:*2 a:^1 c:*1 a:^2 b:^1 a:*1")
    w = concretize(u)
    assert snf(w) == u
    assert is_concretization(w, u)


def test_concretize_rejects_ill_formed():
    with pytest.raises(NotWellFormed):
        concretize(sw("a:^1"))


def test_is_concretization():
    u = sw("a:*1 a:^1")
    assert is_concretization(dw("a:7 a:7"), u)
    assert not is_concretization(dw("a:7 a:8"), u)
    assert not is_concretization(dw("a:7"), u)
    assert not is_concretization(dw("b:7 b:7"), u)
    # distinct classes must get distinct values
    assert not is_concretization(dw("a:7 a:7"), sw("a:*1 a:*1"))
    assert is_concretization((), ())


def outcome(f, *args):
    """What f returns, or the type and message of the library error it raises."""
    try:
        return f(*args)
    except SessautoError as err:
        return type(err), str(err)


def test_concretize_matches_reference_exhaustively():
    # Every word of up to 3 letters over two labels, all three operations and
    # two registers, against every data word of its length up to renaming.
    letters = [letter(a, kind, r) for a in "ab" for kind in ("fresh", "reuse", "local")
               for r in (1, 2)]
    words = enumerate_symbolic_words(letters, 3)
    classes = enumerate_word_classes(("a", "b"), 3)
    matches = 0
    for u in words:
        assert outcome(concretize, u) == outcome(reference_concretize, u)
        for w in classes:
            if len(w) == len(u):
                assert is_concretization(w, u) == reference_is_concretization(w, u)
                matches += is_concretization(w, u)
    # A well-formed word has one concretization up to renaming, the others
    # none; 189 of these words are well formed (and have no local letter).
    assert matches == 189


def symbolic_words(kinds, max_size):
    letters = st.builds(letter, st.sampled_from("ab"), st.sampled_from(kinds), st.integers(1, 3))
    return st.lists(letters, max_size=max_size).map(tuple)


@settings(max_examples=300, deadline=None)
@given(
    u=symbolic_words(["fresh", "reuse"], 12) | symbolic_words(["fresh", "reuse", "local"], 6),
    values=st.lists(st.integers(1, 3), max_size=12),
    relabel=st.integers(0, 12),
)
def test_concretize_and_is_concretization_match_reference(u, values, relabel):
    # The data word takes u's labels, but at position relabel, and values 1..3.
    w = tuple(("b" if i == relabel else x.label, v) for i, (x, v) in enumerate(zip(u, values)))
    assert outcome(concretize, u) == outcome(reference_concretize, u)
    assert is_concretization(w, u) == reference_is_concretization(w, u)


def test_word_formatting_round_trip():
    rng = Random(7)
    for _ in range(100):
        w = random_data_word(rng)
        assert dw(format_data_word(w)) == w
        u = snf(w)
        assert sw(format_symbolic_word(u)) == u


def test_epsilon_formats_as_dash():
    assert format_data_word(()) == "-"
    assert format_symbolic_word(()) == "-"


def test_snf_round_trip_properties():
    rng = Random(99)
    for _ in range(400):
        w = random_data_word(rng, max_len=8, max_value=4)
        u = snf(w)
        assert is_well_formed(u)
        assert bound(w) == max_register(u)
        assert is_concretization(w, u)
        assert snf(concretize(u)) == u


# Contract of the letter types (symbolic letters, register operations and
# transitions): constructors, str, repr, pickling, order and hashing.

def test_register_op_rejects_register_below_one():
    for register in (0, -1):
        with pytest.raises(ValueError, match="register index must be >= 1"):
            RegisterOp(OpKind.FRESH, register)
    with pytest.raises(ValueError):
        RegisterOp(kind=OpKind.REUSE, register=0)
    with pytest.raises(ValueError):
        RegisterOp.local(0)


def test_register_op_make_and_replace_check_the_register():
    with pytest.raises(ValueError, match="register index must be >= 1"):
        RegisterOp._make((OpKind.FRESH, 0))
    with pytest.raises(ValueError, match="register index must be >= 1"):
        RegisterOp.fresh(1)._replace(register=0)
    op = RegisterOp.fresh(1)._replace(register=2)
    assert op == RegisterOp.fresh(2) and type(op) is RegisterOp
    assert RegisterOp._make((OpKind.REUSE, 3)) == RegisterOp.reuse(3)


def test_letter_str_and_repr_are_pinned():
    x = TransitionLabel("a", RegisterOp.fresh(1))
    assert str(x) == "a:*1"
    assert str(TransitionLabel(label="b", op=RegisterOp(kind=OpKind.REUSE, register=2))) == "b:^2"
    assert str(RegisterOp.local(3)) == "o3"
    assert repr(x) == (
        "TransitionLabel(label='a', op=RegisterOp(kind=<OpKind.FRESH: 'fresh'>, register=1))"
    )
    assert repr(RegisterOp.reuse(2)) == "RegisterOp(kind=<OpKind.REUSE: 'reuse'>, register=2)"
    assert repr(Transition("q0", x, "q1")) == (
        "Transition(source='q0', label=TransitionLabel(label='a', op=RegisterOp("
        "kind=<OpKind.FRESH: 'fresh'>, register=1)), target='q1')"
    )


def test_letters_and_transitions_pickle():
    word = sw("a:*1 b:*2 a:^1 b:o2")
    t = Transition("q0", word[1], "q1")
    for value in (word, word[3].op, t):
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value
        assert type(copy) is type(value)
    assert type(pickle.loads(pickle.dumps(word))[0].op) is RegisterOp


def test_letter_order_is_pinned():
    letters = sorted(symbolic_alphabet(("b", "a"), 2), key=letter_key)
    assert [str(x) for x in letters] == [
        "a:*1", "a:*2", "a:^1", "a:^2", "b:*1", "b:*2", "b:^1", "b:^2",
    ]


def test_equal_letters_hash_equally():
    built = (TransitionLabel("a", RegisterOp(OpKind.REUSE, 2)),
             TransitionLabel(label="b", op=RegisterOp.fresh(1)))
    parsed = sw("a:^2 b:*1")
    assert built == parsed
    assert hash(built) == hash(parsed)
    assert [hash(x) for x in built] == [hash(x) for x in parsed]


def test_symbolic_view_transitions_are_plain_triples(fig5a):
    plain = frozenset((t.source, t.label, t.target) for t in fig5a.transitions)
    assert as_symbolic_nfa(fig5a).transitions == plain


def test_letter_equals_plain_tuple():
    # A letter is the tuple (label, op), and an operation the tuple (kind, register).
    x = TransitionLabel("a", RegisterOp.fresh(1))
    assert x == ("a", (OpKind.FRESH, 1))
    assert hash(x) == hash(("a", (OpKind.FRESH, 1)))
    assert {x: True}[("a", (OpKind.FRESH, 1))]
