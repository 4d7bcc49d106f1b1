"""Data words and symbolic words.

A data word is a finite sequence of (label, value) pairs where values are
drawn from an infinite domain (non-negative integers here).  A symbolic word
replaces each value by a register operation:

    fresh  (written ``*r``)  store a globally fresh value in register r
    reuse  (written ``^r``)  read the value currently held by register r
    local  (written ``or``)  store a value distinct from all register contents

Two data words are equivalent when they differ only by a permutation of the
value domain.  ``snf`` maps every data word to the unique symbolic normal
form of its equivalence class, reusing the smallest register whose value is
dead; ``concretize`` goes back, picking the smallest unused values.

The register assignment of the normal form is its own function,
``snf_registers``: one int per letter, +r for a fresh write of register r
and -r for a reuse.  ``snf`` turns the codes into letters, and the reference
teacher walks its canonical DFA along them without building any letter.

Letters (TransitionLabel) and register operations (RegisterOp) are named
tuples and OpKind hashes by identity, so words hash and compare in C; a
letter equals the plain tuple (label, op).  ``snf`` builds its letters with
``tuple.__new__``, once per distinct letter of the word, so a letter costs
it no Python-level constructor call.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from heapq import heappop, heappush
from itertools import accumulate
from typing import NamedTuple

from .errors import NotWellFormed, UnsupportedOp, ValueAbsent


class OpKind(enum.Enum):
    FRESH = "fresh"
    REUSE = "reuse"
    LOCAL = "local"

    # Members compare by identity, so an identity hash, which runs in C, agrees.
    __hash__ = object.__hash__


# ASCII spellings used by the text formats, and glyphs used for DOT output.
OP_ASCII = {OpKind.FRESH: "*", OpKind.REUSE: "^", OpKind.LOCAL: "o"}
OP_GLYPH = {OpKind.FRESH: "⊛", OpKind.REUSE: "↑", OpKind.LOCAL: "⊙"}
_OP_RANK = {OpKind.FRESH: 0, OpKind.REUSE: 1, OpKind.LOCAL: 2}


class RegisterOp(NamedTuple("RegisterOp", [("kind", OpKind), ("register", int)])):
    # A NamedTuple body may not define __new__, so the check needs a subclass.
    __slots__ = ()

    def __new__(cls, kind: OpKind, register: int) -> "RegisterOp":
        if register < 1:
            raise ValueError(f"register index must be >= 1, got {register}")
        return tuple.__new__(cls, (kind, register))

    @classmethod
    def _make(cls, iterable) -> "RegisterOp":
        # The inherited _make, which _replace calls too, would skip the check.
        return cls(*iterable)

    def __str__(self) -> str:
        return f"{OP_ASCII[self.kind]}{self.register}"

    @classmethod
    def fresh(cls, register: int) -> "RegisterOp":
        return cls(OpKind.FRESH, register)

    @classmethod
    def reuse(cls, register: int) -> "RegisterOp":
        return cls(OpKind.REUSE, register)

    @classmethod
    def local(cls, register: int) -> "RegisterOp":
        return cls(OpKind.LOCAL, register)


class TransitionLabel(NamedTuple):
    """One symbolic letter: a plain label together with a register operation."""

    label: str
    op: RegisterOp

    def __str__(self) -> str:
        return f"{self.label}:{self.op}"


# Words are plain tuples so they hash, slice and concatenate naturally.
DataLetter = tuple[str, int]
DataWord = tuple[DataLetter, ...]
SymbolicWord = tuple[TransitionLabel, ...]


def letter_key(letter: TransitionLabel) -> tuple:
    """Total order on symbolic letters: label, then fresh < reuse < local, then register."""
    return (letter.label, _OP_RANK[letter.op.kind], letter.op.register)


def word_key(word: SymbolicWord) -> tuple:
    """Shortlex order on symbolic words."""
    return (len(word), tuple(letter_key(x) for x in word))


@lru_cache(maxsize=256)
def symbolic_alphabet(labels: frozenset[str], max_register: int) -> frozenset[TransitionLabel]:
    """All fresh/reuse letters over the given labels and registers 1..max_register, shared."""
    return frozenset(
        TransitionLabel(a, RegisterOp(kind, r))
        for a in labels
        for kind in (OpKind.FRESH, OpKind.REUSE)
        for r in range(1, max_register + 1)
    )


def label_columns(labels: frozenset[str], max_register: int) -> dict[str, tuple]:
    """Each label's columns in a DFA over ``symbolic_alphabet(labels, max_register)``, whose
    columns follow ``letter_key``, indexed by ``snf_registers`` code: fresh r at r, reuse r
    at -r (index 0 is unused).  The j-th label in sorted order takes 2k columns from 2k*j on,
    k = max_register: its fresh writes of registers 1..k, then its reuses of them."""
    k, columns = max_register, {}
    for j, label in enumerate(sorted(labels)):
        fresh = range(2 * k * j, 2 * k * j + k)
        columns[label] = (None, *fresh, *reversed(range(fresh.stop, fresh.stop + k)))
    return columns


def occurrence_bounds(word: DataWord, value: int) -> tuple[int, int]:
    """1-based positions of the first and last occurrence of a value."""
    try:
        return sessions(word)[value]
    except KeyError:
        raise ValueAbsent(f"value {value} does not occur in the word") from None


def _pattern(word: DataWord) -> tuple:
    # Fingerprint of the value-equality pattern: position of first occurrence.
    seen: dict[int, int] = {}
    out = []
    for i, (_, d) in enumerate(word):
        seen.setdefault(d, i)
        out.append(seen[d])
    return tuple(out)


def data_equivalent(w1: DataWord, w2: DataWord) -> bool:
    """True when the words differ only by a permutation of data values."""
    if len(w1) != len(w2):
        return False
    if any(a != b for (a, _), (b, _) in zip(w1, w2)):
        return False
    return _pattern(w1) == _pattern(w2)


def sessions(word: DataWord) -> dict[int, tuple[int, int]]:
    """Per value, in order of first occurrence, its first and last positions (1-based)."""
    out: dict[int, tuple[int, int]] = {}
    for i, (_, d) in enumerate(word, 1):
        first, _ = out.get(d, (i, i))
        out[d] = (first, i)
    return out


def bound(word: DataWord) -> int:
    """Largest number of sessions any single position belongs to (0 for the empty word).

    One sweep over the session endpoints: a session opens (+1) at its first
    position and closes (-1) right after its last, and the bound is the
    largest running total.
    """
    change = [0] * (len(word) + 2)
    for first, last in sessions(word).values():
        change[first] += 1
        change[last + 1] -= 1
    return max(accumulate(change))


def is_k_bounded(word: DataWord, k: int) -> bool:
    return bound(word) <= k


def _reject_local(word: SymbolicWord, what: str) -> None:
    for letter in word:
        if letter.op.kind is OpKind.LOCAL:
            raise UnsupportedOp(f"{what} is undefined for locally-fresh letters ({letter})")


def max_register(word: SymbolicWord) -> int:
    return max((x.op.register for x in word), default=0)


def snf_registers(word: DataWord) -> list[int]:
    """The register assignment of ``snf``, one code per letter: +r for a fresh write of
    register r, -r for a reuse of it.  ``snf`` builds its letters from these codes, and the
    reference teacher walks its canonical DFA along them without building a letter.

    A first occurrence takes a fresh write to the smallest free register; a
    later occurrence reuses the register assigned at the first occurrence.  A
    register becomes free again at the last occurrence of its value, so the
    largest code is the session bound of the word.  Each letter costs a few
    dict and list operations.  The registers of live values and the freed
    ones (a heap) are always 1..m, so with none freed the next register is
    one past the live values.
    """
    last = {d: i for i, (_, d) in enumerate(word)}
    freed: list[int] = []
    held: dict[int, int] = {}  # live value -> its register
    out = []
    for i, (_, d) in enumerate(word):
        if d in held:
            r = held[d]
            if last[d] == i:
                del held[d]
                heappush(freed, r)
            out.append(-r)
        elif freed:
            if last[d] == i:
                out.append(freed[0])
            else:
                r = held[d] = heappop(freed)
                out.append(r)
        else:
            r = len(held) + 1
            if last[d] != i:
                held[d] = r
            out.append(r)
    return out


def snf(word: DataWord) -> SymbolicWord:
    """Symbolic normal form of a data word: each letter's register operation is its code
    in ``snf_registers``, +r a fresh write of register r and -r a reuse of it.

    Each distinct letter of the word is built once, by ``tuple.__new__``,
    which skips the constructors' checks (every register here is >= 1), and
    kept in a dict by (label, code); a letter read again costs one lookup.
    """
    new = tuple.__new__
    letters: dict[tuple[str, int], TransitionLabel] = {}
    out = []
    for (a, _), c in zip(word, snf_registers(word)):
        x = letters.get((a, c))
        if x is None:
            op = new(RegisterOp, (OpKind.FRESH, c) if c > 0 else (OpKind.REUSE, -c))
            x = letters[a, c] = new(TransitionLabel, (a, op))
        out.append(x)
    return tuple(out)


def concretize(word: SymbolicWord) -> DataWord:
    """Smallest concretization of a well-formed symbolic word: the n-th fresh write
    takes the value n, a reuse the value its register holds.  A local letter
    raises UnsupportedOp, else a reuse of an unwritten register NotWellFormed."""
    held: dict[int, int] = {}
    n = 0
    out = []
    fresh, local = OpKind.FRESH, OpKind.LOCAL  # an enum class lookup per letter is slow
    for label, (kind, register) in word:
        if kind is fresh:
            n += 1
            held[register] = n
        elif kind is local or register not in held:
            _reject_local(word, "well-formedness")
            raise NotWellFormed(f"cannot concretize {' '.join(map(str, word))}: "
                                "a register is reused before being written")
        out.append((label, held[register]))
    return tuple(out)


def is_concretization(word: DataWord, symbolic: SymbolicWord) -> bool:
    """True when the data word is ``concretize(symbolic)`` up to a permutation
    of values; False when the symbolic word has a local letter or is ill formed."""
    try:
        return data_equivalent(word, concretize(symbolic))
    except (UnsupportedOp, NotWellFormed):
        return False
