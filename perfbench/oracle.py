"""Answer checks that do not trust the code path being timed.

Logs are checked against how they were built (see ``gen``), and the session
bound against a sweep written here.  Decisions are checked by replaying
witnesses and by brute force over every data word up to a small length,
through ``simulate``, which no decision calls.  The data-word space is
enumerated through value patterns, one word per equivalence class.
"""

from __future__ import annotations

from sessauto.automata import simulate as _simulate


def over(alphabet, word) -> bool:
    return all(a in alphabet for a, _ in word)


def simulate(automaton, word) -> bool:
    """Membership, where a word with a label outside the automaton's alphabet is rejected."""
    return over(automaton.alphabet, word) and _simulate(automaton, word)


def session_bound(word) -> int:
    """Largest number of values whose first..last interval covers one position."""
    last = {d: i for i, (_, d) in enumerate(word)}
    open_now = best = 0
    seen = set()
    for i, (_, d) in enumerate(word):
        if d not in seen:
            seen.add(d)
            open_now += 1
        best = max(best, open_now)
        if last[d] == i:
            open_now -= 1
    return best


def word_classes(labels, max_len: int) -> list[tuple]:
    """One data word per class of words up to ``max_len`` letters (labels kept, values permuted)."""
    labels = sorted(labels)
    out = [()]
    frontier = [((), 0)]  # (word, number of distinct values used)
    for _ in range(max_len):
        frontier = [
            (word + ((a, v),), max(used, v))
            for word, used in frontier
            for a in labels
            for v in range(1, used + 2)
        ]
        out.extend(w for w, _ in frontier)
    return out


def memberships(automaton, words) -> list[bool]:
    return [simulate(automaton, w) for w in words]


def check_decision(op: str, automata, answer, words, vectors) -> str | None:
    """None when ``answer`` is right for ``op``, else what went wrong.

    ``vectors[i]`` lists the memberships of ``automata[i]`` on ``words``.
    """
    a, va = automata[0], vectors[0]
    if op in ("equivalent", "includes_ab", "includes_ba"):
        pairs = list(zip(automata, vectors))
        (x, vx), (y, vy) = pairs[::-1] if op == "includes_ba" else pairs
        def separates(inx, iny):
            return inx != iny if op == "equivalent" else inx and not iny
        if answer is not None:
            if separates(simulate(x, answer), simulate(y, answer)):
                return None
            return f"witness {answer} does not separate"
        bad = next((w for w, inx, iny in zip(words, vx, vy) if separates(inx, iny)), None)
        return None if bad is None else f"answered None but {bad} separates"
    if op == "is_empty":
        if answer is not None:
            return None if simulate(a, answer) else f"witness {answer} is rejected"
        bad = next((w for w, v in zip(words, va) if v), None)
        return None if bad is None else f"answered empty but {bad} is accepted"
    # Universality and complement are relative to the k-bounded words over a's own labels.
    k = a.registers
    def bounded(w):
        return session_bound(w) <= k and over(a.alphabet, w)
    if op == "is_universal":
        if answer is not None:
            if bounded(answer) and not simulate(a, answer):
                return None
            return f"witness {answer} is accepted or not a {k}-bounded word over {sorted(a.alphabet)}"
        bad = next((w for w, v in zip(words, va) if not v and bounded(w)), None)
        return None if bad is None else f"answered universal but {bad} is rejected"
    if op == "intersect":
        expect = [x and y for x, y in zip(va, vectors[1])]
    elif op == "complement":
        expect = [not x and bounded(w) for w, x in zip(words, va)]
    else:
        raise ValueError(f"unknown decision {op!r}")
    bad = next((w for w, want in zip(words, expect) if simulate(answer, w) != want), None)
    return None if bad is None else f"result automaton is wrong on {bad}"
