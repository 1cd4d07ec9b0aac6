"""Pattern abstraction from §II of the paper.

A pattern over ``d`` categorical attributes is a length-``d`` tuple of
ints where each element is either an attribute value (``0..c_i-1``) or
:data:`X` (= -1), the non-deterministic marker. Tuples are hashable, so
patterns are used directly as dict/set keys throughout the algorithms.

The string form mirrors the paper's notation (``"X1X0"``); it supports
cardinalities up to 10 (single digit per element), which covers every
dataset in the evaluation (max cardinality 10, BlueNile ``shape``).
"""
from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence, Tuple

#: Non-deterministic element marker ("X" in the paper).
X = -1

#: A pattern is a tuple of ints; -1 encodes the paper's ``X``.
Pattern = Tuple[int, ...]


def parse(s: str) -> Pattern:
    """Parse the paper's string notation, e.g. ``"X1X0"`` -> (-1,1,-1,0)."""
    return tuple(X if ch in "Xx" else int(ch) for ch in s)


def fmt(p: Pattern) -> str:
    """Format a pattern in the paper's notation (values must be < 10)."""
    out = []
    for v in p:
        if v == X:
            out.append("X")
        else:
            if not 0 <= v <= 9:
                raise ValueError(f"fmt only supports single-digit values, got {v}")
            out.append(str(v))
    return "".join(out)


def level(p: Pattern) -> int:
    """ℓ(P): the number of deterministic elements (§II)."""
    return len(p) - p.count(X)


def root(d: int) -> Pattern:
    """The level-0 pattern ``XX...X`` over ``d`` attributes."""
    return (X,) * d


def matches(t: Sequence[int], p: Pattern) -> bool:
    """M(t, P) from Eq. 1: t matches P iff every deterministic element agrees."""
    return all(pv == X or pv == tv for tv, pv in zip(t, p))


def value_count(p: Pattern, cards: Sequence[int]) -> int:
    """Definition 7: number of value combinations matching P (Π c_i over X's)."""
    out = 1
    for v, c in zip(p, cards):
        if v == X:
            out *= c
    return out


def dominates(general: Pattern, specific: Pattern) -> bool:
    """True iff ``general`` dominates ``specific`` (matches(specific) ⊆ matches(general)).

    Per §II this holds iff every deterministic element of ``general``
    is matched exactly by ``specific``. Reflexive by construction.
    """
    return all(g == X or g == s for g, s in zip(general, specific))


def parents(p: Pattern) -> Iterator[Pattern]:
    """All parents of P: each deterministic element replaced by X (Def. 4)."""
    for i, v in enumerate(p):
        if v != X:
            yield p[:i] + (X,) + p[i + 1 :]


def children(p: Pattern, cards: Sequence[int]) -> Iterator[Pattern]:
    """All children of P: each X replaced by every value of that attribute."""
    for i, v in enumerate(p):
        if v == X:
            for val in range(cards[i]):
                yield p[:i] + (val,) + p[i + 1 :]


def rightmost_det(p: Pattern) -> int:
    """Index of the right-most deterministic element, or -1 if none."""
    for i in range(len(p) - 1, -1, -1):
        if p[i] != X:
            return i
    return -1


def rightmost_x(p: Pattern) -> int:
    """Index of the right-most X, or -1 if none (fully deterministic)."""
    for i in range(len(p) - 1, -1, -1):
        if p[i] == X:
            return i
    return -1


def rule1_children(p: Pattern, cards: Sequence[int]) -> Iterator[Pattern]:
    """Rule 1 (§III-C): replace X's strictly right of the right-most
    deterministic element with each attribute value.

    Transforms the pattern graph into a tree: every non-root node is
    generated by exactly one parent (Theorem 3).
    """
    start = rightmost_det(p) + 1
    for i in range(start, len(p)):
        if p[i] == X:
            for val in range(cards[i]):
                yield p[:i] + (val,) + p[i + 1 :]


def rule1_generator(p: Pattern) -> Pattern:
    """The unique Rule-1 parent of P: right-most deterministic element -> X."""
    i = rightmost_det(p)
    if i < 0:
        raise ValueError("the root has no Rule-1 generator")
    return p[:i] + (X,) + p[i + 1 :]


def rule2_parents(p: Pattern) -> Iterator[Pattern]:
    """Rule 2 (§III-D): replace deterministic 0-elements strictly right of
    the right-most X with X, one at a time.

    Transforms the pattern graph into a forest rooted at the level-d
    nodes: every non-leaf node is generated by exactly one child
    (Theorem 4).
    """
    start = rightmost_x(p) + 1
    for i in range(start, len(p)):
        if p[i] == 0:
            yield p[:i] + (X,) + p[i + 1 :]


def rule2_generator(p: Pattern) -> Pattern:
    """The unique Rule-2 child of P: right-most X -> value 0."""
    i = rightmost_x(p)
    if i < 0:
        raise ValueError("a fully deterministic pattern has no Rule-2 generator")
    return p[:i] + (0,) + p[i + 1 :]


def all_patterns(cards: Sequence[int]) -> Iterator[Pattern]:
    """Every pattern over the given cardinalities (Π (c_i + 1) of them)."""
    return itertools.product(*[[X] + list(range(c)) for c in cards])


def all_combos(cards: Sequence[int]) -> Iterator[Pattern]:
    """Every fully deterministic value combination (Π c_i of them)."""
    return itertools.product(*[range(c) for c in cards])


def descendants_at_level(p: Pattern, lam: int, cards: Sequence[int]) -> Iterator[Pattern]:
    """All descendants of P at level ``lam`` (used by Appendix C).

    Chooses ``lam - ℓ(P)`` of P's X positions and assigns them every
    value combination. Yields P itself when ``lam == ℓ(P)``.
    """
    lp = level(p)
    if lam < lp:
        raise ValueError(f"lam={lam} below pattern level {lp}")
    x_pos = [i for i, v in enumerate(p) if v == X]
    for pos_subset in itertools.combinations(x_pos, lam - lp):
        for vals in itertools.product(*[range(cards[i]) for i in pos_subset]):
            q = list(p)
            for i, val in zip(pos_subset, vals):
                q[i] = val
            yield tuple(q)


def min_level(mups: Iterable[Pattern], d: int) -> int:
    """Minimum level among ``mups`` (d+1 if empty, i.e. deeper than any pattern)."""
    levels = [level(p) for p in mups]
    return min(levels) if levels else d + 1


def max_covered_level(mups: Iterable[Pattern], d: int) -> int:
    """Definition 6: the max λ with every (material) MUP strictly deeper than λ."""
    return min_level(mups, d) - 1
