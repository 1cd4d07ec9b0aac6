"""Coverage oracle (Appendix A) over a Spark groupBy aggregate.

The scale-with-n work — scanning the (partitioned) dataset and reducing
it to distinct value combinations with multiplicities — is a single
Spark ``groupBy(*attrs).count()``. The reduced form (≤ min(n, Π c_i)
rows) is pulled to the driver, where ``cov(P)`` is served from exactly
one of two representations, chosen by the size of the pattern graph:

* **Dense lattice** when Π(c_i + 1) ≤ :data:`MAX_LATTICE_CELLS` (2²²
  cells, 32 MiB of int64). The array has shape (c_1+1, …, c_d+1): the
  counts are scattered at the value combinations, then one sum per axis
  (a zeta transform, the ``GROUP BY CUBE`` of Gray et al., ICDE 1996)
  fills slot c_i with the total over values 0..c_i−1 — the X marginal.
  Because X = −1 is numpy's last index, i.e. slot c_i, ``cov(P)`` is
  the single lookup ``L[P]`` with no index translation.
* **Appendix-A inverted indices** otherwise (wide AirBnB, T7/T9): one
  numpy boolean mask per attribute value over the distinct rows;
  ``cov(P)`` ANDs the masks of P's deterministic elements and sums the
  matching multiplicities.
"""
from __future__ import annotations

import math
import operator
import time
from typing import Dict, List, Optional, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.core.patterns import X, Pattern


#: Largest dense lattice built, in cells (int64 each: 32 MiB).
MAX_LATTICE_CELLS = 1 << 22


class TimeBudgetExceeded(Exception):
    """Raised by the algorithms when their wall-clock budget is spent."""


class Deadline:
    """Cheap cooperative wall-clock budget, checked every ``stride`` ticks."""

    def __init__(self, seconds: Optional[float], stride: int = 256):
        self.t_end = None if seconds is None else time.perf_counter() + seconds
        self.stride = stride
        self._tick = 0

    def check(self) -> None:
        if self.t_end is None:
            return
        self._tick += 1
        if (self._tick == 1 or self._tick % self.stride == 0) and (
            time.perf_counter() > self.t_end
        ):
            raise TimeBudgetExceeded()


class CoverageIndex:
    """Coverage oracle over the distinct value combinations.

    Attributes
    ----------
    combos : (m, d) int array of distinct value combinations in the data
    counts : (m,) int array of multiplicities (Σ counts == n)
    cards  : attribute cardinalities
    lattice : dense (c_1+1, …, c_d+1) coverage array, or None
    masks  : per attribute, per value, boolean mask over ``combos``, or
             None; exactly one of ``lattice`` and ``masks`` is built
    cov_calls : number of coverage evaluations served (profiling aid)
    """

    def __init__(self, combos: np.ndarray, counts: np.ndarray, cards: Sequence[int]):
        combos = np.asarray(combos, dtype=np.int64).reshape(-1, len(cards))
        counts = np.asarray(counts, dtype=np.int64).reshape(-1)
        if combos.shape[0] != counts.shape[0]:
            raise ValueError("combos/counts length mismatch")
        self.combos = combos
        self.counts = counts
        self.cards = list(cards)
        self.d = len(self.cards)
        self.n = int(counts.sum())
        for i, c in enumerate(self.cards):
            col = combos[:, i]
            if col.size and (col.min() < 0 or col.max() >= c):
                raise ValueError(f"attribute {i} has values outside [0, {c})")
        self.lattice: Optional[np.ndarray] = None
        self.masks: Optional[List[Dict[int, np.ndarray]]] = None
        # Python ints: an int64 product would wrap on wide or high-cardinality schemas.
        if math.prod(c + 1 for c in self.cards) <= MAX_LATTICE_CELLS:
            self.lattice = _lattice(combos, counts, self.cards)
        else:
            self.masks = [
                {v: combos[:, i] == v for v in range(c)}
                for i, c in enumerate(self.cards)
            ]
        self.cov_calls = 0
        self._exact: Optional[Dict[Pattern, int]] = None

    # -- constructors -------------------------------------------------

    @classmethod
    def from_pandas(cls, pdf: pd.DataFrame, attrs: Sequence[str], cards: Sequence[int]) -> "CoverageIndex":
        """Driver-side constructor (tests and tiny inputs)."""
        g = pdf.groupby(list(attrs), sort=False, dropna=False).size().reset_index(name="count")
        return cls._from_aggregate(g, attrs, cards)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cards: Sequence[int]) -> "CoverageIndex":
        """From an in-memory list of tuples (used heavily in tests)."""
        attrs = [f"a{i}" for i in range(len(cards))]
        pdf = pd.DataFrame(list(rows), columns=attrs)
        return cls.from_pandas(pdf, attrs, cards)

    @classmethod
    def from_spark(cls, df: DataFrame, attrs: Sequence[str], cards: Sequence[int]) -> "CoverageIndex":
        """The production path: distributed groupBy/aggregate, then collect
        the (small) distinct-combination relation to the driver."""
        agg = df.groupBy(*attrs).count()
        return cls._from_aggregate(agg.toPandas(), attrs, cards)

    @classmethod
    def _from_aggregate(cls, g: pd.DataFrame, attrs: Sequence[str], cards: Sequence[int]) -> "CoverageIndex":
        """From the ``(attrs…, count)`` aggregate; a NULL key is an error.

        Checked on the m aggregate rows, not the n input rows: both
        ``groupBy`` paths keep NULL (and NaN) as a group of its own.
        """
        attrs = list(attrs)
        keys, counts = g[attrs].to_numpy(), g["count"].to_numpy()
        nulls = pd.isna(keys)
        if nulls.any():
            i = int(nulls.any(axis=0).argmax())
            k = int(counts[nulls[:, i]].sum())
            raise ValueError(f"attribute {attrs[i]!r} has {k} NULL values")
        return cls(keys, counts, cards)

    # -- coverage oracle ----------------------------------------------

    def cov(self, p: Pattern) -> int:
        """cov(P, D): one lattice lookup, or AND the masks and sum counts."""
        self.cov_calls += 1
        if len(p) != self.d or min(p, default=X) < X or not all(map(operator.lt, p, self.cards)):
            raise ValueError(
                f"pattern {p} is not over cards {self.cards}: "
                f"need {self.d} elements, each X or in [0, c_i)"
            )
        if self.lattice is not None:
            return int(self.lattice[p])
        mask: Optional[np.ndarray] = None
        for i, v in enumerate(p):
            if v == X:
                continue
            m = self.masks[i][v]
            mask = m if mask is None else (mask & m)
        if mask is None:
            return self.n
        return int(self.counts[mask].sum())

    def exact_counts(self) -> Dict[Pattern, int]:
        """Multiplicity of every *present* full value combination.

        This is the level-d input of PATTERN-COMBINER; combinations
        absent from the data have count 0 and are simply not listed.
        """
        if self._exact is None:
            self._exact = {
                tuple(int(v) for v in row): int(c)
                for row, c in zip(self.combos, self.counts)
            }
        return self._exact


def _lattice(combos: np.ndarray, counts: np.ndarray, cards: Sequence[int]) -> np.ndarray:
    """cov of every pattern: slot c_i of axis i holds the X marginal."""
    lat = np.zeros([c + 1 for c in cards], dtype=np.int64)
    np.add.at(lat, tuple(combos.T), counts)
    for i, c in enumerate(cards):
        head = (slice(None),) * i
        # The Ellipsis keeps a view even at d = 1, so += writes into lat.
        x_slot = lat[head + (c, ...)]
        for v in range(c):
            x_slot += lat[head + (v, ...)]
    return lat
