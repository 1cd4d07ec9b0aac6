"""CoverageIndex (Appendix A) against the brute-force Definition-2 count."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import brute
from repro.core import coverage
from repro.core import patterns as pt
from repro.core.coverage import CoverageIndex, Deadline, TimeBudgetExceeded
from repro.core.patterns import X

EX1_ROWS = [(0, 1, 0), (0, 0, 1), (0, 0, 0), (0, 1, 1), (0, 0, 1)]
EX1_CARDS = [2, 2, 2]


def rows_strategy(max_d=4, max_c=3, max_n=25):
    return st.integers(1, max_d).flatmap(
        lambda d: st.lists(st.integers(2, max_c), min_size=d, max_size=d).flatmap(
            lambda cards: st.tuples(
                st.just(cards),
                st.lists(
                    st.tuples(*[st.integers(0, c - 1) for c in cards]),
                    min_size=1,
                    max_size=max_n,
                ),
            )
        )
    )


def test_appendix_a_worked_example():
    # Appendix A computes cov(0X1) = 3 on Example 1's data.
    idx = CoverageIndex.from_rows(EX1_ROWS, EX1_CARDS)
    assert idx.cov(pt.parse("0X1")) == 3


def test_root_coverage_is_n():
    idx = CoverageIndex.from_rows(EX1_ROWS, EX1_CARDS)
    assert idx.cov(pt.root(3)) == 5
    assert idx.n == 5


def test_zero_coverage_pattern():
    idx = CoverageIndex.from_rows(EX1_ROWS, EX1_CARDS)
    assert idx.cov(pt.parse("1XX")) == 0
    assert idx.cov(pt.parse("111")) == 0


@pytest.mark.parametrize(
    "p",
    ["XXX", "0XX", "1XX", "X1X", "XX1", "01X", "0X0", "010", "001", "111"],
)
def test_example1_patterns_vs_brute(p):
    idx = CoverageIndex.from_rows(EX1_ROWS, EX1_CARDS)
    pat = pt.parse(p)
    assert idx.cov(pat) == brute.coverage(EX1_ROWS, pat)


@given(rows_strategy())
@settings(max_examples=60, deadline=None)
def test_cov_matches_brute_on_random_data(cr):
    """Both representations agree with Definition 2 on every pattern."""
    cards, rows = cr
    lat = CoverageIndex.from_rows(rows, cards)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coverage, "MAX_LATTICE_CELLS", 0)
        msk = CoverageIndex.from_rows(rows, cards)
    assert lat.lattice is not None and msk.lattice is None
    for p in pt.all_patterns(cards):
        assert lat.cov(p) == msk.cov(p) == brute.coverage(rows, p)


def test_counts_aggregate_duplicates():
    rows = [(0, 0)] * 7 + [(1, 1)] * 3
    idx = CoverageIndex.from_rows(rows, [2, 2])
    assert len(idx.counts) == 2
    assert idx.cov((0, 0)) == 7
    assert idx.cov((X, 1)) == 3


def test_exact_counts():
    idx = CoverageIndex.from_rows(EX1_ROWS, EX1_CARDS)
    assert idx.exact_counts() == {
        (0, 1, 0): 1,
        (0, 0, 1): 2,
        (0, 0, 0): 1,
        (0, 1, 1): 1,
    }


def test_value_out_of_cardinality_rejected():
    with pytest.raises(ValueError):
        CoverageIndex.from_rows([(0, 5)], [2, 2])


def test_mismatched_lengths_rejected():
    with pytest.raises(ValueError):
        CoverageIndex(np.array([[0, 0]]), np.array([1, 2]), [2, 2])


def test_from_pandas_matches_from_rows():
    pdf = pd.DataFrame(EX1_ROWS, columns=["a0", "a1", "a2"])
    i1 = CoverageIndex.from_pandas(pdf, ["a0", "a1", "a2"], EX1_CARDS)
    i2 = CoverageIndex.from_rows(EX1_ROWS, EX1_CARDS)
    for p in pt.all_patterns(EX1_CARDS):
        assert i1.cov(p) == i2.cov(p)


def test_cov_calls_counter():
    idx = CoverageIndex.from_rows(EX1_ROWS, EX1_CARDS)
    before = idx.cov_calls
    idx.cov(pt.parse("0X1"))
    idx.cov(pt.parse("XXX"))
    assert idx.cov_calls == before + 2


@pytest.fixture(params=["lattice", "masks"])
def path(request, monkeypatch):
    """Run the test on each representation; a zero budget forces masks."""
    if request.param == "masks":
        monkeypatch.setattr(coverage, "MAX_LATTICE_CELLS", 0)
    return request.param


def test_representation_follows_cell_budget():
    # 3^13 = 1,594,323 cells fit in 2^22; 3^14 = 4,782,969 do not.
    small = CoverageIndex.from_rows([(0,) * 13], [2] * 13)
    assert small.lattice is not None and small.masks is None
    assert small.lattice.shape == (3,) * 13
    big = CoverageIndex.from_rows([(0,) * 14], [2] * 14)
    assert big.lattice is None and big.masks is not None
    assert big.cov((0,) * 14) == 1


@pytest.mark.parametrize(
    "p",
    [(0, X), (0, X, 1, 0), (), (0, 2, X), (X, X, 3), (-2, 0, 0), (0, X, -5)],
    ids=["short", "long", "empty", "value_eq_card", "value_above_card",
         "below_X", "far_below_X"],
)
def test_cov_rejects_pattern_outside_domain(path, p):
    idx = CoverageIndex.from_rows(EX1_ROWS, EX1_CARDS)
    assert (idx.masks is None) == (path == "lattice")
    with pytest.raises(ValueError, match="not over cards"):
        idx.cov(p)


def test_from_pandas_rejects_nulls():
    pdf = pd.DataFrame({"a0": [0, 1, 0, 1], "a1": [0, np.nan, 1, 1]})
    with pytest.raises(ValueError, match=r"attribute 'a1' has 1 NULL values"):
        CoverageIndex.from_pandas(pdf, ["a0", "a1"], [2, 2])


def test_from_spark_rejects_nulls(spark):
    df = spark.createDataFrame(
        [(0, 0), (1, None), (0, None), (0, None)], "a0 int, a1 int"
    )
    with pytest.raises(ValueError, match=r"attribute 'a1' has 3 NULL values"):
        CoverageIndex.from_spark(df, ["a0", "a1"], [2, 2])


def test_deadline_unlimited_never_raises():
    d = Deadline(None, stride=1)
    for _ in range(10_000):
        d.check()


def test_deadline_expires():
    d = Deadline(0.0, stride=1)
    with pytest.raises(TimeBudgetExceeded):
        for _ in range(10):
            d.check()
