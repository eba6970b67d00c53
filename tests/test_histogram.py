import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fwcibench import histogram
from fwcibench.histogram import binned_rows, build_histogram


def test_basic_counts():
    h = build_histogram([0.05, 0.15, 0.15], 0.0, 0.3, 3)
    assert h.counts.tolist() == [1, 2, 0]  # every value counted: all three are inside [0, 0.3)


def test_value_at_hi_is_dropped():
    h = build_histogram([0.3], 0.0, 0.3, 3)
    assert h.counts.tolist() == [0, 0, 0]


@pytest.mark.parametrize("n_bins", [3, 21, 24])
def test_value_just_below_hi_lands_in_the_last_bin(n_bins):
    # over [0.1, 8) at these counts, (v - lo) / width rounds up to n_bins for v = 8 - ulp
    v = np.nextafter(8.0, 0.0)
    assert math.floor((v - 0.1) / ((8.0 - 0.1) / n_bins)) == n_bins
    h = build_histogram([v, 9.0, np.nan], 0.1, 8.0, n_bins)
    assert h.counts[-1] == 1 and h.counts.sum() == 1  # 9.0 and NaN are outside [0.1, 8)


def test_value_at_lo_is_kept():
    h = build_histogram([0.0], 0.0, 0.3, 3)
    assert h.counts.tolist() == [1, 0, 0]


@pytest.mark.parametrize(
    "lo,hi,n",
    [
        (1.0, 1.0, 3),
        (2.0, 1.0, 3),
        (0.0, 1.0, 0),
        (0.0, 1.0, -2),
        # bin widths that are not a finite float > 0: infinite, overflowing, underflowing to 0
        (-math.inf, 2.0, 3),
        (0.0, math.inf, 3),
        (-1e308, 1e308, 3),
        (0.0, 5e-324, 2),
    ],
)
def test_bad_arguments(lo, hi, n):
    with pytest.raises(ValueError):
        build_histogram([0.5], lo, hi, n)


def oracle_counts(values, lo, hi, k):
    """Each value in [lo, hi) in bin min(floor((v - lo) / width), k - 1), counted one by one."""
    width = (hi - lo) / k
    bins = Counter(min(math.floor((v - lo) / width), k - 1) for v in values if lo <= v < hi)
    return [bins[i] for i in range(k)]


@pytest.mark.parametrize("lo,hi", [(0.1, 8.0), (-5.0, 3.0)])
def test_binned_rows_and_build_histogram_match_a_value_by_value_oracle(lo, hi):
    ks = np.array([*range(1, 65), 799, 800])
    length = 832  # 800 rounded up to a multiple of 64
    top = np.nextafter(hi, lo)
    drawn = np.random.default_rng(29).uniform(lo, hi, 500).tolist()
    exact = 0
    for k in ks.tolist():
        width = (hi - lo) / k
        # the bin edges and hi itself, which is dropped; hi - ulp's quotient rounds up to k at 21 and 24 over [0.1, 8)
        edges = [lo + j * width for j in range(k + 1)]
        exact += sum((e - lo) / width == j for j, e in enumerate(edges[1:k], start=1))
        values = [lo, lo, top, *edges, *drawn]
        expected = oracle_counts(values, lo, hi, k)
        hist = build_histogram(values, lo, hi, k)
        offsets = np.array([v for v in values if lo <= v < hi]) - lo
        (centers,), (counts,) = binned_rows(offsets, lo, hi, np.array([k]), length)
        assert hist.counts.tolist() == counts[:k].tolist() == expected
        assert hist.centers.tolist() == centers[:k].tolist()
        assert counts.dtype == np.int64 and not counts[k:].any()
        assert (centers[k:] == centers[k - 1]).all()
    assert exact > 1000  # edges whose quotient is an exact integer, so floor and truncation meet there
    # every count in one call gives the same rows as one call per count
    offsets = np.array(drawn) - lo
    centers, counts = binned_rows(offsets, lo, hi, ks, length)
    for row, k in enumerate(ks.tolist()):
        assert counts[row, :k].tolist() == oracle_counts(drawn, lo, hi, k)
        assert centers[row].tolist() == binned_rows(offsets, lo, hi, np.array([k]), length)[0][0].tolist()


def test_centers_and_width():
    h = build_histogram([], 1.0, 3.0, 4)
    assert h.centers.tolist() == [1.25, 1.75, 2.25, 2.75]  # bins 0.5 wide


def test_sum_matches_direct_scan():
    draws = np.exp(-0.0761 + 0.933 * np.random.default_rng(3).standard_normal(10_000))
    h = build_histogram(draws, 0.0, 8.0, 80)
    in_range = int(((draws >= 0.0) & (draws < 8.0)).sum())
    assert int(h.counts.sum()) == in_range < draws.size


def test_agrees_with_numpy_away_from_edges():
    rng = np.random.default_rng(17)
    lo, hi, n = 0.0, 8.0, 37
    width = (hi - lo) / n
    v = rng.uniform(lo, hi, 5000)
    # keep a guard band around every bin edge so both conventions agree
    frac = (v - lo) / width
    v = v[np.abs(frac - np.round(frac)) > 1e-6]
    ours = build_histogram(v, lo, hi, n)
    ref, _ = np.histogram(v, bins=np.linspace(lo, hi, n + 1))
    assert ours.counts.tolist() == ref.tolist()


finite_vals = st.lists(st.floats(min_value=-50, max_value=50, allow_nan=False), max_size=80)


@given(finite_vals, st.integers(1, 40))
def test_conservation(values, n_bins):
    h = build_histogram(values, -3.0, 5.0, n_bins)
    assert int(h.counts.sum()) == sum(-3.0 <= v < 5.0 for v in values)


@given(finite_vals, st.integers(1, 30))
def test_refinement_consistency(values, n_bins):
    coarse = build_histogram(values, -3.0, 5.0, n_bins)
    fine = build_histogram(values, -3.0, 5.0, 2 * n_bins)
    for i in range(n_bins):
        assert coarse.counts[i] == fine.counts[2 * i] + fine.counts[2 * i + 1]


def test_counts_are_read_only():
    h = build_histogram([0.5], 0.0, 1.0, 2)
    with pytest.raises(ValueError):
        h.counts[0] = 5
