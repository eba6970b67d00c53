"""Fixed-width histograms over half-open ranges."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class Histogram:
    """Binned counts over [lo, hi) with equal-width bins.

    ``counts[i]`` holds the values that fell in bin i; ``centers[i]`` is the
    bin midpoint lo + (i + 1/2) * (hi - lo) / n_bins.
    """

    lo: float
    hi: float
    n_bins: int
    counts: np.ndarray
    centers: np.ndarray


def build_histogram(values, lo: float, hi: float, n_bins: int) -> Histogram:
    """Bin ``values`` into ``n_bins`` equal-width bins over [lo, hi): :func:`binned_rows` at one count.

    The width (hi - lo) / n_bins must be a finite float > 0. The range is
    half-open, so a value exactly at ``hi`` is dropped, as is every value
    outside it (NaN included).
    """
    if not (lo < hi):
        raise ValueError(f"need lo < hi, got [{lo}, {hi})")
    if n_bins < 1:
        raise ValueError(f"need n_bins >= 1, got {n_bins}")
    if not (0 < (hi - lo) / n_bins < math.inf):
        raise ValueError(f"need a finite bin width (hi - lo) / n_bins > 0, got [{lo}, {hi}) at {n_bins} bins")
    v = np.asarray(values, dtype=float).ravel()
    inside = v[(v >= lo) & (v < hi)]
    (centers,), (counts,) = binned_rows(inside - lo, lo, hi, np.array([n_bins]), n_bins)
    counts.setflags(write=False)
    centers.setflags(write=False)
    return Histogram(lo=float(lo), hi=float(hi), n_bins=int(n_bins), counts=counts, centers=centers)


def binned_rows(offsets, lo: float, hi: float, n: np.ndarray, length: int) -> tuple[np.ndarray, np.ndarray]:
    """The histograms over [lo, hi) at each bin count in ``n``: centers and int64 counts, ``length`` cells a row.

    ``offsets`` holds v - lo for the values v in [lo, hi), and each width (hi - lo) / n is a finite float > 0. v goes
    in bin floor(offset / width), or in the last bin where that quotient rounds up to the row's count. A row's cells
    past its bins repeat its last center lo + (n - 1/2) * width with a count of 0.
    """
    width = (hi - lo) / n
    centers = lo + (np.minimum(np.arange(length), n[:, None] - 1) + 0.5) * width[:, None]
    counts = np.zeros(centers.shape, dtype=np.int64)
    for row, k, w in zip(counts, n.tolist(), width.tolist()):
        row[:k] = np.bincount(np.minimum((offsets / w).astype(np.intp), k - 1), minlength=k)
    return centers, counts
