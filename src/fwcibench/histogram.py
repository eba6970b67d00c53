"""Fixed-width histograms over half-open ranges, plus the log view's zero displacement."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class Histogram:
    """Binned counts over [lo, hi) with equal-width bins.

    ``counts[i]`` holds the values that fell in bin i; ``centers[i]`` is the
    bin midpoint lo + (i + 1/2) * width. ``n_dropped`` counts input values
    outside [lo, hi), kept so that counts plus drops always account for the
    whole input.
    """

    lo: float
    hi: float
    n_bins: int
    counts: np.ndarray
    centers: np.ndarray
    n_dropped: int = 0

    @property
    def width(self) -> float:
        return (self.hi - self.lo) / self.n_bins


def build_histogram(values, lo: float, hi: float, n_bins: int) -> Histogram:
    """Bin ``values`` into ``n_bins`` equal-width bins over [lo, hi).

    A value v with lo <= v < hi lands in bin floor((v - lo) / width), or in
    the last bin where that quotient rounds up to ``n_bins``; the range is
    half-open, so a value exactly at ``hi`` is dropped. Out-of-range values
    (including NaN) are dropped and counted in ``n_dropped``.
    """
    if not (lo < hi):
        raise ValueError(f"need lo < hi, got [{lo}, {hi})")
    if n_bins < 1:
        raise ValueError(f"need n_bins >= 1, got {n_bins}")
    v = np.asarray(values, dtype=float).ravel()
    width = (hi - lo) / n_bins
    with np.errstate(invalid="ignore", over="ignore"):
        rel = np.minimum(np.floor((v - lo) / width), n_bins - 1)
        ok = (v >= lo) & (v < hi) & (rel >= 0)
    counts = np.bincount(rel[ok].astype(np.int64), minlength=n_bins)
    centers = lo + (np.arange(n_bins) + 0.5) * width
    counts.setflags(write=False)
    centers.setflags(write=False)
    return Histogram(
        lo=float(lo),
        hi=float(hi),
        n_bins=int(n_bins),
        counts=counts,
        centers=centers,
        n_dropped=int(v.size - int(ok.sum())),
    )


def log_transform(values, zero_shift: float) -> np.ndarray:
    """Natural log of non-negative values, displacing exact zeros to ln(zero_shift).

    Only v == 0 is displaced; positive values below ``zero_shift`` keep their
    true logarithm. Negative inputs are an error.
    """
    if not (zero_shift > 0):
        raise ValueError(f"zero_shift must be > 0, got {zero_shift}")
    v = np.asarray(values, dtype=float)
    if np.any(v < 0):
        raise ValueError("log_transform requires non-negative values")
    out = np.where(v > 0, np.log(np.where(v > 0, v, 1.0)), math.log(zero_shift))
    return out
