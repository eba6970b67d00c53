"""Seeded portfolio generator for the benchmark, with the ground truth it planted.

A portfolio is a publication-record CSV plus a budget CSV. FWCI values are
lognormal with the paper's fitted (mu, sigma), and the file carries the kinds
of awkward rows real exports have: exact zeros, missing FWCI, award codes
that the parser repairs (an ``SFI/`` prefix, the ``1A`` typo), codes it must
reject, repeated ``source_id`` rows within an award, and publication types
that are not eligible. The generator decides every row's fate itself, so it
can write the counts and per-award aggregates the program must report.

Usage: ``generate(seed, scale, out_dir)`` writes the files and returns the truth.
"""

from __future__ import annotations

import json
import os
from statistics import NormalDist

import numpy as np

MU = -0.0761
SIGMA = 0.933
LOW_CUT = 0.1
AWARDS_PER_SCALE = 148
# Eligible papers per award: lognormal around 13, capped so that every count
# has an entry in the reference threshold table.
ELIGIBLE_MEDIAN = 13.0
ELIGIBLE_LOG_SD = 0.8
MAX_ELIGIBLE = 150

ZERO_SHARE = 0.03
PREFIX_SHARE = 0.05
TYPO_SHARE = 0.02
DUPLICATE_SHARE = 0.01
# Rows that never become eligible records, as shares of all rows before
# duplicates: unrepairable award code, missing FWCI, ineligible type.
BAD_CODE_SHARE = 0.003
MISSING_SHARE = 0.02
INELIGIBLE_TYPE_SHARE = 0.15
_DROPPED = np.array([BAD_CODE_SHARE, MISSING_SHARE, INELIGIBLE_TYPE_SHARE])

# Spellings as they appear in exports; the parser maps each to an eligible type
# (first list) or to an ineligible one (second list).
ELIGIBLE_SPELLINGS = (
    ("article", 0.70),
    ("Article", 0.05),
    ("conference_paper", 0.10),
    ("Conference Paper", 0.05),
    ("letter", 0.06),
    ("note", 0.04),
)
INELIGIBLE_SPELLINGS = (
    ("review", 0.45),
    ("editorial", 0.20),
    ("book_chapter", 0.20),
    ("erratum", 0.15),
)

HEADER = "award_code,year,pub_type,fwci,citations,title,source_id"


def _choose(rng: np.random.Generator, spellings, size: int) -> np.ndarray:
    names = np.array([s for s, _ in spellings])
    return names[rng.choice(len(spellings), size=size, p=[w for _, w in spellings])]


def _eligible_fwci(n: int) -> np.ndarray:
    """``n`` FWCI values: ZERO_SHARE exact zeros, the rest the lognormal's quantiles at evenly spaced levels."""
    n_zero = int(round(ZERO_SHARE * n))
    levels = (np.arange(n - n_zero) + 0.5) / (n - n_zero)
    z = np.array([NormalDist().inv_cdf(q) for q in levels])
    return np.concatenate([np.zeros(n_zero), np.round(np.exp(MU + SIGMA * z), 4)])


def generate(seed: int, scale: int, out_dir: str) -> dict:
    """Write ``pubs.csv``, ``budgets.csv`` and ``truth.json`` into ``out_dir``.

    The same (seed, scale) always writes the same bytes. Returns the truth.
    """
    if scale < 1:
        raise ValueError(f"scale must be >= 1, got {scale}")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), int(scale)]))
    n_awards = AWARDS_PER_SCALE * scale

    slots = np.sort(rng.choice(13 * 10_000, size=n_awards, replace=False))
    codes = np.array([f"{8 + s // 10_000:02d}/IA/{s % 10_000:04d}" for s in slots])
    # Eligible counts are the lognormal's quantiles at evenly spaced levels,
    # dealt out to the awards in code order by one fixed shuffle. Every seed
    # thus gets the same size profile in the same order, so the work a
    # workload does (the distinct paper counts the Monte Carlo simulates and
    # the order it meets them in, the size of the fitted sample) does not
    # depend on the seed.
    levels = (np.arange(n_awards) + 0.5) / n_awards
    z = np.array([NormalDist().inv_cdf(q) for q in levels])
    eligible_n = np.clip(np.rint(ELIGIBLE_MEDIAN * np.exp(ELIGIBLE_LOG_SD * z)), 1, MAX_ELIGIBLE)
    eligible_n = eligible_n.astype(np.int64)[np.random.default_rng(n_awards).permutation(n_awards)]
    dropped_n = rng.negative_binomial(eligible_n, 1.0 - _DROPPED.sum())

    award = np.concatenate([np.repeat(np.arange(n_awards), eligible_n), np.repeat(np.arange(n_awards), dropped_n)])
    n_ok = int(eligible_n.sum())
    n = award.size
    # 0 eligible, 1 bad code, 2 missing FWCI, 3 ineligible type
    fate = np.concatenate([np.zeros(n_ok, dtype=np.int64), 1 + rng.choice(3, size=n - n_ok, p=_DROPPED / _DROPPED.sum())])

    fwci = np.round(np.exp(MU + SIGMA * rng.standard_normal(n)), 4)
    fwci[rng.random(n) < ZERO_SHARE] = 0.0
    # The eligible records' values are one fixed sample dealt out by the seed,
    # so the fitted histogram, and with it the number of solver iterations a
    # fit takes, is the same for every seed.
    fwci[:n_ok] = rng.permutation(_eligible_fwci(n_ok))
    pub_type = np.where(
        fate == 3, _choose(rng, INELIGIBLE_SPELLINGS, n), _choose(rng, ELIGIBLE_SPELLINGS, n)
    )
    code_variant = rng.random(n)
    years = rng.integers(2008, 2021, size=n)
    citations = rng.poisson(12.0 * np.maximum(fwci, 0.05))

    def raw_code(i: int) -> str:
        code = codes[award[i]]
        if fate[i] == 1:
            return code.replace("/IA/", "/IB/")
        if code_variant[i] < PREFIX_SHARE:
            return "SFI/" + code
        if code_variant[i] < PREFIX_SHARE + TYPO_SHARE:
            return code.replace("/IA/", "/1A/")
        return code

    lines = [
        f"{raw_code(i)},{years[i]},{pub_type[i]},{'' if fate[i] == 2 else repr(float(fwci[i]))},"
        f"{citations[i]},Paper {i},W{seed}x{i}"
        for i in range(n)
    ]

    # Duplicates repeat a parseable row byte for byte, so which copy the
    # program keeps cannot change any output.
    dup_src = rng.choice(np.flatnonzero(fate != 1), size=int(round(DUPLICATE_SHARE * n)), replace=False)
    rows = lines + [lines[i] for i in dup_src]
    pos = np.empty(len(rows), dtype=np.int64)
    pos[rng.permutation(len(rows))] = np.arange(len(rows))
    # The first copy of each duplicated row must precede its repeat; swapping
    # a pair's positions keeps the shuffle otherwise intact.
    for k, src in enumerate(dup_src):
        if pos[src] > pos[n + k]:
            pos[src], pos[n + k] = pos[n + k], pos[src]
    shuffled = [""] * len(rows)
    for i, p in enumerate(pos):
        shuffled[p] = rows[i]

    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "pubs.csv"), "w", encoding="utf-8", newline="") as fh:
        fh.write(HEADER + "\n" + "\n".join(shuffled) + "\n")

    budgets = np.rint(rng.uniform(2e5, 2e6, size=n_awards))
    with open(os.path.join(out_dir, "budgets.csv"), "w", encoding="utf-8", newline="") as fh:
        fh.write("award_code,budget_eur\n")
        fh.write("".join(f"{codes[a]},{budgets[a]:.1f}\n" for a in range(n_awards)))

    per_award: dict[int, list[float]] = {}
    for i in range(n_ok):
        per_award.setdefault(int(award[i]), []).append(float(fwci[i]))
    awards = {str(codes[a]): {"n": len(v), "mean": sum(v) / len(v)} for a, v in per_award.items()}
    truth = {
        "seed": int(seed),
        "scale": int(scale),
        "mu": MU,
        "sigma": SIGMA,
        "data_rows": len(rows),
        "rows_parsed": len(rows) - int(dup_src.size),
        "rows_rejected": int((fate == 1).sum()),
        "duplicates_dropped": int(dup_src.size),
        "records_eligible": n_ok,
        "below_low_cut": int((fwci[:n_ok] < LOW_CUT).sum()),
        "at_or_above_low_cut": int((fwci[:n_ok] >= LOW_CUT).sum()),
        "budget_rows_rejected": 0,
        "n_awards": n_awards,
        "cost_per_paper": float(budgets.sum()) / n_ok,
        "awards": dict(sorted(awards.items())),
    }
    with open(os.path.join(out_dir, "truth.json"), "w", encoding="utf-8") as fh:
        json.dump(truth, fh, indent=1, sort_keys=True)
    return truth

