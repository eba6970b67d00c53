"""Reference table of simulated thresholds, computed independently of the program.

For every (n, sigma_sq) pair a benchmark workload can request, this draws
``REPS`` awards of n papers from the unit-mean lognormal baseline with its
own generator and seed, and stores the median award mean together with the
density of award means at that median. The density gives the Monte Carlo
standard error of a median over R reps, 1 / (2 f sqrt(R)), so a check can
judge a threshold the program computed at any reps count.

The table is written once and kept under version control:

    python3 perfbench/reference.py --out perfbench/reference_thresholds.json

It runs one worker process per CPU this process may use and takes several
minutes on two cores.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os

import numpy as np

SIGMA_SQ = (1.0, 1.3, 1.8)
# Eligible paper counts per award never exceed the generator's cap; 400 is
# the largest count in the curve workload's list.
N_VALUES = tuple(range(1, 151)) + (400,)
REPS = 400_000
SEED = 20_260_217
# Half-width, in probability, of the quantile window the density is read from.
DENSITY_HALF_WIDTH = 0.01
_CHUNK_VALUES = 4_000_000


def _median_and_density(task: tuple[int, float]) -> tuple[int, float, float, float]:
    n, sigma_sq = task
    key = int(np.float64(sigma_sq).view(np.uint64))
    rng = np.random.default_rng(np.random.SeedSequence([SEED, n, key]))
    mu, sigma = -0.5 * sigma_sq, math.sqrt(sigma_sq)
    means = np.empty(REPS)
    block = max(_CHUNK_VALUES // n, 1)
    for start in range(0, REPS, block):
        m = min(block, REPS - start)
        means[start : start + m] = np.exp(mu + sigma * rng.standard_normal((m, n))).mean(axis=1)
    lo, mid, hi = np.quantile(means, [0.5 - DENSITY_HALF_WIDTH, 0.5, 0.5 + DENSITY_HALF_WIDTH])
    return n, sigma_sq, float(mid), float(2 * DENSITY_HALF_WIDTH / (hi - lo))


def build() -> dict:
    tasks = sorted(((n, s) for s in SIGMA_SQ for n in N_VALUES), key=lambda t: -t[0])
    table: dict[str, dict[str, list[float]]] = {repr(s): {} for s in SIGMA_SQ}
    with multiprocessing.get_context("spawn").Pool(len(os.sched_getaffinity(0))) as pool:
        for n, s, median, density in pool.imap_unordered(_median_and_density, tasks):
            table[repr(s)][str(n)] = [median, density]
    for s in table:
        table[s] = dict(sorted(table[s].items(), key=lambda kv: int(kv[0])))
    return {"reps": REPS, "seed": SEED, "density_half_width": DENSITY_HALF_WIDTH, "table": table}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    ref = build()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
