"""Golden run: every CLI command on the benchmark portfolio, with a SHA-256 per output file.

The oracle for a refactor that must keep output byte-identical. Run it from
the old and from the new checkout with the same OUT_DIR (the reports echo
their input and output paths) and diff what the two runs print:

    python3 scripts/golden.py OUT_DIR

The portfolio is ``perfbench/generate.py``'s at a fixed seed. The run covers
``ingest`` with budgets, ``ingest`` with budgets on the same seed's portfolio
scaled 60x (~190k rows, enough repeated codes, rejections and duplicates to
exercise the parser at volume), ``fit`` at the default flags, ``fit`` with
non-default ``--low-cut``, ``--range`` and ``--bins``, ``fit`` with no low
cut, ``benchmark``, ``benchmark`` with five unsorted ``--sigma2`` values,
``curve``, and ``curve`` with the same five values and an unsorted
``--n-list``, each in its own subdirectory of OUT_DIR, with small ensembles
and Monte Carlo sizes so the whole run takes seconds. Five baselines are more
than a small machine has cores, so the Monte Carlo's worker threads, one per
baseline, take turns on the cores.
Each command's stdout is kept as ``stdout.txt`` beside its output files.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import generate  # noqa: E402

SEED = 20240
SMALL = ("--fits", "300", "--reps", "4000")


def runs(input_dir: str, input_60x_dir: str) -> dict[str, list[str]]:
    pubs = ["--input", os.path.join(input_dir, "pubs.csv")]
    return {
        "ingest": ["ingest", *pubs, "--budgets", os.path.join(input_dir, "budgets.csv")],
        "ingest-60x": [
            "ingest",
            "--input",
            os.path.join(input_60x_dir, "pubs.csv"),
            "--budgets",
            os.path.join(input_60x_dir, "budgets.csv"),
        ],
        "fit": ["fit", *pubs, *SMALL],
        "fit-window": ["fit", *pubs, *SMALL, "--low-cut", "0.2", "--range", "0.15:6", "--bins", "30:300", "--seed", "7"],
        "fit-no-cut": ["fit", *pubs, *SMALL, "--low-cut", "0"],
        "benchmark": ["benchmark", *pubs, *SMALL],
        "benchmark-5-sigma2": ["benchmark", *pubs, *SMALL, "--sigma2", "1.8,0.5,1.3,2.2,1.0"],
        "curve": ["curve", *pubs, *SMALL, "--n-list", "1,5,10,46,100,400"],
        "curve-5-sigma2": ["curve", *pubs, *SMALL, "--n-list", "400,1,46,5", "--sigma2", "1.8,0.5,1.3,2.2,1.0"],
    }


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: golden.py OUT_DIR", file=sys.stderr)
        return 1
    out_dir = argv[0]
    input_dir = os.path.join(out_dir, "input")
    input_60x_dir = os.path.join(out_dir, "input-60x")
    generate.generate(SEED, 1, input_dir)
    generate.generate(SEED, 60, input_60x_dir)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    for name, cli_args in runs(input_dir, input_60x_dir).items():
        run_dir = os.path.join(out_dir, name)
        shutil.rmtree(run_dir, ignore_errors=True)  # a file the command no longer writes must not linger
        os.makedirs(run_dir)
        cmd = [sys.executable, "-m", "fwcibench.cli", *cli_args, "--out", run_dir]
        done = subprocess.run(cmd, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            print(f"{name}: exit {done.returncode}\n{done.stderr[-2000:]}", file=sys.stderr)
            return 1
        with open(os.path.join(run_dir, "stdout.txt"), "w", encoding="utf-8") as fh:
            fh.write(done.stdout)
        for file_name in sorted(os.listdir(run_dir)):
            path = os.path.join(run_dir, file_name)
            with open(path, "rb") as fh:
                print(f"{hashlib.sha256(fh.read()).hexdigest()}  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
