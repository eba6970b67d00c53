"""Golden run: every CLI command on the benchmark portfolio, with a SHA-256 per output file.

The oracle for a refactor that must keep output byte-identical:

    python3 scripts/golden.py OUT_DIR
    python3 scripts/golden.py OUT_DIR --against OTHER_SRC

The first form prints every output file's hash. The second runs every
command with the package in OTHER_SRC (another checkout's ``src``
directory) and then with this tree's, into the same run directories, since
the reports echo their input and output paths. It prints only the files
whose hashes differ, each with the largest relative difference between the
numbers of its lines that read alike apart from their numbers, and how many
lines have no such partner, and exits 1 if any differ. Either form exits 2
if a run fails (see below).

The portfolio is ``perfbench/generate.py``'s at a fixed seed. The run covers
``ingest`` with budgets and ``--low-cut 0.5``, ``ingest`` with budgets at
the default low cut on the same seed's portfolio scaled 60x (~190k rows,
enough repeated codes, rejections and duplicates to exercise the parser at
volume), ``ingest`` on a small table written here as CSV and as JSONL, whose
titles and source ids hold a comma, a quote, LF, CR and CRLF, with one blank
and one short row and two rejected rows, one of them with an LF in its title
(the writer's quoting, both parsers and the one-line rejections), ``ingest``
on that CSV table with a budget table written here, whose two accepted codes
(one with ``SFI/``) come with every kind of budget rejection: an empty and a
blank code, ``12/IB/1234``, the amounts ``1_000``, a full-width ``10`` and
``-5``, a short row with no amount, a repeat of the first code once
normalized and a row whose note holds LF and CRLF, and one blank row, ``fit`` at
the default flags, ``fit`` with non-default ``--low-cut``, ``--range`` and
``--bins``, ``fit`` with no low cut, ``fit`` on the tail window
``--range 1:8``, which leaves out the mode e^mu so that mu lies outside
every bin, ``fit`` at ``--bins 2:30``, whose counts 2 and 3 always fail, so
that one block of fits mixes failed and converged ones, ``benchmark``,
``benchmark`` with five unsorted ``--sigma2`` values and ``--seed 7``,
``curve``, ``curve`` with the same five values, an unsorted ``--n-list`` and
``--seed 7``, ``curve`` at 70,000 reps, and ``curve`` at 4,001 reps, each in
its own subdirectory of OUT_DIR. Five more runs are ones ``fit`` must
refuse: a narrow table written here, whose 12 values lie within 0.0003 of
each other, so no bin count puts them in 4 non-empty bins; ``--bins 1:4
--fits 1 --seed 1``, whose one drawn count is 2; ``--range 1:1.001``,
which holds fewer than 8 values; a subnormal table written here, 12
values (k + 1) * 2e-323 fitted at ``--range 0:5e-322 --low-cut 0 --bins
4:20``, where a bin at 20 counts is subnormal; and a tiny table written
here, 16 values (k + 1) * 5e-161 fitted at ``--range 0:1e-159 --low-cut
0``, whose bin centers at 800 counts lie too close to 0 for the scaled
model's sums to stay finite. Every flag a command reads is thus off its
default in at least one of its runs, which ``tests/test_golden.py`` checks.
So that the whole run takes seconds, each ``fit`` gets ``--fits 300`` and
each ``benchmark`` and ``curve`` ``--reps 4000`` unless it names its own.
The ``curve`` runs pass ``--input`` too: ``curve`` accepts it unread, and an
older tree that ``--against`` may run requires it. The Monte Carlo splits
its reps into blocks of at most 2**15, each with its own stream and one task
per block on a thread pool: the other runs' 4,000 reps are one block, and
the 70,000-rep curve is three. A block of m reps draws ceil(m / 2) normals
per paper, and its last floor(m / 2) reps take the first normals negated. A
median of an even number of reps averages the two central values and one of
an odd number takes the central one, so the 4,001-rep curve covers the odd
case, and its one block's middle rep has no mirror. Each command's stdout is
kept as ``stdout.txt`` beside its output files, and a refused run's exit code
and stderr as ``exit.txt`` and ``stderr.txt``, so that an error path cannot
change unseen. A run that is not among the refused ones must exit 0, and a
``Traceback`` in any run's stderr fails the oracle too.
"""

from __future__ import annotations

import argparse
import csv
import difflib
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import generate  # noqa: E402

SEED = 20240
FITS = ("--fits", "300")
REPS = ("--reps", "4000")
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
COLUMNS = ("award_code", "year", "pub_type", "fwci", "citations", "title", "source_id")
# The quoted-cells table; None stands for its one blank row, and the row of five cells is short.
QUOTED_ROWS = [
    ["12/IA/1570", "2014", "article", "1.5", "3", "Comma, inside", "W1"],
    ["12/IA/1570", "2015", "article", "0.25", "1", 'A "quoted" word', "W2"],
    ["12/IA/1570", "2016", "letter", "2.0", "", "Line\nfeed", "W3"],
    None,
    ["14/IA/2508", "2016", "article", "0.75", "4", "Carriage\rreturn", "W4"],
    ["14/IA/2508", "2017", "note", "1.25", "2"],
    ["14/IA/2508", "2018", "article", "3.0", "9", "CR LF\r\nin a title", 'W6,"x"'],
    ["12/IB/1234", "2018", "article", "1.0", "1", "Bad code, quoted title", "W7"],
    ["12/IB/1235", "2019", "article", "1.0", "1", "Bad code,\nbroken title", "W8"],
]
# The narrow table: four distinct values within 0.0003 of each other, three times each.
NARROW_ROWS = [["12/IA/1570", "2019", "article", f"1.000{k % 4}", "1", "t", f"N{k}"] for k in range(12)]
# The subnormal table: 12 values (k + 1) * 2e-323, too close to 0 for any bin of 0:5e-322 to be a normal float.
SUBNORMAL_ROWS = [["12/IA/1570", "2019", "article", repr((k + 1) * 2e-323), "1", "t", f"S{k}"] for k in range(12)]
# The tiny table: 16 values (k + 1) * 5e-161, whose bins of 0:1e-159 are normal floats but too close to 0 to fit.
TINY_ROWS = [["12/IA/1570", "2019", "article", repr((k + 1) * 5e-161), "1", "t", f"T{k}"] for k in range(16)]
# The budget table for the quoted one: two accepted codes, then every way a budget row is rejected, with one blank row.
BUDGET_ROWS = [
    ["award_code", "budget_eur", "note"],
    ["12/IA/1570", "250000", "accepted"],
    ["SFI/14/IA/2508", "100000", "accepted, SFI/ prefix"],
    ["", "5000", "empty code"],
    ["   ", "5000", "blank code"],
    ["12/IB/1234", "700", "bad code"],
    ["15/IA/0001", "1_000", "digit separator"],
    ["15/IA/0002", "１０", "full-width digits"],
    ["15/IA/0003", "-5", "negative"],
    ["15/IA/0004"],
    ["SFI/12/1A/1570", "900", "repeats the first code"],
    [],
    ["15/IA/0005", "n/a", "line\nfeed and\r\nCRLF"],
]
# The runs fit must refuse; each keeps its exit code and stderr.
REFUSED = {"fit-refused-narrow", "fit-refused-bins", "fit-refused-too-few", "fit-refused-subnormal", "fit-refused-tiny"}


def write_small_inputs(input_dir: str) -> None:
    """Write the quoted-cells table (``pubs.csv``, ``pubs.jsonl``), its ``budgets.csv``, the narrow, subnormal and tiny ones in ``input_dir``."""
    os.makedirs(input_dir, exist_ok=True)
    for name, rows in (("narrow.csv", NARROW_ROWS), ("subnormal.csv", SUBNORMAL_ROWS), ("tiny.csv", TINY_ROWS)):
        with open(os.path.join(input_dir, name), "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows([COLUMNS, *rows])
    with open(os.path.join(input_dir, "budgets.csv"), "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(BUDGET_ROWS)
    with open(os.path.join(input_dir, "pubs.csv"), "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([COLUMNS, *(row or [] for row in QUOTED_ROWS)])
    with open(os.path.join(input_dir, "pubs.jsonl"), "w", encoding="utf-8", newline="") as fh:
        fh.writelines(json.dumps(dict(zip(COLUMNS, row))) + "\n" if row else "\n" for row in QUOTED_ROWS)


def runs(input_dir: str, input_60x_dir: str, input_quoted_dir: str) -> dict[str, list[str]]:
    pubs = ["--input", os.path.join(input_dir, "pubs.csv")]
    return {
        "ingest": ["ingest", *pubs, "--budgets", os.path.join(input_dir, "budgets.csv"), "--low-cut", "0.5"],
        "ingest-60x": [
            "ingest",
            "--input",
            os.path.join(input_60x_dir, "pubs.csv"),
            "--budgets",
            os.path.join(input_60x_dir, "budgets.csv"),
        ],
        "ingest-quoted": ["ingest", "--input", os.path.join(input_quoted_dir, "pubs.csv")],
        "ingest-quoted-jsonl": ["ingest", "--input", os.path.join(input_quoted_dir, "pubs.jsonl")],
        "ingest-budget-rejections": [
            "ingest", "--input", os.path.join(input_quoted_dir, "pubs.csv"), "--budgets", os.path.join(input_quoted_dir, "budgets.csv"),
        ],
        "fit": ["fit", *pubs, *FITS],
        "fit-window": ["fit", *pubs, *FITS, "--low-cut", "0.2", "--range", "0.15:6", "--bins", "30:300", "--seed", "7"],
        "fit-no-cut": ["fit", *pubs, *FITS, "--low-cut", "0"],
        "fit-tail": ["fit", *pubs, *FITS, "--range", "1:8"],
        "fit-failures": ["fit", *pubs, *FITS, "--bins", "2:30"],
        "benchmark": ["benchmark", *pubs, *REPS],
        "benchmark-5-sigma2": ["benchmark", *pubs, *REPS, "--sigma2", "1.8,0.5,1.3,2.2,1.0", "--seed", "7"],
        "curve": ["curve", *pubs, *REPS, "--n-list", "1,5,10,46,100,400"],
        "curve-5-sigma2": ["curve", *pubs, *REPS, "--n-list", "400,1,46,5", "--sigma2", "1.8,0.5,1.3,2.2,1.0", "--seed", "7"],
        "curve-blocks": ["curve", *pubs, "--reps", "70000", "--n-list", "1,5"],
        "curve-odd-reps": ["curve", *pubs, "--reps", "4001", "--n-list", "1,5,46"],
        "fit-refused-narrow": ["fit", "--input", os.path.join(input_quoted_dir, "narrow.csv"), *FITS],
        "fit-refused-bins": ["fit", *pubs, "--bins", "1:4", "--fits", "1", "--seed", "1"],
        "fit-refused-too-few": ["fit", *pubs, *FITS, "--range", "1:1.001"],
        "fit-refused-subnormal": [
            "fit", "--input", os.path.join(input_quoted_dir, "subnormal.csv"), *FITS,
            "--range", "0:5e-322", "--low-cut", "0", "--bins", "4:20",
        ],
        "fit-refused-tiny": [
            "fit", "--input", os.path.join(input_quoted_dir, "tiny.csv"), *FITS, "--range", "0:1e-159", "--low-cut", "0",
        ],
    }


def run_all(src: str, out_dir: str, inputs: tuple[str, str, str]) -> dict[str, bytes] | None:
    """Run every command with the package in ``src``; each output file's bytes by path, or None if a run fails."""
    env = dict(os.environ, PYTHONPATH=src)
    files = {}
    for name, cli_args in runs(*inputs).items():
        run_dir = os.path.join(out_dir, name)
        shutil.rmtree(run_dir, ignore_errors=True)  # a file the command no longer writes must not linger
        os.makedirs(run_dir)
        cmd = [sys.executable, "-m", "fwcibench.cli", *cli_args, "--out", run_dir]
        done = subprocess.run(cmd, env=env, capture_output=True, text=True)
        if "Traceback" in done.stderr or (done.returncode != 0 and name not in REFUSED):
            print(f"{name} ({src}): exit {done.returncode}\n{done.stderr[-2000:]}", file=sys.stderr)
            return None
        kept = {"stdout.txt": done.stdout}
        if name in REFUSED:
            kept.update({"exit.txt": f"{done.returncode}\n", "stderr.txt": done.stderr})
        for file_name, text in kept.items():
            with open(os.path.join(run_dir, file_name), "w", encoding="utf-8") as fh:
                fh.write(text)
        for file_name in sorted(os.listdir(run_dir)):
            path = os.path.join(run_dir, file_name)
            with open(path, "rb") as fh:
                files[path] = fh.read()
    return files


def number_diff(theirs: bytes, ours: bytes) -> str:
    """The largest relative difference between the numbers of the lines that read alike apart from them."""
    try:
        sides = [[(NUMBER.sub("#", line), NUMBER.findall(line)) for line in b.decode("utf-8").splitlines()] for b in (theirs, ours)]
    except UnicodeDecodeError:
        return "not UTF-8 text"
    a, b = sides
    worst, unmatched = 0.0, 0
    matcher = difflib.SequenceMatcher(None, [words for words, _ in a], [words for words, _ in b], autojunk=False)
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag != "equal":
            unmatched += max(i2 - i1, j2 - j1)
            continue
        for (_, xs), (_, ys) in zip(a[i1:i2], b[j1:j2]):
            for x, y in zip(map(float, xs), map(float, ys)):
                if x != y:
                    rel = abs(x - y) / max(abs(x), abs(y))
                    worst = max(worst, rel if math.isfinite(rel) else math.inf)
    return f"max rel diff {worst:.2g}; {unmatched} lines without a partner"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Hash every CLI output file on the benchmark portfolio.")
    parser.add_argument("out_dir", metavar="OUT_DIR")
    parser.add_argument(
        "--against", metavar="OTHER_SRC", help="print only the files whose hashes differ from OTHER_SRC's"
    )
    args = parser.parse_args(argv)
    inputs = tuple(os.path.join(args.out_dir, name) for name in ("input", "input-60x", "input-quoted"))
    generate.generate(SEED, 1, inputs[0])
    generate.generate(SEED, 60, inputs[1])
    write_small_inputs(inputs[2])
    theirs = {} if args.against is None else run_all(args.against, args.out_dir, inputs)
    ours = None if theirs is None else run_all(os.path.join(ROOT, "src"), args.out_dir, inputs)
    if ours is None:
        return 2
    if args.against is None:
        for path, data in ours.items():
            print(f"{hashlib.sha256(data).hexdigest()}  {path}")
        return 0
    differ = sorted(path for path in theirs.keys() | ours.keys() if theirs.get(path) != ours.get(path))
    for path in differ:
        if path in theirs and path in ours:
            print(f"{path}  {number_diff(theirs[path], ours[path])}")
        else:
            print(f"{path}  only with {'this tree' if path in ours else args.against}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
