"""Parent-versus-change benchmark pairs, written to ``BENCH_<pr>.json``.

    python3 scripts/bench.py PR BASE

Run after committing the change. BASE is the commit the change builds on.
The script extracts both BASE (the parent) and ``HEAD`` (the change) with
``git archive`` into temporary directories, so only committed trees are
timed, and writes both commit ids into the file. Then, for each workload of
``BENCHMARK.json``, it runs the change's ``perfbench/run.py --workload W
--seed 1 --seconds S``, with S the file's ``run_seconds``, 10 times in each
tree, alternating which tree goes first (the parent in odd pairs, the change
in even ones). Each run has its tree as working directory, since ``run.py``
times the ``src`` it finds there, and both trees get this process's
environment. One more run of the change with ``--trace 1`` gives the
workload's layer metrics. The last two stdout lines of a run are its record
and its result; the file holds, per workload and tree, the median and IQR
of ``wall_s``, ``setup_s`` and ``peak_rss_mb`` over the runs, each run's
value and launch count, the median calibration time and whether every run
was correct, plus the pairs the change won on ``wall_s``, the traced layer
metrics and the host's core count and load. The script times nothing
itself and adds no check: ``run.py`` does both.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = "1"
# Ten alternating pairs per workload, the fewest a change is judged on.
PAIRS = 10
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")
SIDES = ("parent", "change")
# The variables that change what a launch pays for (BLAS threads, bytecode caching); reported as set.
ENV_NOTED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")


def run_once(run: str, tree: str, workload: str, seconds: float, trace: int = 0) -> tuple[dict, dict]:
    """``(record, result)`` of one run of the script ``run`` in ``tree``."""
    cmd = [sys.executable, run, "--workload", workload, "--seed", SEED, "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=600)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} in {tree}: exit {done.returncode}\n{done.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    """The median, the interquartile range (quartiles by linear interpolation) and the values themselves."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "iqr": q3 - q1, "runs": values}


def side_summary(runs: list[tuple[dict, dict]]) -> dict:
    """One tree's runs of one workload: the end-to-end metrics' spread, launch counts, calibration and correctness."""
    summary = {name: spread([result["metrics"][name]["value"] for _, result in runs]) for name in END_TO_END}
    summary["launches"] = [len(record["launches"]) for record, _ in runs]
    summary["calibration_s"] = statistics.median(c for record, _ in runs for c in record["calibration_s"])
    summary["correct"] = all(result["correct"] for _, result in runs)
    return summary


def assemble(
    pr: int, commits: dict[str, str], runs: dict[str, dict[str, list[tuple[dict, dict]]]], traced: dict[str, tuple[dict, dict]]
) -> dict:
    """The BENCH file: ``commits[side]`` is each tree's commit id, ``runs[workload][side]`` each pair's run in pair
    order, ``traced[workload]`` the traced run."""
    records = [record for by_side in runs.values() for side in by_side.values() for record, _ in side]
    loads = [record["context"]["loadavg"][0] for record in records]
    workloads = {}
    for name, by_side in runs.items():
        walls = [[result["metrics"]["wall_s"]["value"] for _, result in by_side[side]] for side in SIDES]
        workloads[name] = {
            **{side: side_summary(by_side[side]) for side in SIDES},
            "pairs": len(walls[0]),
            "change_won_wall_s": sum(change < parent for parent, change in zip(*walls)),
            "traced": {metric: m["value"] for metric, m in traced[name][1]["metrics"].items()},
            "traced_correct": traced[name][1]["correct"],
        }
    return {
        "pr": pr,
        "commits": commits,
        "seed": int(SEED),
        "seconds": records[0]["seconds"],
        "nproc": records[0]["context"]["nproc"],
        "loadavg_1m": {"min": min(loads), "max": max(loads)},
        "workloads": workloads,
    }


def extract(commit: str, into: str) -> None:
    """Write the committed tree of ``commit`` into the directory ``into``."""
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Benchmark BASE against HEAD and write BENCH_<pr>.json.")
    parser.add_argument("pr", type=int, metavar="PR")
    parser.add_argument("base", metavar="BASE", help="the commit the change builds on")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    commits = {}
    for side, rev in zip(SIDES, (args.base, "HEAD")):
        done = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT, capture_output=True, text=True)
        if done.returncode != 0:
            parser.error(f"{rev} is not a commit")
        commits[side] = done.stdout.strip()
    runs = {name: {side: [] for side in SIDES} for name in names}
    traced = {}
    with tempfile.TemporaryDirectory(prefix="bench-") as tmp:
        trees = {side: os.path.join(tmp, side) for side in SIDES}
        for side in SIDES:
            extract(commits[side], trees[side])
        run = os.path.join(trees["change"], "perfbench", "run.py")
        try:
            for name in names:
                for k in range(PAIRS):
                    for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                        record, result = run_once(run, trees[side], name, bench["run_seconds"])
                        runs[name][side].append((record, result))
                        print(f"{name} pair {k + 1} {side}: wall_s {result['metrics']['wall_s']['value']:.3f}", file=sys.stderr)
                traced[name] = run_once(run, trees["change"], name, bench["run_seconds"], trace=1)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    out = assemble(args.pr, commits, runs, traced)
    out["env"] = {var: os.environ.get(var) for var in ENV_NOTED}
    path = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
