"""fwcibench benchmark: four CLI workloads timed end to end, six layers traced.

Run from the repository root:

    python3 perfbench/run.py --workload fit-paper --seed 1 --seconds 26 --trace 0

Each run generates its inputs from ``--seed``, measures set-up time (a fresh
interpreter importing ``fwcibench.cli``), then launches the workload's command
in a fresh interpreter again and again until ``--seconds`` is used up. Every
command writes its reports to files, which are checked for correctness before
the next launch. ``--trace 1`` adds one traced launch (see ``traced.py``) and
reports per-layer metrics instead of end-to-end ones.

The last line on stdout is the result object; the line before it is the full
run record (machine context, every launch, output hashes), which is also
written under ``.perfbench_out/records/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass

import numpy

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import generate  # noqa: E402
import traced  # noqa: E402

WORK_ROOT = ".perfbench_out"
REFERENCE = os.path.join(HERE, "reference_thresholds.json")
# The CLI's default sigma2 values, which every workload runs at; the checks need them.
DEFAULT_SIGMA_SQ = (1.0, 1.3, 1.8)
CURVE_N_LIST = (1, 5, 10, 46, 100, 400)
SETUP_SAMPLES = 15
# Every run must end well inside the 180 s a run may take.
RUN_CAP_S = 165.0

# The per-layer metrics and their units are those BENCHMARK.json declares.
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as _fh:
    PER_LAYER_UNITS = {m["name"]: m["unit"] for m in json.load(_fh)["per_layer"]}


@dataclass(frozen=True)
class Workload:
    command: str
    scale: int
    extra: tuple[str, ...] = ()
    budgets: bool = False


# fit and benchmark run a quarter and a half of their default ensemble and
# Monte Carlo sizes: at the defaults one launch takes 9-15 s, so a run would
# hold one or two launches and one slow launch would set its figure. The work
# per fit and per simulated award, and the (n, sigma2) pairs requested, stay
# those of the default run.
WORKLOADS = {
    "fit-paper": Workload("fit", 1, ("--fits", "2500")),
    "benchmark-paper": Workload("benchmark", 1, ("--reps", "50000")),
    "curve-n400": Workload("curve", 1, ("--n-list", ",".join(map(str, CURVE_N_LIST)))),
    "ingest-200k": Workload("ingest", 60, budgets=True),
}


@dataclass
class Launch:
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    problems: list[str]
    calibration_s: float
    output_sha256: str = ""
    output_bytes: int = 0


def spawn(argv: list[str], stdout: str, stderr: str, env: dict, timeout: float) -> tuple[float, float, float, int]:
    """Run argv to completion with output sent to files; return wall, cpu, rss MB, exit code.

    Output goes to files rather than pipes: a child that writes more than a
    pipe holds would block forever while this process waits for it.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, stdout, flags, 0o644), (os.POSIX_SPAWN_OPEN, 2, stderr, flags, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        if not select.select([pidfd], [], [], max(timeout, 0.0))[0]:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        # Interrupted while the child runs: end it before giving up.
        with contextlib.suppress(OSError):
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            os.wait4(pid, 0)
        raise
    finally:
        os.close(pidfd)
    wall = time.perf_counter() - start
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, os.waitstatus_to_exitcode(status)


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop; tracks drift in host speed between runs."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i
    return time.perf_counter() - start


class Runner:
    def __init__(self, name: str, seed: int):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.work = os.path.join(WORK_ROOT, name)
        self.input_dir = os.path.join(self.work, "input")
        self.out_dir = os.path.join(self.work, "out")
        self.env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
        self.reference = checks.load_reference(REFERENCE)
        self.truth: dict = {}

    def prepare(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        self.truth = generate.generate(self.seed, self.workload.scale, self.input_dir)

    def cli_args(self) -> list[str]:
        w = self.workload
        args = [w.command, "--input", os.path.join(self.input_dir, "pubs.csv"), "--out", self.out_dir, *w.extra]
        if w.budgets:
            args += ["--budgets", os.path.join(self.input_dir, "budgets.csv")]
        return args

    def setup_times(self, timeout: float) -> list[float]:
        argv = [sys.executable, "-c", "import fwcibench.cli"]
        log = os.path.join(self.work, "setup.log")
        samples = []
        for k in range(SETUP_SAMPLES + 1):
            wall, _, _, code = spawn(argv, os.devnull, log, self.env, timeout)
            if code != 0:
                with open(log, encoding="utf-8", errors="replace") as fh:
                    raise RuntimeError(f"importing fwcibench.cli failed with exit {code}: {fh.read()[-2000:]}")
            if k:  # the first import compiles bytecode; users pay that once
                samples.append(wall)
        return samples

    def check(self) -> list[str]:
        w = self.workload
        try:
            if w.command == "fit":
                return checks.check_fit(self.out_dir, self.truth)
            if w.command == "benchmark":
                return checks.check_benchmark(self.out_dir, self.truth, self.reference, DEFAULT_SIGMA_SQ)
            if w.command == "curve":
                return checks.check_curve(self.out_dir, self.reference, CURVE_N_LIST, DEFAULT_SIGMA_SQ)
            return checks.check_ingest(self.out_dir, self.truth)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            return [f"unreadable output: {exc!r}"]

    def launch(self, argv: list[str], tag: str, timeout: float) -> Launch:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        stdout = os.path.join(self.work, f"{tag}.stdout")
        stderr = os.path.join(self.work, f"{tag}.stderr")
        calibration = calibrate()
        wall, cpu, rss, code = spawn(argv, stdout, stderr, self.env, timeout)
        if code != 0:
            return Launch(wall, cpu, rss, code, [f"exit code {code}"], calibration)
        return Launch(
            wall,
            cpu,
            rss,
            code,
            self.check(),
            calibration,
            checks.tree_sha256(self.out_dir),
            checks.tree_bytes(self.out_dir),
        )

    def untraced(self, deadline: float, hard_deadline: float, reserve: int) -> list[Launch]:
        """Launch the command until ``reserve`` + 1 more launches would overrun ``deadline``."""
        argv = [sys.executable, "-m", "fwcibench.cli", *self.cli_args()]
        launches: list[Launch] = []
        while True:
            t = time.monotonic()
            launch = self.launch(argv, f"run{len(launches)}", hard_deadline - t)
            launch_s = time.monotonic() - t
            launches.append(launch)
            if launch.exit_code != 0 or time.monotonic() + (1 + reserve) * launch_s > deadline:
                return launches

    def traced(self, hard_deadline: float) -> tuple[Launch, dict[str, float]]:
        spans_path = os.path.join(self.work, "spans.json")
        run_id = f"{self.name}-s{self.seed}"
        argv = [sys.executable, os.path.join(HERE, "traced.py"), spans_path, run_id, "--", *self.cli_args()]
        launch = self.launch(argv, "traced", hard_deadline - time.monotonic())
        if launch.exit_code != 0:
            return launch, {}
        with open(spans_path, encoding="utf-8") as fh:
            spans = json.load(fh)["spans"]
        return launch, traced.layer_metrics(spans)


def context() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "loadavg": os.getloadavg(),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fwcibench end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a polite stop into SystemExit, so that a running child is ended too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join("src", "fwcibench", "cli.py")):
        print("error: run from a checkout root holding src/fwcibench", file=sys.stderr)
        return 2

    started = time.monotonic()
    hard_deadline = started + RUN_CAP_S
    runner = Runner(args.workload, args.seed)
    try:
        runner.prepare()
        calibration = [calibrate() for _ in range(2)]
        setup = runner.setup_times(hard_deadline - time.monotonic())
        loop_start = time.monotonic()
        # A traced run keeps room for its traced launch inside --seconds.
        launches = runner.untraced(min(loop_start + args.seconds, hard_deadline), hard_deadline, args.trace)
        layers: dict[str, float] = {}
        if args.trace:
            traced_launch, layers = runner.traced(hard_deadline)
            launches_all = launches + [traced_launch]
        else:
            launches_all = launches
        calibration += [calibrate() for _ in range(2)]
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(os.path.join(runner.work, "out"), ignore_errors=True)
        shutil.rmtree(runner.input_dir, ignore_errors=True)

    failed = sum(1 for launch in launches_all if launch.problems)
    walls = [launch.wall_s for launch in launches if launch.exit_code == 0] or [launches[0].wall_s]
    wall_median = statistics.median(walls)
    if args.trace:
        tl = launches_all[-1]
        values = dict.fromkeys(PER_LAYER_UNITS, 0.0)
        values.update(layers)
        values["cli.output_bytes"] = tl.output_bytes
        values["cpu_s"] = tl.cpu_s
        values["trace_overhead_s"] = tl.wall_s - wall_median
        values["trace.unaccounted_s"] = tl.wall_s - values["cli.root_s"]
        values["calibration_s"] = statistics.median(calibration)
        metrics = {name: metric(value, PER_LAYER_UNITS[name]) for name, value in values.items()}
    else:
        metrics = {
            "wall_s": metric(wall_median, "s"),
            "setup_s": metric(statistics.median(setup), "s"),
            "peak_rss_mb": metric(statistics.median(launch.rss_mb for launch in launches), "MB"),
        }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "context": context(),
        "calibration_s": calibration,
        "setup_s": setup,
        "elapsed_s": time.monotonic() - started,
        "launches": [vars(launch) for launch in launches_all],
        "metrics": metrics,
    }
    os.makedirs(os.path.join(WORK_ROOT, "records"), exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    record_path = os.path.join(WORK_ROOT, "records", f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(record))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": len(launches_all), "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
