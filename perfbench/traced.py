"""Traced run of one ``fwcibench`` command, and the per-layer metrics its spans give.

Run as a script, this wraps the package's public layer functions where their
callers look them up, runs the command through ``fwcibench.cli.main`` and
writes the spans it recorded to a JSON file:

    PYTHONPATH=src python3 perfbench/traced.py SPANS.json RUN_ID -- fit --input ...

A span is ``[name, start, end, parent, attrs]``: ``parent`` is the index of
the enclosing span, and ``attrs`` holds what the call returned that the
metrics need (iteration counts, convergence, failure reasons). The root span
``cli`` opens before the package is imported and closes after ``main``
returns, so it covers everything but interpreter start-up and the final
write. Nothing under ``src/`` changes: the wrappers only rebind module
attributes in this process.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


class Tracer:
    """Collects spans in memory; single-threaded, as the traced program is."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str, start: float) -> list:
        span = [name, start, 0.0, self._stack[-1] if self._stack else None, {}]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list, end: float) -> None:
        span[2] = end
        self._stack.pop()

    def wrap(self, name: str, fn, describe=None):
        """``fn`` recording one span per call; ``describe`` maps (args, kwargs, result) to attrs."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name, time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[4]["error"] = f"{type(exc).__name__}: {exc}"
                raise
            finally:
                self.close(span, time.perf_counter())
            if describe is not None:
                span[4].update(describe(args, kwargs, result))
            return result

        return wrapper


def install(tracer: Tracer) -> None:
    """Rebind each layer's public functions to traced wrappers."""
    from fwcibench import corpus, histogram, lognormal, simulate

    def hist_attrs(args, kwargs, result):
        values = args[0] if args else kwargs["values"]
        return {"key": [result.n_bins, result.lo, result.hi, int(getattr(values, "size", -1))]}

    def lsq_attrs(args, kwargs, result):
        return {"n_iter": int(result.n_iter), "converged": bool(result.converged)}

    traced_hist = tracer.wrap("histogram.build_histogram", histogram.build_histogram, hist_attrs)
    histogram.build_histogram = traced_hist
    lognormal.build_histogram = traced_hist
    lognormal.damped_least_squares = tracer.wrap(
        "leastsq.damped_least_squares", lognormal.damped_least_squares, lsq_attrs
    )
    lognormal.fit_histogram = tracer.wrap(
        "lognormal.fit_histogram", lognormal.fit_histogram, lambda a, k, r: {"converged": bool(r.converged)}
    )
    lognormal.ensemble_fit = tracer.wrap("lognormal.ensemble_fit", lognormal.ensemble_fit)

    corpus.read_records = tracer.wrap(
        "corpus.read_records",
        corpus.read_records,
        lambda a, k, r: {"rows": len(r[0]) + len(r[1]), "rejected": len(r[1])},
    )
    corpus.dedupe_per_award = tracer.wrap(
        "corpus.dedupe_per_award", corpus.dedupe_per_award, lambda a, k, r: {"duplicates": int(r[1])}
    )
    corpus.summarize_awards = tracer.wrap("corpus.summarize_awards", corpus.summarize_awards)
    corpus.write_records_csv = tracer.wrap("corpus.write_records_csv", corpus.write_records_csv)

    simulate.benchmark_award = tracer.wrap(
        "simulate.benchmark_award",
        simulate.benchmark_award,
        lambda a, k, r: {"pairs": [[r.n_papers, s] for s in r.thresholds]},
    )
    simulate.median_curve = tracer.wrap(
        "simulate.median_curve",
        simulate.median_curve,
        lambda a, k, r: {"pairs": [[p.n, p.sigma_sq] for p in r]},
    )


def _fit_failure(error: str) -> str:
    return "too_few_bins" if "non-empty bins" in error else "domain"


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts, busy times, ratios and self times from one run's spans."""
    duration = [s[2] - s[1] for s in spans]
    names = [s[0] for s in spans]

    def of(name: str) -> list[int]:
        return [i for i, n in enumerate(names) if n == name]

    def busy(name: str) -> float:
        return sum(duration[i] for i in of(name))

    m: dict[str, float] = {}

    reads = of("corpus.read_records")
    rows = sum(spans[i][4].get("rows", 0) for i in reads)
    m["corpus.read_records.s"] = busy("corpus.read_records")
    m["corpus.dedupe.s"] = busy("corpus.dedupe_per_award")
    m["corpus.summarize.s"] = busy("corpus.summarize_awards")
    m["corpus.write.s"] = busy("corpus.write_records_csv")
    m["corpus.rows"] = rows
    m["corpus.rows_rejected"] = sum(spans[i][4].get("rejected", 0) for i in reads)
    m["corpus.duplicates"] = sum(spans[i][4].get("duplicates", 0) for i in of("corpus.dedupe_per_award"))
    m["corpus.us_per_row"] = 1e6 * m["corpus.read_records.s"] / rows if rows else 0.0

    hists = of("histogram.build_histogram")
    seen: set[tuple] = set()
    repeats = 0
    for i in hists:
        key = tuple(spans[i][4].get("key", (i,)))
        repeats += key in seen
        seen.add(key)
    m["histogram.calls"] = len(hists)
    m["histogram.busy_s"] = busy("histogram.build_histogram")
    m["histogram.repeat_share"] = repeats / len(hists) if hists else 0.0

    solves = of("leastsq.damped_least_squares")
    iters = [spans[i][4]["n_iter"] for i in solves if "n_iter" in spans[i][4]]
    m["leastsq.calls"] = len(solves)
    m["leastsq.busy_s"] = busy("leastsq.damped_least_squares")
    m["leastsq.iters_mean"] = sum(iters) / len(iters) if iters else 0.0
    m["leastsq.iters_max"] = max(iters, default=0)
    m["leastsq.not_converged"] = sum(1 for i in solves if spans[i][4].get("converged") is False)
    m["leastsq.us_per_iter"] = 1e6 * m["leastsq.busy_s"] / sum(iters) if iters and sum(iters) else 0.0

    in_ensemble = [False] * len(spans)
    for i, s in enumerate(spans):
        in_ensemble[i] = s[0] == "lognormal.ensemble_fit" or (s[3] is not None and in_ensemble[s[3]])
    ensemble_s = busy("lognormal.ensemble_fit")
    kernel_s = sum(duration[i] for i in hists + solves if in_ensemble[i])
    fits = of("lognormal.fit_histogram")
    failures = {"too_few_bins": 0, "domain": 0, "not_converged": 0}
    n_ok = 0
    for i in fits:
        attrs = spans[i][4]
        if "error" in attrs:
            failures[_fit_failure(attrs["error"])] += 1
        elif attrs.get("converged"):
            n_ok += 1
        else:
            failures["not_converged"] += 1
    m["lognormal.ensemble.s"] = ensemble_s
    m["lognormal.self_s"] = ensemble_s - kernel_s
    m["lognormal.fits_attempted"] = len(fits)
    m["lognormal.fits_ok_ratio"] = n_ok / len(fits) if fits else 0.0
    for reason, count in failures.items():
        m[f"lognormal.fits_failed.{reason}"] = count

    # simulate.calls counts threshold requests: one per (award, sigma2) or curve point.
    sims = of("simulate.benchmark_award") + of("simulate.median_curve")
    pairs = [tuple(p) for i in sims for p in spans[i][4].get("pairs", [])]
    distinct = set(pairs)
    m["simulate.calls"] = len(pairs)
    m["simulate.busy_s"] = sum(duration[i] for i in sims)
    m["simulate.pairs_distinct"] = len(distinct)
    m["simulate.repeat_share"] = 1.0 - len(distinct) / len(pairs) if pairs else 0.0
    m["simulate.sum_n"] = sum(n for n, _ in distinct)
    m["simulate.max_n"] = max((n for n, _ in distinct), default=0)

    root = [i for i, s in enumerate(spans) if s[3] is None and s[0] == "cli"]
    top = [i for i, s in enumerate(spans) if s[3] is not None and s[3] in root]
    m["cli.root_s"] = sum(duration[i] for i in root)
    m["cli.self_s"] = m["cli.root_s"] - sum(duration[i] for i in top)
    return m


def main(argv: list[str]) -> int:
    spans_path, run_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: traced.py SPANS.json RUN_ID -- COMMAND ARGS...")
    tracer = Tracer(run_id)
    root = tracer.open("cli", _T0)
    try:
        from fwcibench import cli

        install(tracer)
        code = cli.main(cli_args)
    finally:
        tracer.close(root, time.perf_counter())
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": tracer.run_id, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
