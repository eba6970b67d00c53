"""Shared fixtures plus the acceptance-summary hook.

The terminal-summary hook prints one PASS/FAIL line per acceptance criterion
after the run, so the verdicts are visible even with output capture on.
"""

from __future__ import annotations

import numpy as np
import pytest

_ACCEPTANCE_RESULTS: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.when == "call":
        _ACCEPTANCE_RESULTS[name] = "PASS" if report.passed else "FAIL"
    elif report.when == "setup" and (report.failed or report.skipped):
        _ACCEPTANCE_RESULTS[name] = "FAIL"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(_ACCEPTANCE_RESULTS):
        label = name.replace("test_", "").split("_")[0].upper()
        terminalreporter.write_line(f"ACCEPTANCE {label}: {_ACCEPTANCE_RESULTS[name]} ({name})")


def truncated_lognormal(n: int, mu: float, sigma: float, seed: int, lo: float = 0.0, hi: float = 8.0) -> np.ndarray:
    """n lognormal(mu, sigma) draws rejected into the open interval (lo, hi)."""
    rng = np.random.default_rng(seed)
    out = np.empty(0)
    while out.size < n:
        v = np.exp(mu + sigma * rng.standard_normal(2 * n))
        v = v[(v > lo) & (v < hi)]
        out = np.concatenate([out, v])
    return out[:n]


@pytest.fixture
def trunc_sampler():
    return truncated_lognormal


def lognormal_draws(params, n: int, stream: np.random.Generator) -> np.ndarray:
    """n draws e^(mu + sigma Z) from one ``standard_normal(n)`` call on ``stream``."""
    return np.exp(params.mu + params.sigma * stream.standard_normal(n))


@pytest.fixture
def lognormal_sampler():
    return lognormal_draws
