"""scripts/bench.py's JSON assembly, on fixed run.py records: the figures a BENCH file quotes, checked by hand."""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts"))

import bench  # noqa: E402


def run(wall, setup, rss, launches, correct=True, calibration=(0.05, 0.06), load=0.5):
    """A run.py ``(record, result)`` pair with only the fields bench.py reads."""
    record = {
        "seconds": 26.0,
        "context": {"nproc": 2, "loadavg": [load, 0.0, 0.0]},
        "calibration_s": list(calibration),
        "launches": [{}] * launches,
    }
    values = {"wall_s": wall, "setup_s": setup, "peak_rss_mb": rss}
    result = {"correct": correct, "metrics": {name: {"value": v, "unit": "?"} for name, v in values.items()}}
    return record, result


def test_assemble_gives_medians_iqrs_launches_and_pairs_won():
    runs = {
        "ingest-200k": {
            "parent": [run(1.0, 0.10, 130.0, 2), run(1.2, 0.12, 141.0, 3, load=1.5), run(1.1, 0.11, 141.0, 3)],
            "change": [run(0.9, 0.11, 141.0, 3), run(1.3, 0.10, 130.0, 2), run(1.0, 0.14, 142.0, 3, correct=False)],
        }
    }
    traced = {"ingest-200k": ({}, {"correct": True, "metrics": {"corpus.rows": {"value": 193000, "unit": "count"}}})}
    out = bench.assemble(31, {"parent": "a" * 40, "change": "b" * 40}, runs, traced)
    assert (out["pr"], out["seed"], out["seconds"], out["nproc"]) == (31, 1, 26.0, 2)
    assert out["commits"] == {"parent": "a" * 40, "change": "b" * 40}
    assert out["loadavg_1m"] == {"min": 0.5, "max": 1.5}
    w = out["workloads"]["ingest-200k"]
    # parent wall 1.0, 1.1, 1.2: quartiles 1.05 and 1.15; change 0.9, 1.0, 1.3: quartiles 0.95 and 1.15
    assert w["parent"]["wall_s"]["median"] == 1.1 and w["parent"]["wall_s"]["iqr"] == pytest.approx(0.1)
    assert w["change"]["wall_s"]["median"] == 1.0 and w["change"]["wall_s"]["iqr"] == pytest.approx(0.2)
    assert w["parent"]["wall_s"]["runs"] == [1.0, 1.2, 1.1]
    # rss 130, 141, 141: quartiles 135.5 and 141
    assert w["parent"]["peak_rss_mb"]["median"] == 141.0 and w["parent"]["peak_rss_mb"]["iqr"] == pytest.approx(5.5)
    assert w["change"]["setup_s"]["median"] == 0.11 and w["change"]["setup_s"]["iqr"] == pytest.approx(0.02)
    assert w["parent"]["launches"] == [2, 3, 3] and w["change"]["launches"] == [3, 2, 3]
    assert w["parent"]["calibration_s"] == pytest.approx(0.055)
    assert (w["parent"]["correct"], w["change"]["correct"]) == (True, False)
    # pairs: 0.9 < 1.0 won, 1.3 < 1.2 lost, 1.0 < 1.1 won
    assert (w["pairs"], w["change_won_wall_s"]) == (3, 2)
    assert w["traced"] == {"corpus.rows": 193000} and w["traced_correct"] is True


def test_a_tie_is_no_win():
    runs = {"fit-paper": {"parent": [run(1.0, 0.1, 40.0, 5)] * 2, "change": [run(1.0, 0.1, 40.0, 5)] * 2}}
    traced = {"fit-paper": ({}, {"correct": True, "metrics": {}})}
    assert bench.assemble(1, {"parent": "a", "change": "b"}, runs, traced)["workloads"]["fit-paper"]["change_won_wall_s"] == 0
