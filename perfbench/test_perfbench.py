"""The benchmark's own tests, on small instances of each workload.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
from metronome import NOMINAL_SLICE_S, SENSITIVITY, Metronome  # noqa: E402
from tracer import LAYER_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS, DEFAULT_SEED  # noqa: E402

#: Scales that keep each workload to tens of flows.
SMALL = {"storage_bulk": 0.04, "search_stream": 0.01, "policy_matrix": 0.05}


def small(name: str):
    return WORKLOADS[name](scale=SMALL[name])


def bench(workload, trace=0, expected=None, lines=None):
    with tempfile.TemporaryDirectory() as work:
        return run.bench(
            workload, DEFAULT_SEED, 0, trace, Path(work), 0.0,
            expected=expected,
            out=(lines.append if lines is not None else lambda line: None),
        )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_small_run_emits_every_metric_with_its_unit(name, trace):
    lines: list[str] = []
    result = bench(small(name), trace=trace, lines=lines)
    expected = dict(LAYER_METRICS if trace else run.END_TO_END)
    assert result["correct"], lines
    assert result["attempted"] > 0
    assert set(result["metrics"]) == set(expected)
    for metric, entry in result["metrics"].items():
        assert entry["unit"] == expected[metric]
        assert isinstance(entry["value"], float | int)
        assert any(
            line.startswith(f"{metric} ") and f" {entry['unit']} n=" in line
            for line in lines
        ), metric
    json.dumps(result)  # the result line must serialize


def test_planted_fault_raises_failed_ratio_by_one_flow():
    workload = small("storage_bulk")
    clean = bench(workload)

    class Planted(type(workload)):
        def analyze(self, capture, clock):
            analyzed = super().analyze(capture, clock)
            report = json.loads(analyzed.report_json)
            report["flows"][0]["duration"] += 1.0
            analyzed.report_json = json.dumps(report, sort_keys=True)
            return analyzed

    planted = bench(Planted(scale=workload.scale))
    flows = clean["attempted"]
    assert Fraction(planted["failed"], planted["attempted"]) - Fraction(
        clean["failed"], clean["attempted"]
    ) == Fraction(1, flows)


def test_wrong_recorded_digest_fails_the_check():
    workload = small("policy_matrix")
    lines: list[str] = []
    with tempfile.TemporaryDirectory() as work:
        result = run.run_pass(workload, DEFAULT_SEED, str(Path(work) / "c"))
    right = {"capture_sha256": result.capture_sha256,
             "cells_sha256": result.cells_sha256}
    assert bench(workload, expected=right)["correct"]
    for name in right:
        wrong = dict(right, **{name: "0" * 64})
        assert not bench(workload, expected=wrong, lines=lines)["correct"]
        assert any("INCORRECT" in line and name in line for line in lines)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_leaves_digests_and_report_bytes_unchanged(name):
    workload = small(name)
    with tempfile.TemporaryDirectory() as work:
        path = str(Path(work) / "c.pcap")
        plain = run.run_pass(workload, DEFAULT_SEED, path)
        tracer = Tracer()
        with tracer:
            traced = run.run_pass(workload, DEFAULT_SEED, path, tracer)
    assert tracer.spans and all(span is not None for span in tracer.spans)
    assert traced.capture_sha256 == plain.capture_sha256
    assert traced.cells_sha256 == plain.cells_sha256
    assert traced.report_json == plain.report_json
    assert tracer.self_total() <= traced.wall_s


def test_metronome_leaves_slices_out_and_scales_to_nominal():
    clock = Metronome()
    mark = clock.mark()
    start = clock.now()
    clock.tick(force=True)
    clock.tick()  # not due yet: no slice
    elapsed = clock.now() - start
    assert len(clock.slices) == 1
    assert 0 <= elapsed < clock.slices[0]
    assert clock.scale(mark) == (
        NOMINAL_SLICE_S / clock.slices[0]
    ) ** SENSITIVITY
