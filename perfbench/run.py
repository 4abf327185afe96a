"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload search_stream --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
makes the separate traced run that reports the per-layer metrics.
Each metric is printed on its own line with unit and sample count;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from metronome import Metronome, Wallclock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch and span output, inside the checkout and ignored by git.
WORK = ROOT / ".perfbench"
EXPECTED = HERE / "expected_digests.json"

#: End-to-end metrics: (name, unit).  How each is estimated from the
#: passes of a run is in :func:`measure_untraced`.
END_TO_END = (
    ("sim_kpps", "kpackets/s"),
    ("tapo_kpps", "kpackets/s"),
    ("cells_per_min", "cells/min"),
    ("flow_report_p50_ms", "ms"),
    ("flow_report_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
)

#: Fewest passes (untraced) or traced/untraced pairs (traced) per run,
#: whatever ``--seconds`` says.
MIN_PASSES = 2
MIN_PAIRS = 1


@dataclass
class PassResult:
    """Timings and outputs of one pass.

    Stage times come from the pass's clock: normalised to the nominal
    machine under a :class:`metronome.Metronome`, raw wall time under a
    :class:`metronome.Wallclock`.
    """

    setup_s: float
    simulate_s: float
    #: One entry per analysis of the capture.
    analyze_s: list
    #: Raw wall time of the whole pass, calibration included.
    wall_s: float
    packets: int
    flows: int
    cells: int
    cache_hits: int
    capture_sha256: str
    cells_sha256: str | None
    report_json: str
    #: Whether every analysis produced the same report bytes.
    report_stable: bool
    #: Per analysis, the report lag of each flow, by flow key.
    lags_ms: list
    capture_path: str


def run_pass(
    workload, seed: int, path: str, tracer=None, analyses: int = 1,
    clock=None,
) -> PassResult:
    """One pass: setup, simulate, setup (capture), then ``analyses``
    analyses of the capture."""
    clock = clock or Wallclock()

    def stage(name, fn, *args):
        """``fn(*args)`` as stage ``name``: (result, time, scale)."""
        mark = clock.mark()
        start = clock.now()
        with tracer.stage(name) if tracer else contextlib.nullcontext():
            result = fn(*args)
        elapsed = clock.now() - start
        scale = clock.scale(mark)
        return result, elapsed * scale, scale

    gc.collect()  # start every pass from the same heap state
    began = time.perf_counter()
    scenarios, setup_s, _ = stage("setup", workload.scenarios, seed)
    sim, simulate_s, _ = stage(
        "simulate", workload.simulate, scenarios, clock
    )
    del scenarios
    capture, capture_s, _ = stage(
        "setup", workload.capture, sim, seed, path, clock
    )
    cells, hits, cells_sha = sim.cells, sim.cache_hits, sim.cells_sha256
    del sim
    if tracer is not None:
        tracer.last_index = capture.last_index
    analyze_s, lags, reports = [], [], set()
    for _ in range(analyses):
        analyzed, seconds, scale = stage(
            "analyze", workload.analyze, capture, clock
        )
        analyze_s.append(seconds)
        lags.append({
            key: lag * scale for key, lag in analyzed.lags_ms.items()
        })
        reports.add(analyzed.report_json)
    return PassResult(
        setup_s=setup_s + capture_s,
        simulate_s=simulate_s,
        analyze_s=analyze_s,
        wall_s=time.perf_counter() - began,
        packets=capture.packets,
        flows=capture.flows,
        cells=cells,
        cache_hits=hits,
        capture_sha256=capture.sha256,
        cells_sha256=cells_sha,
        report_json=analyzed.report_json,
        report_stable=len(reports) == 1,
        lags_ms=lags,
        capture_path=capture.path,
    )


@dataclass
class Checker:
    """Checks every pass's outputs; counts failed operations.

    The first pass's report is compared flow by flow with the object
    oracle.  Every later pass (traced or not) must reproduce the first
    pass's capture, cell metrics and report bytes exactly, so the same
    flow verdicts hold for it.  Run-level faults (a digest that moves,
    packets lost between capture and report, a cache hit) make the
    run incorrect; per-flow faults (a record that differs from the
    oracle's, a quarantined or missing flow) are failed operations.
    An operation is one flow of the capture, counted once however many
    passes repeat it, so ``attempted`` and ``failed`` depend on the
    seed alone and not on how many passes fit in the run.
    """

    workload: object
    expected: dict | None
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    first: PassResult | None = None
    flow_check: object = None

    def check(self, result: PassResult) -> None:
        from oracle import compare, oracle_records
        from workloads import analysis_config

        if not result.report_stable:
            self.problems.append("report bytes differ between analyses")
        if result.cache_hits:
            self.problems.append(f"{result.cache_hits} cache hits")
        if self.first is None:
            self.first = result
            self.attempted = result.flows
            records, crashed = oracle_records(
                result.capture_path, self.workload.service, analysis_config()
            )
            self.flow_check = compare(result.report_json, records, crashed)
            if self.flow_check.packets != result.packets:
                self.problems.append(
                    f"report flows hold {self.flow_check.packets} packets, "
                    f"capture has {result.packets}"
                )
            self.failed = self.flow_check.failed
            self._check_expected(result)
        else:
            for name in ("capture_sha256", "cells_sha256", "report_json"):
                if getattr(result, name) != getattr(self.first, name):
                    self.problems.append(f"{name} differs between passes")

    def _check_expected(self, result: PassResult) -> None:
        if self.expected is None:
            return
        for name in ("capture_sha256", "cells_sha256"):
            want = self.expected.get(name)
            if want is not None and getattr(result, name) != want:
                self.problems.append(
                    f"{name} {getattr(result, name)} != recorded {want}"
                )


def expected_digests(workload, seed: int) -> dict | None:
    """The digests recorded for this workload, if they apply: they hold
    for the recorded seed at the default size only."""
    entry = json.loads(EXPECTED.read_text()).get(workload.name)
    if entry is None or entry["seed"] != seed or not workload.defaults:
        return None
    return entry


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _enough(walls: list, seconds: float, minimum: int) -> bool:
    """Stop once the next pass would run past ``seconds``."""
    if len(walls) < minimum:
        return False
    return sum(walls) + sum(walls) / len(walls) > seconds


def measure_untraced(workload, seed, seconds, checker, path, import_s):
    """The end-to-end metrics, as ``name -> (value, samples)``: passes
    until ``seconds`` are spent.

    Every stage is timed on a :class:`metronome.Metronome`, so each
    time is scaled to the nominal machine, and each metric is the
    median over the run's passes (simulate, setup), its analyses
    (TAPO) or, per flow, its analyses and then over flows (report lag).
    The imports are scaled by the run's mean calibration slice.
    """
    clock = Metronome()
    passes: list[PassResult] = []
    while not _enough([p.wall_s for p in passes], seconds, MIN_PASSES):
        result = run_pass(
            workload, seed, path, analyses=workload.analyses, clock=clock
        )
        checker.check(result)
        passes.append(result)

    from tracer import percentile

    median = statistics.median
    lag_sets = [lags for p in passes for lags in p.lags_ms]
    lags = [median(s[key] for s in lag_sets) for key in lag_sets[0]]
    simulate_s = median(p.simulate_s for p in passes)
    n = len(passes)
    return {
        "sim_kpps": (passes[0].packets / simulate_s / 1e3, n),
        "tapo_kpps": (median(
            p.packets / s / 1e3 for p in passes for s in p.analyze_s
        ), len(lag_sets)),
        "cells_per_min": (passes[0].cells / (simulate_s / 60.0), n),
        "flow_report_p50_ms": (percentile(lags, 50), len(lags)),
        "flow_report_p99_ms": (percentile(lags, 99), len(lags)),
        "peak_rss_mb": (peak_rss_mb(), 1),
        "setup_s": (
            import_s * clock.scale() + median(p.setup_s for p in passes), n
        ),
    }


def measure_traced(workload, seed, seconds, checker, path, spans_path):
    """The per-layer metrics: traced passes, each paired with an
    untraced pass on the same input (alternating which runs first),
    until ``seconds`` are spent."""
    from tracer import Tracer

    traced: list[tuple[float, dict]] = []  # (wall time, layer metrics)
    plain: list[float] = []
    walls: list[float] = []
    last = None
    while not _enough(walls, seconds, MIN_PAIRS):
        order = (False, True) if len(traced) % 2 == 0 else (True, False)
        pair_wall = 0.0
        for with_trace in order:
            if with_trace:
                tracer = Tracer()
                with tracer:
                    result = run_pass(workload, seed, path, tracer)
                if tracer.self_total() > result.wall_s:
                    checker.problems.append(
                        f"self times sum to {tracer.self_total():.6f} s, "
                        f"over the traced wall time {result.wall_s:.6f} s"
                    )
                traced.append((result.wall_s, tracer.metrics()))
                last = tracer
            else:
                result = run_pass(workload, seed, path)
                plain.append(result.wall_s)
            checker.check(result)
            pair_wall += result.wall_s
        walls.append(pair_wall)
    last.write(spans_path)
    n = len(traced)
    values = {
        name: (statistics.median(m[name] for _, m in traced), n)
        for name in traced[0][1]
    }
    values["trace.overhead_ratio"] = (
        statistics.median(w for w, _ in traced) / statistics.median(plain),
        n,
    )
    return values


def environment() -> dict:
    import numpy

    from repro.packet import columnar

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numpy_columnar": columnar._np is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "workers": 1,
    }


def bench(workload, seed, seconds, trace, work, import_s, expected=None,
          out=print) -> dict:
    """Measure one workload; print the metric lines and return the
    result object (not yet printed)."""
    from oracle import format_key
    from tracer import LAYER_METRICS

    checker = Checker(workload, expected)
    path = str(work / f"{workload.name}.pcap")
    if trace:
        spans_path = str(WORK / f"spans-{workload.name}-{seed}.tsv.gz")
        values = measure_traced(
            workload, seed, seconds, checker, path, spans_path
        )
        units = dict(LAYER_METRICS)
    else:
        values = measure_untraced(
            workload, seed, seconds, checker, path, import_s
        )
        units = dict(END_TO_END)
    env = environment()
    out(f"# workload={workload.name} seed={seed} trace={trace} "
        + " ".join(f"{k}={v}" for k, v in env.items()))
    if trace:
        out(f"# spans written to {spans_path}")
    metrics = {}
    for name, unit in units.items():
        value, samples = values[name]
        metrics[name] = {"value": value, "unit": unit}
        out(f"{name} {value:.6g} {unit} n={samples}")
    ratio = checker.failed / checker.attempted if checker.attempted else 0.0
    out(f"failed_ratio {ratio:.6g} fraction n={checker.attempted}")
    flow_check = checker.flow_check
    for key, fields in sorted(flow_check.mismatched.items()):
        out(f"# mismatch {format_key(key)} differs in {','.join(fields)}")
    for label in ("missing", "extra", "duplicated", "quarantined", "crashed"):
        for key in getattr(flow_check, label):
            out(f"# {label} {format_key(key)}")
    for problem in checker.problems:
        out(f"# INCORRECT: {problem}")
    return {
        "correct": not checker.problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    cache = work / "cache"
    os.environ["REPRO_CACHE_DIR"] = str(cache)
    os.environ["REPRO_WORKERS"] = "1"
    tempfile.tempdir = str(work)
    try:
        sys.path.insert(0, str(SRC))
        import oracle  # noqa: F401  (imports counted in setup_s)
        import tracer  # noqa: F401
        from workloads import WORKLOADS

        import_s = time.perf_counter() - started
        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload; choose from {sorted(WORKLOADS)}")
        workload = WORKLOADS[args.workload]()
        result = bench(
            workload, args.seed, args.seconds, args.trace, work, import_s,
            expected=expected_digests(workload, args.seed),
        )
        if cache.exists() and any(cache.iterdir()):
            print("# INCORRECT: the run wrote a disk cache")
            result["correct"] = False
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
