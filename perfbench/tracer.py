"""Per-layer tracing from outside the program.

:class:`Tracer` wraps the public functions of each layer module at run
time, for the length of one traced pass, and records a span per call:
name, start, end, parent span and request id.  The request id is the
scenario's flow id in the simulator (prefixed by the matrix cell) and
the flow key in TAPO.  Each name is patched where its caller looks it
up: ``Tapo.analyze_flow`` resolves ``fast_replay_flow`` and
``classify_flow`` through ``repro.core.tapo``, ``run_flows`` resolves
``run_flow`` through ``repro.experiments.runner`` and ``run_matrix``
resolves ``run_cell`` through ``repro.matrix.runner``; methods are
patched on their classes.  Nothing under ``src/`` is edited, and every
patch is undone when the pass ends.

A span's *self* time is its duration minus the time its child spans
cover.  Calls are strictly nested (one thread, and no wrapped function
is a generator whose frame outlives a call), so a stack gives the
parent and the covered time exactly.
"""

from __future__ import annotations

import bisect
import contextlib
import gzip
import time
from collections import defaultdict

from repro.core import tapo as tapo_module
from repro.core.columnar_pipeline import ColumnarStreamDemuxer
from repro.core.flow_analyzer import FlowAnalyzer
from repro.core.report import ServiceReport
from repro.core.report import percentile as report_percentile
from repro.core.segments import SegmentTracker
from repro.core.state_machine import CaStateTracker
from repro.experiments import runner as runner_module
from repro.matrix import runner as matrix_module
from repro.netsim.engine import EventLoop
from repro.netsim.link import Link
from repro.netsim.trace import CaptureTap
from repro.packet.pcap import PcapReader, PcapWriter
from repro.tcp.endpoint import TcpConnection, TcpEndpoint
from repro.tcp.receiver import ReceiverHalf
from repro.tcp.scoreboard import Scoreboard
from repro.tcp.sender import SenderHalf

#: (owner, attribute, span name) for every plainly wrapped callable.
PLAIN = (
    (Link, "send", "netsim.link"),
    (CaptureTap, "capture", "netsim.trace"),
    (TcpEndpoint, "receive", "tcp.endpoint"),
    (TcpConnection, "__init__", "tcp.endpoint.conn_setup"),
    (TcpConnection, "open", "tcp.endpoint.conn_setup"),
    (SenderHalf, "on_ack", "tcp.sender.on_ack"),
    (SenderHalf, "try_send", "tcp.sender.try_send"),
    (ReceiverHalf, "on_data", "tcp.receiver"),
    (Scoreboard, "apply_sack", "tcp.scoreboard"),
    (Scoreboard, "ack_through", "tcp.scoreboard"),
    (Scoreboard, "mark_lost_by_sack", "tcp.scoreboard"),
    (Scoreboard, "mark_head_lost", "tcp.scoreboard"),
    (Scoreboard, "mark_all_lost", "tcp.scoreboard"),
    (PcapWriter, "__init__", "packet.pcap.write"),
    (PcapWriter, "write_all", "packet.pcap.write"),
    (PcapWriter, "close", "packet.pcap.write"),
    (ColumnarStreamDemuxer, "feed_columns", "core.demux"),
    (FlowAnalyzer, "run", "core.materialize"),
    (FlowAnalyzer, "feed", "core.flow_analyzer"),
    (SegmentTracker, "apply_ack", "core.segments"),
    (SegmentTracker, "apply_sack", "core.segments"),
    (CaStateTracker, "on_ack", "core.state_machine"),
    (ServiceReport, "add", "core.report"),
    (ServiceReport, "to_json", "core.report"),
)

#: Every per-layer metric, with its unit, in report order.
LAYER_METRICS = (
    ("netsim.engine.events", "count"),
    ("netsim.engine.self_s", "s"),
    ("netsim.link.sends", "count"),
    ("netsim.link.self_s", "s"),
    ("netsim.trace.captures", "count"),
    ("netsim.trace.self_s", "s"),
    ("tcp.endpoint.segments", "count"),
    ("tcp.endpoint.self_s", "s"),
    ("tcp.endpoint.conn_setup_s", "s"),
    ("tcp.sender.acks", "count"),
    ("tcp.sender.on_ack_self_s", "s"),
    ("tcp.sender.try_send_self_s", "s"),
    ("tcp.sender.retransmissions", "count"),
    ("tcp.receiver.segments", "count"),
    ("tcp.receiver.self_s", "s"),
    ("tcp.scoreboard.calls", "count"),
    ("tcp.scoreboard.self_s", "s"),
    ("tcp.policies.probe_retransmissions", "count"),
    ("experiments.runner.self_s", "s"),
    ("experiments.runner.flow_p50_ms", "ms"),
    ("experiments.runner.flow_p99_ms", "ms"),
    ("matrix.runner.cells", "count"),
    ("matrix.runner.cell_max_s", "s"),
    ("packet.pcap.write_s", "s"),
    ("packet.pcap.decode_s", "s"),
    ("packet.pcap.batches", "count"),
    ("core.demux.self_s", "s"),
    ("core.demux.flows", "count"),
    ("core.demux.closed", "count"),
    ("core.demux.idle_evicted", "count"),
    ("core.demux.finalized", "count"),
    ("core.demux.peak_active_flows", "count"),
    ("core.demux.peak_buffered_packets", "count"),
    ("core.demux.wait_p50_ms", "ms"),
    ("core.fast_replay.attempts", "count"),
    ("core.fast_replay.hits", "count"),
    ("core.fast_replay.hit_ratio", "ratio"),
    ("core.fast_replay.self_s", "s"),
    ("core.fast_replay.wasted_s", "s"),
    ("core.materialize.self_s", "s"),
    ("core.flow_analyzer.packets", "count"),
    ("core.flow_analyzer.self_s", "s"),
    ("core.segments.self_s", "s"),
    ("core.state_machine.self_s", "s"),
    ("core.classifier.stalls", "count"),
    ("core.classifier.self_s", "s"),
    ("core.report.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def percentile(values, q: float) -> float:
    """The report's linear-interpolation percentile; 0 for no samples
    (a layer that did not run)."""
    return report_percentile(values, q) if values else 0.0


class Tracer:
    """Spans and counters for one traced pass."""

    def __init__(self, last_index: dict | None = None):
        #: (name, start, end, parent index, request id); a slot is
        #: reserved at entry so children can name their parent.
        self.spans: list = []
        self.self_s: dict = defaultdict(float)
        self.total_s: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        self.counts: dict = defaultdict(int)
        self.samples: dict = defaultdict(list)
        #: Capture index of each flow's last packet (for demux waits).
        self.last_index = last_index or {}
        self._batch_ends: list = []
        self._batch_times: list = []
        self._stack: list = []
        self._covered: list = []
        self._request = None
        self._cell = ""
        self._undo: list = []

    # -- spans ----------------------------------------------------------
    def span(self, name: str, fn):
        """``fn`` wrapped in a span named ``name``."""
        spans = self.spans
        stack = self._stack
        covered = self._covered
        self_s = self.self_s
        total_s = self.total_s
        calls = self.calls
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            covered.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[name] += duration - covered.pop()
                total_s[name] += duration
                calls[name] += 1
                if covered:
                    covered[-1] += duration
                spans[index] = (
                    name, start, end, stack[-1] if stack else -1,
                    tracer._request,
                )

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def stage(self, name: str):
        """Record the body as ``bench.<name>``, a top-level span for one
        of the benchmark's own stages of a pass."""
        name = f"bench.{name}"
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        self._covered.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            self.self_s[name] += duration - self._covered.pop()
            self.total_s[name] += duration
            self.calls[name] += 1
            self.samples[name].append(duration)
            self.spans[index] = (name, start, end, -1, None)

    # -- patching -------------------------------------------------------
    def _patch(self, owner, attribute: str, replacement) -> None:
        self._undo.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        """Wrap every layer entry point (undone by :meth:`uninstall`)."""
        for owner, attribute, name in PLAIN:
            self._patch(
                owner, attribute, self.span(name, getattr(owner, attribute))
            )
        self._patch(EventLoop, "run", self._engine_run(EventLoop.run))
        self._patch(
            runner_module, "run_flow", self._run_flow(runner_module.run_flow)
        )
        self._patch(
            matrix_module, "run_cell", self._run_cell(matrix_module.run_cell)
        )
        self._patch(
            PcapReader, "iter_columns",
            self._iter_columns(PcapReader.iter_columns),
        )
        self._patch(
            ColumnarStreamDemuxer, "poll",
            self._handoff(ColumnarStreamDemuxer.poll),
        )
        self._patch(
            ColumnarStreamDemuxer, "finish",
            self._demux_finish(self._handoff(ColumnarStreamDemuxer.finish)),
        )
        self._patch(
            tapo_module.Tapo, "analyze_flow",
            self._analyze_flow(tapo_module.Tapo.analyze_flow),
        )
        self._patch(
            tapo_module, "fast_replay_flow",
            self._fast_replay(tapo_module.fast_replay_flow),
        )
        self._patch(
            tapo_module, "classify_flow",
            self._classify(tapo_module.classify_flow),
        )

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc_info):
        self.uninstall()

    # -- wrappers that also count -----------------------------------------
    def _engine_run(self, real):
        inner = self.span("netsim.engine", real)
        counts = self.counts

        def run(loop, *args, **kwargs):
            before = loop.events_run
            try:
                return inner(loop, *args, **kwargs)
            finally:
                counts["netsim.engine.events"] += loop.events_run - before

        return run

    def _run_flow(self, real):
        inner = self.span("experiments.runner", real)
        tracer = self

        def run_flow(scenario, *args, **kwargs):
            tracer._request = f"{tracer._cell}flow:{scenario.flow_id}"
            start = time.perf_counter()
            result = inner(scenario, *args, **kwargs)
            tracer.samples["flow_ms"].append(
                (time.perf_counter() - start) * 1e3
            )
            stats = result.server_stats
            tracer.counts["tcp.sender.retransmissions"] += (
                stats.retransmissions
            )
            tracer.counts["tcp.policies.probe_retransmissions"] += (
                stats.probe_retransmissions
            )
            tracer._request = None
            return result

        return run_flow

    def _run_cell(self, real):
        inner = self.span("matrix.runner", real)
        tracer = self

        def run_cell(config, workload, path_name, policy):
            tracer._cell = f"{workload.name}/{path_name}/{policy}:"
            start = time.perf_counter()
            try:
                return inner(config, workload, path_name, policy)
            finally:
                tracer.samples["cell_s"].append(time.perf_counter() - start)
                tracer._cell = ""

        return run_cell

    def _iter_columns(self, real):
        tracer = self

        def iter_columns(reader, *args, **kwargs):
            batches = real(reader, *args, **kwargs)
            decode = tracer.span("packet.pcap.decode", lambda: next(batches))
            total = 0
            while True:
                try:
                    cols = decode()
                except StopIteration:
                    return
                total += len(cols)
                tracer._batch_ends.append(total)
                tracer._batch_times.append(time.perf_counter())
                yield cols

        return iter_columns

    def _handoff(self, real):
        inner = self.span("core.demux", real)
        tracer = self

        def handoff(demuxer, *args, **kwargs):
            flows = inner(demuxer, *args, **kwargs)
            now = time.perf_counter()
            waits = tracer.samples["demux_wait_ms"]
            for flow in flows:
                index = tracer.last_index.get(flow.key)
                if index is None:
                    continue
                batch = bisect.bisect_right(tracer._batch_ends, index)
                if batch < len(tracer._batch_times):
                    waits.append((now - tracer._batch_times[batch]) * 1e3)
            return flows

        return handoff

    def _demux_finish(self, real):
        counts = self.counts

        def finish(demuxer, *args, **kwargs):
            flows = real(demuxer, *args, **kwargs)
            stats = demuxer.stats
            counts["core.demux.flows"] += stats.flows_started
            counts["core.demux.closed"] += stats.flows_closed
            counts["core.demux.idle_evicted"] += stats.flows_evicted_idle
            counts["core.demux.finalized"] += stats.flows_finalized
            for field, value in (
                ("core.demux.peak_active_flows", stats.peak_active_flows),
                (
                    "core.demux.peak_buffered_packets",
                    stats.peak_buffered_packets,
                ),
            ):
                counts[field] = max(counts[field], value)
            return flows

        return finish

    def _analyze_flow(self, real):
        tracer = self

        def analyze_flow(tapo, flow):
            key = flow.key
            tracer._request = (
                f"key:{key.ip_a}:{key.port_a}-{key.ip_b}:{key.port_b}"
            )
            try:
                return real(tapo, flow)
            finally:
                tracer._request = None

        return analyze_flow

    def _fast_replay(self, real):
        inner = self.span("core.fast_replay", real)
        tracer = self

        def fast_replay_flow(flow, config):
            start = time.perf_counter()
            analysis = inner(flow, config)
            if analysis is None:
                tracer.total_s["core.fast_replay.wasted"] += (
                    time.perf_counter() - start
                )
            else:
                tracer.counts["core.fast_replay.hits"] += 1
            return analysis

        return fast_replay_flow

    def _classify(self, real):
        inner = self.span("core.classifier", real)
        counts = self.counts

        def classify_flow(analysis, tracker):
            inner(analysis, tracker)
            counts["core.classifier.stalls"] += len(analysis.stalls)

        return classify_flow

    # -- results --------------------------------------------------------
    def self_total(self) -> float:
        """Sum of every span's self time."""
        return sum(self.self_s.values())

    def metrics(self) -> dict:
        """Per-layer metric values (overhead ratio excluded)."""
        s, c, n = self.self_s, self.counts, self.calls
        attempts = n["core.fast_replay"]
        flows = c["core.demux.flows"]
        # A single-service workload simulates one cell per pass: its
        # simulate stage.
        cells = self.samples["cell_s"] or self.samples["bench.simulate"]
        return {
            "netsim.engine.events": c["netsim.engine.events"],
            "netsim.engine.self_s": s["netsim.engine"],
            "netsim.link.sends": n["netsim.link"],
            "netsim.link.self_s": s["netsim.link"],
            "netsim.trace.captures": n["netsim.trace"],
            "netsim.trace.self_s": s["netsim.trace"],
            "tcp.endpoint.segments": n["tcp.endpoint"],
            "tcp.endpoint.self_s": s["tcp.endpoint"],
            "tcp.endpoint.conn_setup_s": self.total_s[
                "tcp.endpoint.conn_setup"
            ],
            "tcp.sender.acks": n["tcp.sender.on_ack"],
            "tcp.sender.on_ack_self_s": s["tcp.sender.on_ack"],
            "tcp.sender.try_send_self_s": s["tcp.sender.try_send"],
            "tcp.sender.retransmissions": c["tcp.sender.retransmissions"],
            "tcp.receiver.segments": n["tcp.receiver"],
            "tcp.receiver.self_s": s["tcp.receiver"],
            "tcp.scoreboard.calls": n["tcp.scoreboard"],
            "tcp.scoreboard.self_s": s["tcp.scoreboard"],
            "tcp.policies.probe_retransmissions": c[
                "tcp.policies.probe_retransmissions"
            ],
            "experiments.runner.self_s": s["experiments.runner"],
            "experiments.runner.flow_p50_ms": percentile(
                self.samples["flow_ms"], 50
            ),
            "experiments.runner.flow_p99_ms": percentile(
                self.samples["flow_ms"], 99
            ),
            "matrix.runner.cells": len(cells),
            "matrix.runner.cell_max_s": max(cells, default=0.0),
            "packet.pcap.write_s": self.total_s["packet.pcap.write"],
            "packet.pcap.decode_s": self.total_s["packet.pcap.decode"],
            "packet.pcap.batches": len(self._batch_ends),
            "core.demux.self_s": s["core.demux"],
            "core.demux.flows": flows,
            "core.demux.closed": c["core.demux.closed"],
            "core.demux.idle_evicted": c["core.demux.idle_evicted"],
            "core.demux.finalized": c["core.demux.finalized"],
            "core.demux.peak_active_flows": c["core.demux.peak_active_flows"],
            "core.demux.peak_buffered_packets": c[
                "core.demux.peak_buffered_packets"
            ],
            "core.demux.wait_p50_ms": percentile(
                self.samples["demux_wait_ms"], 50
            ),
            "core.fast_replay.attempts": attempts,
            "core.fast_replay.hits": c["core.fast_replay.hits"],
            "core.fast_replay.hit_ratio": (
                c["core.fast_replay.hits"] / flows if flows else 0.0
            ),
            "core.fast_replay.self_s": s["core.fast_replay"],
            "core.fast_replay.wasted_s": self.total_s[
                "core.fast_replay.wasted"
            ],
            "core.materialize.self_s": s["core.materialize"],
            "core.flow_analyzer.packets": n["core.flow_analyzer"],
            "core.flow_analyzer.self_s": s["core.flow_analyzer"],
            "core.segments.self_s": s["core.segments"],
            "core.state_machine.self_s": s["core.state_machine"],
            "core.classifier.stalls": c["core.classifier.stalls"],
            "core.classifier.self_s": s["core.classifier"],
            "core.report.self_s": s["core.report"],
        }

    def write(self, path: str) -> None:
        """Write the spans as gzipped tab-separated lines."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("index\tname\tstart\tend\tparent\trequest\n")
            for index, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, request = span
                out.write(
                    f"{index}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t"
                    f"{request or ''}\n"
                )

