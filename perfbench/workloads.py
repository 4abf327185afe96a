"""The benchmark's workloads and the stages of one pass.

Every pass of every workload has the same shape:

1. *setup*: generate fresh scenarios from the seed;
2. *simulate* (timed): run them through the simulator's public entry
   point (``run_flows`` or ``run_matrix``);
3. *setup*: merge the captured traces into one time-sorted pcap, with
   per-flow arrival offsets on the streaming workloads;
4. *analyze* (timed): TAPO from opening the pcap to the canonical
   report JSON (``Tapo.analyze_pcap`` or ``Tapo.analyze_stream``).

The workloads differ in which entry points they use and in the traffic
they feed them; ``README.md`` beside this file says why each exists.
Nothing here reaches into ``src/``: the program sees only generated
scenarios and captures.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import random
from dataclasses import dataclass, field

from repro.config import AnalysisConfig, RunConfig
from repro.core import ServiceReport, Tapo
from repro.errors import ErrorBudget
from repro.experiments import mitigation
from repro.experiments.runner import run_flows
from repro.matrix.runner import MatrixConfig, run_matrix
from repro.packet.flow import FlowKey
from repro.packet.pcap import PcapReader, PcapWriter
from repro.workload.generator import SERVER_IP, generate_flows
from repro.workload.services import get_profile

DEFAULT_SEED = 20141222

#: Flow arrivals on the streaming workloads form a Poisson process of
#: this many flows per second of trace time.  Simulated clients never
#: send a FIN, so flows leave the streaming demuxer only through its
#: 60 s idle timeout; the arrival span (flows / rate) must stay well
#: beyond 60 s or nothing is evicted before end of stream.
ARRIVAL_RATE = 20.0


def analysis_config() -> AnalysisConfig:
    """TAPO as an operator runs it: columnar default, and a lenient
    error budget so a crashing flow is quarantined (and counted as a
    failed operation) instead of aborting the pass."""
    return AnalysisConfig(errors=ErrorBudget.lenient())


def run_config() -> RunConfig:
    """One in-process worker and no caches, whatever the environment
    says, so every pass simulates and analyzes from scratch."""
    return RunConfig(workers=1, use_cache=False)


@dataclass
class Capture:
    """The merged pcap one pass writes, and what the checks need of it."""

    path: str
    packets: int
    flows: int
    #: Capture index of each flow's last packet, by flow key.
    last_index: dict
    sha256: str = ""


@dataclass
class Simulated:
    """The simulate stage's output."""

    #: One packet list per flow, in a fixed flow order.
    traces: list
    #: Cells (service, path, policy) the stage completed.
    cells: int
    cache_hits: int
    #: sha256 over the matrix cell metrics (matrix workload only).
    cells_sha256: str | None = None


@dataclass
class Analyzed:
    """The analyze stage's output."""

    report_json: str
    #: Per flow key: ms from pulling the decode batch that holds the
    #: flow's last packet to TAPO handing the flow's analysis back.
    lags_ms: dict = field(default_factory=dict)


class PullClock:
    """Timestamps each decode batch as TAPO pulls it from the reader,
    on the work clock ``clock`` (a :mod:`metronome` clock).

    Installed on ``PcapReader.iter_columns`` and ``Tapo.analyze_flow``
    for the analyze stage only.  It costs one clock read per batch (a
    batch is one slab of thousands of packets) and one per flow, where
    it lets the clock time its calibration slice when one is due.
    """

    def __init__(self, clock):
        self.clock = clock
        self.ends: list[int] = []  # cumulative packets through batch i
        self.times: list[float] = []
        self._real = None

    def __enter__(self):
        real_iter = PcapReader.iter_columns
        real_analyze = Tapo.analyze_flow
        clock = self.clock
        ends, times = self.ends, self.times

        def iter_columns(reader, *args, **kwargs):
            total = 0
            for cols in real_iter(reader, *args, **kwargs):
                clock.tick()
                total += len(cols)
                ends.append(total)
                times.append(clock.now())
                yield cols

        def analyze_flow(tapo, flow):
            clock.tick()
            return real_analyze(tapo, flow)

        self._real = real_iter, real_analyze
        PcapReader.iter_columns = iter_columns
        Tapo.analyze_flow = analyze_flow
        return self

    def __exit__(self, *exc_info):
        PcapReader.iter_columns, Tapo.analyze_flow = self._real

    def pulled_at(self, index: int) -> float:
        """When the batch holding capture packet ``index`` was pulled."""
        return self.times[bisect.bisect_right(self.ends, index)]


#: Packets ``write_capture`` hands to ``PcapWriter.write_all`` at once.
WRITE_SLAB = 4096


def write_capture(
    traces, path: str, offsets=None, remap=None, clock=None
) -> Capture:
    """Merge per-flow traces into one time-sorted pcap at ``path``.

    ``offsets[i]`` shifts flow ``i``'s timestamps (its arrival time);
    ``remap[i]`` is added to flow ``i``'s client IP so flows that reuse
    a client address (matrix cells all number their flows from 0) stay
    distinct connections.  ``clock`` ticks between slabs of
    :data:`WRITE_SLAB` packets.
    """
    merged = []
    for index, trace in enumerate(traces):
        shift = offsets[index] if offsets is not None else 0.0
        bump = remap[index] if remap is not None else 0
        if not shift and not bump:
            merged.extend(trace)
            continue
        for pkt in trace:
            if pkt.src_ip == SERVER_IP:
                merged.append(pkt.copy(
                    timestamp=pkt.timestamp + shift, dst_ip=pkt.dst_ip + bump
                ))
            else:
                merged.append(pkt.copy(
                    timestamp=pkt.timestamp + shift, src_ip=pkt.src_ip + bump
                ))
    merged.sort(key=lambda pkt: pkt.timestamp)
    last_index = {}
    for index, pkt in enumerate(merged):
        last_index[FlowKey.from_packet(pkt)] = index
    with PcapWriter(path) as writer:
        for start in range(0, len(merged), WRITE_SLAB):
            if clock is not None:
                clock.tick()
            writer.write_all(merged[start:start + WRITE_SLAB])
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return Capture(
        path=path,
        packets=len(merged),
        flows=len(last_index),
        last_index=last_index,
        sha256=digest.hexdigest(),
    )


def arrival_offsets(count: int, seed: int) -> list[float]:
    """Seeded open-loop Poisson arrivals, in seconds of trace time."""
    rng = random.Random(seed ^ 0xA771)
    now = 0.0
    offsets = []
    for _ in range(count):
        now += rng.expovariate(ARRIVAL_RATE)
        offsets.append(now)
    return offsets


def _finish_report(report: ServiceReport, tapo: Tapo) -> str:
    """Add the quarantined flows and serialize canonically."""
    report.skipped.extend(tapo.faults.skipped)
    report.canonical_sort()
    return report.to_json()


def analyze_batch(capture: Capture, service: str, clock) -> Analyzed:
    """``Tapo.analyze_pcap``: every flow is reported at end of capture."""
    with PullClock(clock) as pulls:
        tapo = Tapo(config=analysis_config())
        analyses = tapo.analyze_pcap(capture.path)
        done = clock.now()
        report = ServiceReport(service=service)
        for analysis in analyses:
            report.add(analysis)
        report_json = _finish_report(report, tapo)
    lags = {
        a.flow.key: (done - pulls.pulled_at(capture.last_index[a.flow.key]))
        * 1e3
        for a in analyses
    }
    return Analyzed(report_json, lags)


def analyze_stream(capture: Capture, service: str, clock) -> Analyzed:
    """``Tapo.analyze_stream`` over the capture with the default
    eviction: a closed loop that pulls the next batch as soon as the
    previous one is consumed, reporting each flow as it completes."""
    run = run_config()
    if run.resolved_workers() != 1:
        raise RuntimeError("the benchmark must run TAPO on one worker")
    lags = {}
    report = ServiceReport(service=service)
    with PullClock(clock) as pulls:
        tapo = Tapo(config=analysis_config())
        with PcapReader(capture.path, errors=tapo.config.errors) as reader:
            for analysis in tapo.analyze_stream(reader, run=run):
                now = clock.now()
                key = analysis.flow.key
                lags[key] = (
                    now - pulls.pulled_at(capture.last_index[key])
                ) * 1e3
                report.add(analysis)
        report_json = _finish_report(report, tapo)
    return Analyzed(report_json, lags)


class Workload:
    """One named workload: how to set up, simulate and analyze a pass.

    ``simulate``, ``capture`` and ``analyze`` take the pass's work
    clock (see ``metronome.py``) and call its ``tick`` between steps of
    a fraction of a second: flows, slices of flows, cells, pcap slabs,
    decode batches and analyzed flows.
    """

    name = ""
    service = ""
    #: Replay the capture through ``analyze_stream`` with Poisson flow
    #: arrivals (else ``analyze_pcap`` with every flow starting at 0).
    stream = False
    #: Analyses of each pass's capture in untraced runs.  The analyze
    #: stage is short next to simulate and setup, so repeating it is the
    #: cheapest way to give TAPO's timings more samples per run.
    analyses = 2

    def __init__(self, scale: float = 1.0):
        self.scale = scale

    def scenarios(self, seed: int):
        raise NotImplementedError

    def simulate(self, scenarios, clock) -> Simulated:
        raise NotImplementedError

    def capture(self, sim: Simulated, seed: int, path: str, clock) -> Capture:
        offsets = (
            arrival_offsets(len(sim.traces), seed) if self.stream else None
        )
        return write_capture(
            sim.traces, path, offsets, self.remap(sim), clock
        )

    def remap(self, sim: Simulated):
        return None

    def analyze(self, capture: Capture, clock) -> Analyzed:
        if self.stream:
            return analyze_stream(capture, self.service, clock)
        return analyze_batch(capture, self.service, clock)

    @property
    def defaults(self) -> bool:
        """Whether this instance runs the default size (the recorded
        digests hold only there)."""
        return self.scale == 1.0


class _ServiceWorkload(Workload):
    """One service, native recovery, every flow through ``run_flows``,
    :attr:`slice_flows` flows per call so the clock can tick between
    calls."""

    flows = 0
    slice_flows = 100

    def flow_count(self) -> int:
        return max(1, round(self.flows * self.scale))

    def scenarios(self, seed: int):
        return list(
            generate_flows(get_profile(self.service), self.flow_count(), seed)
        )

    def simulate(self, scenarios, clock) -> Simulated:
        sim = Simulated(traces=[], cells=1, cache_hits=0)
        for start in range(0, len(scenarios), self.slice_flows):
            clock.tick()
            run = run_flows(
                scenarios[start:start + self.slice_flows], run=run_config()
            )
            sim.traces.extend(run.traces)
            sim.cache_hits += run.metrics.cache_hits
        return sim


class StorageBulk(_ServiceWorkload):
    """cloud_storage: long lossy flows that all start together.

    Flow sizes are heavy-tailed, so 150 flows make a capture whose size
    swings by a fifth from seed to seed, and a few large flows set most
    of TAPO's cost.  A pass therefore simulates the seed's flows in
    order until the capture holds :attr:`packets` packets: twice the
    40,603 of the ROADMAP re-anchor capture (the first 150 flows at the
    default seed), so that no single flow dominates.
    """

    name = "storage_bulk"
    service = "cloud_storage"
    flows = 300
    packets = 2 * 40603

    def scenarios(self, seed: int):
        # Three times the usual flow count covers the packet budget at
        # any seed; generating a scenario costs microseconds.
        return list(generate_flows(
            get_profile(self.service), 3 * self.flow_count(), seed
        ))

    def simulate(self, scenarios, clock) -> Simulated:
        budget = max(1, round(self.packets * self.scale))
        sim = Simulated(traces=[], cells=1, cache_hits=0)
        packets = 0
        for scenario in scenarios:
            clock.tick()
            run = run_flows([scenario], run=run_config())
            sim.cache_hits += run.metrics.cache_hits
            sim.traces.extend(run.traces)
            packets += run.total_packets()
            if packets >= budget:
                break
        return sim


class SearchStream(_ServiceWorkload):
    """web_search: thousands of short flows arriving as a Poisson
    process, replayed through the streaming analyzer."""

    name = "search_stream"
    service = "web_search"
    flows = 3000
    stream = True


class PolicyMatrix(Workload):
    """Every registered policy x {web_search, storage_short} x
    {wan, datacenter, cellular}, caching off.

    ``run_matrix`` keeps no traces, so the simulate stage taps the
    ``run_flows`` result of each cell (one reference per cell, no
    per-packet work) to count packets and build the capture.
    """

    name = "policy_matrix"
    service = "matrix"
    flows_per_cell = 100
    stream = True

    def scenarios(self, seed: int):
        # run_matrix generates each cell's scenarios itself.
        return MatrixConfig(
            flows=max(1, round(self.flows_per_cell * self.scale)),
            seed=seed,
            workers=1,
            use_cache=False,
        )

    def simulate(self, config, clock) -> Simulated:
        runs = []
        real = mitigation.run_flows

        def tapped(scenarios, **kwargs):
            clock.tick()
            run = real(scenarios, **kwargs)
            runs.append(run)
            return run

        mitigation.run_flows = tapped
        try:
            result = run_matrix(config)
        finally:
            mitigation.run_flows = real
        traces = [trace for run in runs for trace in run.traces]
        cells = [
            [cell.workload, cell.path, cell.policy, cell.metrics]
            for cell in result.cells
        ]
        hits = sum(1 for cell in result.cells if cell.cached) + sum(
            run.metrics.cache_hits for run in runs
        )
        return Simulated(
            traces=traces,
            cells=len(result.cells),
            cache_hits=hits,
            cells_sha256=hashlib.sha256(
                json.dumps(cells, sort_keys=True).encode()
            ).hexdigest(),
        )

    def remap(self, sim: Simulated):
        per_cell = len(sim.traces) // max(1, sim.cells)
        return [(index // per_cell) << 16 for index in range(len(sim.traces))]


WORKLOADS = {w.name: w for w in (StorageBulk, SearchStream, PolicyMatrix)}
