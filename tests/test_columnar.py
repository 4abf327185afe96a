"""Columnar fast path ↔ object pipeline parity.

The columnar decode path (:mod:`repro.core.columnar_pipeline`) is a
performance rewrite, not a semantic one: for every input — clean or
damaged — it must produce a :class:`~repro.core.report.ServiceReport`
that serializes to *byte-identical* canonical JSON against the object
pipeline it replaces.  These tests enforce that contract:

* property-style parity over seedable random traces
  (:func:`repro.testing.generate_trace`) through every entry point
  (in-memory batch, pcap file, streaming);
* parity under 1 % record corruption, including fault-counter parity
  (resyncs, corrupt records) between the two framings;
* sequence-number wraparound handled on the raw uint32 columns by the
  fast replay (the flows must *stay* on the fast path);
* analyzer crashes quarantine the same flows as
  :class:`~repro.errors.SkippedFlow` on both paths;
* the ``--no-columnar`` escape hatch yields byte-identical CLI JSON.
"""

from __future__ import annotations

import random

import pytest

from repro.config import AnalysisConfig
from repro.core import ServiceReport, Tapo
from repro.core.cli import main as cli_main
from repro.core.columnar_pipeline import LazyFlowTrace, fast_replay_flow
from repro.errors import ErrorBudget, FlowAnalysisError
from repro.packet.headers import FLAG_ACK
from repro.packet.pcap import PcapWriter
from repro.testing import corrupt_pcap_records, generate_trace, inject_flow_crash
from repro.testing.traces import _FlowBuilder

PARITY_SEEDS = range(10)


def _report(tapo: Tapo, analyses) -> ServiceReport:
    report = ServiceReport("parity")
    for analysis in analyses:
        report.add(analysis)
    report.skipped.extend(tapo.faults.skipped)
    return report


def _pair():
    return (
        Tapo(config=AnalysisConfig()),
        Tapo(config=AnalysisConfig(columnar=False)),
    )


def _write(path, packets):
    with PcapWriter(path) as writer:
        for record in packets:
            writer.write(record)


class TestParityProperty:
    """Random traces → identical canonical JSON on both pipelines."""

    @pytest.mark.parametrize("seed", PARITY_SEEDS)
    def test_in_memory_batch(self, seed):
        packets = generate_trace(seed)
        columnar, objects = _pair()
        fast = _report(columnar, columnar.analyze_packets(packets))
        slow = _report(objects, objects.analyze_packets(packets))
        assert fast.to_json() == slow.to_json()
        assert columnar.faults == objects.faults

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_pcap_file(self, seed, tmp_path):
        path = tmp_path / "trace.pcap"
        _write(path, generate_trace(seed))
        columnar, objects = _pair()
        fast = _report(columnar, columnar.analyze_pcap(path))
        slow = _report(objects, objects.analyze_pcap(path))
        assert fast.to_json() == slow.to_json()

    @pytest.mark.parametrize("seed", (0, 3))
    def test_streaming(self, seed, tmp_path):
        path = tmp_path / "trace.pcap"
        _write(path, generate_trace(seed))
        columnar, objects = _pair()
        fast = _report(columnar, list(columnar.analyze_stream(path)))
        slow = _report(objects, list(objects.analyze_stream(path)))
        # Streaming evicts flows in the same order on both paths, so
        # even the flow *ordering* inside the report must agree.
        assert fast.to_json() == slow.to_json()

    def test_both_paths_actually_ran(self):
        """The generator exercises fast-path AND fallback flows."""
        fast_total = fallback_total = 0
        for seed in PARITY_SEEDS:
            tapo = Tapo(config=AnalysisConfig())
            tapo.analyze_packets(generate_trace(seed))
            fast_total += tapo.fast_flows
            fallback_total += tapo.fallback_flows
        assert fast_total > 0
        assert fallback_total > 0

    def test_generator_is_deterministic(self):
        assert generate_trace(7) == generate_trace(7)
        assert generate_trace(7) != generate_trace(8)


class TestCorruptSlabs:
    """1 % record damage: identical reports and fault accounting."""

    @pytest.mark.parametrize("seed", (0, 1))
    def test_parity_under_corruption(self, seed, tmp_path):
        clean = tmp_path / "clean.pcap"
        bad = tmp_path / "bad.pcap"
        _write(clean, generate_trace(seed, flows=30))
        plan = corrupt_pcap_records(clean, bad, fraction=0.01, seed=seed)
        assert plan.records_damaged  # must actually damage something
        config_fast = AnalysisConfig(errors=ErrorBudget.lenient())
        config_slow = AnalysisConfig(errors=ErrorBudget.lenient(), columnar=False)
        columnar = Tapo(config=config_fast)
        objects = Tapo(config=config_slow)
        fast = _report(columnar, columnar.analyze_pcap(bad))
        slow = _report(objects, objects.analyze_pcap(bad))
        assert fast.to_json() == slow.to_json()
        assert columnar.faults.corrupt_records == objects.faults.corrupt_records
        assert columnar.faults.resyncs == objects.faults.resyncs
        assert columnar.faults.option_errors == objects.faults.option_errors

    def test_checksum_verification_is_lazy_on_columns(self, tmp_path):
        """verify_checksums: the object path verifies, the columnar
        path defers and counts every deferral."""
        path = tmp_path / "trace.pcap"
        packets = generate_trace(2, flows=5)
        _write(path, packets)
        # Flip one bit of the first record's TCP window field: framing
        # and header decode stay valid but the checksum no longer does.
        raw = bytearray(path.read_bytes())
        raw[24 + 16 + 20 + 14] ^= 0x01
        path.write_bytes(bytes(raw))
        columnar = Tapo(config=AnalysisConfig(verify_checksums=True))
        columnar.analyze_pcap(path)
        assert columnar.faults.checksums_skipped == len(packets)
        assert columnar.faults.checksum_errors == 0
        objects = Tapo(
            config=AnalysisConfig(verify_checksums=True, columnar=False)
        )
        objects.analyze_pcap(path)
        assert objects.faults.checksums_skipped == 0
        assert objects.faults.checksum_errors == 1
        # Off by default: no verification, nothing skipped or counted.
        default = Tapo(config=AnalysisConfig())
        default.analyze_pcap(path)
        assert default.faults.checksums_skipped == 0
        assert default.faults.checksum_errors == 0

    def test_checksums_skipped_reaches_metrics(self):
        from repro.errors import FaultStats
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        stats = FaultStats(checksums_skipped=7)
        stats.to_registry(registry)
        rendered = registry.render_prometheus()
        assert "repro_fault_checksums_skipped_total 7" in rendered


class TestSeqWraparound:
    """ISNs one window below 2^32: raw uint32 columns must wrap."""

    def _clean_wrap_flow(self, seed):
        builder = _FlowBuilder(random.Random(seed), 1000.0, index=1)
        assert builder.isn_s > 0xFFFF0000  # really starts near the wrap
        builder.handshake()
        builder.request()
        builder.respond(8)  # 8 MSS crosses the wrap for every MSS choice
        builder.close()
        return builder.packets

    @pytest.mark.parametrize("seed", (11, 12, 13))
    def test_wrap_flow_stays_on_fast_path(self, seed):
        packets = self._clean_wrap_flow(seed)
        columnar, objects = _pair()
        fast = _report(columnar, columnar.analyze_packets(packets))
        slow = _report(objects, objects.analyze_packets(packets))
        assert columnar.fast_flows == 1, "wraparound must not trip a bail"
        assert columnar.fallback_flows == 0
        assert fast.to_json() == slow.to_json()
        analysis = fast.flows[0]
        assert analysis.bytes_out == 8 * analysis.mss

    def test_fast_replay_handles_wrap_directly(self):
        packets = self._clean_wrap_flow(21)
        tapo = Tapo(config=AnalysisConfig())
        analyses = tapo.analyze_packets(packets)
        flow = analyses[0].flow
        assert isinstance(flow, LazyFlowTrace)
        replayed = fast_replay_flow(flow, tapo.config)
        assert replayed is not None
        assert replayed.bytes_out == analyses[0].bytes_out


class TestDuplicateAckScreen:
    """The fast replay bails on every ACK the object analyzer counts as
    a duplicate, including ones that carry data."""

    def _request_retransmitted_mid_response(self, seed):
        builder = _FlowBuilder(random.Random(seed), 1000.0, index=0)
        builder.handshake()
        builder.request(size=300)
        # Two response segments leave the server; before the client's
        # ACK for them arrives, its retransmitted request does: a
        # data-bearing ACK of snd_una while data is outstanding.
        for _ in range(2):
            builder._advance(0.0005, 0.002)
            builder._emit(
                True, builder.seq_s, builder.seq_c, FLAG_ACK,
                payload=builder.mss,
            )
            builder.seq_s = (builder.seq_s + builder.mss) & 0xFFFFFFFF
        builder._advance(0.0005, 0.002)
        builder._emit(
            False, (builder.seq_c - 300) & 0xFFFFFFFF, builder.rcv_nxt,
            FLAG_ACK, payload=300,
        )
        builder.respond(4)
        builder.close()
        return builder.packets

    @pytest.mark.parametrize("seed", (31, 32, 33))
    def test_retransmitted_request_matches_oracle(self, seed):
        packets = self._request_retransmitted_mid_response(seed)
        columnar, objects = _pair()
        fast = _report(columnar, columnar.analyze_packets(packets))
        slow = _report(objects, objects.analyze_packets(packets))
        assert columnar.fallback_flows == 1
        assert fast.to_json() == slow.to_json()


class TestCrashQuarantine:
    """Injected analyzer crashes skip the same flows on both paths."""

    def test_skipped_flow_parity(self):
        packets = generate_trace(4, flows=25)
        config_fast = AnalysisConfig(errors=ErrorBudget.lenient())
        config_slow = AnalysisConfig(errors=ErrorBudget.lenient(), columnar=False)
        with inject_flow_crash(fraction=0.3, seed=9):
            columnar = Tapo(config=config_fast)
            fast = _report(columnar, columnar.analyze_packets(packets))
        with inject_flow_crash(fraction=0.3, seed=9):
            objects = Tapo(config=config_slow)
            slow = _report(objects, objects.analyze_packets(packets))
        assert columnar.faults.flows_skipped > 0
        assert (
            columnar.faults.flows_skipped == objects.faults.flows_skipped
        )
        assert [s.key for s in fast.skipped] == [s.key for s in slow.skipped]
        assert fast.to_json() == slow.to_json()

    def test_strict_mode_still_raises(self):
        packets = generate_trace(4, flows=5)
        with inject_flow_crash(fraction=1.0, seed=0):
            tapo = Tapo(config=AnalysisConfig())
            with pytest.raises(FlowAnalysisError):
                tapo.analyze_packets(packets)


class TestCliEscapeHatch:
    """`repro-paper ... --no-columnar` output is byte-identical."""

    def test_no_columnar_flag_parity(self, tmp_path, capsys):
        path = tmp_path / "trace.pcap"
        _write(path, generate_trace(5))
        assert cli_main([str(path), "--json"]) == 0
        fast_out = capsys.readouterr().out
        assert cli_main([str(path), "--json", "--no-columnar"]) == 0
        slow_out = capsys.readouterr().out
        assert fast_out == slow_out
