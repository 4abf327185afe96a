"""Output checks: the object-analyzer oracle and capture accounting.

The oracle re-derives every flow's analysis from the capture with the
plainest path the program has: object decode (``iter_records``),
flows grouped here by their 4-tuple, then ``FlowAnalyzer(flow).run()``
and ``classify_flow``.  It shares neither demuxer nor the fast replay
with the timed pipeline, so it stays valid when either changes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.core import ServiceReport
from repro.core.classifier import classify_flow
from repro.core.flow_analyzer import FlowAnalyzer
from repro.packet.flow import Direction, FlowKey, FlowTrace
from repro.packet.headers import ip_to_str
from repro.packet.pcap import PcapReader
from repro.workload.generator import SERVER_IP, SERVER_PORT


def _key(record: dict) -> tuple:
    return tuple(record["key"])


def _canonical(record: dict) -> str:
    return json.dumps(record, sort_keys=True)


def oracle_records(path: str, service: str, config) -> tuple[dict, list]:
    """Per-flow canonical records the object oracle produces.

    Returns ``(records by key, keys of flows the oracle crashed on)``.
    """
    server = (SERVER_IP, SERVER_PORT)
    flows: dict[FlowKey, FlowTrace] = {}
    with PcapReader(path) as reader:
        for pkt in reader.iter_records():
            key = FlowKey.from_packet(pkt)
            flow = flows.get(key)
            if flow is None:
                a, b = key.endpoints()
                flow = flows[key] = FlowTrace(
                    key=key, server=server,
                    client=b if a == server else a, packets=[],
                )
            outbound = (pkt.src_ip, pkt.src_port) == server
            flow.packets.append(
                (pkt, Direction.OUT if outbound else Direction.IN)
            )
    analyses = []
    crashed = []
    for key, flow in flows.items():
        try:
            analyzer = FlowAnalyzer(flow, config=config)
            analysis = analyzer.run()
            classify_flow(analysis, analyzer.tracker)
        except Exception:  # an oracle crash fails that flow, not the run
            crashed.append((key.ip_a, key.port_a, key.ip_b, key.port_b))
            continue
        analyses.append(analysis)
    report = json.loads(
        ServiceReport(service=service, flows=analyses).to_json()
    )
    return {_key(r): _canonical(r) for r in report["flows"]}, crashed


@dataclass
class FlowCheck:
    """Result of comparing one pass's report with the oracle."""

    #: key -> the record fields that differ from the oracle's.
    mismatched: dict = field(default_factory=dict)
    #: Flows in the oracle's view but not in the report, and vice versa.
    missing: list = field(default_factory=list)
    extra: list = field(default_factory=list)
    #: Keys reported more than once (a flow the demuxer split).
    duplicated: list = field(default_factory=list)
    quarantined: list = field(default_factory=list)
    crashed: list = field(default_factory=list)
    packets: int = 0

    @property
    def failed_keys(self) -> set:
        return (
            set(self.mismatched) | set(self.missing) | set(self.extra)
            | set(self.duplicated) | set(self.quarantined)
            | set(self.crashed)
        )

    @property
    def failed(self) -> int:
        return len(self.failed_keys)


def compare(report_json: str, oracle: dict, crashed: list) -> FlowCheck:
    """Compare every flow record of a timed report with the oracle's."""
    report = json.loads(report_json)
    records = {}
    duplicated = []
    for record in report["flows"]:
        if _key(record) in records:
            duplicated.append(_key(record))
        records[_key(record)] = record
    check = FlowCheck(
        packets=sum(r["packets"] for r in report["flows"])
        + sum(s["packets"] for s in report["skipped"]),
        duplicated=duplicated,
        quarantined=[tuple(s["key"]) for s in report["skipped"]],
        crashed=list(crashed),
    )
    for key, expected in oracle.items():
        record = records.get(key)
        if record is None:
            if key not in check.quarantined:
                check.missing.append(key)
            continue
        if _canonical(record) != expected:
            want = json.loads(expected)
            check.mismatched[key] = sorted(
                name for name in set(want) | set(record)
                if want.get(name) != record.get(name)
            )
    check.extra = [
        key for key in records if key not in oracle and key not in crashed
    ]
    return check


def format_key(key: tuple) -> str:
    """``a.b.c.d:port-a.b.c.d:port`` for a report key."""
    return f"{ip_to_str(key[0])}:{key[1]}-{ip_to_str(key[2])}:{key[3]}"
