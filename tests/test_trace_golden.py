"""Golden traces: the simulator's output pinned byte for byte.

Each case simulates a small fixed set of flows, writes the captured
packets to a pcap and compares its sha256 with a recorded digest:

* a few cloud_storage and web_search flows, native recovery;
* one cell per registered recovery policy x path model (the matrix
  runner's scenarios, twelve flows each);
* a lossy, SACK-heavy 400 KB transfer whose sequence space crosses
  2^32, plus the flight recorder's per-ACK kernel-variable snapshots
  of the same transfer (which include Equation (1)'s ``in_flight``).

A simulator change that is meant to be behaviour-preserving (a faster
event heap, scoreboard or sequence representation) must leave every
digest unchanged.  A change that is meant to move traces must update
the digests in the same commit and say why.

Print the current digests, from the repository root, with
``PYTHONPATH=src python -m tests.test_trace_golden``.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.app.client import ClientApp
from repro.app.server import ServerApp
from repro.app.session import Request, Session
from repro.config import RunConfig
from repro.experiments.runner import run_flows
from repro.matrix.runner import default_policies
from repro.matrix.scenarios import (
    PATH_SCENARIOS,
    get_workload,
    scenario_profile,
)
from repro.netsim.engine import EventLoop
from repro.netsim.link import PathConfig
from repro.netsim.loss import BernoulliLoss
from repro.netsim.trace import CaptureTap
from repro.obs.recorder import FlightRecorder
from repro.packet.headers import ip_from_str
from repro.packet.pcap import PcapWriter
from repro.tcp.endpoint import EndpointConfig, TcpConnection
from repro.workload.generator import generate_flows
from repro.workload.services import get_profile

from tests.test_edge_cases import NearWrapRandom

SEED = 20141222

#: sha256 of each case's pcap (and of the wrap case's recorder events).
GOLDEN = {
    "service/cloud_storage": (
        "a4936ccd2a3e6ba405acd72c92e2a501564b2fe2c3688207c4aaf1d8eb302082"
    ),
    "service/web_search": (
        "b27725221676101385020e0bd8b125029f1fef5ddc36bfaf00e80188d5b301c8"
    ),
    "wrap/pcap": (
        "7a672666fe8d994ae1bfe80a39964369f2b617f6d7fb0d05f79513c1ac130a8f"
    ),
    "wrap/recorder": (
        "de798c61c36b171b2e48dc4567eae2e3f89fb845893f0ace0c3421ba379d5287"
    ),
}
#: One pcap digest per (workload, path, policy) matrix cell.
GOLDEN_CELLS = {
    "web_search/cellular/mobile": (
        "e2d0c6ff4bdfd54ae06a8b63deea2b51221425a04164a30cc5f447a91aaf24da"
    ),
    "web_search/cellular/native": (
        "fdde4ffd2589117554035548ccc973cc5179ef45d7822abccc0873d79146449b"
    ),
    "web_search/cellular/srto": (
        "68ea75d254c9788a3d4ee228ee874dea567948be3a9d1104e9bddef56724b5db"
    ),
    "web_search/cellular/tlp": (
        "5310afa3ac4ba659d6e613a49df09bda540ccaa71fd85b3c07c042ceffd51a61"
    ),
    "web_search/cellular/tracks": (
        "5a7af4f9a00625d6114e00b449fbb199cba3370e20fbe0dfca95beec55716d97"
    ),
    "web_search/datacenter/mobile": (
        "8834ba246862baaecf1041928e409121e41bbc5f6f95e3fb7a0f3f2c0a3e2998"
    ),
    "web_search/datacenter/native": (
        "d4626e4315c057a8c1fa60193a1082b81f5bf7f5b77d1ef8679de5f3c81e3b04"
    ),
    "web_search/datacenter/srto": (
        "2e95b021c78fdb5ddca29f56113295e888db7ab1068231151a66fe6020e7170f"
    ),
    "web_search/datacenter/tlp": (
        "d31358433764a19dde12c6101e3edefb22b7605d4fc5f6003cac2b97ead3e1e1"
    ),
    "web_search/datacenter/tracks": (
        "4d56fdb33880b1e8cb39438361499b09e332dfd4419d8843089e83c559f4ab8a"
    ),
    "web_search/wan/mobile": (
        "7b5e9a3e567ae7a1bff7052b4dad86fd259d4f3c64b75fb9e7dc534c9e3cd070"
    ),
    "web_search/wan/native": (
        "e52e510093c0296e960fd8f3838e0dfad980c508c11639e0de4ead247944feee"
    ),
    "web_search/wan/srto": (
        "f42861e6a7f18c7c1abbceb946371d893843d3b121a5f5a83d9b5e45a4eeec2c"
    ),
    "web_search/wan/tlp": (
        "aedf7244bc0a4754f140770454f7f9bb4361c9609fe7bf786bb630500f6c89a8"
    ),
    "web_search/wan/tracks": (
        "3e7008f4ff2ebb8ee1f3f6093eacf6390ede0f23cc69116da1e356fbecb6fb44"
    ),
}


def pcap_digest(packets, path) -> str:
    with PcapWriter(path) as writer:
        for pkt in packets:
            writer.write(pkt)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run(scenarios):
    return run_flows(
        list(scenarios), run=RunConfig(workers=1, use_cache=False)
    )


def service_packets(service: str, flows: int = 4) -> list:
    run = _run(generate_flows(get_profile(service), flows, SEED))
    return [pkt for trace in run.traces for pkt in trace]


def cell_packets(workload: str, path: str, policy: str, flows: int = 12):
    spec = get_workload(workload)
    profile = scenario_profile(spec, path)
    kwargs = {"t1": spec.t1, "t2": 5} if policy == "srto" else {}
    run = _run(
        generate_flows(
            profile, flows, SEED, policy=policy, policy_kwargs=kwargs
        )
    )
    return [pkt for trace in run.traces for pkt in trace]


def wrap_transfer():
    """400 KB across the 2^32 wrap with 3% data loss: returns the
    capture and the server's flight-recorder events."""
    engine = EventLoop()
    tap = CaptureTap(engine)
    recorder = FlightRecorder(flow_id=0, capacity=1 << 20)
    conn = TcpConnection(
        engine,
        EndpointConfig(ip=ip_from_str("100.64.9.9"), port=45454),
        EndpointConfig(ip=ip_from_str("10.0.0.1"), port=80, init_cwnd=10),
        PathConfig(
            delay=0.03,
            rate_bps=20e6,
            data_loss=BernoulliLoss(0.03),
        ),
        NearWrapRandom(),
        tap=tap,
        recorder=recorder,
    )
    session = Session(
        requests=[Request(request_bytes=300, response_bytes=400_000)]
    )
    ServerApp(engine, conn.server, session)
    app = ClientApp(engine, conn.client, session)
    conn.open()
    engine.run(until=120.0)
    assert app.result.complete
    return tap.packets, recorder.dump()


def events_digest(events) -> str:
    digest = hashlib.sha256()
    for event in events:
        digest.update(repr(event.as_row()).encode())
    return digest.hexdigest()


CELLS = [
    (workload, path, policy)
    for workload, path in (("web_search", p) for p in PATH_SCENARIOS)
    for policy in default_policies()
]


def current_digests(tmp_path) -> tuple[dict, dict]:
    """Every case's digest on the code as it stands."""
    digests = {}
    for service in ("cloud_storage", "web_search"):
        digests[f"service/{service}"] = pcap_digest(
            service_packets(service), tmp_path / f"{service}.pcap"
        )
    packets, events = wrap_transfer()
    digests["wrap/pcap"] = pcap_digest(packets, tmp_path / "wrap.pcap")
    digests["wrap/recorder"] = events_digest(events)
    cells = {
        "/".join(cell): pcap_digest(
            cell_packets(*cell), tmp_path / "cell.pcap"
        )
        for cell in CELLS
    }
    return digests, cells


@pytest.mark.parametrize("service", ["cloud_storage", "web_search"])
def test_service_flows_match_golden(service, tmp_path):
    digest = pcap_digest(service_packets(service), tmp_path / "t.pcap")
    assert digest == GOLDEN[f"service/{service}"]


def test_wrap_transfer_matches_golden(tmp_path):
    packets, events = wrap_transfer()
    seqs = {pkt.seq for pkt in packets if pkt.payload_len}
    # The transfer really does cross the wrap, and really is lossy.
    assert min(seqs) < 1 << 20 and max(seqs) > (1 << 32) - (1 << 20)
    assert any(pkt.sack_blocks for pkt in packets)
    assert pcap_digest(packets, tmp_path / "wrap.pcap") == GOLDEN["wrap/pcap"]
    assert events_digest(events) == GOLDEN["wrap/recorder"]


def test_every_policy_and_path_has_a_cell():
    assert {(p, q) for _, p, q in CELLS} == {
        (p, q) for p in PATH_SCENARIOS for q in default_policies()
    }
    assert set(GOLDEN_CELLS) == {"/".join(cell) for cell in CELLS}


@pytest.mark.parametrize("cell", CELLS, ids="/".join)
def test_policy_cell_matches_golden(cell, tmp_path):
    digest = pcap_digest(cell_packets(*cell), tmp_path / "cell.pcap")
    assert digest == GOLDEN_CELLS["/".join(cell)]


if __name__ == "__main__":  # pragma: no cover - digest recording helper
    import pprint
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as scratch:
        cases, cells = current_digests(Path(scratch))
    pprint.pprint(cases, width=100)
    pprint.pprint(cells, width=100)
