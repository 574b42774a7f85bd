"""The benchmark's three workloads: generation, caching, loading.

A workload is a generated input plus an engine configuration. Generation
is split in two so that a run with a new ``--seed`` stays cheap:

* the **pool** (seed-independent, ~20 s, cached): the two trained models,
  a small ``generate_gateway_trace`` base trace, and ~300 content blobs
  from the repo's generators. ``generate_gateway_trace`` costs ~1 ms per
  packet, so it is only ever run for the small base;
* the **arrangement** (per ``--seed``, ~2 s, cached): flow keys, start
  offsets, fragment sizes and blob slices drawn from the seed, then every
  packet is stamped by a Poisson process at the workload's paced rate, so
  the packet clock equals the wall clock of the paced phase and the
  offered rate is the same in every 0.5 s window.

Everything here runs outside every timed region and outside ``setup_s``.
"""

from __future__ import annotations

import math
import pickle
import shutil
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import repro
from repro.core.config import IustitiaConfig
from repro.core.features import PHI_CART_PRIME, PHI_SVM_PRIME
from repro.net.packet import (
    FLAG_ACK,
    FLAG_FIN,
    FLAG_PSH,
    PROTO_TCP,
    PROTO_UDP,
    Ipv4Header,
    Packet,
    TcpHeader,
    UdpHeader,
)
from repro.net.tracegen import GatewayTraceConfig

BENCH_DIR = Path(__file__).resolve().parent
CACHE_DIR = BENCH_DIR / ".cache"

#: Bump when generation changes, so stale cache entries are never read.
GENERATOR_VERSION = 1

#: Classification window (the paper's b) used by every workload.
BUFFER_SIZE = 32

#: Paced (open-loop) rate per workload, packets per second. Chosen once
#: on the seed commit as the largest of {25, 33, 40}% of the closed-loop
#: median at which A/A sets of both latency metrics agreed (README).
PACED_RATE = {
    "gateway-pcap": 20_000,
    "flow-churn": 8_000,
    "tiny-fragments": 30_000,
}

WORKLOADS = tuple(PACED_RATE)

#: Arranged gateway captures kept in the cache (one per seed, ~60 MB each).
KEEP_CAPTURES = 3

_SERVER_PORTS = (80, 443, 25, 110, 143, 21, 8080, 6881, 4662, 5004)


@dataclass(frozen=True)
class Sizes:
    """How much of everything one workload set generates."""

    tag: str
    train_per_class: int
    base_flows: int
    gateway_packets: int
    blobs_per_class: int
    churn_flows: int
    fragment_flows: int


FULL = Sizes(
    tag="full", train_per_class=60, base_flows=400, gateway_packets=100_000,
    blobs_per_class=100, churn_flows=38_000, fragment_flows=13_000,
)
QUICK = Sizes(
    tag="quick", train_per_class=20, base_flows=30, gateway_packets=2_500,
    blobs_per_class=8, churn_flows=1_500, fragment_flows=500,
)


@dataclass
class Workload:
    """One generated workload, as the measuring process sees it."""

    name: str
    seed: int
    rate: int
    #: Relative due time of every packet, in offer order.
    due_ts: array
    #: Ground-truth nature of every flow offered.
    truth: dict
    #: Due time of each flow's window-complete packet (flows that never
    #: complete a window, and so resolve by timeout, are absent).
    complete_ts: dict
    model_path: Path
    gen_s: float
    train_s: float
    packets: "list | None" = None
    pcap_path: "Path | None" = None

    def open_source(self):
        """A fresh iterable over the workload's packets, in offer order."""
        if self.pcap_path is not None:
            return repro.PcapFileSource(self.pcap_path)
        return self.packets


def engine_config(name: str, *, telemetry: bool = True, runtime: str = "serial"):
    """The engine configuration that, with its input, defines a workload."""
    if name == "tiny-fragments":
        return repro.EngineConfig(
            buffer_size=BUFFER_SIZE,
            buffer_timeout=0.5,
            max_batch=32,
            extractor="incremental",
            telemetry=telemetry,
            runtime=runtime,
            pipeline=IustitiaConfig(
                feature_set=PHI_CART_PRIME, strip_known_headers=False
            ),
        )
    return repro.EngineConfig(
        buffer_size=BUFFER_SIZE,
        max_batch=32,
        extractor="batch",
        telemetry=telemetry,
        runtime=runtime,
    )


def window_complete_times(packets, target_bytes: int) -> dict:
    """``{FlowKey: timestamp}`` of each flow's window-complete packet.

    That is the first packet that takes the flow's cumulative payload to
    ``target_bytes``, or the flow's FIN/RST when it closes earlier; label
    latency is timed from it. Flows that do neither are omitted: only a
    buffer timeout (or the end of the stream) resolves them.
    """
    seen: dict = {}
    done: dict = {}
    for packet in packets:
        flow = packet.five_tuple
        if flow in done:
            continue
        total = seen.get(flow, 0) + len(packet.payload)
        seen[flow] = total
        closes = packet.is_tcp and (packet.transport.fin or packet.transport.rst)
        if total >= target_bytes or closes:
            done[flow] = packet.timestamp
    return {repro.FlowKey(*flow): ts for flow, ts in done.items()}


def _poisson_stamps(rng, n: int, rate: float) -> np.ndarray:
    """``n`` arrival times of a Poisson process, at microsecond resolution
    (what a pcap record stores)."""
    return np.round(np.cumsum(rng.exponential(1.0 / rate, size=n)), 6)


def _restamp(packets: list, rng, rate: float) -> list:
    """Order packets by their draft times, then stamp Poisson arrivals."""
    packets.sort(key=lambda packet: packet.timestamp)  # stable: flows stay ordered
    for packet, ts in zip(packets, _poisson_stamps(rng, len(packets), rate).tolist()):
        packet.timestamp = ts
    return packets


# -- pool ---------------------------------------------------------------------


def _pool_file(sizes: Sizes, part: str) -> Path:
    return CACHE_DIR / f"pool-{part}-{sizes.tag}-v{GENERATOR_VERSION}.pkl"


def _model_path(sizes: Sizes, model: str) -> Path:
    return CACHE_DIR / f"model-{model}-{sizes.tag}-v{GENERATOR_VERSION}.json"


def _read_pickle(path: Path):
    with open(path, "rb") as handle:
        return pickle.load(handle)  # only ever files this module wrote


def _write_pickle(path: Path, value) -> None:
    partial = path.with_suffix(".tmp")
    with open(partial, "wb") as handle:
        pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
    partial.replace(path)


def build_pool(sizes: Sizes = FULL) -> None:
    """Generate the seed-independent pool, unless it is cached."""
    if _pool_file(sizes, "info").exists():
        return
    CACHE_DIR.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    corpus = repro.build_corpus(per_class=sizes.train_per_class, seed=7)
    train_started = time.perf_counter()
    svm = repro.train(
        corpus, model="svm", buffer_size=BUFFER_SIZE, feature_set=PHI_SVM_PRIME
    )
    cart = repro.train(
        corpus, model="cart", buffer_size=BUFFER_SIZE, feature_set=PHI_CART_PRIME
    )
    train_s = time.perf_counter() - train_started
    repro.save_model(svm, _model_path(sizes, "svm"))
    repro.save_model(cart, _model_path(sizes, "cart"))
    base = repro.generate_gateway_trace(
        GatewayTraceConfig(n_flows=sizes.base_flows, duration=1.0, seed=11)
    )
    _write_pickle(_pool_file(sizes, "base"), (base.packets, base.labels))
    blobs = repro.build_corpus(
        per_class=sizes.blobs_per_class, seed=13, min_size=2048, max_size=4096
    )
    _write_pickle(
        _pool_file(sizes, "blobs"), [(item.data, item.nature) for item in blobs]
    )
    # Written last: its presence marks the pool complete.
    _write_pickle(
        _pool_file(sizes, "info"),
        {"train_s": train_s, "gen_s": time.perf_counter() - started},
    )


# -- arrangements ---------------------------------------------------------------


def _arrange_gateway(base, sizes: Sizes, rng, rate: int):
    """Tile the base trace: re-keyed addresses, fresh start offsets."""
    base_packets, base_labels = base
    by_flow: dict = {}
    for packet in base_packets:
        by_flow.setdefault(repro.FlowKey.of_packet(packet), []).append(packet)
    tiles = math.ceil(sizes.gateway_packets / len(base_packets))
    duration = tiles * len(base_packets) / rate
    # 10.x and 192.x are the base trace's own prefixes.
    octets = rng.choice(np.arange(11, 192), size=tiles, replace=False).tolist()
    packets: list = []
    truth: dict = {}
    for octet in octets:
        for key, flow_packets in by_flow.items():
            src = f"{octet}.{key.src.split('.', 1)[1]}"
            ip = Ipv4Header(src=src, dst=key.dst, protocol=key.protocol)
            truth[
                repro.FlowKey(src, key.src_port, key.dst, key.dst_port, key.protocol)
            ] = base_labels[key]
            first = flow_packets[0].timestamp
            span = flow_packets[-1].timestamp - first
            # Keep every flow inside the trace, so the mix of new-flow
            # and known-flow packets is the same from start to end.
            squeeze = min(1.0, 0.5 * duration / span) if span > 0 else 1.0
            start = float(rng.uniform(0.0, duration - span * squeeze))
            packets.extend(
                Packet(
                    ip=ip,
                    transport=packet.transport,
                    payload=packet.payload,
                    timestamp=start + (packet.timestamp - first) * squeeze,
                )
                for packet in flow_packets
            )
    return _restamp(packets, rng, rate), truth


def _flow_endpoints(rng, n: int):
    """``n`` distinct (src, src_port, dst, dst_port) tuples."""
    hosts = rng.choice(1 << 24, size=n, replace=False).tolist()
    src_ports = rng.integers(1024, 65536, size=n).tolist()
    dst_low = rng.integers(1, 65535, size=n).tolist()
    dst_ports = rng.choice(_SERVER_PORTS, size=n).tolist()
    for host, src_port, low, dst_port in zip(hosts, src_ports, dst_low, dst_ports):
        yield (
            f"10.{host >> 16}.{(host >> 8) & 255}.{host & 255}",
            src_port,
            f"192.168.{low >> 8}.{low & 255}",
            dst_port,
        )


def _blob_slices(blobs: list, rng, lengths):
    """A slice of a random blob, from near its start, per requested length.

    The offset stays under 64 B, so that a flow begins like the file it
    carries (the models are trained on file prefixes) while 300 blobs
    still give tens of thousands of distinct payloads.
    """
    picks = rng.integers(0, len(blobs), size=len(lengths)).tolist()
    offsets = rng.integers(0, 64, size=len(lengths)).tolist()
    for pick, start, length in zip(picks, offsets, lengths):
        data, nature = blobs[pick]
        yield data[start : start + length], nature


def _arrange_churn(blobs: list, sizes: Sizes, rng, rate: int):
    """One-packet flows: 90% UDP, 10% TCP closed by a late FIN."""
    n = sizes.churn_flows
    lengths = rng.integers(32, 141, size=n).tolist()
    is_tcp = (rng.random(size=n) < 0.10).tolist()
    duration = n * 1.1 / rate
    starts = rng.uniform(0.0, duration, size=n).tolist()
    # The FIN follows its data packet by >= 150 ms, long after the label.
    fin_gaps = (0.15 + rng.exponential(0.1, size=n)).tolist()
    packets: list = []
    truth: dict = {}
    for endpoint, (payload, nature), tcp, start, fin_gap in zip(
        _flow_endpoints(rng, n), _blob_slices(blobs, rng, lengths),
        is_tcp, starts, fin_gaps,
    ):
        src, src_port, dst, dst_port = endpoint
        protocol = PROTO_TCP if tcp else PROTO_UDP
        truth[repro.FlowKey(src, src_port, dst, dst_port, protocol)] = nature
        ip = Ipv4Header(src=src, dst=dst, protocol=protocol)
        if tcp:
            packets.append(
                Packet(ip, TcpHeader(src_port, dst_port, flags=FLAG_ACK | FLAG_PSH),
                       payload, start)
            )
            packets.append(
                Packet(ip, TcpHeader(src_port, dst_port, flags=FLAG_ACK | FLAG_FIN),
                       b"", start + fin_gap)
            )
        else:
            packets.append(
                Packet(ip, UdpHeader(src_port, dst_port, 8 + len(payload)),
                       payload, start)
            )
    return _restamp(packets, rng, rate), truth


def _arrange_fragments(blobs: list, sizes: Sizes, rng, rate: int):
    """TCP flows in 1-8 B segments; 30% go silent before the window fills."""
    n = sizes.fragment_flows
    silent = (rng.random(size=n) < 0.30).tolist()
    # Silent flows stop at 2-23 B: under 5 B (the widest feature) they end
    # unclassifiable, otherwise as a partial window, both by timeout only.
    lengths = np.where(
        silent, rng.integers(2, 24, size=n), rng.integers(40, 97, size=n)
    ).tolist()
    duration = n * 13.0 / rate  # ~13 segments per flow on average
    starts = rng.uniform(0.0, duration * 0.97, size=n).tolist()
    packets: list = []
    truth: dict = {}
    for endpoint, (content, nature), start in zip(
        _flow_endpoints(rng, n), _blob_slices(blobs, rng, lengths), starts
    ):
        src, src_port, dst, dst_port = endpoint
        truth[repro.FlowKey(src, src_port, dst, dst_port, PROTO_TCP)] = nature
        ip = Ipv4Header(src=src, dst=dst, protocol=PROTO_TCP)
        # One header object per flow: the engine reads ports and flags only.
        transport = TcpHeader(src_port, dst_port, flags=FLAG_ACK | FLAG_PSH)
        segments = rng.integers(1, 9, size=len(content)).tolist()
        gaps = rng.exponential(0.008, size=len(content)).tolist()
        offset = 0
        when = start
        for segment, gap in zip(segments, gaps):
            if offset >= len(content):
                break
            packets.append(
                Packet(ip, transport, content[offset : offset + segment], when)
            )
            offset += segment
            when += gap
    return _restamp(packets, rng, rate), truth


#: workload -> (arrangement, the pool part it draws on, its model)
_ARRANGE = {
    "gateway-pcap": (_arrange_gateway, "base", "svm"),
    "flow-churn": (_arrange_churn, "blobs", "svm"),
    "tiny-fragments": (_arrange_fragments, "blobs", "cart"),
}


def _arrange(name: str, seed: int, sizes: Sizes):
    """``(packets, description)`` of one workload for one seed."""
    started = time.perf_counter()
    arrange, part, _model = _ARRANGE[name]
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    packets, truth = arrange(
        _read_pickle(_pool_file(sizes, part)), sizes, rng, PACED_RATE[name]
    )
    return packets, {
        "due_ts": array("d", (packet.timestamp for packet in packets)),
        "truth": truth,
        "complete_ts": window_complete_times(packets, BUFFER_SIZE),
        "arrange_s": time.perf_counter() - started,
    }


def _gateway_dir(seed: int, sizes: Sizes) -> Path:
    rate = PACED_RATE["gateway-pcap"]
    return CACHE_DIR / f"gateway-pcap-s{seed}-{sizes.tag}-r{rate}-v{GENERATOR_VERSION}"


def build(name: str, seed: int, sizes: Sizes = FULL) -> None:
    """Generate whatever of one workload is not cached yet.

    Called by the orchestrating process, so that the measuring process
    never holds generation garbage: the pool for every workload, plus the
    arranged capture file of ``gateway-pcap``. The in-memory workloads are
    arranged from the pool when loaded (their packets have to be built in
    the measuring process anyway).
    """
    build_pool(sizes)
    out_dir = _gateway_dir(seed, sizes)
    if name != "gateway-pcap" or (out_dir / "meta.pkl").exists():
        return
    packets, meta = _arrange(name, seed, sizes)
    partial = out_dir.with_suffix(".tmp")
    shutil.rmtree(partial, ignore_errors=True)
    partial.mkdir(parents=True)
    repro.write_pcap(partial / "trace.pcap", packets)
    _write_pickle(partial / "meta.pkl", meta)
    shutil.rmtree(out_dir, ignore_errors=True)
    partial.replace(out_dir)
    # A capture is ~60 MB and every seed adds one: keep the newest few.
    captures = sorted(
        CACHE_DIR.glob(f"gateway-pcap-s*-{sizes.tag}-r*-v*"),
        key=lambda path: path.stat().st_mtime,
    )
    for stale in captures[:-KEEP_CAPTURES]:
        shutil.rmtree(stale, ignore_errors=True)


def load(name: str, seed: int, sizes: Sizes = FULL) -> Workload:
    """Load a workload that :func:`build` has prepared."""
    info = _read_pickle(_pool_file(sizes, "info"))
    packets = pcap_path = None
    if name == "gateway-pcap":
        meta = _read_pickle(_gateway_dir(seed, sizes) / "meta.pkl")
        pcap_path = _gateway_dir(seed, sizes) / "trace.pcap"
    else:
        packets, meta = _arrange(name, seed, sizes)
    return Workload(
        name=name,
        seed=seed,
        rate=PACED_RATE[name],
        due_ts=meta["due_ts"],
        truth=meta["truth"],
        complete_ts=meta["complete_ts"],
        model_path=_model_path(sizes, _ARRANGE[name][2]),
        gen_s=info["gen_s"] + meta["arrange_s"],
        train_s=info["train_s"],
        packets=packets,
        pcap_path=pcap_path,
    )
