"""Tests for flow keys and flow assembly."""

import dataclasses
import pickle

import pytest

from repro.api import open_engine
from repro.core.config import EngineConfig
from repro.net.flow import Flow, FlowKey, assemble_flows
from repro.net.packet import (
    FLAG_ACK,
    FLAG_FIN,
    FLAG_RST,
    Ipv4Header,
    Packet,
    TcpHeader,
    UdpHeader,
)


def _packet(sport, ts=0.0, payload=b"", flags=FLAG_ACK, proto=6):
    if proto == 6:
        transport = TcpHeader(src_port=sport, dst_port=80, flags=flags)
    else:
        transport = UdpHeader(src_port=sport, dst_port=80)
    return Packet(
        ip=Ipv4Header(src="10.0.0.1", dst="10.0.0.2", protocol=proto),
        transport=transport,
        payload=payload,
        timestamp=ts,
    )


#: ``pickle.dumps(FlowKey("10.1.2.3", 4000, "192.168.0.1", 53, 17), protocol=4)``
#: as commit ``5196104`` (every key built by the dataclass ``__init__``) wrote it.
PARENT_COMMIT_PICKLE = (
    b"\x80\x04\x95s\x00\x00\x00\x00\x00\x00\x00\x8c\x0erepro.net.flow\x94\x8c\x07"
    b"FlowKey\x94\x93\x94)\x81\x94}\x94(\x8c\x03src\x94\x8c\x0810.1.2.3\x94\x8c\x08"
    b"src_port\x94M\xa0\x0f\x8c\x03dst\x94\x8c\x0b192.168.0.1\x94\x8c\x08dst_port"
    b"\x94K5\x8c\x08protocol\x94K\x11ub."
)


class TestFlowKey:
    def test_of_packet(self):
        key = FlowKey.of_packet(_packet(1234))
        assert key == FlowKey("10.0.0.1", 1234, "10.0.0.2", 80, 6)

    def test_to_bytes_is_13_bytes_and_unique(self):
        a = FlowKey("10.0.0.1", 1, "10.0.0.2", 2, 6)
        b = FlowKey("10.0.0.1", 1, "10.0.0.2", 2, 17)
        assert len(a.to_bytes()) == 13
        assert a.to_bytes() != b.to_bytes()

    def test_reversed(self):
        key = FlowKey("1.1.1.1", 10, "2.2.2.2", 20, 6)
        assert key.reversed() == FlowKey("2.2.2.2", 20, "1.1.1.1", 10, 6)
        assert key.reversed().reversed() == key

    def test_validation(self):
        with pytest.raises(ValueError, match="port"):
            FlowKey("1.1.1.1", 70000, "2.2.2.2", 20, 6)
        with pytest.raises(ValueError, match="protocol"):
            FlowKey("1.1.1.1", 1, "2.2.2.2", 2, 300)

    def test_bad_address_in_to_bytes(self):
        with pytest.raises(ValueError, match="invalid address"):
            FlowKey("nonsense", 1, "2.2.2.2", 2, 6).to_bytes()

    @pytest.mark.parametrize(
        "header, field, value",
        [("transport", "src_port", 70000), ("ip", "protocol", 300)],
    )
    def test_out_of_range_packet_is_rejected_on_every_road(
        self, trained_svm, header, field, value
    ):
        """The engine's unchecked mint is never the first to see a 5-tuple."""
        packet = _packet(1234, payload=b"x" * 48, proto=17)
        setattr(getattr(packet, header), field, value)  # headers are mutable
        with pytest.raises(ValueError):
            FlowKey.of_packet(packet)
        with pytest.raises(ValueError):
            FlowKey(*packet.five_tuple)
        engine = open_engine(trained_svm, EngineConfig(max_batch=1))
        with pytest.raises(ValueError, match="invalid address, port or protocol"):
            engine.process_packet(packet)
        assert engine.table.pending_count == 0 and len(engine.table) == 0

    def test_unchecked_mint_equals_the_checked_one(self):
        checked = FlowKey("10.0.0.1", 1234, "10.0.0.2", 80, 6)
        minted = FlowKey.unchecked("10.0.0.1", 1234, "10.0.0.2", 80, 6)
        assert minted == checked and hash(minted) == hash(checked)
        assert minted.to_bytes() == checked.to_bytes()
        assert repr(minted) == repr(checked)
        with pytest.raises(AttributeError):
            minted.src_port = 1  # still frozen

    def test_pickle_written_by_the_dataclass_init_era_still_loads(self):
        """``bench/.cache`` holds pickled keys; their form must not move."""
        key = FlowKey("10.1.2.3", 4000, "192.168.0.1", 53, 17)
        loaded = pickle.loads(PARENT_COMMIT_PICKLE)
        assert loaded == key and hash(loaded) == hash(key)
        assert pickle.dumps(key, protocol=4) == PARENT_COMMIT_PICKLE
        minted = FlowKey.unchecked(*dataclasses.astuple(key))
        assert pickle.dumps(minted, protocol=4) == PARENT_COMMIT_PICKLE

    def test_hashable(self):
        assert len({FlowKey("1.1.1.1", 1, "2.2.2.2", 2, 6)} | {
            FlowKey("1.1.1.1", 1, "2.2.2.2", 2, 6)
        }) == 1


class TestFlow:
    def test_payload_concatenation_in_order(self):
        flow = Flow(
            key=FlowKey("10.0.0.1", 1, "10.0.0.2", 80, 6),
            packets=[_packet(1, 0.0, b"ab"), _packet(1, 1.0, b"cd")],
        )
        assert flow.payload == b"abcd"
        assert flow.start_time == 0.0

    def test_inter_arrival_times(self):
        flow = Flow(
            key=FlowKey("10.0.0.1", 1, "10.0.0.2", 80, 6),
            packets=[_packet(1, 0.0), _packet(1, 0.5), _packet(1, 2.0)],
        )
        assert flow.inter_arrival_times() == [0.5, 1.5]

    def test_fin_rst_detection(self):
        clean = Flow(
            key=FlowKey("10.0.0.1", 1, "10.0.0.2", 80, 6),
            packets=[_packet(1, flags=FLAG_ACK), _packet(1, flags=FLAG_ACK | FLAG_FIN)],
        )
        reset = Flow(
            key=FlowKey("10.0.0.1", 1, "10.0.0.2", 80, 6),
            packets=[_packet(1, flags=FLAG_RST)],
        )
        silent = Flow(
            key=FlowKey("10.0.0.1", 1, "10.0.0.2", 80, 6),
            packets=[_packet(1, flags=FLAG_ACK)],
        )
        assert clean.saw_fin_or_rst
        assert reset.saw_fin_or_rst
        assert not silent.saw_fin_or_rst

    def test_udp_never_fin(self):
        flow = Flow(
            key=FlowKey("10.0.0.1", 1, "10.0.0.2", 80, 17),
            packets=[_packet(1, proto=17)],
        )
        assert not flow.saw_fin_or_rst

    def test_empty_flow_start_time_raises(self):
        flow = Flow(key=FlowKey("10.0.0.1", 1, "10.0.0.2", 80, 6))
        with pytest.raises(ValueError, match="no packets"):
            flow.start_time


class TestAssembleFlows:
    def test_groups_by_five_tuple(self):
        packets = [_packet(1, 0.0, b"a"), _packet(2, 0.1, b"b"), _packet(1, 0.2, b"c")]
        flows = assemble_flows(packets)
        assert len(flows) == 2
        key1 = FlowKey("10.0.0.1", 1, "10.0.0.2", 80, 6)
        assert flows[key1].payload == b"ac"

    def test_preserves_arrival_order(self):
        packets = [_packet(1, 1.0, b"1"), _packet(1, 0.5, b"0")]
        flows = assemble_flows(packets)
        key = FlowKey("10.0.0.1", 1, "10.0.0.2", 80, 6)
        # assemble_flows keeps *list* order (caller sorts the trace).
        assert flows[key].payload == b"10"
