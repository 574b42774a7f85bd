"""Round trips of the slotted value types: pickle, copy and replace.

``FlowKey`` and the three header dataclasses keep their fields in
``__slots__`` and pickle as a field dict, the form they had with an
instance ``__dict__``. Every way of duplicating one must give back an
equal object — with an equal hash where the type is hashable — whose
pickle is the original's, byte for byte.
"""

import copy
import dataclasses
import pickle

from hypothesis import given
from hypothesis import strategies as st

from repro.net.flow import FlowKey
from repro.net.packet import PROTO_TCP, PROTO_UDP, Ipv4Header, TcpHeader, UdpHeader

addresses = st.tuples(*[st.integers(0, 255)] * 4).map(
    lambda octets: ".".join(map(str, octets))
)
ports = st.integers(0, 65535)

flow_keys = st.builds(
    FlowKey, addresses, ports, addresses, ports, st.integers(0, 255)
) | st.builds(
    FlowKey.unchecked, addresses, ports, addresses, ports, st.integers(0, 255)
)
ipv4_headers = st.builds(
    Ipv4Header, addresses, addresses, st.sampled_from([PROTO_TCP, PROTO_UDP]),
    st.integers(0, 65535), st.integers(0, 65535), st.integers(0, 255),
    st.integers(5, 15).map(lambda ihl: ihl * 4),
)
tcp_headers = st.builds(
    TcpHeader, ports, ports, st.integers(0, 2**32 - 1),
    st.integers(0, 2**32 - 1), st.integers(0, 255), ports,
    st.binary(max_size=40),
)
udp_headers = st.builds(UdpHeader, ports, ports, st.integers(8, 65535))
values = st.one_of(flow_keys, ipv4_headers, tcp_headers, udp_headers)


def assert_same_value(copied, original) -> None:
    assert type(copied) is type(original)
    assert copied == original
    assert copied is not original
    if type(original).__hash__ is not None:
        assert hash(copied) == hash(original)
    assert pickle.dumps(copied, protocol=4) == pickle.dumps(original, protocol=4)
    assert not hasattr(copied, "__dict__")


@given(value=values, protocol=st.integers(2, 5))
def test_pickle_round_trip(value, protocol):
    assert_same_value(pickle.loads(pickle.dumps(value, protocol=protocol)), value)


@given(value=values)
def test_copy_and_deepcopy(value):
    assert_same_value(copy.copy(value), value)
    assert_same_value(copy.deepcopy(value), value)


@given(value=values)
def test_replace_with_no_changes(value):
    assert_same_value(dataclasses.replace(value), value)
    fields = dataclasses.astuple(value)
    assert_same_value(type(value)(*fields), value)


@given(value=values)
def test_pickled_state_is_the_field_dict(value):
    # The ``__dict__`` an unslotted dataclass pickled: fields in order.
    assert value.__getstate__() == dataclasses.asdict(value)
    assert list(value.__getstate__()) == [
        field.name for field in dataclasses.fields(value)
    ]
