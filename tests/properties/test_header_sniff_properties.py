"""Differential tests: the table-driven header sniff against a linear scan.

``detect_app_protocol`` looks a payload's first byte up in a table built
from ``PROTOCOL_SIGNATURES``; the specification it must equal is the
plain walk over that table, written out below.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.headers import detect_app_protocol
from repro.net.appproto import PROTOCOL_SIGNATURES

SIGNATURES = [
    (prefix, name)
    for name, prefixes in PROTOCOL_SIGNATURES.items()
    for prefix in prefixes
]


def linear_scan(data: bytes) -> "str | None":
    for name, prefixes in PROTOCOL_SIGNATURES.items():
        for prefix in prefixes:
            if data.startswith(prefix):
                return name
    return None


def test_no_prefix_begins_another_protocols():
    # Otherwise the order of the table, not the payload, picks the label.
    for prefix, name in SIGNATURES:
        for other, other_name in SIGNATURES:
            if name != other_name:
                assert not other.startswith(prefix), (prefix, other)


@given(suffix=st.binary(max_size=64))
def test_every_signature_with_any_suffix(suffix):
    for prefix, name in SIGNATURES:
        assert detect_app_protocol(prefix + suffix) == name == linear_scan(prefix + suffix)


def test_every_proper_prefix_of_every_signature():
    for prefix, _name in SIGNATURES:
        for cut in range(len(prefix)):
            assert detect_app_protocol(prefix[:cut]) == linear_scan(prefix[:cut])


@given(data=st.binary(max_size=64))
def test_arbitrary_bytes(data):
    assert detect_app_protocol(data) == linear_scan(data)


@given(
    first=st.sampled_from(sorted({prefix[0] for prefix, _name in SIGNATURES})),
    rest=st.binary(max_size=16),
)
def test_arbitrary_bytes_behind_a_signature_first_byte(first, rest):
    # Arbitrary bytes almost never reach a table bucket; these always do.
    data = bytes([first]) + rest
    assert detect_app_protocol(data) == linear_scan(data)
