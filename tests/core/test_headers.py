"""Tests for application-layer header detection and stripping."""

import numpy as np
import pytest

from repro.core.headers import (
    detect_app_protocol,
    skip_threshold,
    strip_app_header,
)
from repro.net.appproto import APP_PROTOCOLS, make_app_header


def strided_view(data: bytes) -> memoryview:
    """A non-contiguous memoryview over ``data``."""
    spread = bytearray(2 * len(data))
    spread[::2] = data
    view = memoryview(spread)[::2]
    assert not view.contiguous or not data
    return view


BYTES_LIKE = (bytes, bytearray, memoryview, strided_view)


class TestDetectAppProtocol:
    def test_detects_every_generated_protocol(self, rng):
        for name in APP_PROTOCOLS:
            header = make_app_header(name, rng)
            assert detect_app_protocol(header) == name

    def test_http_request_methods(self):
        assert detect_app_protocol(b"GET /index.html HTTP/1.1\r\n") == "http-request"
        assert detect_app_protocol(b"POST /form HTTP/1.1\r\n") == "http-request"

    def test_http_response(self):
        assert detect_app_protocol(b"HTTP/1.1 200 OK\r\n") == "http-response"

    def test_binary_data_undetected(self, sample_files):
        assert detect_app_protocol(sample_files["encrypted"][:64]) is None

    def test_empty_undetected(self):
        assert detect_app_protocol(b"") is None

    @pytest.mark.parametrize("view", BYTES_LIKE, ids=lambda view: view.__name__)
    def test_any_bytes_like(self, view):
        # A pcap-decoded ``Packet.payload`` is a memoryview.
        assert detect_app_protocol(view(b"HTTP/1.1 200 OK\r\n")) == "http-response"
        assert detect_app_protocol(view(b"\x89PNG\r\n\x1a\n")) is None
        assert detect_app_protocol(view(b"HTTP")) is None
        assert detect_app_protocol(view(b"")) is None


class TestStripAppHeader:
    def test_strips_to_payload(self, rng):
        payload = b"\x89PNG binary payload here" * 4
        header = make_app_header("http-response", rng)
        protocol, stripped = strip_app_header(header + payload)
        assert protocol == "http-response"
        assert stripped == payload

    def test_all_protocols_round_trip(self, rng, sample_files):
        payload = sample_files["binary"][:512]
        for name in APP_PROTOCOLS:
            header = make_app_header(name, rng)
            if not header.endswith(b"\r\n"):
                continue
            protocol, stripped = strip_app_header(header + b"\r\n" + payload)
            assert protocol == name
            # Header generators end mid-dialogue; the stripped result must
            # at least lose the first header block.
            assert len(stripped) < len(header) + 2 + len(payload)

    @pytest.mark.parametrize("view", BYTES_LIKE, ids=lambda view: view.__name__)
    def test_any_bytes_like(self, view):
        header = b"GET /x HTTP/1.1\r\nHost: example.com\r\n\r\n"
        protocol, stripped = strip_app_header(view(header + b"\x00\x01payload"))
        assert protocol == "http-request"
        assert bytes(stripped) == b"\x00\x01payload"
        protocol, stripped = strip_app_header(view(b"\x00\x01payload"))
        assert protocol is None
        assert bytes(stripped) == b"\x00\x01payload"
        assert strip_app_header(view(b""))[0] is None
        # No terminator inside the scan window: detected, left whole.
        long_header = b"GET /x HTTP/1.1\r\n" + b"A" * 5000 + b"\r\n\r\nbody"
        protocol, stripped = strip_app_header(view(long_header))
        assert protocol == "http-request"
        assert bytes(stripped) == long_header

    def test_unknown_protocol_unchanged(self, sample_files):
        data = sample_files["binary"][:256]
        protocol, stripped = strip_app_header(data)
        assert protocol is None
        assert stripped == data

    def test_missing_terminator_returns_unchanged(self):
        data = b"GET /page HTTP/1.1\r\nHost: example.com\r\n"  # no blank line
        protocol, stripped = strip_app_header(data)
        assert protocol == "http-request"
        assert stripped == data

    def test_terminator_beyond_scan_window_ignored(self):
        data = b"GET /x HTTP/1.1\r\n" + b"A" * 5000 + b"\r\n\r\npayload"
        protocol, stripped = strip_app_header(data)
        assert protocol == "http-request"
        assert stripped == data


class TestSkipThreshold:
    def test_drops_exactly_t_bytes(self):
        assert skip_threshold(b"0123456789", 4) == b"456789"

    def test_zero_threshold_identity(self):
        assert skip_threshold(b"abc", 0) == b"abc"

    def test_short_data_becomes_empty(self):
        assert skip_threshold(b"ab", 10) == b""

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            skip_threshold(b"abc", -1)
