"""Application-layer header handling (Section 4.3).

A binary flow that begins with a textual protocol header (an HTTP response
carrying a JPEG, say) would be misclassified from its first ``b`` bytes.
Iustitia's remedies, both implemented here:

* **known protocols** — detect HTTP/SMTP/POP3/IMAP by signature and strip
  the header, classifying only application payload;
* **unknown protocols** — skip up to a threshold ``T`` of possible header
  bytes and classify from byte ``T + 1`` (paired with ``H_b'``-based
  training in :class:`repro.core.classifier.IustitiaClassifier`).
"""

from __future__ import annotations

from repro.net.appproto import PROTOCOL_SIGNATURES

__all__ = [
    "APP_HEADER_SIGNATURES",
    "detect_app_protocol",
    "skip_threshold",
    "strip_app_header",
]

#: Protocol name -> identifying byte prefixes (re-exported signature table).
APP_HEADER_SIGNATURES = PROTOCOL_SIGNATURES

#: Blank line separating a textual header from the body.
_HEADER_TERMINATOR = b"\r\n\r\n"

#: Cap on how far we search for a header terminator; beyond this the
#: "header" is treated as unknown and threshold-skipping applies instead.
_MAX_HEADER_SCAN = 4096


def _by_first_byte(signatures) -> "dict[int, tuple[tuple[bytes, str], ...]]":
    """``first byte -> ((prefix, protocol), ...)``, in signature-table order."""
    table: "dict[int, list]" = {}
    for name, prefixes in signatures.items():
        for prefix in prefixes:
            table.setdefault(prefix[0], []).append((prefix, name))
    return {first: tuple(entries) for first, entries in table.items()}


#: Almost every binary or encrypted payload starts with a byte no
#: signature starts with, so the sniff is one dict miss for those.
_SIGNATURES_BY_FIRST_BYTE = _by_first_byte(APP_HEADER_SIGNATURES)


def detect_app_protocol(data: "bytes | bytearray | memoryview") -> "str | None":
    """Name of the application protocol ``data`` starts with, or None."""
    if not data:
        return None
    for prefix, name in _SIGNATURES_BY_FIRST_BYTE.get(data[0], ()):
        if data[: len(prefix)] == prefix:
            return name
    return None


def strip_app_header(
    data: "bytes | bytearray | memoryview",
) -> "tuple[str | None, bytes | bytearray | memoryview]":
    """(detected protocol, payload with the known header removed).

    For detected protocols the header runs through the first blank line
    (``\\r\\n\\r\\n``); when no terminator appears within the scan window the
    data is returned unchanged (the flow's header is longer than anything
    we can safely strip). Undetected protocols return ``(None, data)``.
    The payload comes back as a slice of ``data``, whatever bytes-like
    that is.
    """
    protocol = detect_app_protocol(data)
    if protocol is None:
        return None, data
    end = bytes(data[:_MAX_HEADER_SCAN]).find(_HEADER_TERMINATOR)
    if end < 0:
        return protocol, data
    return protocol, data[end + len(_HEADER_TERMINATOR) :]


def skip_threshold(data: bytes, threshold: int) -> bytes:
    """Drop the first ``threshold`` bytes (unknown-header skipping).

    The paper treats "the (T + 1)-th byte in a flow as the beginning of the
    flow" for unknown application headers. Returns an empty view when the
    data is shorter than the threshold.
    """
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    return data[threshold:]
