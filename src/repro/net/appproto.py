"""Application-layer protocol headers: generation and signatures.

Section 4.3: many flows begin with a textual application header (HTTP,
SMTP, IMAP, POP) that would bias the first-``b``-bytes entropy vector; for
well-known protocols Iustitia strips the header by signature. This module
generates realistic headers for the synthetic traces and defines the
signature table that :mod:`repro.core.headers` detects them with.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "APP_PROTOCOLS",
    "PROTOCOL_SIGNATURES",
    "make_app_header",
    "random_app_header",
]

_USER_AGENTS = (
    "Mozilla/4.0 (compatible; MSIE 7.0; Windows NT 5.1)",
    "Mozilla/5.0 (X11; U; Linux i686; en-US) Firefox/3.0.5",
    "Wget/1.11.4",
    "curl/7.18.2",
)

_CONTENT_TYPES = (
    "text/html", "image/jpeg", "image/gif", "application/pdf",
    "application/zip", "application/octet-stream", "video/mpeg",
)


def _http_request(rng: np.random.Generator) -> bytes:
    method = ("GET", "POST", "HEAD")[int(rng.integers(0, 3))]
    path = f"/site/page{int(rng.integers(1, 2000))}.html"
    agent = _USER_AGENTS[int(rng.integers(0, len(_USER_AGENTS)))]
    header = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: www{int(rng.integers(1, 99))}.example.com\r\n"
        f"User-Agent: {agent}\r\n"
        "Accept: */*\r\n"
        "Connection: keep-alive\r\n"
        "\r\n"
    )
    return header.encode("ascii")


def _http_response(rng: np.random.Generator) -> bytes:
    ctype = _CONTENT_TYPES[int(rng.integers(0, len(_CONTENT_TYPES)))]
    length = int(rng.integers(500, 500_000))
    header = (
        "HTTP/1.1 200 OK\r\n"
        "Server: Apache/2.2.9 (Unix)\r\n"
        f"Content-Type: {ctype}\r\n"
        f"Content-Length: {length}\r\n"
        "Connection: close\r\n"
        "\r\n"
    )
    return header.encode("ascii")


def _smtp(rng: np.random.Generator) -> bytes:
    domain = f"mail{int(rng.integers(1, 50))}.example.net"
    header = (
        f"220 {domain} ESMTP Postfix\r\n"
        f"EHLO client{int(rng.integers(1, 200))}.example.org\r\n"
        f"250-{domain}\r\n250-PIPELINING\r\n250 8BITMIME\r\n"
        f"MAIL FROM:<user{int(rng.integers(1, 500))}@example.org>\r\n"
        "250 2.1.0 Ok\r\n"
        f"RCPT TO:<user{int(rng.integers(1, 500))}@example.net>\r\n"
        "250 2.1.5 Ok\r\nDATA\r\n354 End data with <CR><LF>.<CR><LF>\r\n"
    )
    return header.encode("ascii")


def _pop3(rng: np.random.Generator) -> bytes:
    header = (
        "+OK POP3 server ready\r\n"
        f"USER user{int(rng.integers(1, 500))}\r\n+OK\r\n"
        "PASS secret\r\n+OK Logged in.\r\n"
        f"RETR {int(rng.integers(1, 40))}\r\n+OK message follows\r\n"
    )
    return header.encode("ascii")


def _imap(rng: np.random.Generator) -> bytes:
    tag = f"a{int(rng.integers(1, 999)):03d}"
    header = (
        "* OK IMAP4rev1 Service Ready\r\n"
        f"{tag} LOGIN user{int(rng.integers(1, 500))} secret\r\n"
        f"{tag} OK LOGIN completed\r\n"
        f"{tag} FETCH {int(rng.integers(1, 40))} BODY[]\r\n"
        "* 1 FETCH (BODY[] {4096}\r\n"
    )
    return header.encode("ascii")


#: Protocol name -> header generator.
APP_PROTOCOLS = {
    "http-request": _http_request,
    "http-response": _http_response,
    "smtp": _smtp,
    "pop3": _pop3,
    "imap": _imap,
}

#: Protocol name -> byte prefixes that identify it at flow start.
PROTOCOL_SIGNATURES: dict[str, tuple[bytes, ...]] = {
    "http-request": (b"GET ", b"POST ", b"HEAD ", b"PUT ", b"DELETE ", b"OPTIONS "),
    "http-response": (b"HTTP/1.0 ", b"HTTP/1.1 "),
    "smtp": (b"220 ", b"EHLO ", b"HELO "),
    "pop3": (b"+OK",),
    "imap": (b"* OK",),
}


def make_app_header(protocol: str, rng: np.random.Generator) -> bytes:
    """A header blob for one named protocol."""
    try:
        generator = APP_PROTOCOLS[protocol]
    except KeyError:
        raise ValueError(
            f"unknown protocol {protocol!r}; expected one of {sorted(APP_PROTOCOLS)}"
        )
    return generator(rng)


def random_app_header(rng: np.random.Generator) -> tuple[str, bytes]:
    """(protocol name, header bytes) for a uniformly random protocol."""
    names = sorted(APP_PROTOCOLS)
    name = names[int(rng.integers(0, len(names)))]
    return name, make_app_header(name, rng)
