"""Binary-class file generators.

The paper's binary pool contains "executables, JPG, GIF, AVI, MPG, PDF, ZIP
files". Each generator emulates one family's byte-level statistics: magic
numbers and structured headers, low-entropy padding and tables, and
compressed or entropy-coded payload regions. The *mixture* of structure and
compressed payload is what places the binary class between text and
encrypted in entropy space (Hypothesis 1 / Figure 2a).

Only byte statistics are emulated — the outputs are not valid files for
real decoders, and do not need to be: the classifier under study never
parses them.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.data.markov import MarkovTextModel
from repro.data.wordlists import TECHNICAL_WORDS

__all__ = [
    "BINARY_KINDS",
    "generate_avi_like",
    "generate_binary_file",
    "generate_elf_like",
    "generate_jpeg_like",
    "generate_pdf_like",
    "generate_png_like",
    "generate_zip_like",
]

_MODEL = MarkovTextModel()

# A skewed "opcode" distribution: real instruction streams reuse a small
# set of opcodes heavily (mov/push/call/jmp dominate x86 code).
_OPCODES = np.array(
    [0x89, 0x8B, 0x55, 0x5D, 0xC3, 0xE8, 0xEB, 0x74, 0x75, 0x83,
     0x48, 0x4C, 0x0F, 0xFF, 0x31, 0x85, 0x01, 0x29, 0x39, 0x3B,
     0x50, 0x51, 0x52, 0x53, 0x56, 0x57, 0x90, 0xC7, 0xB8, 0x6A],
    dtype=np.uint8,
)
_OPCODE_WEIGHTS = np.array(
    [10, 10, 6, 6, 6, 8, 4, 4, 4, 6, 9, 3, 4, 5, 3, 3, 2, 2, 2, 2,
     3, 2, 2, 2, 2, 2, 3, 4, 4, 2],
    dtype=np.float64,
)
_OPCODE_WEIGHTS /= _OPCODE_WEIGHTS.sum()
# ``rng.choice(_OPCODES, p=_OPCODE_WEIGHTS)``'s own draw, with the CDF
# built once: the same opcode from the same one ``rng.random()``.
_OPCODE_CDF = np.cumsum(_OPCODE_WEIGHTS)
_OPCODE_CDF /= _OPCODE_CDF[-1]


def _machine_code(size: int, rng: np.random.Generator) -> bytes:
    """Pseudo instruction stream: skewed opcodes + small-valued operands."""
    out = np.empty(size, dtype=np.uint8)
    pos = 0
    while pos < size:
        opcode = _OPCODES[_OPCODE_CDF.searchsorted(rng.random(), side="right")]
        out[pos] = opcode
        pos += 1
        operand_len = int(rng.integers(0, 4))
        for _ in range(operand_len):
            if pos >= size:
                break
            # Operands skew toward 0x00 / small values / 0xFF (sign ext).
            roll = rng.random()
            if roll < 0.45:
                out[pos] = 0
            elif roll < 0.65:
                out[pos] = int(rng.integers(0, 32))
            elif roll < 0.75:
                out[pos] = 0xFF
            else:
                out[pos] = int(rng.integers(0, 256))
            pos += 1
    return out.tobytes()


def _ascii_strings(size: int, rng: np.random.Generator) -> bytes:
    """A .rodata-style blob: NUL-separated identifiers and messages."""
    pieces: list[bytes] = []
    total = 0
    while total < size:
        if rng.random() < 0.5:
            word = TECHNICAL_WORDS[int(rng.integers(0, len(TECHNICAL_WORDS)))]
            piece = word.encode("ascii") + b"\x00"
        else:
            piece = _MODEL.generate_sentence(rng, max_words=6).encode("ascii") + b"\x00"
        pieces.append(piece)
        total += len(piece)
    return b"".join(pieces)[:size]


def generate_elf_like(size: int, rng: np.random.Generator) -> bytes:
    """Executable-style file: ELF header, code, string table, zero padding."""
    header = bytearray(b"\x7fELF\x02\x01\x01\x00" + b"\x00" * 8)
    header += (2).to_bytes(2, "little")          # e_type = EXEC
    header += (0x3E).to_bytes(2, "little")       # e_machine = x86-64
    header += (1).to_bytes(4, "little")          # e_version
    header += int(rng.integers(0x400000, 0x500000)).to_bytes(8, "little")
    header += (64).to_bytes(8, "little") + (0).to_bytes(8, "little")
    header += bytes(16)
    remaining = max(0, size - len(header))
    text_len = int(remaining * 0.55)
    rodata_len = int(remaining * 0.2)
    pad_len = remaining - text_len - rodata_len
    body = (
        _machine_code(text_len, rng)
        + _ascii_strings(rodata_len, rng)
        + bytes(pad_len)
    )
    return bytes(header + body)[:size]


def _entropy_coded(size: int, rng: np.random.Generator) -> bytes:
    """JPEG-style entropy-coded payload.

    Huffman-coded AC coefficients reuse short codes heavily, so real scan
    data is *skewed*, not uniform — typically 7.2-7.8 bits/byte. We sample
    bytes from a Zipf-weighted alphabet, stuff 0xFF as 0xFF 0x00 (the JPEG
    byte-stuffing rule), and drop restart markers in periodically.
    """
    alphabet = rng.permutation(256).astype(np.uint8)
    weights = (np.arange(1, 257, dtype=np.float64)) ** -0.65
    weights /= weights.sum()
    raw = rng.choice(alphabet, size=size, p=weights).astype(np.uint8)
    out = bytearray()
    restart = 0
    since_restart = 0
    for value in raw.tolist():
        if value == 0xFF:
            out.extend(b"\xff\x00")
        else:
            out.append(value)
        since_restart += 1
        if since_restart >= 640:
            out.extend(bytes([0xFF, 0xD0 + restart % 8]))
            restart += 1
            since_restart = 0
        if len(out) >= size:
            break
    return bytes(out[:size])


def generate_jpeg_like(size: int, rng: np.random.Generator) -> bytes:
    """JPEG-style file: markers and quantization tables, then coded data."""
    quant = bytes(
        min(255, 16 + (i % 8) * 3 + (i // 8) * 2 + int(rng.integers(0, 4)))
        for i in range(64)
    )
    head = (
        b"\xff\xd8"                                  # SOI
        b"\xff\xe0\x00\x10JFIF\x00\x01\x01\x00\x00\x48\x00\x48\x00\x00"
        b"\xff\xdb\x00\x43\x00" + quant              # DQT
        + b"\xff\xc0\x00\x11\x08\x01\xe0\x02\x80\x03\x01\x22\x00\x02\x11\x01\x03\x11\x01"
        + b"\xff\xda\x00\x0c\x03\x01\x00\x02\x11\x03\x11\x00\x3f\x00"  # SOS
    )
    body = _entropy_coded(max(0, size - len(head) - 2), rng)
    return (head + body + b"\xff\xd9")[:size]


def generate_png_like(size: int, rng: np.random.Generator) -> bytes:
    """PNG-style file: signature, IHDR, and zlib-compressed filtered pixels."""
    width = int(rng.integers(64, 256))
    ihdr = (
        b"\x89PNG\r\n\x1a\n"
        + (13).to_bytes(4, "big") + b"IHDR"
        + width.to_bytes(4, "big") + width.to_bytes(4, "big")
        + b"\x08\x02\x00\x00\x00" + bytes(4)
    )
    # Filtered scanlines of a gradient + noise image: partially compressible.
    rows = []
    target_raw = max(64, size * 2)
    row_len = 3 * width
    y = 0
    while sum(len(r) for r in rows) < target_raw:
        base = (np.arange(row_len) * 3 + y * 7) % 251
        noise = rng.integers(0, 24, size=row_len)
        rows.append(b"\x00" + ((base + noise) % 256).astype(np.uint8).tobytes())
        y += 1
    compressed = zlib.compress(b"".join(rows), level=6)
    idat = len(compressed).to_bytes(4, "big") + b"IDAT" + compressed + bytes(4)
    iend = (0).to_bytes(4, "big") + b"IEND" + bytes(4)
    return (ihdr + idat + iend)[:size]


def generate_zip_like(size: int, rng: np.random.Generator) -> bytes:
    """ZIP-style archive: PK local headers + DEFLATE-compressed text members."""
    pieces: list[bytes] = []
    total = 0
    member = 0
    while total < size:
        name = f"doc_{member:03d}.txt".encode("ascii")
        raw = _MODEL.generate(int(rng.integers(512, 4096)), rng).encode("ascii", "replace")
        if rng.random() < 0.3:
            # Stored (method 0) member: small files are archived verbatim.
            method, body = 0, raw
        else:
            method, body = 8, zlib.compress(raw, level=6)[2:-4]  # raw deflate
        local = (
            b"PK\x03\x04\x14\x00\x00\x00" + method.to_bytes(2, "little")
            + int(rng.integers(0, 1 << 16)).to_bytes(2, "little")
            + int(rng.integers(0, 1 << 16)).to_bytes(2, "little")
            + (zlib.crc32(raw)).to_bytes(4, "little")
            + len(body).to_bytes(4, "little")
            + len(raw).to_bytes(4, "little")
            + len(name).to_bytes(2, "little") + b"\x00\x00"
            + name + body
        )
        pieces.append(local)
        total += len(local)
        member += 1
    return b"".join(pieces)[:size]


def generate_pdf_like(size: int, rng: np.random.Generator) -> bytes:
    """PDF-style file: object dictionaries in text plus Flate streams."""
    pieces: list[bytes] = [b"%PDF-1.4\n%\xe2\xe3\xcf\xd3\n"]
    total = len(pieces[0])
    obj = 1
    while total < size:
        if rng.random() < 0.5:
            body = _MODEL.generate(int(rng.integers(256, 1024)), rng)
            content = f"BT /F1 12 Tf 72 720 Td ({body[:200]}) Tj ET".encode("ascii", "replace")
            stream = zlib.compress(content, level=6)
            chunk = (
                f"{obj} 0 obj\n<< /Length {len(stream)} /Filter /FlateDecode >>\n"
                "stream\n".encode("ascii")
                + stream
                + b"\nendstream\nendobj\n"
            )
        else:
            chunk = (
                f"{obj} 0 obj\n<< /Type /Page /Parent 2 0 R "
                f"/MediaBox [0 0 612 792] /Contents {obj + 1} 0 R >>\nendobj\n"
            ).encode("ascii")
        pieces.append(chunk)
        total += len(chunk)
        obj += 1
    pieces.append(b"trailer\n<< /Size %d /Root 1 0 R >>\nstartxref\n0\n%%%%EOF\n" % obj)
    return b"".join(pieces)[:size]


def generate_gif_like(size: int, rng: np.random.Generator) -> bytes:
    """GIF-style file: header, palette, LZW-coded image data.

    The palette is structured (ramped RGB triples) and the "LZW" body is
    emulated by DEFLATE-compressing a paletted image — real LZW output has
    comparable byte statistics (dictionary-coded, high but not uniform
    entropy).
    """
    palette_size = 256
    header = (
        b"GIF89a"
        + int(rng.integers(64, 640)).to_bytes(2, "little")
        + int(rng.integers(64, 480)).to_bytes(2, "little")
        + bytes([0xF7, 0, 0])  # GCT flag, 256 colours
    )
    palette = bytearray()
    for i in range(palette_size):
        palette += bytes([
            (i * 5 + int(rng.integers(0, 8))) % 256,
            (i * 3 + int(rng.integers(0, 8))) % 256,
            (i * 7 + int(rng.integers(0, 8))) % 256,
        ])
    # Paletted image with large flat regions (GIFs are logos/diagrams):
    # runs of one index with occasional switches, then dictionary-coded.
    # Emit frames until the file is full — compression ratios vary, so the
    # frame count adapts to the requested size.
    pieces = [header, bytes(palette)]
    total = len(header) + len(palette)
    while total < size:
        indices = []
        while sum(len(r) for r in indices) < 16384:
            run = int(rng.integers(4, 200))
            value = int(rng.integers(0, palette_size))
            indices.append(bytes([value]) * run)
        coded = zlib.compress(b"".join(indices), level=9)
        frame = b"\x2c" + bytes(9) + b"\x08" + coded
        pieces.append(frame)
        total += len(frame)
    pieces.append(b"\x3b")
    return b"".join(pieces)[:size]


def generate_avi_like(size: int, rng: np.random.Generator) -> bytes:
    """AVI/MPG-style media: RIFF container with quantized-DCT-like chunks."""
    header = (
        b"RIFF" + max(0, size - 8).to_bytes(4, "little") + b"AVI LIST"
        + (192).to_bytes(4, "little") + b"hdrlavih" + (56).to_bytes(4, "little")
        + bytes(56)
    )
    pieces: list[bytes] = [header, b"LIST" + bytes(4) + b"movi"]
    total = sum(len(p) for p in pieces)
    frame = 0
    while total < size:
        # Quantized DCT coefficients: Laplacian-ish small values with zero
        # runs, the statistical signature of lossy-coded video macroblocks.
        n = int(rng.integers(512, 2048))
        coeffs = rng.laplace(0.0, 6.0, size=n).astype(np.int64)
        coeffs[rng.random(n) < 0.35] = 0
        data = (coeffs & 0xFF).astype(np.uint8).tobytes()
        chunk = b"00dc" + len(data).to_bytes(4, "little") + data
        pieces.append(chunk)
        total += len(chunk)
        frame += 1
    return b"".join(pieces)[:size]


#: Family name -> generator, used by generate_binary_file and the corpus.
BINARY_KINDS = {
    "elf": generate_elf_like,
    "jpeg": generate_jpeg_like,
    "gif": generate_gif_like,
    "png": generate_png_like,
    "zip": generate_zip_like,
    "pdf": generate_pdf_like,
    "avi": generate_avi_like,
}

# Mixture weights for random draws: executables and media dominate real
# binary pools (the paper's pool leads with "executables"); fully-uniform
# families (PNG IDAT) are the minority, keeping the class's
# binary<->encrypted confusion near the paper's 12-20% rather than above it.
_BINARY_KIND_WEIGHTS = {
    "elf": 0.28,
    "avi": 0.18,
    "jpeg": 0.14,
    "zip": 0.14,
    "pdf": 0.11,
    "gif": 0.08,
    "png": 0.07,
}


def generate_binary_file(
    size: int, rng: np.random.Generator, kind: "str | None" = None
) -> bytes:
    """A binary-class file of ``size`` bytes; weighted-random family unless given."""
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    if kind is None:
        names = sorted(BINARY_KINDS)
        weights = np.array([_BINARY_KIND_WEIGHTS[n] for n in names])
        kind = names[int(rng.choice(len(names), p=weights / weights.sum()))]
    try:
        generator = BINARY_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown binary kind {kind!r}; expected one of {sorted(BINARY_KINDS)}"
        )
    return generator(size, rng)
