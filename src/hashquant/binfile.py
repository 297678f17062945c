"""File framing shared by the `.dfm`, `.lbl`, `.hqx` and `.hqm` formats.

A file is a 4-byte magic, then little-endian u32 header fields, then the
payload arrays back to back with no padding.  The header alone determines
the payload layout, so a load checks the file's exact length before it
reads any array: checks run in the order magic, header length, version
(for formats whose first header field is one), size.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import BadMagic, IoFailure, TrailingBytes, TruncatedFile, VersionMismatch

MAGIC_BYTES = 4


def write_file(path, magic: bytes, header, arrays) -> None:
    """Write `magic`, the `header` ints as u32 LE, then each array in C order.

    Each array is written in its own dtype; callers cast to the on-disk
    little-endian dtype first.
    """
    parts = [magic, struct.pack(f"<{len(header)}I", *header)]
    parts.extend(arr.tobytes() for arr in arrays)
    try:
        with open(path, "wb") as fh:
            fh.writelines(parts)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def read_file(path, magic: bytes, fields: int, layout, version: int | None = None):
    """Read a file written by `write_file` and slice its payload.

    Args:
        path: File to read.
        magic: Expected first four bytes.
        fields: Number of u32 header fields after the magic.
        layout: Called with the header fields; returns the payload as a
            list of (dtype, element count) in file order.
        version: When given, the first header field must equal it.

    Returns:
        (header, arrays): the header fields as a tuple of ints, and one
        read-only 1-D array per layout entry.

    Raises:
        IoFailure, TruncatedFile, BadMagic, VersionMismatch, or
        TrailingBytes when the file is longer than its header declares.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    if len(blob) < MAGIC_BYTES:
        raise TruncatedFile(f"{path}: only {len(blob)} bytes, no room for magic")
    if blob[:MAGIC_BYTES] != magic:
        raise BadMagic(f"{path}: expected {magic!r}, found {blob[:MAGIC_BYTES]!r}")
    offset = MAGIC_BYTES + 4 * fields
    if len(blob) < offset:
        raise TruncatedFile(f"{path}: header cut short at {len(blob)} bytes")
    header = struct.unpack(f"<{fields}I", blob[MAGIC_BYTES:offset])
    if version is not None and header[0] != version:
        raise VersionMismatch(f"{path}: version {header[0]}, expected {version}")
    parts = [(np.dtype(dtype), count) for dtype, count in layout(*header)]
    expected = offset + sum(dtype.itemsize * count for dtype, count in parts)
    if len(blob) < expected:
        raise TruncatedFile(f"{path}: expected {expected} bytes, got {len(blob)}")
    if len(blob) > expected:
        raise TrailingBytes(f"{path}: expected {expected} bytes, got {len(blob)}")
    arrays = []
    for dtype, count in parts:
        arrays.append(np.frombuffer(blob, dtype=dtype, count=count, offset=offset))
        offset += dtype.itemsize * count
    return header, arrays
