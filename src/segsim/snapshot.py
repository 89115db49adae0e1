"""Bit-exact binary snapshots of grid states.

Layout (all little-endian):
    magic   4 bytes   b"SGRD"
    version u16       1
    n       u32
    w       u32
    K       u32
    p       f64
    seed    u64
    payload n*n bytes row-major, 0x00 = type -1, 0x01 = type +1
    crc32   u32       IEEE CRC-32 of header + payload

Reading canonicalizes tau_tilde to K/N (the stored threshold is K itself,
so the reconstructed config reproduces the same dynamics bit for bit).
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .grid import GridConfig, GridState

MAGIC = b"SGRD"
VERSION = 1
_HEADER = struct.Struct("<4sHIIIdQ")


class SnapshotError(ValueError):
    """Base class for snapshot decoding failures."""


class SnapshotMagicError(SnapshotError):
    pass


class SnapshotVersionError(SnapshotError):
    pass


class SnapshotLengthError(SnapshotError):
    pass


class SnapshotChecksumError(SnapshotError):
    pass


def snapshot_write(state: GridState) -> bytes:
    cfg = state.config
    header = _HEADER.pack(MAGIC, VERSION, cfg.n, cfg.w, cfg.K, cfg.p, cfg.seed)
    payload = (state.types.ravel() > 0).astype(np.uint8).tobytes()
    crc = zlib.crc32(header + payload) & 0xFFFFFFFF
    return header + payload + struct.pack("<I", crc)


def snapshot_read(buf: bytes) -> GridState:
    if len(buf) < _HEADER.size:
        raise SnapshotLengthError(f"buffer of {len(buf)} bytes is shorter than the header")
    magic, version, n, w, K, p, seed = _HEADER.unpack_from(buf, 0)
    if magic != MAGIC:
        raise SnapshotMagicError(f"bad magic {magic!r}")
    if version != VERSION:
        raise SnapshotVersionError(f"unsupported snapshot version {version}")
    expected = _HEADER.size + n * n + 4
    if len(buf) != expected:
        raise SnapshotLengthError(f"expected {expected} bytes, got {len(buf)}")
    crc_stored = struct.unpack_from("<I", buf, expected - 4)[0]
    crc = zlib.crc32(buf[: expected - 4]) & 0xFFFFFFFF
    if crc != crc_stored:
        raise SnapshotChecksumError(f"crc mismatch: stored {crc_stored:#x}, computed {crc:#x}")

    payload = np.frombuffer(buf, dtype=np.uint8, count=n * n, offset=_HEADER.size)
    if not np.all(payload <= 1):
        raise SnapshotError("payload bytes must be 0x00 or 0x01")
    N = (2 * w + 1) ** 2
    config = GridConfig(
        n=n, w=w, tau_tilde=K / N, p=p, seed=seed, allow_small=True
    )
    if config.K != K:
        # Defensive: K/N must round-trip through the ceil rule.
        raise SnapshotError(f"stored K={K} does not reproduce from tau={K}/{N}")
    types = payload.reshape(n, n).astype(np.int8)  # 0/1 -> -1/+1 in place
    types *= 2
    types -= 1
    return GridState(config, types)
