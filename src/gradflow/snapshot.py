"""Binary state snapshots with a fixed, bit-exact layout.

Layout (all little-endian)::

    bytes 0..3    magic "SGF1"
    u32           nx
    u32           ny
    f64           lx
    f64           ly
    f64           t
    f64 * nx*ny   h, row-major
    f64 * nx*ny   psi, row-major

Writing then reading reproduces every field to the bit.
"""

from __future__ import annotations

import struct
from os import PathLike

import numpy as np

from .flow import FlowState
from .spectral import Grid, ScalarField

__all__ = ["MAGIC", "write_snapshot", "read_snapshot", "SnapshotError"]

MAGIC = b"SGF1"
_HEADER = struct.Struct("<4sIIddd")


class SnapshotError(ValueError):
    """Snapshot file malformed: bad magic, bad sizes, a bad grid, or
    truncation.  The message names the fault; the caller knows the file."""


def write_snapshot(state: FlowState, path: str | PathLike) -> None:
    """Write ``state`` to ``path``, each field from its own buffer: a field
    is copied only where it is not contiguous little-endian ``f8``."""
    grid = state.grid
    header = _HEADER.pack(MAGIC, grid.nx, grid.ny, grid.lx, grid.ly, state.t)
    with open(path, "wb") as fh:
        fh.write(header)
        for field in (state.h, state.psi):
            fh.write(np.ascontiguousarray(field.values, dtype="<f8").data)


def read_snapshot(path: str | PathLike) -> FlowState:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise SnapshotError(f"truncated header: {len(raw)} bytes")
    magic, nx, ny, lx, ly, t = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise SnapshotError(f"bad magic {magic!r}")
    expected = _HEADER.size + 2 * 8 * nx * ny
    if len(raw) != expected:
        raise SnapshotError(f"{len(raw)} bytes, expected {expected} for {nx}x{ny}")
    try:
        grid = Grid(nx, ny, lx, ly)
    except ValueError as exc:
        raise SnapshotError(f"bad grid: {exc}") from None
    body = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size)
    n = nx * ny
    h = body[:n].reshape(nx, ny).astype(float)
    psi = body[n:].reshape(nx, ny).astype(float)
    return FlowState(
        t=t,
        h=ScalarField(grid, h),
        psi=ScalarField(grid, psi),
        step_index=0,
    )
