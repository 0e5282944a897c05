"""Binary snapshots, run configs and manifests.

Field snapshot format "FLB1": magic bytes, u32 dim, u32 m, u32 n per axis,
f64 extent per axis, then f64 values little-endian in row-major order.
Time-indexed paths use the same header followed by an extra u32 slice count
and f64 dt before the values.

Run configuration is a flat key-value text format with dotted section
prefixes (``grid.n = 64``), chosen so configs diff cleanly and parse with no
dependencies.  Manifests are JSON; their digest covers everything needed to
reproduce the run bit for bit (config, seed, constants, code version) and
deliberately excludes wall-clock timing.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from .grids import Field, Grid
from .noise import NoisePath, ShiftPath

__all__ = [
    "write_field",
    "read_field",
    "write_path",
    "read_noise_path",
    "read_shift_path",
    "parse_config_text",
    "load_config",
    "canonical_json",
    "manifest_digest",
    "write_manifest",
]

MAGIC = b"FLB1"


def _write_header(fh, grid: Grid, m: int):
    fh.write(MAGIC)
    fh.write(struct.pack("<II", grid.dim, m))
    fh.write(struct.pack(f"<{grid.dim}I", *((grid.n,) * grid.dim)))
    fh.write(struct.pack(f"<{grid.dim}d", *grid.extent))


def _read_header(fh):
    magic = fh.read(4)
    if magic != MAGIC:
        raise ValueError(f"bad magic {magic!r}, expected {MAGIC!r}")
    dim, m = struct.unpack("<II", fh.read(8))
    ns = struct.unpack(f"<{dim}I", fh.read(4 * dim))
    if len(set(ns)) != 1:
        raise ValueError("per-axis sizes must agree")
    extent = struct.unpack(f"<{dim}d", fh.read(8 * dim))
    return Grid(dim=dim, n=ns[0], extent=extent), m


def write_field(path, f: Field) -> None:
    with open(path, "wb") as fh:
        _write_header(fh, f.grid, f.m)
        fh.write(np.ascontiguousarray(f.values, dtype="<f8").tobytes())


def read_field(path) -> Field:
    with open(path, "rb") as fh:
        grid, m = _read_header(fh)
        count = m * grid.total_points
        vals = np.frombuffer(fh.read(8 * count), dtype="<f8", count=count)
    return Field(grid, vals.reshape((m,) + grid.shape).copy())


def write_path(path, p: NoisePath | ShiftPath) -> None:
    values = p.increments if isinstance(p, NoisePath) else p.values
    with open(path, "wb") as fh:
        _write_header(fh, p.grid, p.m)
        fh.write(struct.pack("<Id", p.n_steps, p.dt))
        fh.write(np.ascontiguousarray(values, dtype="<f8").tobytes())


def _read_path_values(path):
    with open(path, "rb") as fh:
        grid, m = _read_header(fh)
        n_steps, dt = struct.unpack("<Id", fh.read(12))
        count = n_steps * m * grid.total_points
        vals = np.frombuffer(fh.read(8 * count), dtype="<f8", count=count)
    return grid, dt, vals.reshape((n_steps, m) + grid.shape).copy()


def read_noise_path(path) -> NoisePath:
    grid, dt, vals = _read_path_values(path)
    return NoisePath(grid, dt, vals)


def read_shift_path(path) -> ShiftPath:
    grid, dt, vals = _read_path_values(path)
    return ShiftPath(grid, dt, vals)


# ---------------------------------------------------------------------------
# configs and manifests


def parse_config_text(text: str) -> dict[str, str]:
    """Flat ``section.key = value`` lines; '#' starts a comment.  A key given
    twice is an error that names both lines."""
    out: dict[str, str] = {}
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key or "." not in key:
            raise ValueError(f"line {lineno}: keys use dotted sections, got {key!r}")
        if key in seen:
            raise ValueError(f"line {lineno}: key {key!r} already given on line {seen[key]}")
        seen[key] = lineno
        out[key] = value.strip()
    return out


def load_config(path) -> dict[str, str]:
    return parse_config_text(Path(path).read_text())


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def manifest_digest(manifest: dict) -> str:
    """Digest of the reproducible part of a manifest (timing excluded)."""
    core = {k: v for k, v in manifest.items() if k not in ("wall_clock_s", "digest")}
    return hashlib.sha256(canonical_json(core).encode()).hexdigest()


def write_manifest(path, manifest: dict) -> dict:
    manifest = dict(manifest)
    manifest["digest"] = manifest_digest(manifest)
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest
