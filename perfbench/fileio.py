"""Readers and writers for the files the pipeline exchanges, written apart
from `splatlift.formats` so that the output checks do not trust the code
they check. Layouts: FLT1 tensors, LBL1 label maps, LFT1 label tables,
binary splat PLY, the text camera list and P5 PGM masks."""

from __future__ import annotations

import csv
import hashlib
import struct
from pathlib import Path

import numpy as np


def read_flt(path) -> np.ndarray:
    """(H, W, F) float32 tensor."""
    data = Path(path).read_bytes()
    if data[:4] != b"FLT1":
        raise ValueError(f"{path}: not an FLT1 tensor")
    _version, h, w, f = struct.unpack("<4I", data[4:20])
    return np.frombuffer(data, dtype="<f4", count=h * w * f, offset=20).reshape(h, w, f)


def write_flt(path, values: np.ndarray) -> None:
    arr = np.ascontiguousarray(values, dtype="<f4")
    h, w, f = arr.shape
    with open(path, "wb") as fh:
        fh.write(b"FLT1" + struct.pack("<4I", 1, h, w, f))
        fh.write(arr.tobytes())


def read_lbl(path) -> np.ndarray:
    data = Path(path).read_bytes()
    if data[:4] != b"LBL1":
        raise ValueError(f"{path}: not an LBL1 label map")
    _version, h, w = struct.unpack("<3I", data[4:16])
    return np.frombuffer(data, dtype="<i4", count=h * w, offset=16).reshape(h, w)


def read_lft(path) -> dict:
    data = Path(path).read_bytes()
    if data[:4] != b"LFT1":
        raise ValueError(f"{path}: not an LFT1 label table")
    count, fdim = struct.unpack("<2I", data[4:12])
    table, pos = {}, 12
    for _ in range(count):
        (label,) = struct.unpack("<i", data[pos:pos + 4])
        table[label] = np.frombuffer(data, dtype="<f4", count=fdim, offset=pos + 4)
        pos += 4 + 4 * fdim
    return table


def read_pgm_mask(path) -> np.ndarray:
    data = Path(path).read_bytes()
    parts = data.split(b"\n", 3)
    if parts[0] != b"P5" or parts[2] != b"255":
        raise ValueError(f"{path}: not an 8-bit P5 PGM")
    w, h = (int(t) for t in parts[1].split())
    return np.frombuffer(parts[3], dtype=np.uint8, count=w * h).reshape(h, w) > 127


def read_ply(path) -> dict:
    """Splat arrays of a binary PLY whose vertex properties are all float."""
    data = Path(path).read_bytes()
    end = data.index(b"end_header\n") + len(b"end_header\n")
    names, count = [], 0
    for line in data[:end].decode("ascii").splitlines():
        parts = line.split()
        if parts[:2] == ["element", "vertex"]:
            count = int(parts[2])
        elif parts[:1] == ["property"]:
            if parts[1] != "float":
                raise ValueError(f"{path}: property {parts[2]} is not float")
            names.append(parts[2])
    verts = np.frombuffer(data, dtype="<f4", count=count * len(names), offset=end)
    verts = verts.reshape(count, len(names)).astype(np.float64)
    col = {n: verts[:, i] for i, n in enumerate(names)}
    return {
        "positions": np.stack([col["x"], col["y"], col["z"]], axis=1),
        "log_scales": np.stack([col[f"scale_{i}"] for i in range(3)], axis=1),
        "quats": np.stack([col[f"rot_{i}"] for i in range(4)], axis=1),
        "thetas": col["opacity"],
    }


def read_cameras(path) -> list[dict]:
    views = []
    for line in Path(path).read_text().splitlines():
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        nums = [float(x) for x in parts[3:]]
        views.append({"id": parts[0], "width": int(parts[1]), "height": int(parts[2]),
                      "fx": nums[0], "fy": nums[1], "cx": nums[2], "cy": nums[3],
                      "w2c": np.array(nums[4:]).reshape(4, 4)})
    return views


def read_csv(path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def tree_sha256(root) -> str:
    """Content hash of every file under root, keyed by relative path."""
    root = Path(root)
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*")
                       if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()
