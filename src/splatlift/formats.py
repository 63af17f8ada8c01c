"""Binary and text file formats: feature tensors, label maps, splat PLY,
camera lists, and PGM images. All multi-byte values are little-endian and
round-trip bit-exactly."""

from __future__ import annotations

import json
import os
import struct
import warnings
from pathlib import Path

import numpy as np

from .model import CameraView, InvalidInputError, KernelKind, SplatScene

FEATURE_MAGIC = b"FLT1"
LABEL_MAGIC = b"LBL1"
TABLE_MAGIC = b"LFT1"
FORMAT_VERSION = 1


class FormatError(Exception):
    """A file does not conform to its declared format."""


def _read_exact(fh, n: int, path, what: str) -> bytes:
    """Read n bytes; a count past the end of the file (from an untrusted
    header) is refused before anything is allocated."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    data = fh.read(n) if n <= left else b""
    if len(data) != n:
        raise FormatError(f"{path}: truncated while reading {what}")
    return data


# -- feature tensors (FLT1) --------------------------------------------------

def write_feature_tensor(path, values: np.ndarray) -> None:
    """Write an (H, W, F) float32 tensor."""
    arr = np.asarray(values, dtype=np.float32)
    if arr.ndim != 3:
        raise InvalidInputError(f"feature tensor must be 3-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("feature tensor values must be finite")
    h, w, f = arr.shape
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<4I", FORMAT_VERSION, h, w, f))
        fh.write(arr.astype("<f4").tobytes(order="C"))


def read_feature_tensor(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4, path, "magic")
        if magic != FEATURE_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r} (expected {FEATURE_MAGIC!r})")
        version, h, w, f = struct.unpack("<4I", _read_exact(fh, 16, path, "header"))
        if version != FORMAT_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        payload = _read_exact(fh, 4 * h * w * f, path, "payload")
        if fh.read(1):
            raise FormatError(f"{path}: trailing bytes after payload")
    arr = np.frombuffer(payload, dtype="<f4").reshape(h, w, f)
    if not np.all(np.isfinite(arr)):
        raise FormatError(f"{path}: payload contains non-finite values")
    return arr.copy()


# -- label maps (LBL1) + label feature tables (LFT1) --------------------------

def write_label_map(path, labels: np.ndarray) -> None:
    arr = np.asarray(labels, dtype="<i4")
    if arr.ndim != 2:
        raise InvalidInputError(f"label map must be 2-dimensional, got shape {arr.shape}")
    h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(LABEL_MAGIC)
        fh.write(struct.pack("<3I", FORMAT_VERSION, h, w))
        fh.write(arr.tobytes(order="C"))


def read_label_map(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4, path, "magic")
        if magic != LABEL_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r} (expected {LABEL_MAGIC!r})")
        version, h, w = struct.unpack("<3I", _read_exact(fh, 12, path, "header"))
        if version != FORMAT_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        payload = _read_exact(fh, 4 * h * w, path, "payload")
        if fh.read(1):
            raise FormatError(f"{path}: trailing bytes after payload")
    return np.frombuffer(payload, dtype="<i4").reshape(h, w).copy()


def write_label_features(path, table: dict, feature_dim: int | None = None) -> None:
    """Write {label id -> float32 feature vector} records (may be empty)."""
    ids = sorted(int(k) for k in table)
    vecs = [np.asarray(table[i], dtype="<f4").reshape(-1) for i in ids]
    if not ids:
        if feature_dim is None:
            raise InvalidInputError("an empty label feature table needs an explicit feature_dim")
        fdim = feature_dim
    else:
        fdim = len(vecs[0])
    if any(len(v) != fdim for v in vecs):
        raise InvalidInputError("label feature vectors must share one dimension")
    with open(path, "wb") as fh:
        fh.write(TABLE_MAGIC)
        fh.write(struct.pack("<2I", len(ids), fdim))
        for label, vec in zip(ids, vecs):
            fh.write(struct.pack("<i", label))
            fh.write(vec.tobytes(order="C"))


def read_label_features(path) -> dict:
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4, path, "magic")
        if magic != TABLE_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r} (expected {TABLE_MAGIC!r})")
        count, fdim = struct.unpack("<2I", _read_exact(fh, 8, path, "header"))
        table = {}
        for _ in range(count):
            (label,) = struct.unpack("<i", _read_exact(fh, 4, path, "record id"))
            vec = np.frombuffer(_read_exact(fh, 4 * fdim, path, "record vector"), dtype="<f4")
            table[label] = vec.copy()
        if fh.read(1):
            raise FormatError(f"{path}: trailing bytes after records")
    return table


def validate_label_pair(labels: np.ndarray, table: dict, path="label map") -> None:
    present = set(int(u) for u in np.unique(labels) if u >= 0)
    missing = present - set(int(k) for k in table)
    if missing:
        raise FormatError(f"{path}: labels {sorted(missing)} missing from the feature table")


# -- splat scenes (binary PLY) -------------------------------------------------

_PLY_PROPERTY_DTYPES = {
    "float": "<f4", "float32": "<f4", "double": "<f8", "float64": "<f8",
    "uchar": "u1", "uint8": "u1", "char": "i1", "int8": "i1",
    "short": "<i2", "int16": "<i2", "ushort": "<u2", "uint16": "<u2",
    "int": "<i4", "int32": "<i4", "uint": "<u4", "uint32": "<u4",
}

_SPLAT_PROPERTIES = (
    ["x", "y", "z", "nx", "ny", "nz", "f_dc_0", "f_dc_1", "f_dc_2", "opacity"]
    + [f"scale_{i}" for i in range(3)] + [f"rot_{i}" for i in range(4)]
)


def write_splat_ply(path, scene: SplatScene) -> None:
    """Binary little-endian PLY with the prevailing splat vertex layout.

    Opacity is stored as the raw logit, scales as logs, rotations as wxyz
    quaternions; normals and DC color terms are zero-filled placeholders.
    """
    n = len(scene)
    header = ["ply", "format binary_little_endian 1.0", f"element vertex {n}"]
    header += [f"property float {name}" for name in _SPLAT_PROPERTIES]
    header.append("end_header")
    data = np.zeros((n, len(_SPLAT_PROPERTIES)), dtype="<f4")
    data[:, 0:3] = scene.positions
    data[:, 9] = scene.thetas
    data[:, 10:13] = scene.log_scales
    data[:, 13:17] = scene.rotations
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        fh.write(data.tobytes(order="C"))


def read_splat_ply(path, kernel: KernelKind = KernelKind.GAUSSIAN_3D) -> SplatScene:
    """Parse a binary splat PLY; extra per-vertex properties are ignored.

    Assumes the opacity property stores raw logits (pre-sigmoid). If every
    value lies inside [0, 1] the file likely stores activated opacities and
    a loud warning is emitted.
    """
    with open(path, "rb") as fh:
        line = fh.readline().strip()
        if line != b"ply":
            raise FormatError(f"{path}: not a PLY file")
        fmt = fh.readline().strip()
        if fmt != b"format binary_little_endian 1.0":
            raise FormatError(f"{path}: only binary little-endian PLY is supported, got {fmt!r}")
        vertex_count = None
        fields = []
        in_vertex_element = False
        while True:
            raw = fh.readline()
            if not raw:
                raise FormatError(f"{path}: header ended before end_header")
            line = raw.decode("ascii", "replace").strip()
            if line == "end_header":
                break
            parts = line.split()
            if not parts or parts[0] == "comment":
                continue
            if parts[0] == "element":
                if len(parts) < 3:
                    raise FormatError(f"{path}: malformed element line {line!r}")
                in_vertex_element = parts[1] == "vertex"
                if in_vertex_element:
                    if not parts[2].isdigit():
                        raise FormatError(f"{path}: bad vertex count {parts[2]!r}")
                    vertex_count = int(parts[2])
            elif parts[0] == "property" and in_vertex_element:
                if len(parts) > 1 and parts[1] == "list":
                    raise FormatError(f"{path}: list properties are not supported")
                if len(parts) < 3:
                    raise FormatError(f"{path}: malformed property line {line!r}")
                dtype = _PLY_PROPERTY_DTYPES.get(parts[1])
                if dtype is None:
                    raise FormatError(f"{path}: unknown property type {parts[1]!r}")
                if any(name == parts[2] for name, _ in fields):
                    raise FormatError(f"{path}: duplicate vertex property {parts[2]!r}")
                fields.append((parts[2], dtype))
        if vertex_count is None:
            raise FormatError(f"{path}: no vertex element in header")
        dtype = np.dtype(fields)
        payload = _read_exact(fh, dtype.itemsize * vertex_count, path, "vertex data")
    verts = np.frombuffer(payload, dtype=dtype)
    names = {name for name, _ in fields}
    required = ["x", "y", "z", "opacity", "scale_0", "scale_1", "scale_2",
                "rot_0", "rot_1", "rot_2", "rot_3"]
    missing = [r for r in required if r not in names]
    if missing:
        raise FormatError(f"{path}: missing vertex properties {missing}")
    thetas = verts["opacity"].astype(np.float64)
    if thetas.size and thetas.min() >= 0.0 and thetas.max() <= 1.0:
        warnings.warn(
            f"{path}: every opacity lies in [0, 1]; this file may store activated "
            "opacities, but values are interpreted as raw logits", stacklevel=2)
    return SplatScene.from_arrays(
        positions=np.stack([verts["x"], verts["y"], verts["z"]], axis=1).astype(np.float64),
        log_scales=np.stack([verts[f"scale_{i}"] for i in range(3)], axis=1).astype(np.float64),
        rotations=np.stack([verts[f"rot_{i}"] for i in range(4)], axis=1).astype(np.float64),
        thetas=thetas,
        kernels=np.full(len(verts), int(kernel), dtype=np.int8),
    )


# -- camera lists (text) -------------------------------------------------------

def write_cameras(path, views) -> None:
    """One view per line: id, resolution, intrinsics, then the 16 transform values."""
    lines = ["# view_id width height fx fy cx cy m00..m33 (row-major world_to_camera)"]
    for v in views:
        nums = [float(v.fx), float(v.fy), float(v.cx), float(v.cy)]
        nums += [float(x) for x in np.asarray(v.world_to_camera, dtype=np.float64).reshape(-1)]
        lines.append(f"{v.view_id} {v.width} {v.height} " + " ".join(repr(x) for x in nums))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_cameras(path) -> list:
    views = []
    for lineno, line in enumerate(Path(path).read_text(encoding="ascii").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 23:
            raise FormatError(f"{path}:{lineno}: expected 23 fields, got {len(parts)}")
        try:
            view = CameraView(
                view_id=parts[0],
                width=int(parts[1]), height=int(parts[2]),
                fx=float(parts[3]), fy=float(parts[4]),
                cx=float(parts[5]), cy=float(parts[6]),
                world_to_camera=np.array([float(x) for x in parts[7:]]).reshape(4, 4),
            )
        except (ValueError, InvalidInputError) as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from exc
        views.append(view)
    if not views:
        raise FormatError(f"{path}: no views found")
    return views


# -- PGM images (P5) -----------------------------------------------------------

def write_pgm(path, image: np.ndarray) -> None:
    """8-bit grayscale P5; boolean masks map to {0, 255}."""
    arr = np.asarray(image)
    if arr.dtype == bool:
        arr = np.where(arr, 255, 0).astype(np.uint8)
    arr = arr.astype(np.uint8)
    if arr.ndim != 2:
        raise InvalidInputError(f"PGM image must be 2-dimensional, got shape {arr.shape}")
    h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(arr.tobytes(order="C"))


def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        if magic != b"P5":
            raise FormatError(f"{path}: not a P5 PGM file")
        tokens = []
        while len(tokens) < 3:
            line = fh.readline()
            if not line:
                raise FormatError(f"{path}: truncated PGM header")
            text = line.split(b"#", 1)[0]
            tokens.extend(text.split())
        w, h, maxval = (int(t) for t in tokens[:3])
        if maxval != 255:
            raise FormatError(f"{path}: only maxval 255 is supported")
        payload = _read_exact(fh, w * h, path, "pixels")
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w).copy()


def read_mask_pgm(path) -> np.ndarray:
    return read_pgm(path) > 127


# -- lifted feature fields -----------------------------------------------------

def write_feature_field(path, field) -> None:
    """Lifted features as an FLT1 tensor with H = primitive count, W = 1."""
    write_feature_tensor(path, np.asarray(field.values, dtype=np.float32)[:, None, :])


def read_feature_field(path):
    from .solver import FeatureField

    arr = read_feature_tensor(path)
    if arr.shape[1] != 1:
        raise FormatError(f"{path}: a feature field requires W = 1, got W = {arr.shape[1]}")
    return FeatureField(values=arr[:, 0, :].astype(np.float64))


def write_run_report(path, report: dict) -> None:
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                          encoding="ascii")


def read_run_report(path) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="ascii"))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: malformed run report: {exc}") from exc
