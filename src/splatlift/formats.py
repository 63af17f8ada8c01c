"""Binary and text file formats: feature tensors, label maps, weight
matrices, splat PLY, camera lists, and PGM images. All multi-byte values are
little-endian and round-trip bit-exactly."""

from __future__ import annotations

import json
import mmap
import os
import struct
import warnings
from pathlib import Path

import numpy as np

from .model import CameraView, InvalidInputError, KernelKind, SplatScene
from .rasterize import INDEX_LIMIT, WeightMatrix, view_ranges
from .solver import FeatureField

FEATURE_MAGIC = b"FLT1"
LABEL_MAGIC = b"LBL1"
TABLE_MAGIC = b"LFT1"
MATRIX_MAGIC = b"WMX1"
FORMAT_VERSION = 1
MATRIX_VERSION = 2  # int32 indptr and indices; version 1 stored int64
MATRIX_KEY_BYTES = 32


class FormatError(Exception):
    """A file does not conform to its declared format."""


def _read_array(fh, dtype, count: int, path, what: str) -> np.ndarray:
    """Read count items straight into a new array. A count past the end of
    the file (from an untrusted header) is refused before anything is
    allocated."""
    out = None
    if count * np.dtype(dtype).itemsize <= os.fstat(fh.fileno()).st_size - fh.tell():
        out = np.empty(count, dtype=dtype)
    if out is None or fh.readinto(out.view(np.uint8)) != out.nbytes:
        raise FormatError(f"{path}: truncated while reading {what}")
    return out


def _read_header(fh, path, magic: bytes, layout: str) -> tuple:
    """Check a container's magic and unpack the header fields that follow
    it as "<" + layout. FLT1 and LBL1 start them with their version, which
    must be FORMAT_VERSION; WMX1's reader checks its own."""
    found = _read_array(fh, "u1", len(magic), path, "magic").tobytes()
    if found != magic:
        raise FormatError(f"{path}: bad magic {found!r} (expected {magic!r})")
    size = struct.calcsize("<" + layout)
    fields = struct.unpack("<" + layout, _read_array(fh, "u1", size, path, "header").tobytes())
    if magic in (FEATURE_MAGIC, LABEL_MAGIC) and fields[0] != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported version {fields[0]}")
    return fields


def _read_end(fh, path, what: str = "payload") -> None:
    if fh.read(1):
        raise FormatError(f"{path}: trailing bytes after {what}")


def _write_atomic(path, magic: bytes, layout: str, header: tuple, *arrays) -> None:
    """Write magic, the header packed as "<" + layout and each array's bytes
    in C order. The file appears whole or not at all: it is written beside
    its final name and then renamed over it."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(magic + struct.pack("<" + layout, *header))
            for arr in arrays:
                fh.write(np.ascontiguousarray(arr))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


# -- feature tensors (FLT1) --------------------------------------------------

def write_feature_tensor(path, values: np.ndarray) -> None:
    """Write an (H, W, F) float32 tensor."""
    arr = np.asarray(values, dtype="<f4")
    if arr.ndim != 3:
        raise InvalidInputError(f"feature tensor must be 3-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("feature tensor values must be finite")
    _write_atomic(path, FEATURE_MAGIC, "4I", (FORMAT_VERSION, *arr.shape), arr)


def _read_feature_payload(path) -> np.ndarray:
    """An FLT1 file's (H, W, F) float32 payload, its values not yet checked."""
    with open(path, "rb") as fh:
        _, h, w, f = _read_header(fh, path, FEATURE_MAGIC, "4I")
        arr = _read_array(fh, "<f4", h * w * f, path, "payload")
        _read_end(fh, path)
    try:
        arr = arr.reshape(h, w, f)
    except ValueError:  # no payload, but sizes whose product NumPy cannot hold
        raise FormatError(f"{path}: tensor size {h}x{w}x{f} is out of range") from None
    return arr


def read_feature_tensor(path) -> np.ndarray:
    arr = _read_feature_payload(path)
    if not np.all(np.isfinite(arr)):
        raise FormatError(f"{path}: payload contains non-finite values")
    return arr


# -- label maps (LBL1) + label feature tables (LFT1) --------------------------

def write_label_map(path, labels: np.ndarray) -> None:
    arr = np.asarray(labels, dtype="<i4")
    if arr.ndim != 2:
        raise InvalidInputError(f"label map must be 2-dimensional, got shape {arr.shape}")
    _write_atomic(path, LABEL_MAGIC, "3I", (FORMAT_VERSION, *arr.shape), arr)


def read_label_map(path) -> np.ndarray:
    with open(path, "rb") as fh:
        _, h, w = _read_header(fh, path, LABEL_MAGIC, "3I")
        arr = _read_array(fh, "<i4", h * w, path, "payload").reshape(h, w)
        _read_end(fh, path)
    return arr


def write_label_features(path, table: dict, feature_dim: int | None = None) -> None:
    """Write {label id -> float32 feature vector} records (may be empty):
    each record is the int32 label, then its F float32 values."""
    ids = sorted(int(k) for k in table)
    vecs = [np.asarray(table[i], dtype="<f4").reshape(-1) for i in ids]
    if not ids and feature_dim is None:
        raise InvalidInputError("an empty label feature table needs an explicit feature_dim")
    fdim = len(vecs[0]) if ids else feature_dim
    if any(len(v) != fdim for v in vecs):
        raise InvalidInputError("label feature vectors must share one dimension")
    values = np.array(vecs, dtype="<f4").reshape(len(ids), fdim)
    if not np.all(np.isfinite(values)):
        raise InvalidInputError("label feature values must be finite")
    records = np.empty((len(ids), 1 + fdim), dtype="<i4")
    records[:, 0] = ids
    records[:, 1:] = values.view("<i4")
    _write_atomic(path, TABLE_MAGIC, "2I", (len(ids), fdim), records)


def read_label_features(path) -> dict:
    with open(path, "rb") as fh:
        count, fdim = _read_header(fh, path, TABLE_MAGIC, "2I")
        records = _read_array(fh, "<i4", count * (1 + fdim), path, "records")
        _read_end(fh, path, "records")
    records = records.reshape(count, 1 + fdim)
    ids, counts = np.unique(records[:, 0], return_counts=True)
    if np.any(counts > 1):
        raise FormatError(f"{path}: duplicate record for label {ids[counts > 1][0]}")
    values = records[:, 1:].view("<f4")
    if not np.all(np.isfinite(values)):
        raise FormatError(f"{path}: payload contains non-finite values")
    return dict(zip(records[:, 0].tolist(), values))


# -- weight matrices (WMX1) ----------------------------------------------------

def write_weight_matrix(path, matrix: WeightMatrix, key: bytes) -> None:
    """Write A's CSR arrays under a key that identifies the inputs it was
    built from."""
    if len(key) != MATRIX_KEY_BYTES:
        raise InvalidInputError(f"a weight-matrix key has {MATRIX_KEY_BYTES} bytes, got {len(key)}")
    _write_atomic(path, MATRIX_MAGIC, "I32s3Q",
                  (MATRIX_VERSION, key, matrix.rows, matrix.cols, matrix.nnz),
                  matrix.indptr.astype("<i4", copy=False),
                  matrix.indices.astype("<i4", copy=False),
                  matrix.weights.astype("<f8", copy=False))


def read_weight_matrix(path, key: bytes, views, cols: int, lam: float) -> WeightMatrix | None:
    """The matrix stored under key for these views and primitive count.

    Returns None, without reading the payload, when the file was written
    under another version or key. A matching file whose sizes disagree with
    the views or the primitive count, or whose payload is not a valid
    weight matrix, raises FormatError.

    Once its sizes are checked against the file, the payload is mapped
    read-only and A's arrays are views of it, not a copy. Writers only rename
    whole files over old ones, so the mapped bytes never change under A.
    """
    with open(path, "rb") as fh:
        version, stored, rows, ncols, nnz = _read_header(fh, path, MATRIX_MAGIC, "I32s3Q")
        if version != MATRIX_VERSION or stored != key:
            return None
        ranges = view_ranges(views)
        pixels = sum(stop - start for start, stop in ranges.values())
        if rows != pixels:
            raise FormatError(f"{path}: {rows} rows but the views have {pixels} pixels")
        if ncols != cols:
            raise FormatError(f"{path}: {ncols} columns but the scene has {cols} primitives")
        if nnz >= INDEX_LIMIT:
            raise FormatError(f"{path}: {nnz} entries exceed the int32 indices")
        parts = []
        end, size = fh.tell(), os.fstat(fh.fileno()).st_size
        for what, dtype, count in (("indptr", "<i4", rows + 1), ("indices", "<i4", nnz),
                                   ("weights", "<f8", nnz)):
            parts.append((dtype, count, end))
            end += count * np.dtype(dtype).itemsize
            if end > size:
                raise FormatError(f"{path}: truncated while reading {what}")
        if end < size:
            raise FormatError(f"{path}: trailing bytes after payload")
        try:
            mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except OSError as exc:
            raise OSError(exc.errno, f"cannot map the payload: {exc.strerror}", str(path)) from exc
    indptr, indices, weights = (np.frombuffer(mapped, *part) for part in parts)
    matrix = WeightMatrix(indptr, indices, weights, cols, ranges, lam)
    try:
        matrix.validate()
    except InvalidInputError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return matrix


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
    a loud warning is emitted. Values that SplatScene refuses raise
    InvalidInputError; a malformed file raises FormatError.
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
                if vertex_count is None and not in_vertex_element:
                    raise FormatError(f"{path}: element {parts[1]!r} precedes the vertex "
                                      "element, which must come first")
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
        names = {name for name, _ in fields}
        required = ["x", "y", "z", "opacity", "scale_0", "scale_1", "scale_2",
                    "rot_0", "rot_1", "rot_2", "rot_3"]
        missing = [r for r in required if r not in names]
        if missing:
            raise FormatError(f"{path}: missing vertex properties {missing}")
        verts = _read_array(fh, np.dtype(fields), vertex_count, path, "vertex data")
    thetas = verts["opacity"].astype(np.float64)
    if thetas.size and thetas.min() >= 0.0 and thetas.max() <= 1.0:
        warnings.warn(
            f"{path}: every opacity lies in [0, 1]; this file may store activated "
            "opacities, but values are interpreted as raw logits", stacklevel=2)
    try:
        return SplatScene(
            positions=np.stack([verts["x"], verts["y"], verts["z"]], axis=1),
            log_scales=np.stack([verts[f"scale_{i}"] for i in range(3)], axis=1),
            rotations=np.stack([verts[f"rot_{i}"] for i in range(4)], axis=1),
            thetas=thetas,
            kernels=kernel,
        )
    except InvalidInputError as exc:
        # A well-formed file that describes no valid scene is invalid
        # input, not a format error.
        raise InvalidInputError(f"{path}: {exc}") from exc


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
    """Parse a camera list, one view per line. Values that CameraView
    refuses raise InvalidInputError; a malformed file raises FormatError.
    Both name the path and line."""
    try:
        text = Path(path).read_text(encoding="ascii")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not an ASCII camera list: {exc}") from exc
    views = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 23:
            raise FormatError(f"{path}:{lineno}: expected 23 fields, got {len(parts)}")
        try:
            sizes = [int(x) for x in parts[1:3]]
            numbers = [float(x) for x in parts[3:]]
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from exc
        try:
            views.append(CameraView(view_id=parts[0], width=sizes[0], height=sizes[1],
                                    fx=numbers[0], fy=numbers[1], cx=numbers[2], cy=numbers[3],
                                    world_to_camera=np.reshape(numbers[4:], (4, 4))))
        except InvalidInputError as exc:
            raise InvalidInputError(f"{path}:{lineno}: {exc}") from exc
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
        if not all(t.isdigit() for t in tokens[:3]):
            raise FormatError(f"{path}: PGM size and maxval must be non-negative integers")
        w, h, maxval = (int(t) for t in tokens[:3])
        if maxval != 255:
            raise FormatError(f"{path}: only maxval 255 is supported")
        pixels = _read_array(fh, "u1", w * h, path, "pixels")
    return pixels.reshape(h, w)


def read_mask_pgm(path) -> np.ndarray:
    return read_pgm(path) > 127


# -- lifted feature fields -----------------------------------------------------

def write_feature_field(path, field) -> None:
    """Lifted features as an FLT1 tensor with H = primitive count, W = 1."""
    write_feature_tensor(path, np.asarray(field.values, dtype=np.float32)[:, None, :])


def read_feature_field(path):
    """A lifted field that keeps its float32 payload; FeatureField checks
    that payload's finiteness, once."""
    arr = _read_feature_payload(path)
    if arr.shape[1] != 1:
        raise FormatError(f"{path}: a feature field requires W = 1, got W = {arr.shape[1]}")
    try:
        return FeatureField(values=arr[:, 0, :])
    except InvalidInputError:
        raise FormatError(f"{path}: payload contains non-finite values") from None


def write_run_report(path, report: dict) -> None:
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                          encoding="ascii")


def read_run_report(path) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: malformed run report: {exc}") from exc
