import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracle import splat_scene
from splatlift import formats
from splatlift.formats import FormatError
from splatlift.model import CameraView, InvalidInputError, KernelKind, LiftConfig, SplatScene
from splatlift.rasterize import WeightMatrix, build_weight_matrix
from splatlift.solver import FeatureField
from splatlift.synthbench import make_scene, two_blob_spec


# -- feature tensors ---------------------------------------------------------------

def test_feature_tensor_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.normal(size=(7, 5, 3)).astype(np.float32)
    path = tmp_path / "t.flt"
    formats.write_feature_tensor(path, arr)
    back = formats.read_feature_tensor(path)
    assert back.dtype == np.float32
    assert back.tobytes() == arr.tobytes()


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_feature_tensor_roundtrip_random(tmp_path_factory, h, w, f, seed):
    rng = np.random.default_rng(seed)
    arr = rng.normal(size=(h, w, f)).astype(np.float32)
    path = tmp_path_factory.mktemp("flt") / "t.flt"
    formats.write_feature_tensor(path, arr)
    assert formats.read_feature_tensor(path).tobytes() == arr.tobytes()


def test_feature_tensor_rejects_non_finite(tmp_path):
    arr = np.full((2, 2, 1), np.inf, dtype=np.float32)
    with pytest.raises(InvalidInputError):
        formats.write_feature_tensor(tmp_path / "t.flt", arr)


def test_feature_tensor_bad_magic(tmp_path):
    path = tmp_path / "t.flt"
    path.write_bytes(b"XXXX" + b"\0" * 16)
    with pytest.raises(FormatError, match="magic"):
        formats.read_feature_tensor(path)


def test_feature_tensor_truncated(tmp_path):
    rng = np.random.default_rng(1)
    path = tmp_path / "t.flt"
    formats.write_feature_tensor(path, rng.normal(size=(4, 4, 2)).astype(np.float32))
    data = path.read_bytes()
    path.write_bytes(data[:-5])
    with pytest.raises(FormatError, match="truncated"):
        formats.read_feature_tensor(path)


def test_feature_tensor_trailing_bytes(tmp_path):
    path = tmp_path / "t.flt"
    formats.write_feature_tensor(path, np.zeros((1, 1, 1), dtype=np.float32))
    path.write_bytes(path.read_bytes() + b"!")
    with pytest.raises(FormatError, match="trailing"):
        formats.read_feature_tensor(path)


# one 4096x4096 view: a WMX1 header for it asks for a 64 MiB indptr
HUGE_VIEW = CameraView(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=4096, height=4096,
                       world_to_camera=np.eye(4), view_id="huge")


@pytest.mark.parametrize("header, reader", [
    (formats.FEATURE_MAGIC + struct.pack("<4I", 1, 2**32 - 1, 2**32 - 1, 2**32 - 1),
     formats.read_feature_tensor),
    (formats.LABEL_MAGIC + struct.pack("<3I", 1, 2**32 - 1, 2**32 - 1),
     formats.read_label_map),
    (formats.TABLE_MAGIC + struct.pack("<2I", 1, 2**32 - 1), formats.read_label_features),
    (formats.TABLE_MAGIC + struct.pack("<2I", 2**32 - 1, 0), formats.read_label_features),
    (formats.MATRIX_MAGIC + struct.pack("<I32s3Q", 2, bytes(32), 4096 * 4096, 3, 2**31 - 1),
     lambda path: formats.read_weight_matrix(path, bytes(32), [HUGE_VIEW], 3, 1.2)),
])
def test_oversized_header_is_format_error(tmp_path, header, reader):
    # the header asks for far more payload than the file holds; nothing is allocated
    path = tmp_path / "huge.bin"
    path.write_bytes(header)
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="truncated"):
            reader(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_empty_payload_under_huge_sizes(tmp_path):
    # no payload is asked for, so these headers are not truncated files
    path = tmp_path / "t.lft"
    path.write_bytes(formats.TABLE_MAGIC + struct.pack("<2I", 0, 2**32 - 1))
    assert formats.read_label_features(path) == {}
    # but NumPy cannot hold an empty tensor whose other sizes multiply past 2^63
    path = tmp_path / "t.flt"
    path.write_bytes(formats.FEATURE_MAGIC + struct.pack("<4I", 1, 2**32 - 1, 2**32 - 1, 0))
    with pytest.raises(FormatError, match="out of range"):
        formats.read_feature_tensor(path)


# -- label maps and tables -----------------------------------------------------------

def test_label_map_roundtrip(tmp_path):
    labels = np.array([[-1, 0], [3, 7]], dtype=np.int32)
    path = tmp_path / "m.lbl"
    formats.write_label_map(path, labels)
    assert np.array_equal(formats.read_label_map(path), labels)


def test_label_features_roundtrip(tmp_path):
    table = {0: np.array([1.5, -2.5], np.float32), 7: np.array([0.0, 9.0], np.float32)}
    path = tmp_path / "t.lft"
    formats.write_label_features(path, table)
    back = formats.read_label_features(path)
    assert set(back) == {0, 7}
    for k in back:
        assert back[k].tobytes() == table[k].astype("<f4").tobytes()


def test_label_features_empty_table(tmp_path):
    path = tmp_path / "t.lft"
    formats.write_label_features(path, {}, feature_dim=4)
    assert formats.read_label_features(path) == {}


def test_label_features_duplicate_id_is_format_error(tmp_path):
    path = tmp_path / "t.lft"
    record = struct.pack("<i", 3) + np.ones(2, "<f4").tobytes()
    path.write_bytes(formats.TABLE_MAGIC + struct.pack("<2I", 2, 2) + record + record)
    with pytest.raises(FormatError, match="duplicate record for label 3"):
        formats.read_label_features(path)


# -- splat PLY -------------------------------------------------------------------------

def test_splat_ply_roundtrip(tmp_path):
    spec = two_blob_spec(noise_fraction=0.0, resolution=16, views=1)
    scene, _, _ = make_scene(spec)
    path = tmp_path / "scene.ply"
    formats.write_splat_ply(path, scene)
    back = formats.read_splat_ply(path)
    # payload is float32; the reader reproduces those values bit-exactly
    assert np.array_equal(back.positions, scene.positions.astype(np.float32).astype(np.float64))
    assert np.array_equal(back.thetas, scene.thetas.astype(np.float32).astype(np.float64))
    assert np.array_equal(back.log_scales,
                          scene.log_scales.astype(np.float32).astype(np.float64))
    assert len(back) == len(scene)


def test_splat_ply_kernel_override(tmp_path):
    scene = splat_scene([0, 0, 1], 1.0, 2.0)
    path = tmp_path / "s.ply"
    formats.write_splat_ply(path, scene)
    back = formats.read_splat_ply(path, kernel=KernelKind.GAUSSIAN_2D)
    assert np.all(back.kernels == int(KernelKind.GAUSSIAN_2D))


def test_splat_ply_warns_on_activated_opacities(tmp_path):
    scene = splat_scene([0, 0, 1], 1.0, 0.37)
    path = tmp_path / "s.ply"
    formats.write_splat_ply(path, scene)
    with pytest.warns(UserWarning, match="logits"):
        formats.read_splat_ply(path)


def test_splat_ply_ignores_extra_properties(tmp_path):
    header = (
        "ply\nformat binary_little_endian 1.0\nelement vertex 1\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property float f_rest_0\n"
        "property float opacity\n"
        "property float scale_0\nproperty float scale_1\nproperty float scale_2\n"
        "property float rot_0\nproperty float rot_1\nproperty float rot_2\nproperty float rot_3\n"
        "end_header\n"
    )
    payload = np.array([[0, 0, 1, 99.0, 2.0, -1, -1, -1, 1, 0, 0, 0]], dtype="<f4")
    path = tmp_path / "s.ply"
    path.write_bytes(header.encode() + payload.tobytes())
    scene = formats.read_splat_ply(path)
    assert scene.thetas[0] == pytest.approx(2.0)


def test_splat_ply_missing_property(tmp_path):
    header = ("ply\nformat binary_little_endian 1.0\nelement vertex 1\n"
              "property float x\nproperty float y\nproperty float z\nend_header\n")
    path = tmp_path / "s.ply"
    path.write_bytes(header.encode() + np.zeros(3, dtype="<f4").tobytes())
    with pytest.raises(FormatError, match="missing vertex properties"):
        formats.read_splat_ply(path)


@pytest.mark.parametrize("lines", [
    "element vertex abc",
    "element vertex -5",
    "element",
    "element vertex 1\nproperty float",
    "element vertex 1\nproperty float x\nproperty float x",
])
def test_malformed_ply_header_is_format_error(tmp_path, lines):
    path = tmp_path / "s.ply"
    path.write_bytes(f"ply\nformat binary_little_endian 1.0\n{lines}\nend_header\n".encode()
                     + bytes(64))
    with pytest.raises(FormatError):
        formats.read_splat_ply(path)


def test_splat_ply_not_a_ply(tmp_path):
    path = tmp_path / "s.ply"
    path.write_bytes(b"hello world")
    with pytest.raises(FormatError):
        formats.read_splat_ply(path)


# -- cameras ------------------------------------------------------------------------

def test_cameras_roundtrip_bit_exact(tmp_path):
    spec = two_blob_spec(noise_fraction=0.0, resolution=16, views=4)
    _, views, _ = make_scene(spec)
    path = tmp_path / "cams.txt"
    formats.write_cameras(path, views)
    back = formats.read_cameras(path)
    assert len(back) == len(views)
    for a, b in zip(views, back):
        assert a.view_id == b.view_id
        assert (a.fx, a.fy, a.cx, a.cy) == (b.fx, b.fy, b.cx, b.cy)
        assert a.world_to_camera.tobytes() == b.world_to_camera.tobytes()


def test_cameras_rejects_bad_line(tmp_path):
    path = tmp_path / "cams.txt"
    path.write_text("v0 4 4 1.0\n")
    with pytest.raises(FormatError, match="23 fields"):
        formats.read_cameras(path)


def test_cameras_validates_view_invariants(tmp_path):
    # values that parse but describe no camera are invalid input, not a
    # malformed file; a field that does not parse is a malformed file
    path = tmp_path / "cams.txt"
    nums = "4 4 -1.0 1.0 2.0 2.0 " + " ".join(str(float(x)) for x in np.eye(4).ravel())
    path.write_text("# views\nv0 " + nums + "\n")
    with pytest.raises(InvalidInputError, match="cams.txt:2: focal"):
        formats.read_cameras(path)
    path.write_text("v0 " + nums.replace("-1.0", "one") + "\n")
    with pytest.raises(FormatError, match="cams.txt:1: could not convert"):
        formats.read_cameras(path)


@pytest.mark.parametrize("focal", ["inf inf", "nan 1.0", "1.0 -inf"])
def test_cameras_rejects_non_finite_focal(tmp_path, focal):
    path = tmp_path / "cams.txt"
    nums = f"4 4 {focal} 2.0 2.0 " + " ".join(str(float(x)) for x in np.eye(4).ravel())
    path.write_text("v0 " + nums + "\n")
    with pytest.raises(InvalidInputError, match="cams.txt:1: focal"):
        formats.read_cameras(path)


# -- PGM ---------------------------------------------------------------------------

def test_pgm_roundtrip(tmp_path):
    img = (np.arange(20, dtype=np.uint8) * 12).reshape(4, 5)
    path = tmp_path / "i.pgm"
    formats.write_pgm(path, img)
    assert np.array_equal(formats.read_pgm(path), img)


def test_pgm_mask_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    mask = rng.uniform(size=(8, 8)) > 0.5
    path = tmp_path / "m.pgm"
    formats.write_pgm(path, mask)
    assert np.array_equal(formats.read_mask_pgm(path), mask)


def test_pgm_rejects_bad_magic(tmp_path):
    path = tmp_path / "m.pgm"
    path.write_bytes(b"P2\n2 2\n255\n....")
    with pytest.raises(FormatError):
        formats.read_pgm(path)


# -- feature fields + run reports ------------------------------------------------------

def test_feature_field_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    field = FeatureField(values=rng.normal(size=(11, 4)), coverage=np.ones(11))
    path = tmp_path / "field.flt"
    formats.write_feature_field(path, field)
    back = formats.read_feature_field(path)
    assert back.count == 11 and back.feature_dim == 4
    assert np.array_equal(back.values, field.values.astype(np.float32).astype(np.float64))


def test_feature_field_requires_unit_width(tmp_path):
    path = tmp_path / "t.flt"
    formats.write_feature_tensor(path, np.zeros((2, 3, 1), dtype=np.float32))
    with pytest.raises(FormatError, match="W = 1"):
        formats.read_feature_field(path)


def test_run_report_roundtrip(tmp_path):
    report = {"lambda": 1.2, "mode": "rowsum", "coverage": {"observed": 5}}
    path = tmp_path / "r.json"
    formats.write_run_report(path, report)
    assert formats.read_run_report(path) == report


def test_run_report_malformed(tmp_path):
    path = tmp_path / "r.json"
    path.write_text("{not json")
    with pytest.raises(FormatError):
        formats.read_run_report(path)


def test_run_report_non_ascii_is_format_error(tmp_path):
    path = tmp_path / "r.json"
    path.write_bytes(b'{"kernel": "gaussian3d\xe9"}')
    with pytest.raises(FormatError, match="malformed run report"):
        formats.read_run_report(path)


# -- weight matrices -------------------------------------------------------------------

KEY = bytes(range(32))
WMX_HEADER = 64  # magic, version, key, rows, cols, nnz


@pytest.fixture(scope="module")
def small_matrix():
    """A weight matrix of 3 splats over 2 views of 8x8, with its views."""
    scene, views, _ = make_scene(two_blob_spec(noise_fraction=0.0, resolution=8, views=2))
    scene = SplatScene(scene.positions[:3], scene.log_scales[:3], scene.rotations[:3],
                       scene.thetas[:3], scene.kernels[:3])
    return build_weight_matrix(scene, views, LiftConfig(lam=1.2)), views


def test_weight_matrix_roundtrip_bit_exact(tmp_path, small_matrix):
    A, views = small_matrix
    path = tmp_path / "field.flt.A"
    formats.write_weight_matrix(path, A, KEY)
    assert [p.name for p in tmp_path.iterdir()] == ["field.flt.A"]  # no temporary left
    assert path.stat().st_size == WMX_HEADER + 4 * (A.rows + 1) + 12 * A.nnz
    back = formats.read_weight_matrix(path, KEY, views, A.cols, 1.2)
    for name in ("indptr", "indices", "weights"):
        assert getattr(back, name).tobytes() == getattr(A, name).tobytes()
    assert back.indptr.dtype == back.indices.dtype == np.int32
    assert back.cols == A.cols and back.view_ranges == A.view_ranges


def test_weight_matrix_key_mismatch_reads_no_payload(tmp_path, small_matrix):
    A, views = small_matrix
    path = tmp_path / "field.flt.A"
    formats.write_weight_matrix(path, A, KEY)
    path.write_bytes(path.read_bytes()[:WMX_HEADER])  # a payload read would fail
    assert formats.read_weight_matrix(path, bytes(32), views, A.cols, 1.2) is None
    with pytest.raises(FormatError, match="truncated"):
        formats.read_weight_matrix(path, KEY, views, A.cols, 1.2)
    # a file of another version is stale too, and rebuilt rather than an
    # error: version 1 (int64 indices) and any other
    blob = bytearray(path.read_bytes())
    for version in (0, 1, 3, 2**32 - 1):
        blob[4:8] = struct.pack("<I", version)
        path.write_bytes(bytes(blob))
        assert formats.read_weight_matrix(path, KEY, views, A.cols, 1.2) is None


@pytest.mark.parametrize("field, value, message", [
    (0, 127, "128 pixels"), (0, 192, "128 pixels"), (1, 4, "3 primitives")])
def test_weight_matrix_sizes_must_match_the_inputs(tmp_path, small_matrix, field, value,
                                                   message):
    A, views = small_matrix
    path = tmp_path / "field.flt.A"
    formats.write_weight_matrix(path, A, KEY)
    blob = bytearray(path.read_bytes())
    blob[40 + 8 * field:48 + 8 * field] = struct.pack("<Q", value)
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match=message):
        formats.read_weight_matrix(path, KEY, views, A.cols, 1.2)


def test_weight_matrix_rows_must_match_the_cameras(tmp_path, small_matrix):
    A, views = small_matrix
    path = tmp_path / "field.flt.A"
    formats.write_weight_matrix(path, A, KEY)
    with pytest.raises(FormatError, match="64 pixels"):
        formats.read_weight_matrix(path, KEY, views[:1], A.cols, 1.2)


def test_weight_matrix_oversized_nnz_allocates_nothing(tmp_path, small_matrix):
    A, views = small_matrix
    path = tmp_path / "field.flt.A"
    formats.write_weight_matrix(path, A, KEY)
    blob = bytearray(path.read_bytes())
    blob[56:64] = struct.pack("<Q", 2**31 - 1)
    path.write_bytes(bytes(blob))
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="truncated while reading indices"):
            formats.read_weight_matrix(path, KEY, views, A.cols, 1.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("nnz", [2**31, 2**32 + 5, 2**60])
def test_weight_matrix_nnz_past_int32_is_refused_before_any_read(tmp_path, nnz):
    # a file that held these entries would pass the truncation check; the
    # header alone is refused
    path = tmp_path / "huge.A"
    path.write_bytes(formats.MATRIX_MAGIC + struct.pack("<I32s3Q", 2, KEY, 4096 * 4096, 3, nnz))
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match=f"{nnz} entries exceed the int32 indices"):
            formats.read_weight_matrix(path, KEY, [HUGE_VIEW], 3, 1.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("blob, reader", [
    (formats.FEATURE_MAGIC + struct.pack("<4I", 2, 1, 1, 1) + bytes(4),
     formats.read_feature_tensor),
    (formats.LABEL_MAGIC + struct.pack("<3I", 2, 1, 1) + bytes(4), formats.read_label_map),
], ids=["flt", "lbl"])
def test_other_containers_refuse_another_version(tmp_path, blob, reader):
    # unlike a stale weight matrix, these files are inputs and outputs
    path = tmp_path / "f.bin"
    path.write_bytes(blob)
    with pytest.raises(FormatError, match="unsupported version 2"):
        reader(path)


def test_weight_matrix_key_has_32_bytes(tmp_path, small_matrix):
    with pytest.raises(InvalidInputError, match="32 bytes"):
        formats.write_weight_matrix(tmp_path / "f.A", small_matrix[0], b"short")
    assert not list(tmp_path.iterdir())


# -- the four containers' writers -----------------------------------------------------

TINY_MATRIX = WeightMatrix([0, 2, 2, 3], [1, 0, 1], [0.25, 0.5, 1.0], 2, {"v": (0, 3)}, 1.2)

# each writer on a tiny input, and the file's bytes packed by hand in the
# README's layout
CONTAINERS = {
    "flt": (lambda path: formats.write_feature_tensor(path, [[[1.5, -2.0]], [[0.0, 4.0]]]),
            b"FLT1" + struct.pack("<4I", 1, 2, 1, 2) + struct.pack("<4f", 1.5, -2.0, 0.0, 4.0)),
    "lbl": (lambda path: formats.write_label_map(path, [[-1, 0, 3]]),
            b"LBL1" + struct.pack("<3I", 1, 1, 3) + struct.pack("<3i", -1, 0, 3)),
    "lft": (lambda path: formats.write_label_features(path, {7: [0.5, 1.0], 2: [-1.0, 2.5]}),
            b"LFT1" + struct.pack("<2I", 2, 2) + struct.pack("<i2f", 2, -1.0, 2.5)
            + struct.pack("<i2f", 7, 0.5, 1.0)),
    "wmx": (lambda path: formats.write_weight_matrix(path, TINY_MATRIX, KEY),
            b"WMX1" + struct.pack("<I", 2) + KEY + struct.pack("<3Q", 3, 2, 3)
            + struct.pack("<4i", 0, 2, 2, 3) + struct.pack("<3i", 1, 0, 1)
            + struct.pack("<3d", 0.25, 0.5, 1.0)),
}


@pytest.mark.parametrize("kind", sorted(CONTAINERS))
def test_container_writer_bytes_and_atomic_replacement(tmp_path, monkeypatch, kind):
    write, expected = CONTAINERS[kind]
    path = tmp_path / f"out.{kind}"
    write(path)
    assert path.read_bytes() == expected
    assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def fail(src, dst):
        raise OSError("rename refused")
    monkeypatch.setattr(formats.os, "replace", fail)
    path.write_bytes(b"old")
    with pytest.raises(OSError, match="rename refused"):
        write(path)
    assert path.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


# -- malformed and corrupted headers ---------------------------------------------------

VERTEX_HEADER = "".join(f"property float {name}\n" for name in (
    "x", "y", "z", "opacity", "scale_0", "scale_1", "scale_2",
    "rot_0", "rot_1", "rot_2", "rot_3"))
VERTEX_ROW = np.array([[0, 0, 1, 2.0, -1, -1, -1, 1, 0, 0, 0]], dtype="<f4").tobytes()


@pytest.mark.parametrize("name, blob, reader", [
    # another element before the vertex element: its bytes were read as vertices
    ("s.ply", ("ply\nformat binary_little_endian 1.0\nelement material 1\n"
               "property float shininess\nelement vertex 1\n" + VERTEX_HEADER
               + "end_header\n").encode() + struct.pack("<f", 7.0) + VERTEX_ROW,
     formats.read_splat_ply),
    ("m.pgm", b"P5\nab 2\n255\n" + bytes(4), formats.read_pgm),
    ("m.pgm", b"P5\n-1 -1\n255\n" + bytes(4), formats.read_pgm),
    ("cams.txt", "v0 4 4 1.0 1.0 2.0 2.0 ".encode() + b"\xe9" + b" 0" * 16 + b"\n",
     formats.read_cameras),
], ids=["ply-element-before-vertex", "pgm-letter-size", "pgm-negative-size",
        "cameras-non-ascii"])
def test_malformed_header_is_format_error(tmp_path, name, blob, reader):
    path = tmp_path / name
    path.write_bytes(blob)
    with pytest.raises(FormatError):
        reader(path)


def test_ply_elements_after_vertex_are_ignored(tmp_path):
    path = tmp_path / "s.ply"
    path.write_bytes(("ply\nformat binary_little_endian 1.0\nelement vertex 1\n" + VERTEX_HEADER
                      + "element material 1\nproperty float shininess\nend_header\n").encode()
                     + VERTEX_ROW + struct.pack("<f", 7.0))
    assert formats.read_splat_ply(path).thetas.tolist() == [2.0]


@pytest.fixture(scope="module")
def sample_files(tmp_path_factory, small_matrix):
    """A small valid file per reader: (reader, bytes, length of its header)."""
    root = tmp_path_factory.mktemp("samples")
    A, matrix_views = small_matrix
    formats.write_weight_matrix(root / "f.A", A, KEY)
    scene, views, _ = make_scene(two_blob_spec(noise_fraction=0.0, resolution=8, views=2))
    scene = SplatScene(scene.positions[:3], scene.log_scales[:3], scene.rotations[:3],
                       scene.thetas[:3], scene.kernels[:3])
    rng = np.random.default_rng(0)
    formats.write_feature_tensor(root / "t.flt", rng.normal(size=(2, 3, 2)))
    formats.write_label_map(root / "m.lbl", np.array([[0, 1, -1], [1, 1, 0]]))
    formats.write_label_features(root / "m.lft", {0: rng.normal(size=3), 1: rng.normal(size=3)})
    formats.write_splat_ply(root / "s.ply", scene)
    formats.write_pgm(root / "i.pgm", np.arange(12, dtype=np.uint8).reshape(3, 4))
    formats.write_cameras(root / "cams.txt", views)
    ply = (root / "s.ply").read_bytes()
    pgm = (root / "i.pgm").read_bytes()
    cams = (root / "cams.txt").read_bytes()
    return {
        "flt": (formats.read_feature_tensor, (root / "t.flt").read_bytes(), 20),
        "lbl": (formats.read_label_map, (root / "m.lbl").read_bytes(), 16),
        "lft": (formats.read_label_features, (root / "m.lft").read_bytes(), 12),
        "ply": (formats.read_splat_ply, ply, ply.index(b"end_header\n") + 11),
        "pgm": (formats.read_pgm, pgm, pgm.index(b"255\n") + 4),
        "cameras": (formats.read_cameras, cams, len(cams)),
        "wmx": (lambda path: formats.read_weight_matrix(path, KEY, matrix_views, A.cols, 1.2),
                (root / "f.A").read_bytes(), WMX_HEADER),
    }


@settings(max_examples=400, deadline=None)
@given(kind=st.sampled_from(["flt", "lbl", "lft", "ply", "pgm", "cameras", "wmx"]),
       data=st.data())
def test_corrupted_files_raise_only_format_error(tmp_path_factory, sample_files, kind, data):
    reader, original, header_len = sample_files[kind]
    if data.draw(st.booleans(), label="truncate"):
        blob = original[:data.draw(st.integers(0, len(original) - 1), label="keep")]
    else:
        edits = data.draw(st.lists(st.tuples(st.integers(0, header_len - 1),
                                             st.integers(0, 255)), min_size=1, max_size=4),
                          label="overwrites")
        blob = bytearray(original)
        for pos, value in edits:
            blob[pos] = value
    path = tmp_path_factory.getbasetemp() / f"fuzz_{kind}"
    path.write_bytes(bytes(blob))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            if reader(path) is None:
                # a weight matrix of another version or key is stale and
                # rebuilt, so only those header bytes may make it so
                assert kind == "wmx" and blob[4:40] != original[4:40]
        except FormatError:
            pass
        except InvalidInputError as exc:
            # a camera line whose edited values still parse but describe no
            # camera is invalid input, named by its line
            if kind != "cameras" or f"fuzz_{kind}:" not in str(exc):
                raise
