import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from splatlift import formats
from splatlift.formats import FormatError
from splatlift.model import InvalidInputError, KernelKind, SplatScene, SplatPrimitive
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


@pytest.mark.parametrize("header, reader", [
    (formats.FEATURE_MAGIC + struct.pack("<4I", 1, 2**32 - 1, 2**32 - 1, 2**32 - 1),
     formats.read_feature_tensor),
    (formats.LABEL_MAGIC + struct.pack("<3I", 1, 2**32 - 1, 2**32 - 1),
     formats.read_label_map),
])
def test_oversized_header_is_format_error(tmp_path, header, reader):
    # the header asks for far more payload than the file holds; nothing is allocated
    path = tmp_path / "huge.bin"
    path.write_bytes(header)
    with pytest.raises(FormatError, match="truncated"):
        reader(path)


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


def test_validate_label_pair():
    labels = np.array([[0, 2]], dtype=np.int32)
    formats.validate_label_pair(labels, {0: 1, 2: 1})
    with pytest.raises(FormatError, match="missing"):
        formats.validate_label_pair(labels, {0: 1})


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
    scene = SplatScene([SplatPrimitive([0, 0, 1], [0, 0, 0], [1, 0, 0, 0], 2.0)])
    path = tmp_path / "s.ply"
    formats.write_splat_ply(path, scene)
    back = formats.read_splat_ply(path, kernel=KernelKind.GAUSSIAN_2D)
    assert np.all(back.kernels == int(KernelKind.GAUSSIAN_2D))


def test_splat_ply_warns_on_activated_opacities(tmp_path):
    scene = SplatScene([SplatPrimitive([0, 0, 1], [0, 0, 0], [1, 0, 0, 0], 0.37)])
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
    path = tmp_path / "cams.txt"
    nums = "4 4 -1.0 1.0 2.0 2.0 " + " ".join(str(float(x)) for x in np.eye(4).ravel())
    path.write_text("v0 " + nums + "\n")
    with pytest.raises(FormatError, match="focal"):
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
