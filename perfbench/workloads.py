"""The benchmark's two workloads: their inputs, made from the workload
seed, and the CLI commands of one pass.

Sizes are kept small enough that one pass takes about 12 s on a 2-core
machine, so that a run makes several passes and the benchmark's some fifty
runs fit in an hour. The blobs keep a radius of 19 pixels and the primitive
density of scenes/two_blob_noisy.ini: at 17 pixels, or at half the density,
the filtered mIoU falls below 0.95 on some seeds, because boundary pixels
dominate small silhouettes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fileio import read_csv


@dataclass(frozen=True)
class Workload:
    name: str
    views: int
    size: int               # square views of size x size pixels
    blob_count: int         # primitives per disk before jitter and clipping
    wall_count: int
    noise_fraction: float   # share of views whose blob masks are merged
    feature_dim: int        # 4: one-hot object features; else seeded embeddings
    cluster_filter: bool    # the pass runs cluster-filter --relift and segments both fields

    @property
    def focal(self) -> float:
        return 1.05 * self.size


WORKLOADS = {w.name: w for w in (
    Workload("noisy_pipeline", views=3, size=72, blob_count=2430, wall_count=1296,
             noise_fraction=0.2, feature_dim=4, cluster_filter=True),
    # No merged masks and no clustering: cluster-filter in 512-D took 22 s of
    # a 33 s pass, too long for a run to hold several passes.
    Workload("wide_embed", views=3, size=72, blob_count=2430, wall_count=1296,
             noise_fraction=0.0, feature_dim=512, cluster_filter=False),
)}

OBJECTS = (  # name, shape, center, extent, scale factor; as scenes/two_blob_noisy.ini
    ("blob_a", "disk", "-1.12 0.0 4.0", 1.0, 0.65),
    ("blob_b", "disk", "1.12 0.0 4.0", 1.0, 0.65),
    ("wall", "wall", "0.0 0.0 6.0", 6.5, 1.4),
)
QUERIES = tuple(name for name, *_ in OBJECTS)


def object_features(w: Workload, seed: int) -> np.ndarray:
    if w.feature_dim == 4:
        return np.eye(4)[:3]
    # Orthonormal, as the one-hot features are: with merely random unit
    # vectors the objects' small cross-cosines split the attention histogram
    # into extra modes, and auto thresholding picks the wrong valley.
    rng = np.random.default_rng([seed, 1])
    q, _ = np.linalg.qr(rng.normal(size=(w.feature_dim, len(OBJECTS))))
    return q.T.copy()


def spec_seed(w: Workload, seed: int) -> int:
    """Scene seed for a workload seed.

    synth merges the blob masks in one view drawn with
    default_rng(scene seed + 1), as synthbench.make_observations does. The
    scene seed is the first from seed * 1000 on whose draw is the middle
    view: which view is merged changes the clustering's eps-neighbour graph,
    and with it the peak memory by up to 70 %, from seed to seed. The middle
    view is the costly case.
    """
    if int(round(w.noise_fraction * w.views)) != 1:
        return seed
    candidate = seed * 1000
    while np.random.default_rng(candidate + 1).choice(w.views, size=1)[0] != w.views // 2:
        candidate += 1
    return candidate


def spec_text(w: Workload, seed: int) -> str:
    feats = object_features(w, seed)
    lines = ["[scene]", f"seed = {spec_seed(w, seed)}", "kernel = gaussian3d", "",
             "[views]", f"count = {w.views}", f"width = {w.size}", f"height = {w.size}",
             f"focal = {w.focal!r}", "radius = 4.0", "height_offset = 0.0",
             "span_degrees = 24.0", "target = 0.0 0.0 4.0", ""]
    if w.noise_fraction:
        lines += ["[noise]", f"fraction = {w.noise_fraction!r}", "merge = blob_a+blob_b", ""]
    for (name, shape, center, extent, scale), feat in zip(OBJECTS, feats):
        count = w.wall_count if shape == "wall" else w.blob_count
        lines += [f"[object:{name}]", f"shape = {shape}", f"count = {count}",
                  "theta = 9.0 11.0", "feature = " + " ".join(repr(float(v)) for v in feat),
                  f"center = {center}", f"extent = {extent!r}",
                  f"scale_factor = {scale!r}", ""]
    return "\n".join(lines)


def synth_command(fix: Path) -> list[str]:
    return ["synth", "--spec", str(fix.parent / "spec.ini"), "--out", str(fix)]


def setup_inputs(w: Workload, seed: int, fix: Path, cli_main) -> None:
    """Spec and synth fixture under fix/."""
    fix.parent.mkdir(parents=True, exist_ok=True)
    (fix.parent / "spec.ini").write_text(spec_text(w, seed))
    if cli_main(synth_command(fix)) != 0:
        raise RuntimeError("synth failed")
    merged = {r[0] for r in read_csv(fix / "tags.csv")[1:] if r[2] == "merged"}
    if w.noise_fraction and merged != {f"view_{w.views // 2:03d}"}:
        raise RuntimeError(f"synth merged masks in {sorted(merged)}, not the middle view; "
                           "spec_seed no longer matches synth's choice")


def pass_commands(w: Workload, fix: Path, out: Path) -> list[tuple[str, list[str]]]:
    """(label, argv) of every timed command of one pass, in order."""
    geo = ["--scene", str(fix / "scene.ply"), "--cameras", str(fix / "cameras.txt")]
    feats = str(fix / "features")
    field = str(out / "field.flt")
    cmds = [
        ("lift", ["lift", *geo, "--features", feats, "--lambda", "1.2", "--matrix",
                  "--render-views", str(out / "rendered"), "--out", field]),
        ("lift_streaming", ["lift", *geo, "--features", feats, "--lambda", "1.2",
                            "--streaming", "--out", str(out / "streamed.flt")]),
        ("eval_rendered", ["eval", "--rendered", str(out / "rendered"), "--gt", feats,
                           "--out", str(out / "cosine.csv")]),
    ]
    fields = {"raw": field}
    if w.cluster_filter:
        cmds.append(("cluster_filter", ["cluster-filter", "--field", field, *geo,
                                         "--labels", feats, "--tau", "0.6", "--relift",
                                         "--out", str(out / "filtered")]))
        fields["filt"] = str(out / "filtered" / "field.flt")
    for tag, fld in fields.items():
        for query in QUERIES:
            cmds.append(("segment", ["segment", "--field", fld, *geo,
                                     "--query", str(fix / "queries" / f"{query}.flt"),
                                     "--threshold", "auto",
                                     "--out", str(out / f"seg_{tag}")]))
        cmds.append((f"eval_{tag}", ["eval", "--pred", str(out / f"seg_{tag}"),
                                     "--gt", str(fix / "gt"),
                                     "--out", str(out / f"miou_{tag}.csv")]))
    return cmds
