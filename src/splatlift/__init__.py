"""Feature lifting onto splat scenes as a sparse row-stochastic inverse problem."""

from .model import (
    CameraView,
    InvalidInputError,
    KernelKind,
    LiftConfig,
    SplatScene,
    polarized_opacities,
)
from .rasterize import (
    WeightMatrix,
    build_weight_matrix,
    render,
    render_labels,
)
from .solver import (
    BoundReport,
    FeatureField,
    ObservationSet,
    beta,
    bound_report,
    lift_rowsum,
    lift_streaming,
    loss_surrogate,
    loss_true,
    lsq_oracle,
)
from .aggregate import (
    ClusterAssignment,
    ClusterParams,
    cluster_features,
    filter_observations,
    iou,
)
from .query import (
    AttentionMap,
    QueryEmbedding,
    ValleyNotFoundError,
    attention_scores,
    auto_threshold,
    eval_cosine,
    render_attention,
    segment,
)

__version__ = "0.1.0"
