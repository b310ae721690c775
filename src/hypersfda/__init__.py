"""Source-free domain adaptation on embedding datasets.

Adapts a small source-pretrained classifier to an unlabeled target set by
building a hypergraph over target samples (KNN hyperedges with
reconstruction affinities and entropy self-loops), clustering samples by
their relation-matrix rows, and fine-tuning with an adaptive pull/push
objective plus an EMA-KL regularizer.
"""

__version__ = "0.1.0"

from .config import AdaptConfig, ConfigError
from .datagen import (
    DatasetFormatError,
    EmbeddingDataset,
    ShiftSpec,
    gen_gaussian_domains,
    gen_two_moons_domains,
    load_dataset,
    save_dataset,
)
from .hypergraph import (
    HypergraphArtifacts,
    RelationMatrix,
    build_artifacts,
    build_hyperedges,
    build_relation_matrix,
    cluster_high_order,
    cosine_knn,
    merge_self_loops,
    normalized_entropy,
    self_loop_affinities,
)
from .model import (
    AdaptModel,
    CheckpointError,
    GradientSet,
    accuracy,
    backward,
    forward,
    init_model,
    load_model,
    pretrain_source,
    save_model,
    sgd_step,
)
from .objective import EmaState, lambda_schedule
from .trainer import (
    MemoryBank,
    MetricsRecord,
    TrainerState,
    TrainingAborted,
    adapt,
    evaluate,
    load_checkpoint,
    open_set_split,
    refresh_hypergraph,
    save_checkpoint,
)

__all__ = [
    "AdaptConfig",
    "AdaptModel",
    "CheckpointError",
    "ConfigError",
    "DatasetFormatError",
    "EmaState",
    "EmbeddingDataset",
    "GradientSet",
    "HypergraphArtifacts",
    "MemoryBank",
    "MetricsRecord",
    "RelationMatrix",
    "ShiftSpec",
    "TrainerState",
    "TrainingAborted",
    "accuracy",
    "adapt",
    "backward",
    "build_artifacts",
    "build_hyperedges",
    "build_relation_matrix",
    "cluster_high_order",
    "cosine_knn",
    "evaluate",
    "forward",
    "gen_gaussian_domains",
    "gen_two_moons_domains",
    "init_model",
    "lambda_schedule",
    "load_checkpoint",
    "load_dataset",
    "load_model",
    "merge_self_loops",
    "normalized_entropy",
    "open_set_split",
    "pretrain_source",
    "refresh_hypergraph",
    "save_checkpoint",
    "save_dataset",
    "save_model",
    "self_loop_affinities",
    "sgd_step",
]
