"""chadkit: contrastive anomaly detection for heterogeneous tabular data.

A field-aware autoencoder embeds mixed categorical/continuous records into
a low-dimensional latent space; a small estimator network learns, by
contrast against generated negative samples, to score how likely a record
is under the nominal data distribution. Low scores flag anomalies.
"""

from .autoencoder import Autoencoder, FieldTransform
from .data import (
    Dataset,
    LoadReport,
    NormalizationStats,
    RecordSchema,
    apply_normalize,
    batch_iter,
    filter_rare_entities,
    fit_normalize,
    load_csv,
)
from .errors import (
    ChadkitError,
    ConfigError,
    DataError,
    MetricError,
    SchemaError,
    TrainingDiverged,
)
from .estimator import Estimator, SecondaryNoiseSpec
from .evaluate import (
    ScoredRecords,
    average_precision,
    latent_projection,
    noise_ablation,
    score_dataset,
    synth_anomalies,
    vary_anomaly_harness,
)
from .model import ChadModel, ModelConfig
from .negsampler import (
    NegSamplerConfig,
    category_probs,
    perturb_continuous,
)
from .persist import load_model, save_model
from .trainer import TrainLog, TrainSchedule, run_phase1, run_phase2, run_phase3, train

__version__ = "0.1.0"

__all__ = [
    "Autoencoder", "FieldTransform",
    "Dataset", "LoadReport", "NormalizationStats", "RecordSchema",
    "apply_normalize", "batch_iter", "filter_rare_entities", "fit_normalize",
    "load_csv",
    "ChadkitError", "ConfigError", "DataError", "MetricError", "SchemaError",
    "TrainingDiverged",
    "Estimator", "SecondaryNoiseSpec",
    "ScoredRecords", "average_precision", "latent_projection",
    "noise_ablation", "score_dataset",
    "synth_anomalies", "vary_anomaly_harness",
    "ChadModel", "ModelConfig",
    "NegSamplerConfig", "category_probs", "perturb_continuous",
    "load_model", "save_model",
    "TrainLog", "TrainSchedule", "run_phase1", "run_phase2", "run_phase3", "train",
]
