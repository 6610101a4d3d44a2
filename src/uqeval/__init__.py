"""Aggregate stochastic classifier predictions and evaluate their uncertainty."""

__version__ = "0.1.0"

from .aggregate import (
    ENSEMBLE,
    MCD,
    AggregationScheme,
    Summaries,
    aggregate,
    emcd_scheme,
    load_summaries,
    save_summaries,
)
from .calibration import (
    CalibrationBin,
    CalibrationReport,
    calibration_report,
)
from .datasets import SyntheticDataset, generate_dataset, save_dataset
from .errors import (
    AlignmentError,
    FormatError,
    TrainingDivergedError,
    UqevalError,
    ValidationError,
)
from .models import (
    EnsembleSpec,
    Mlp,
    MlpSpec,
    TrainConfig,
    emcd_predict,
    ensemble_predict,
    mc_dropout_predict,
    train_ensemble,
    train_mlp,
)
from .stats import (
    MetricDistribution,
    ModelComparison,
    PairedTestResult,
    accuracy,
    auc_binary,
    compare_models,
    paired_t_test,
    regularized_incomplete_beta,
    student_t_two_sided_p,
)
from .tensor import (
    LabelSet,
    PredictionTensor,
    aligned_labels,
    load_labels,
    load_predictions,
    save_labels,
    save_predictions,
)
from .ucm import (
    SeparationReport,
    SweepCurve,
    UncertaintyConfusion,
    build_ucm,
    separation_report,
    threshold_sweep,
)
