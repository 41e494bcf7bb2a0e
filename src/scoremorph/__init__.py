"""Locally adaptive conformal prediction via trainable monotone score maps.

The library calibrates split conformal prediction intervals on transformed
squared-residual scores B = phi_x(A), where the attribute-dependent,
strictly monotone transformation phi is parameterized by a small network
and trained to shrink the average interval size while keeping the marginal
coverage guarantee intact.
"""

__version__ = "0.1.0"

from .conformal import (EvalReport, calibrate, calibration_scores, evaluate,
                        half_widths, quantile_index, scored)
from .data import (FRACTIONS, Dataset, IngestionError, NormalizationStats,
                   Split, apply_normalization, compute_stats, load_csv,
                   normalize, split, split_indices)
from .knn import DEFAULT_K_GRID, KnnModel
from .knn import fit as fit_knn
from .network import AdamState, LocalizerNet, StaleTapeError, Tape, adam_step
from .objective import (LossBatch, LossValue, erc_error_fit_loss, loss_batch,
                        pairwise_size_loss)
from .serialize import ModelBundle, load_model, save_model
from .synthetic import SynthData, SynthSpec, amplitude, generate
from .training import (CLI_FAMILIES, ProtocolAggregate, ProtocolResult,
                       ProtocolRow, TrainConfig, TrainTrace, TrainingDiverged,
                       aggregate, point_model, run_protocol, score, train)
from .transforms import TRAINABLE_KINDS, TransformFamily, make_family

__all__ = [name for name in dir() if not name.startswith("_")]
