"""Desk-scale multi-temporal vision-language pipeline.

A from-scratch float64 autograd core under a small instruction-tuned
model: patch encoder, dual-time change extraction, visual token packing,
prompt templates with generated clues, two-stage training, and the
evaluation metrics for VQA, change captioning, and video classification.
"""

from .autograd import ParameterSet, Tensor
from .errors import (ConfigurationError, ContractError, DivergenceError,
                     SequenceLengthError, ShapeError)
from .pipeline import MultiTemporalModel, PipelineConfig, build_vocab
from .training import TrainConfig, lr_at, pretrain_change_module, train_joint

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError", "ContractError", "DivergenceError",
    "MultiTemporalModel", "ParameterSet", "PipelineConfig",
    "SequenceLengthError", "ShapeError", "Tensor", "TrainConfig",
    "build_vocab", "lr_at", "pretrain_change_module", "train_joint",
    "__version__",
]
