"""Shallow high-fanout label trees for extreme multi-label classification."""

from .data import Dataset, DataFormatError, parse_dataset
from .metrics import EvalReport, evaluate, fit_propensities
from .predict import predict_batch, predict_ensemble
from .tree import Ensemble, TrainConfig, load_model, train_ensemble

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "DataFormatError",
    "Ensemble",
    "EvalReport",
    "TrainConfig",
    "evaluate",
    "fit_propensities",
    "load_model",
    "parse_dataset",
    "predict_batch",
    "predict_ensemble",
    "train_ensemble",
    "__version__",
]
