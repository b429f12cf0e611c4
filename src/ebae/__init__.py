"""Analogy-based software effort estimation with adjusted analogies,
random-guessing baselines, Scott-Knott / Borda ranking, and automated
ensembles of the best-performing variants."""

from .adjust import METHODS, VariantId, enumerate_variants
from .config import Config
from .data import Dataset, describe, load_dataset, write_dataset
from .ensemble import EnsembleSpec, run_pipeline
from .metrics import BaselineStats, EvalSummary, PredictionTable, baseline, summarize
from .ranking import PreferenceProfile, borda_rank
from .stats import box_cox, ks_normality, scott_knott, scott_knott_two_way
from .validation import loocv

__version__ = "0.1.0"

__all__ = [
    "BaselineStats",
    "Config",
    "Dataset",
    "EnsembleSpec",
    "EvalSummary",
    "METHODS",
    "PredictionTable",
    "PreferenceProfile",
    "VariantId",
    "baseline",
    "borda_rank",
    "box_cox",
    "describe",
    "enumerate_variants",
    "ks_normality",
    "load_dataset",
    "loocv",
    "run_pipeline",
    "scott_knott",
    "scott_knott_two_way",
    "summarize",
    "write_dataset",
]
