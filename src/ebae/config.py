"""Run configuration shared by the estimators, the LOOCV harness, and the CLI."""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace


def usable_cores():
    """Cores this process may run on: its CPU affinity where the platform
    reports one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class Config:
    seed: int = 42
    runs: int = 1000          # Monte-Carlo runs for the random-guessing baseline
    alpha: float = 0.05       # significance level for Scott-Knott clustering
    k_max: int = 5            # analogies grid is k = 1..k_max per method
    # LOOCV worker processes, by default one per usable core; results are
    # identical for any value, and jobs=1 runs in this process alone
    jobs: int = field(default_factory=usable_cores)
    mt_min_leaf: int = 4
    mt_max_depth: int = 6
    nn_hidden: int = 4
    nn_epochs: int = 500
    nn_lr: float = 0.01
    ga_pop: int = 50
    ga_gens: int = 100
    ga_cx: float = 0.8
    ga_mut: float = 0.1
    ga_range: float = 5.0     # weights are searched in [-ga_range, ga_range]

    def __post_init__(self):
        for key, low in _MINIMA.items():
            value = getattr(self, _KEYS[key][0])
            if not value >= low:
                raise ValueError(f"bad value for {key}: {value!r} (must be >= {low})")
        # Scott-Knott keeps a cut when the incomplete-gamma chi-square CDF
        # P(g/(2(pi-2)), lambda*/2), which lies in [0, 1], exceeds 1 - alpha:
        # at alpha <= 0 (or NaN) no cut is ever kept, at alpha >= 1 every cut with
        # lambda* > 0 is
        if not 0 < self.alpha < 1:
            raise ValueError(f"bad value for alpha: {self.alpha!r} (must be within (0, 1))")
        # crossover and mutation rates are probabilities; a step of nn.lr <= 0
        # does not descend the training loss
        for key in ("ga.cx", "ga.mut"):
            value = getattr(self, _KEYS[key][0])
            if not 0 <= value <= 1:
                raise ValueError(f"bad value for {key}: {value!r} (must be within [0, 1])")
        if not self.nn_lr > 0:
            raise ValueError(f"bad value for nn.lr: {self.nn_lr!r} (must be > 0)")


# Flat override keys accepted by the CLI (--set key=value).
_KEYS = {
    "seed": ("seed", int),
    "runs": ("runs", int),
    "alpha": ("alpha", float),
    "k_max": ("k_max", int),
    "jobs": ("jobs", int),
    "mt.min_leaf": ("mt_min_leaf", int),
    "mt.max_depth": ("mt_max_depth", int),
    "nn.hidden": ("nn_hidden", int),
    "nn.epochs": ("nn_epochs", int),
    "nn.lr": ("nn_lr", float),
    "ga.pop": ("ga_pop", int),
    "ga.gens": ("ga_gens", int),
    "ga.cx": ("ga_cx", float),
    "ga.mut": ("ga_mut", float),
    "ga.range": ("ga_range", float),
}

# Smallest value of each key with which a run can go: the baseline needs 100
# Monte-Carlo runs, LOOCV one worker and the estimators the rest.
_MINIMA = {"runs": 100, "k_max": 1, "jobs": 1, "mt.min_leaf": 1, "ga.pop": 1, "nn.hidden": 0,
           "ga.range": 0, "nn.epochs": 0, "ga.gens": 0}


def with_overrides(config: Config, pairs: dict[str, str]) -> Config:
    """Apply flat ``key=value`` overrides; unknown keys raise ValueError."""
    updates = {}
    for key, raw in pairs.items():
        if key not in _KEYS:
            raise ValueError(f"unknown config key {key!r} (known: {', '.join(sorted(_KEYS))})")
        field, cast = _KEYS[key]
        try:
            updates[field] = cast(raw)
        except ValueError as exc:
            raise ValueError(f"bad value for {key}: {raw!r}") from exc
    return replace(config, **updates)
