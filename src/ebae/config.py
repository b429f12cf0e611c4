"""Run configuration shared by the estimators, the LOOCV harness, and the CLI."""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, replace


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
    k_max: int = 5            # analogies grid is k = 1..k_max per method
    # LOOCV worker processes, by default one per usable core; results are
    # identical for any value, and jobs=1 runs in this process alone
    jobs: int = field(default_factory=usable_cores)
    nn_epochs: int = 500
    ga_pop: int = 50
    ga_gens: int = 100

    def __post_init__(self):
        for name, low in _MINIMA.items():
            value = getattr(self, name)
            if not value >= low:
                raise ValueError(f"bad value for {_key(name)}: {value!r} (must be >= {low})")


def _key(name):
    """The settings key of a Config field: a learner field's prefix ends in
    a dot (``nn_epochs`` -> ``nn.epochs``)."""
    return name.replace("_", ".", 1) if name[:3] in ("nn_", "ga_") else name


# Flat override keys accepted by the CLI (--set key=value) -> field; every field is an int.
_KEYS = {_key(f.name): f.name for f in fields(Config)}

# Smallest value of each field with which a run can go: the baseline needs 100
# Monte-Carlo runs, LOOCV one worker and the estimators the rest.
_MINIMA = {"runs": 100, "k_max": 1, "jobs": 1, "ga_pop": 1, "nn_epochs": 0, "ga_gens": 0}


def with_overrides(config: Config, pairs: dict[str, str]) -> Config:
    """Apply flat ``key=value`` overrides; unknown keys raise ValueError."""
    updates = {}
    for key, raw in pairs.items():
        if key not in _KEYS:
            raise ValueError(f"unknown config key {key!r} (known: {', '.join(sorted(_KEYS))})")
        try:
            updates[_KEYS[key]] = int(raw)
        except ValueError as exc:
            raise ValueError(f"bad value for {key}: {raw!r}") from exc
    return replace(config, **updates)
