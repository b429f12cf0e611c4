"""Analogy-based software effort estimation with adjusted analogies,
random-guessing baselines, Scott-Knott / Borda ranking, and automated
ensembles of the best-performing variants.

``import ebae`` imports no submodule. Each name in ``__all__``, and each
submodule such as ``ebae.validation``, is imported when first used, so
loading or describing a dataset imports ``ebae.data`` alone, and the
``ebae describe`` command imports ``ebae.cli`` and ``ebae.config``
besides. ``ebae pipeline`` still imports the whole package, since it runs
every stage.
"""

from importlib import import_module

__version__ = "0.1.0"

# the submodule that defines each exported name
_SOURCE = {
    "METHODS": "adjust", "VariantId": "adjust", "enumerate_variants": "adjust",
    "Config": "config",
    "Dataset": "data", "describe": "data", "load_dataset": "data", "write_dataset": "data",
    "EnsembleSpec": "ensemble", "run_pipeline": "ensemble",
    "BaselineStats": "metrics", "EvalSummary": "metrics", "PredictionTable": "metrics",
    "baseline": "metrics", "summarize": "metrics",
    "PreferenceProfile": "ranking", "borda_rank": "ranking",
    "box_cox": "stats", "ks_normality": "stats", "scott_knott": "stats", "scott_knott_two_way": "stats",
    "loocv": "validation",
}
__all__ = sorted(_SOURCE)


def __getattr__(name):
    # called only for a name not yet in the package's globals
    if name in _SOURCE:
        value = globals()[name] = getattr(import_module(f"{__name__}.{_SOURCE[name]}"), name)
        return value
    try:
        return import_module(f"{__name__}.{name}")
    except ModuleNotFoundError as exc:
        if exc.name != f"{__name__}.{name}":
            raise
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__():
    return sorted({*globals(), *__all__})
