"""Call counts and inclusive wall time for ebae's layer entry points.

The tracer replaces a function at the name its caller looks it up, e.g.
``ebae.validation.fit_ga_weights`` rather than ``ebae.learners.fit_ga_weights``,
because ebae's modules import functions by name. Each wrapper calls the
original object it replaced, so a function patched at two lookup sites is
still counted once per call. A name that no longer exists is recorded as
absent instead of failing the run.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.last_end = {}
        self.absent = []
        self._patched = []

    def wrap(self, module_name, attr, key):
        """Patch ``module_name.attr`` (``attr`` may be ``Class.method``).

        ``key`` names the counter; a callable gets the call's positional
        arguments and returns the name.
        """
        owner = importlib.import_module(module_name)
        *path, name = attr.split(".")
        try:
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, name)
        except AttributeError:
            self.absent.append(f"{module_name}.{attr}")
            return

        def traced(*args, **kwargs):
            label = key(args) if callable(key) else key
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = perf_counter()
                self.calls[label] += 1
                self.seconds[label] += end - start
                self.last_end[label] = end

        setattr(owner, name, traced)
        self._patched.append((owner, name, original))

    def restore(self):
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    @contextmanager
    def installed(self, sites):
        """Patch every (module, attr, key) site for the duration of the block."""
        try:
            for site in sites:
                self.wrap(*site)
            yield self
        finally:
            self.restore()


ADJUSTERS = ("adjust_eba", "adjust_lse", "adjust_mlfe", "adjust_rtm",
             "adjust_aqua", "adjust_mt", "adjust_ga", "adjust_nn")

# (module where the caller looks the name up, attribute, counter name)
SITES = (
    ("ebae.data", "Dataset.without", "data.without"),
    ("ebae.validation", "retrieve", "analogy.retrieve"),
    # nearest_within (learners, adjust) reaches knn_within through ebae.analogy.
    ("ebae.analogy", "knn_within", "analogy.knn_within"),
    ("ebae.learners", "knn_within", "analogy.knn_within"),
    ("ebae.validation", "fit_ga_weights", "learners.ga_fit"),
    ("ebae.learners", "ga_design", "learners.ga_design"),
    ("ebae.validation", "fit_network", "learners.nn_fit"),
    ("ebae.validation", "fit_model_tree", "learners.mt_fit"),
    ("ebae.validation", "build_diff_pairs", "learners.diff_pairs"),
    *(("ebae.adjust", name, "adjust") for name in ADJUSTERS),
    ("ebae.adjust", "productivity_correlation", "adjust.rtm_corr"),
    ("ebae.ensemble", "loocv", lambda args: f"validation.loocv.{args[1].method}"),
    ("ebae.ensemble", "dataset_baseline", "validation.baseline"),
    ("ebae.ensemble", "summarize", "metrics.summarize"),
    ("ebae.validation", "build_table", "metrics.build_table"),
    ("ebae.ensemble", "build_table", "metrics.build_table"),
    ("ebae.ensemble", "box_cox", "stats.box_cox"),
    ("ebae.ensemble", "scott_knott", "stats.scott_knott"),
    ("ebae.ensemble", "scott_knott_two_way", "stats.two_way"),
    ("ebae.ensemble", "borda_rank", "ranking.borda"),
    ("ebae.ensemble", "ensemble_table", "ensemble.ensemble_table"),
)
