"""What ``ebae`` exports, and what it needs at run time.

The package depends on numpy alone; scipy is a test extra that only the
tests' oracles import.
"""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import ebae

from .conftest import DATASETS
from .test_cli import REPORT_FILES

# wrappers that only tests called, deleted in favour of the calls they combined,
# and the pair builder whose pairs each LOOCV fold now cuts from its difference table
DELETED = [
    ("ebae.learners", "build_diff_pairs"),
    ("ebae", "evaluate_variant"),
    ("ebae", "majority_margins"),
    ("ebae.validation", "evaluate_variant"),
    ("ebae.validation", "_fitted"),
    ("ebae.learners", "fit_model_tree"),
    ("ebae.stats", "box_cox_transform"),
    ("ebae.ranking", "majority_margins"),
    ("ebae.metrics", "lsd"),
]


def test_every_export_resolves():
    assert len(set(ebae.__all__)) == len(ebae.__all__)
    missing = [name for name in ebae.__all__ if not hasattr(ebae, name)]
    assert missing == []


def test_deleted_names_stay_deleted():
    present = [f"{module}.{name}" for module, name in DELETED if hasattr(importlib.import_module(module), name)]
    assert present == []
    assert list(inspect.signature(ebae.load_dataset).parameters) == ["data_path", "schema_path"]


def test_pipeline_runs_without_scipy(tmp_path):
    # a None entry in sys.modules makes every ``import scipy`` fail
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "from ebae.cli import main\n"
            "status = main(sys.argv[1:])\n"
            "print(sorted(m for m, module in sys.modules.items() if m.split('.')[0] == 'scipy' and module))\n"
            "raise SystemExit(status)\n")
    out = tmp_path / "report"
    src = str(Path(ebae.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-c", code, "pipeline", "--data", str(DATASETS / "toy.csv"),
         "--schema", str(DATASETS / "toy.schema"), "--set", "runs=100", "--set", "ga.pop=4", "--set", "ga.gens=2",
         "--set", "nn.epochs=5", "--set", "jobs=1", "--out", str(out)],
        env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"
    assert [name for name in REPORT_FILES if not (out / name).is_file()] == []
