"""What ``ebae`` exports, and what it needs at run time.

The package depends on numpy alone; scipy is a test extra that only the
tests' oracles import. ``import ebae`` imports no submodule until one of its
names is used; the tests of that run in new interpreters, because in this
one every submodule has long been imported.
"""

import importlib
import inspect
import subprocess
import sys

import pytest

import ebae

from .conftest import DATASETS, src_env
from .test_cli import REPORT_FILES

# wrappers that only tests called, deleted in favour of the calls they combined,
# the pair builder whose pairs each LOOCV fold now cuts from its difference table,
# the split search's square limit, which the load-time bound on values makes moot,
# the held-out project's own search, which the fold's one ranking replaces,
# and the one stack width of every learner with its chunk planner, which a
# budget per learner and `validation._spans` replace
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
    ("ebae.learners", "_SQUARE_LIMIT"),
    ("ebae.learners", "HIDDEN_BLOCK"),
    ("ebae.learners", "padded_hidden"),
    ("ebae.learners", "_FITNESS_LIMIT"),
    ("ebae.adjust", "Inapplicable"),
    ("ebae.analogy", "retrieve"),
    ("ebae.analogy", "pool_distances"),
    ("ebae.validation", "STACK_FLOATS"),
    ("ebae.validation", "_chunk_starts"),
]


def test_every_export_resolves():
    assert len(set(ebae.__all__)) == len(ebae.__all__)
    missing = [name for name in ebae.__all__ if not hasattr(ebae, name)]
    assert missing == []


MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'ebae')"
ALBRECHT = (str(DATASETS / "albrecht.csv"), str(DATASETS / "albrecht.schema"))


@pytest.mark.parametrize("code, printed", [
    pytest.param(f"import sys, ebae\nprint({MODULES})\nebae.load_dataset(*{ALBRECHT!r})\nprint({MODULES})",
                 "['ebae']\n['ebae', 'ebae.data']", id="load-imports-data-alone"),
    pytest.param("import ebae\nprint(sorted(set(ebae.__all__) - set(dir(ebae))))", "[]", id="dir-lists-all"),
    pytest.param("import ebae\nprint([name for name in ebae.__all__ if not hasattr(ebae, name)])",
                 "[]", id="every-export-resolves"),
    pytest.param("import ebae\nprint(ebae.validation.dataset_baseline.__module__)",
                 "ebae.validation", id="submodule-attribute"),
    pytest.param("from ebae import *\nimport ebae\n"
                 "print([name for name in ebae.__all__ if globals().get(name) is not getattr(ebae, name)])",
                 "[]", id="star-import"),
    pytest.param("import ebae\nprint([hasattr(ebae, name) for name in ('evaluate_variant', 'majority_margins', 'nope')])",
                 "[False, False, False]", id="unknown-name"),
])
def test_fresh_interpreter_imports_each_submodule_on_first_use(code, printed):
    out = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True, text=True, check=True)
    assert out.stdout.strip() == printed


def test_describe_imports_only_the_data_modules():
    # ``ebae describe``, as the console script runs it
    code = f"import sys\nfrom ebae import cli\nstatus = cli.main(sys.argv[1:])\nprint({MODULES})\nraise SystemExit(status)"
    out = subprocess.run([sys.executable, "-c", code, "describe", "--data", ALBRECHT[0], "--schema", ALBRECHT[1]],
                         env=src_env(), capture_output=True, text=True, check=True)
    lines = out.stdout.splitlines()
    assert "projects (n): 24" in lines
    assert lines[-1] == "['ebae', 'ebae.cli', 'ebae.config', 'ebae.data']"


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
    result = subprocess.run(
        [sys.executable, "-c", code, "pipeline", "--data", str(DATASETS / "toy.csv"),
         "--schema", str(DATASETS / "toy.schema"), "--set", "runs=100", "--set", "ga.pop=4", "--set", "ga.gens=2",
         "--set", "nn.epochs=5", "--set", "jobs=1", "--out", str(out)],
        env=src_env(), capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"
    assert [name for name in REPORT_FILES if not (out / name).is_file()] == []
