#!/usr/bin/env python3
"""Benchmark of the ebae effort-estimation pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload albrecht --seed 1 --seconds 20 --trace 0

A run loads the workload's dataset with ``ebae.load_dataset``, then runs
``ebae.run_pipeline`` (default Config: seed 42, k = 1..5, 40 variants,
jobs=1) and ``ebae.cli.write_report``, repeating the pipeline while another
repetition still fits in ``--seconds`` (always at least once). Every report
is checked; each metric is printed with its unit, and the last line is one
JSON object with the keys correct, attempted, failed and metrics.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs the
pipeline once untraced and once with the layer entry points wrapped (see
tracer.py), and reports the per-layer metrics and the tracing overhead.

``setup_s`` and ``pipeline_s`` are seconds at a reference host speed: the
wall time divided by the host's slowdown, which a probe measures on the
same core during the measurement (see probe.py). Each run also prints the
raw wall time and the slowdown factor, and ``--trace 1`` reports both
figures for set-up and for the untraced pipeline run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(HERE))
import fixtures  # noqa: E402
from probe import Probe  # noqa: E402
from tracer import SITES, Tracer  # noqa: E402

K_MAX = 5
SCREEN = {"ga.gens": "10", "nn.epochs": "50"}   # a tenth of the default learner budget
# workload -> (fixture generator or None for the bundled file, config overrides)
WORKLOADS = {
    # Real data behind the paper's targets; learner-bound (GA ~85%, NN ~10%).
    "albrecht": (None, {}),
    # Continuous, n = 100: the costs that grow with n (model tree, difference
    # pairs, GA design, RTM correlation) dominate under the screening budget.
    "china_screen": (fixtures.china_screen, SCREEN),
    # Categorical distances and diff vectors, zero sizes: LSE, MLFE and RTM fall back.
    "mixed_screen": (fixtures.mixed_screen, SCREEN),
}
SEED_FREE = ("EBA", "LSE", "MLFE", "RTM", "AQUA", "MT")
REPORT_FILES = (
    "variants.csv", "filter.csv", "scott_knott.csv", "borda.csv", "ensembles.csv",
    "joint_ranking.csv", "summary.md", "plotdata/transformed_ae_singles.csv",
    "plotdata/transformed_ae_joint.csv", "plotdata/two_way_types.csv",
)
SETUP_SAMPLES = 7
# Runs in a fresh interpreter. The probe's first bursts pay numpy's one-off
# call costs, so they run before the probe starts and their time is not counted.
SETUP_CHILD = """
import json, sys
from time import perf_counter
start = perf_counter()
sys.path.insert(0, sys.argv[3])
from probe import Probe, burst
warm_up = burst() + burst() + burst()
with Probe() as probe:
    import ebae
    ebae.load_dataset(sys.argv[1], sys.argv[2])
    end = perf_counter()
print(json.dumps([probe.at_reference_speed(start + warm_up, end), end - start - warm_up]))
"""


def workload_config(workload):
    from ebae import Config
    from ebae.config import with_overrides

    return with_overrides(Config(k_max=K_MAX), WORKLOADS[workload][1])


def make_inputs(workload, seed, work):
    """(csv, schema, fixture index) of the workload's inputs for ``seed``."""
    generate = WORKLOADS[workload][0]
    if generate is None:
        return ROOT / "datasets" / "albrecht.csv", ROOT / "datasets" / "albrecht.schema", 0
    index = seed % fixtures.FAMILY
    csv_path, schema_path = generate(index, work)
    return csv_path, schema_path, index


def files_digest(paths):
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def report_digest(out_dir):
    """sha256 over the report directory: relative paths and file bytes, sorted."""
    h = hashlib.sha256()
    for path in sorted(p for p in Path(out_dir).rglob("*") if p.is_file()):
        h.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def setup_child(csv_path, schema_path):
    """(seconds at reference speed, wall seconds) for a fresh interpreter to import ebae and load the dataset."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    child = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(csv_path), str(schema_path), str(HERE)],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return tuple(json.loads(child.stdout))


def setup_seconds(csv_path, schema_path):
    """Medians (seconds at reference speed, wall seconds) over ``SETUP_SAMPLES`` set-ups; prints each."""
    samples = [setup_child(csv_path, schema_path) for _ in range(SETUP_SAMPLES)]
    print(f"setup_s samples {[round(s, 4) for s, _ in samples]} "
          f"(wall {[round(w, 4) for _, w in samples]})")
    return statistics.median(s for s, _ in samples), statistics.median(w for _, w in samples)


def run_once(dataset, config, out_dir):
    """What ``ebae pipeline`` costs after load: run the pipeline, write the report.

    ``pipeline_s`` is at reference host speed (see probe.py); the other
    timings are wall clock.
    """
    from ebae import describe, run_pipeline
    from ebae.cli import write_report

    with Probe() as probe:
        start = perf_counter()
        report = run_pipeline(dataset, config)
        pipeline_end = perf_counter()
        stats = describe(dataset)
        write_start = perf_counter()
        write_report(report, stats, out_dir)
        end = perf_counter()
    return report, {
        "pipeline_s": probe.at_reference_speed(start, end),
        "wall_s": end - start,
        "speed_factor": probe.speed_factor(),
        "pipeline_start": start,
        "pipeline_end": pipeline_end,
        "write_report_s": end - write_start,
    }


def check_report(report, out_dir, expected_mae):
    """(failed variant labels, other problems) of one pipeline report.

    A variant fails when it was not evaluated, has a non-finite summary
    value, or, for a seed-free method, an MAE that differs from the
    recorded reference by more than 1e-9 relative. Every variant fails
    when a report file is missing.
    """
    from ebae import enumerate_variants

    failed, problems = [], []
    for variant in enumerate_variants(K_MAX):
        label = variant.label
        s = report.summaries.get(label)
        if s is None or label in report.variant_errors:
            failed.append(label)
            problems.append(f"{label} not evaluated: {report.variant_errors.get(label)}")
            continue
        values = (s.mae, s.mmre, s.pred25, s.lsd, s.s2, s.mbre, s.mibre, s.sa, s.delta)
        if not all(math.isfinite(v) for v in values):
            failed.append(label)
            problems.append(f"{label} has a non-finite summary value")
            continue
        if variant.method in SEED_FREE:
            want = expected_mae.get(label)
            if want is None or not math.isclose(s.mae, want, rel_tol=1e-9, abs_tol=0.0):
                failed.append(label)
                problems.append(f"{label} MAE {s.mae!r} != reference {want!r}")
    missing = [f for f in REPORT_FILES if not (Path(out_dir) / f).is_file()]
    if missing:
        failed = [variant.label for variant in enumerate_variants(K_MAX)]
        problems.append(f"report files missing: {missing}")
    return failed, problems


def rank1_sa(report):
    """SA of the rank-1 joint candidate (the best single when there is no joint ranking)."""
    summaries = {**report.summaries, **report.ensemble_summaries}
    joint = report.borda_joint
    if joint is not None:
        best = min(joint.candidates, key=lambda c: (joint.ranks[c], str(c)))
    elif report.best_ranking:
        best = report.best_ranking[0]
    else:
        best = max(report.summaries, key=lambda label: report.summaries[label].sa)
    return summaries[best].sa


def layer_metrics(tracer, report, timing, load_s, untraced, setup, out_dir):
    """name -> (value, unit) for one traced run; layer times are inclusive wall seconds.

    ``untraced`` is the timing of the untraced run and ``setup`` the median
    (reference-speed, wall) set-up seconds. Without a traced ``loocv``,
    ``ensemble.post_loocv_s`` covers the whole pipeline.
    """
    calls, secs = tracer.calls, tracer.seconds
    loocv_end = max((v for k, v in tracer.last_end.items() if k.startswith("validation.loocv.")),
                    default=timing["pipeline_start"])
    predictions = sum(len(t) for t in report.tables.values())
    fallbacks = sum(t.fallback_count for t in report.tables.values())
    metrics = {
        "data.load_s": (load_s, "s"),
        "data.without_calls": (calls["data.without"], "count"),
        "data.without_s": (secs["data.without"], "s"),
        "analogy.retrieve_calls": (calls["analogy.retrieve"], "count"),
        "analogy.retrieve_s": (secs["analogy.retrieve"], "s"),
        "analogy.knn_within_calls": (calls["analogy.knn_within"], "count"),
        "analogy.knn_within_s": (secs["analogy.knn_within"], "s"),
        "learners.ga_fit_calls": (calls["learners.ga_fit"], "count"),
        "learners.ga_fit_s": (secs["learners.ga_fit"], "s"),
        "learners.ga_design_s": (secs["learners.ga_design"], "s"),
        "learners.nn_fit_calls": (calls["learners.nn_fit"], "count"),
        "learners.nn_fit_s": (secs["learners.nn_fit"], "s"),
        "learners.mt_fit_calls": (calls["learners.mt_fit"], "count"),
        "learners.mt_fit_s": (secs["learners.mt_fit"], "s"),
        "learners.diff_pairs_calls": (calls["learners.diff_pairs"], "count"),
        "learners.diff_pairs_s": (secs["learners.diff_pairs"], "s"),
        "adjust.calls": (calls["adjust"], "count"),
        "adjust.s": (secs["adjust"], "s"),
        "adjust.rtm_corr_calls": (calls["adjust.rtm_corr"], "count"),
        "adjust.rtm_corr_s": (secs["adjust.rtm_corr"], "s"),
    }
    for method in ("EBA", "LSE", "MLFE", "RTM", "AQUA", "MT", "GA", "NN"):
        metrics[f"validation.loocv_s.{method}"] = (secs[f"validation.loocv.{method}"], "s")
    metrics.update({
        "validation.baseline_s": (secs["validation.baseline"], "s"),
        "validation.predictions": (predictions, "count"),
        "validation.fallback_frac": (fallbacks / predictions, "ratio"),
        "metrics.summarize_calls": (calls["metrics.summarize"], "count"),
        "metrics.summarize_s": (secs["metrics.summarize"], "s"),
        "metrics.build_table_s": (secs["metrics.build_table"], "s"),
        "stats.box_cox_calls": (calls["stats.box_cox"], "count"),
        "stats.box_cox_s": (secs["stats.box_cox"], "s"),
        "stats.scott_knott_s": (secs["stats.scott_knott"], "s"),
        "stats.two_way_s": (secs["stats.two_way"], "s"),
        "stats.sk_clusters": (len(report.sk_singles.clusters) if report.sk_singles else 0, "count"),
        "ranking.borda_calls": (calls["ranking.borda"], "count"),
        "ranking.borda_s": (secs["ranking.borda"], "s"),
        "ensemble.survivors": (len(report.survivors), "count"),
        "ensemble.ensembles": (len(report.ensembles), "count"),
        "ensemble.ensemble_table_s": (secs["ensemble.ensemble_table"], "s"),
        "ensemble.post_loocv_s": (timing["pipeline_end"] - loocv_end, "s"),
        "cli.write_report_s": (timing["write_report_s"], "s"),
        "cli.report_bytes": (sum(p.stat().st_size for p in Path(out_dir).rglob("*") if p.is_file()), "bytes"),
        "trace.pipeline_s": (timing["pipeline_s"], "s"),
        "trace.pipeline_wall_s": (timing["wall_s"], "s"),
        "trace.untraced_s": (untraced["pipeline_s"], "s"),
        "trace.untraced_wall_s": (untraced["wall_s"], "s"),
        "trace.overhead_s": (timing["pipeline_s"] - untraced["pipeline_s"], "s"),
        "trace.setup_s": (setup[0], "s"),
        "trace.setup_wall_s": (setup[1], "s"),
        "host.speed_factor": (timing["speed_factor"], "ratio"),
    })
    return metrics


def declared_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "ebae" / "__init__.py").is_file():
        print(f"error: ebae sources not found in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        return bench(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def bench(args, work):
    """One run in the scratch directory ``work``: prints the metrics and the result line."""
    import numpy
    import scipy
    from ebae import enumerate_variants, load_dataset

    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    config = workload_config(args.workload)
    csv_path, schema_path, index = make_inputs(args.workload, args.seed, work)
    run_problems = []      # checks of the whole run: inputs and report digests
    recorded = reference.get(args.workload, {}).get(str(index))
    if recorded is None:
        run_problems.append(f"no reference recorded for {args.workload} fixture {index}")
        recorded = {"inputs_sha256": None, "mae": {}}
    inputs_sha = files_digest((csv_path, schema_path))
    if inputs_sha != recorded["inputs_sha256"]:
        run_problems.append(f"inputs sha256 {inputs_sha} != recorded {recorded['inputs_sha256']}")

    load_start = perf_counter()
    dataset = load_dataset(csv_path, schema_path)
    load_s = perf_counter() - load_start
    print("env " + json.dumps({
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }))
    print("inputs " + json.dumps({
        "workload": args.workload, "seed": args.seed, "fixture": index,
        "n": dataset.n, "m": dataset.m, "overrides": WORKLOADS[args.workload][1],
        "k_max": K_MAX, "config_seed": config.seed, "jobs": config.jobs, "sha256": inputs_sha,
    }))

    attempted = failed = 0
    digests, problems = [], []

    def measured(out_dir):
        nonlocal attempted, failed
        report, timing = run_once(dataset, config, out_dir)
        bad, found = check_report(report, out_dir, recorded["mae"])
        attempted += len(enumerate_variants(K_MAX))
        failed += len(bad)
        problems.extend(found)
        digests.append(report_digest(out_dir))
        print(f"report_sha256 {digests[-1]} pipeline_s {timing['pipeline_s']:.4f} "
              f"(wall {timing['wall_s']:.4f} s, host speed factor {timing['speed_factor']:.3f})", flush=True)
        return report, timing

    if args.trace:
        setup = setup_seconds(csv_path, schema_path)
        _, untraced = measured(work / "untraced")
        tracer = Tracer()
        with tracer.installed(SITES):
            report, timing = measured(work / "traced")
        for name in tracer.absent:
            print(f"absent {name}")
        metrics = layer_metrics(tracer, report, timing, load_s, untraced, setup, work / "traced")
        for key in ("learners.ga_fit_s", "learners.nn_fit_s", "learners.mt_fit_s", "learners.diff_pairs_s"):
            print(f"share {key} {metrics[key][0] / timing['wall_s']:.3f} of pipeline wall time")
    else:
        setup_s, _ = setup_seconds(csv_path, schema_path)
        start = perf_counter()
        times, reports, wall = [], [], 0.0
        while not times or perf_counter() + wall <= start + args.seconds:
            report, timing = measured(work / f"report{len(times)}")
            times.append(timing["pipeline_s"])
            reports.append(report)
            wall = timing["wall_s"]
        best_sa = [rank1_sa(r) for r in reports]
        mean_sa = [statistics.fmean(s.sa for s in r.summaries.values()) for r in reports]
        metrics = {
            "setup_s": (setup_s, "s"),
            "pipeline_s": (statistics.median(times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "best_sa": (statistics.median(best_sa), "ratio"),
            "mean_sa": (statistics.median(mean_sa), "ratio"),
        }
        print(f"pipeline repetitions {len(times)}")

    if len(set(digests)) != 1:
        run_problems.append(f"report digests differ between repetitions: {digests}")
    if run_problems:
        failed = attempted     # a failed check of the whole run fails every variant in it
    problems = run_problems + problems
    if not args.trace:
        metrics["ok_frac"] = ((attempted - failed) / attempted, "ratio")
    emitted = {(name, unit) for name, (_, unit) in metrics.items()}
    if emitted != declared_metrics(args.trace):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(emitted ^ declared_metrics(args.trace))}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    for problem in problems:
        print(f"check failed: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
