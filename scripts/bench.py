#!/usr/bin/env python3
"""A/B comparison of two revisions on one benchmark workload.

Run from anywhere inside the repository:

    python3 scripts/bench.py --base REV --head REV --workload W --pairs N [--seconds 20]

Each revision is checked out with ``git worktree add`` into a temporary
directory, removed afterwards. A pair runs each side's own
``perfbench/run.py --trace 0`` once, in a fresh interpreter, and the pairs
alternate which side runs first: the first pair runs the base first, the
second the head. Each side's runs go to ``BENCH_<rev>_<workload>.json`` in
``--out`` (default ``bench/``), where ``<rev>`` is the revision's 12-digit
commit id, with ``-head`` after it on the head's file when both sides are
one commit. A file holds the env and inputs lines that perfbench prints,
and for every run its pair, its position in the pair, its report digests,
its result line and every end-to-end metric.

Then it prints, per end-to-end metric of BENCHMARK.json, the base's median
and quartiles, the head's median, the median of the per-pair ratios head /
base, how many pairs the head won (ties count for neither side, and
"better" is the direction BENCHMARK.json gives), and the order effect: the
median per-pair ratio of the second run to the first, whatever the sides.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

# the fixture seed of each workload's recorded report digest
SEEDS = {"albrecht": 42, "china_screen": 3, "mixed_screen": 5}


def git(root, *args):
    return subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def parse_run(stdout):
    """One perfbench run's env and inputs lines, its distinct report digests,
    and the correct, attempted, failed and metric values of its result line."""
    run = {"env": None, "inputs": None}
    digests = set()
    lines = stdout.splitlines()
    for line in lines:
        key, _, rest = line.partition(" ")
        if key in ("env", "inputs"):
            run[key] = json.loads(rest)
        elif key == "report_sha256":
            digests.add(rest.split()[0])
    result = json.loads(lines[-1])
    run.update(digests=sorted(digests), correct=result["correct"], attempted=result["attempted"],
               failed=result["failed"], metrics={name: m["value"] for name, m in result["metrics"].items()})
    return run


def quartiles(values):
    """(first quartile, median, third quartile), interpolated within the sample."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize_pairs(pairs, better):
    """Paired figures of one metric.

    ``pairs`` holds (base value, head value, base ran first) per pair, and
    ``better`` is "lower" or "higher". Returns the base's quartiles and the
    head's median, the median ratio head / base, the head's wins and the
    median ratio of the second run to the first.
    """
    base = [b for b, _, _ in pairs]
    head = [h for _, h, _ in pairs]
    sign = 1.0 if better == "higher" else -1.0
    return {
        "base_quartiles": quartiles(base),
        "head_median": statistics.median(head),
        "ratio": statistics.median(h / b if b else float("nan") for b, h, _ in pairs),
        "wins": sum(sign * (h - b) > 0 for b, h, _ in pairs),
        "order": statistics.median((h / b if first else b / h) if b and h else float("nan")
                                   for b, h, first in pairs),
    }


def summary_table(spec, base_runs, head_runs):
    """The printed summary of the paired runs, one line per end-to-end metric."""
    lines = [f"{'metric':<12} {'unit':<6} {'base median [Q1, Q3]':<30} {'head median':<12} "
             f"{'head/base':<10} {'wins':<8} {'2nd/1st':<8}"]
    for metric in spec["end_to_end"]:
        name = metric["name"]
        pairs = [(b["metrics"][name], h["metrics"][name], b["position"] == 0)
                 for b, h in zip(base_runs, head_runs)]
        s = summarize_pairs(pairs, metric["better"])
        q1, median, q3 = s["base_quartiles"]
        base = f"{median:.4g} [{q1:.4g}, {q3:.4g}]"
        wins = f"{s['wins']}/{len(pairs)}"
        lines.append(f"{name:<12} {metric['unit']:<6} {base:<30} {s['head_median']:<12.4g} "
                     f"{s['ratio']:<10.4f} {wins:<8} {s['order']:.4f}")
    digests = [{d for run in runs for d in run["digests"]} for runs in (base_runs, head_runs)]
    lines.append("report digests: " + ("identical" if digests[0] == digests[1] and len(digests[0]) == 1
                                       else f"base {sorted(digests[0])}, head {sorted(digests[1])}"))
    lines.append("correct: " + " ".join(f"{side} {all(run['correct'] for run in runs)}"
                                        for side, runs in (("base", base_runs), ("head", head_runs))))
    return "\n".join(lines)


def run_side(tree, workload, seed, seconds):
    """One perfbench run of the checkout ``tree``, in a fresh interpreter."""
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", "0"],
                         cwd=tree, capture_output=True, text=True)
    if out.returncode:
        raise SystemExit(f"perfbench/run.py failed in {tree} with status {out.returncode}:\n{out.stderr}")
    return parse_run(out.stdout)


def bench_file(side, rev, ref, args, runs):
    """The BENCH file of one side: the run settings, the first run's env and
    inputs, and every run but those two lines."""
    return {
        "side": side, "rev": rev, "ref": ref, "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "pairs": args.pairs, "env": runs[0]["env"], "inputs": runs[0]["inputs"],
        "correct": all(run["correct"] for run in runs),
        "runs": [{key: value for key, value in run.items() if key not in ("env", "inputs")} for run in runs],
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="parent revision")
    parser.add_argument("--head", required=True, help="changed revision")
    parser.add_argument("--workload", required=True, choices=sorted(SEEDS))
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0, help="perfbench --seconds of each run")
    parser.add_argument("--seed", type=int, help="perfbench --seed (default: the workload's recorded one)")
    parser.add_argument("--out", type=Path, help="directory of the BENCH files (default: bench/)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.seed is None:
        args.seed = SEEDS[args.workload]
    return args


def main(argv=None):
    args = parse_args(argv)
    root = Path(git(Path(__file__).resolve().parent, "rev-parse", "--show-toplevel"))
    out = args.out or root / "bench"
    revs = {side: git(root, "rev-parse", "--verify", f"{ref}^{{commit}}")
            for side, ref in (("base", args.base), ("head", args.head))}
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    holder = Path(tempfile.mkdtemp(prefix="bench-"))
    trees = {}
    try:
        for side, rev in revs.items():
            trees[side] = holder / side
            git(root, "worktree", "add", "--detach", str(trees[side]), rev)
        runs = {"base": [], "head": []}
        for pair in range(args.pairs):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for position, side in enumerate(order):
                run = run_side(trees[side], args.workload, args.seed, args.seconds)
                run.update(pair=pair, position=position)
                runs[side].append(run)
                print(f"pair {pair} {side}: " + " ".join(
                    f"{name}={value:.4g}" for name, value in run["metrics"].items()), flush=True)
    finally:
        for tree in trees.values():
            subprocess.run(["git", "-C", str(root), "worktree", "remove", "--force", str(tree)],
                           capture_output=True)
        shutil.rmtree(holder, ignore_errors=True)
        subprocess.run(["git", "-C", str(root), "worktree", "prune"], capture_output=True)
    out.mkdir(parents=True, exist_ok=True)
    for side in ("base", "head"):
        tag = revs[side][:12] + ("-head" if side == "head" and revs["base"] == revs["head"] else "")
        path = out / f"BENCH_{tag}_{args.workload}.json"
        ref = args.base if side == "base" else args.head
        path.write_text(json.dumps(bench_file(side, revs[side], ref, args, runs[side]), indent=1) + "\n",
                        encoding="utf-8")
        print(f"wrote {path}")
    print(summary_table(spec, runs["base"], runs["head"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
