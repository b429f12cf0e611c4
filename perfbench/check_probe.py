#!/usr/bin/env python3
"""Check that the probe's speed factor does not follow the measured code's mix.

Runs segments of different mixes of interpreter and numpy time one after
another in this process, ``--rounds`` times, each under a probe that also
times a cold pass at the start of every sample. Prints, per mix, the median
speed factor of the first (cold) pass and of the timed (warm) pass. The
host's load drifts slowly, so alternating segments see the same host;
a factor that tracks the host and not the code is about equal across mixes.

    python3 perfbench/check_probe.py --rounds 4
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
import run  # noqa: E402
from probe import Probe, burst, speed_factor_of  # noqa: E402

SEGMENT_S = 4.0
# Reduced learner budgets keep each pipeline segment to a few seconds.
SMALL = {"albrecht": {"ga.gens": "15", "nn.epochs": "60", "runs": "200"},
         "china_screen": {"ga.gens": "1", "nn.epochs": "5", "runs": "200"}}


class MixProbe(Probe):
    """A probe that also times a cold pass at the start of each sample."""

    def __init__(self):
        super().__init__()
        self.cold = []

    def _sample(self, signum=None, frame=None):
        self.cold.append(burst())
        super()._sample()

    def factors(self):
        return speed_factor_of(self.cold), self.speed_factor()


def for_a_while(step):
    def segment():
        start = perf_counter()
        while perf_counter() - start < SEGMENT_S:
            step()
    return segment


def segments(work):
    from ebae import load_dataset, run_pipeline
    from ebae.config import with_overrides

    def pipeline(workload):
        dataset = load_dataset(*run.make_inputs(workload, 0, work)[:2])
        config = with_overrides(run.workload_config(workload), SMALL[workload])
        return lambda: run_pipeline(dataset, config)

    small = np.random.default_rng(1).random((30, 8))
    big = np.random.default_rng(2).random(3_000_000)

    def python_only():
        counts = {}
        for i in range(20000):
            counts[i % 97] = counts.get(i % 97, 0) + i

    def small_arrays():
        np.argsort(np.abs(small[:5] - small[7]).sum(axis=1))
        (small * 1.5).mean(axis=0)

    return {
        "albrecht pipeline": pipeline("albrecht"),
        "china_screen pipeline": pipeline("china_screen"),
        "small-array numpy": for_a_while(small_arrays),
        "pure Python": for_a_while(python_only),
        "long np.sort calls": for_a_while(lambda: np.sort(big)),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=4)
    args = parser.parse_args(argv)
    found = {}
    with tempfile.TemporaryDirectory() as work:
        mixes = segments(Path(work))
        for _ in range(args.rounds):
            for name, segment in mixes.items():
                with MixProbe() as probe:
                    segment()
                found.setdefault(name, []).append(probe.factors())
    for name, factors in found.items():
        cold = statistics.median(c for c, _ in factors)
        warm = statistics.median(w for _, w in factors)
        print(f"{name:22s} cold {cold:.3f}  warm {warm:.3f}")
    warm = [statistics.median(w for _, w in f) for f in found.values()]
    print(f"warm factor range across mixes: {max(warm) / min(warm) - 1:.1%}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
