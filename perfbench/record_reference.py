#!/usr/bin/env python3
"""Record the reference values the benchmark's output check compares against.

For every workload fixture (Albrecht, and each index of the synthetic
families) this stores the sha256 of the input files and the LOOCV MAE of
every seed-free variant (EBA, LSE, MLFE, RTM, AQUA, MT for k = 1..5).
GA and NN variants are left out: their values depend on learner RNG streams.
Re-record only for a change that is meant to move these numbers.

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main():
    sys.path.insert(0, str(run.SRC))
    from ebae import enumerate_variants, load_dataset, loocv
    from ebae.metrics import mae

    run.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=run.WORK))
    reference = {}
    try:
        for workload, (generate, _) in run.WORKLOADS.items():
            config = run.workload_config(workload)
            reference[workload] = {}
            for index in range(1 if generate is None else run.fixtures.FAMILY):
                csv_path, schema_path, _ = run.make_inputs(workload, index, work)
                dataset = load_dataset(csv_path, schema_path)
                maes = {
                    v.label: mae(loocv(dataset, v, config))
                    for v in enumerate_variants(run.K_MAX) if v.method in run.SEED_FREE
                }
                reference[workload][str(index)] = {
                    "inputs_sha256": run.files_digest((csv_path, schema_path)),
                    "mae": maes,
                }
                print(f"{workload} fixture {index}: n={dataset.n} m={dataset.m}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
