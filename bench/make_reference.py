"""Write bench/reference.json: the verdict data every benchmark run is
checked against, for every input variant a seed can select.

Run from the repository root on a commit whose verdicts are trusted:

    OPENBLAS_NUM_THREADS=2 OMP_NUM_THREADS=2 PYTHONPATH=src \
        python3 bench/make_reference.py

The thread count must be ``workloads.BLAS_THREADS``, the one the benchmark
runs with.  The file is written anew.  Each run must verify; a variant that
does not stops the script with an error instead of storing a failing verdict.
"""

import json
import sys
import tempfile
from pathlib import Path

import worker
import workloads

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"


def add_reference(reference, workload, variant):
    """Run one input variant and store the reference of each of its steps,
    unless all of them are stored already."""
    scratch = Path.cwd() / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        spec = workloads.variant_inputs(workload, variant, tmp)
        keys = [step["ref"] for step in spec["steps"] if step["ref"]]
        if all(reference.get(a, {}).get(b) for a, b in keys):
            return
        outcomes = workloads.run_once(spec)
        for step, outcome in zip(spec["steps"], outcomes):
            if step["ref"]:
                a, b = step["ref"]
                reference.setdefault(a, {}).setdefault(b, {}).update(
                    workloads.reference_entry(step, outcome))
        problems, _ = workloads.check(spec, outcomes, reference)
    if problems:
        sys.exit(f"{workload} variant {variant}: {problems}")


def main():
    import kreinspec  # noqa: F401  (loads the BLAS library blas_info reads)
    threads = {lib["threads"] for lib in worker.blas_info()}
    if threads != {workloads.BLAS_THREADS}:
        sys.exit(f"BLAS runs {sorted(threads)} threads, the benchmark "
                 f"{workloads.BLAS_THREADS}: set OPENBLAS_NUM_THREADS")
    reference = {}
    for workload in workloads.WORKLOADS:
        reference[workload] = {}
        first = 1 if workload == "sl-even" else 0
        for variant in range(first, first + workloads.VARIANTS.get(workload, 1)):
            add_reference(reference, workload, variant)
        print(f"{workload}: {len(reference[workload])} references", flush=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")


if __name__ == "__main__":
    main()
