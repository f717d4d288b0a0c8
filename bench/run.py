"""kreinspec benchmark: one workload, one seed, one measured run.

Run from the repository root:

    python3 bench/run.py --workload sl-even --seed 30 --seconds 25 --trace 0

The workloads and the metrics, with their units, are listed in
BENCHMARK.json at the root.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the run environment.  Every run's
verdict is checked against ``bench/reference.json``.

The program runs from ``src/`` with ``workloads.BLAS_THREADS`` BLAS threads,
or fewer if the process may use fewer cores.  Scratch files go to
``.bench_tmp/`` and are removed at the end; the full result and, when traced,
the spans are kept in ``.bench_out/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 30  # sl-even depth 5
SETUP_SAMPLES = 3
# The worker starts no run after --seconds; this margin covers set-up and
# the run still going then (the slowest seen took 25 s, on two cores).
DEADLINE_MARGIN_S = 145.0
IMPORT_PROBE = "import time, kreinspec; print(repr(time.monotonic()))"


def _commit(root):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text(encoding="utf-8").strip()
    if ref.startswith("ref: "):
        target = root / ".git" / ref[5:]
        return (target.read_text(encoding="utf-8").strip()
                if target.is_file() else "unknown")
    return ref


def _src_lines(src):
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(src.rglob("*.py")))


def _import_seconds(env):
    """Fresh interpreter start to ``import kreinspec`` done."""
    start = time.monotonic()
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=60)
    return float(done.stdout) - start


def _metrics(result, setups, trace):
    runs = result["runs"]
    if not trace:
        passed = sum(1 for r in runs if not r["problems"])
        return {"wall_s": statistics.median([r["wall_s"] for r in runs]),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": result["peak_rss_mb"],
                "passed_ratio": passed / len(runs)}
    traced = [r for r in runs if r["traced"]]
    plain = [r for r in runs if not r["traced"]]
    metrics = {name: statistics.median([r["layers"][name] for r in traced])
               for name in traced[0]["layers"]}
    # Noisy where a window holds few runs, so main() records the number of
    # traced runs and the untraced spread beside it; trace.wrapper_s is the
    # resolved estimate.
    metrics["trace.overhead_s"] = (
        statistics.median([r["wall_s"] for r in traced])
        - statistics.median([r["wall_s"] for r in plain]))
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    began = time.monotonic()

    root = Path.cwd()
    src = root / "src"
    declared_file = root / "BENCHMARK.json"
    if not ((src / "kreinspec" / "__init__.py").is_file()
            and declared_file.is_file()):
        print("bench: run from the repository root (src/kreinspec and "
              "BENCHMARK.json not found)", file=sys.stderr)
        return 2
    declared = json.loads(declared_file.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}

    nproc = len(os.sched_getaffinity(0))
    threads = str(min(nproc, workloads.BLAS_THREADS))
    env = dict(os.environ, PYTHONPATH=str(src),
               OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    (root / ".bench_tmp").mkdir(exist_ok=True)
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    with tempfile.TemporaryDirectory(prefix=stem + "-",
                                     dir=root / ".bench_tmp") as tmp:
        tmp = Path(tmp)
        setups = []
        for k in range(SETUP_SAMPLES):
            start = time.perf_counter()
            inputs = tmp / f"inputs{k}"
            inputs.mkdir()
            workloads.make_inputs(args.workload, args.seed, inputs)
            setups.append(time.perf_counter() - start + _import_seconds(env))
        result_file = tmp / "result.json"
        log_file = tmp / "worker.log"
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--spec", str(tmp / "inputs0" / "spec.json"),
               "--reference", str(HERE / "reference.json"),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--result", str(result_file)]
        if args.trace:
            cmd += ["--spans", str(out_dir / f"{stem}-spans.json")]
        with open(log_file, "w", encoding="utf-8") as log:
            try:
                code = subprocess.run(
                    cmd, env=env, stdout=log, stderr=subprocess.STDOUT,
                    timeout=max(args.seconds + DEADLINE_MARGIN_S
                                - (time.monotonic() - began), 1.0),
                ).returncode
            except subprocess.TimeoutExpired:
                code = "timeout"
        if code != 0:
            tail = log_file.read_text(encoding="utf-8").splitlines()[-20:]
            print(f"bench: worker failed ({code})", *tail, sep="\n",
                  file=sys.stderr)
            return 1
        result = json.loads(result_file.read_text(encoding="utf-8"))

    metrics = _metrics(result, setups, args.trace)
    if set(metrics) != set(units):
        print(f"bench: metrics {sorted(set(metrics) ^ set(units))} do not "
              f"match BENCHMARK.json", file=sys.stderr)
        return 1
    runs = result["runs"]
    failed = sum(1 for r in runs if r["problems"])
    for r in runs:
        for problem in r["problems"]:
            print(f"bench: FAILED run: {problem}", file=sys.stderr)
    environment = dict(result["environment"], commit=_commit(root),
                       nproc=nproc, src_lines=_src_lines(src),
                       workload=args.workload, seed=args.seed,
                       seconds=args.seconds, trace=args.trace,
                       setup_samples_s=setups,
                       run_walls_s=[r["wall_s"] for r in runs])
    if args.trace:
        plain = [r["wall_s"] for r in runs if not r["traced"]]
        environment.update(traced_runs=len(runs) - len(plain),
                           untraced_wall_spread_s=max(plain) - min(plain))
    line = {"correct": failed == 0, "attempted": len(runs), "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in sorted(metrics.items())}}
    (out_dir / f"{stem}.json").write_text(
        json.dumps({"environment": environment, "result": line,
                    "runs": runs}, indent=1), encoding="utf-8")
    print(json.dumps({"environment": environment}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
