"""Benchmark worker: runs one workload in a closed loop in a fresh process.

One client, one run at a time.  Untraced runs give the end-to-end numbers;
with ``--trace 1`` untraced and traced runs alternate and the traced ones
give the per-layer numbers.  The worker writes its result as JSON to
``--result``; ``run.py`` turns it into metrics.

    python3 bench/worker.py --spec DIR/spec.json --reference bench/reference.json \
        --seconds 25 --trace 0 --result DIR/result.json [--spans FILE]
"""

import argparse
import ctypes
import json
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracing import Tracer, installed_wrappers, wrapper_cost_s


def blas_info():
    """Thread count and build of every OpenBLAS loaded into this process."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = sorted({line.split()[-1] for line in maps if "openblas" in line})
    names = [(f"{prefix}_get_num_threads{suffix}", f"{prefix}_get_config{suffix}")
             for prefix in ("scipy_openblas", "openblas") for suffix in ("64_", "")]
    libs = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for threads, config in names:
            if hasattr(lib, threads):
                getattr(lib, config).restype = ctypes.c_char_p
                libs.append({"lib": Path(path).name,
                             "threads": getattr(lib, threads)(),
                             "config": getattr(lib, config)().decode()})
                break
    return libs


def environment():
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas_info()}


def layer_metrics(layers, counts, call_cost_s):
    """The per-layer metrics of one traced run; ``call_cost_s`` is what one
    tracing wrapper adds to a call."""
    def get(name, key):
        return layers.get(name, {}).get(key, 0)

    def pct(name, q):
        durations = sorted(layers.get(name, {}).get("durations", []))
        if not durations:
            return 0.0
        return 1e3 * durations[min(len(durations) - 1,
                                   int(round(q * (len(durations) - 1))))]

    out = {}
    for name in ("sturm_liouville.sl_eigenvalues", "sturm_liouville.sl_eigenvector",
                 "sturm_liouville.lemma_ls_check", "verification.region_area",
                 "operators.min_relative_bound", "operators.resolvent_norm",
                 "geometry.disk_region_membership"):
        out[name + ".s"] = get(name, "s")
        out[name + ".calls"] = get(name, "calls")
    for name in ("sturm_liouville.discretize", "sturm_liouville.tau0_hilbert_form",
                 "verification.fit_relative_bound", "operators.spectral_projections",
                 "geometry.boundary_polyline", "reporting.write_report",
                 "reporting.finalize_record"):
        out[name + ".s"] = get(name, "s")
    out["sturm_liouville.quad.calls"] = get("sturm_liouville.quad", "calls")
    out["sturm_liouville.containment_report.self_s"] = get(
        "sturm_liouville.containment_report", "self_s")
    for name in ("verification.verify_block_theorem", "verification.verify_tmain"):
        out[name + ".ms_p50"] = pct(name, 0.50)
        out[name + ".ms_p95"] = pct(name, 0.95)
        out[name + ".self_s"] = get(name, "self_s")
    vectors = get("sturm_liouville.sl_eigenvector", "calls")
    out["sturm_liouville.sign_useful_ratio"] = (
        counts["sign_tested"] / vectors if vectors else 0.0)
    for key in ("eigenvalues", "nonreal", "sign_tested", "indeterminate"):
        out[f"sturm_liouville.{key}"] = counts[key]
    sampled = counts["resolvent_sampled"]
    out["verification.resolvent_applicable_ratio"] = (
        counts["resolvent_applicable"] / sampled if sampled else 0.0)
    out["reporting.bytes"] = counts["bytes"]
    out["cli.self_s"] = sum(v["self_s"] for k, v in layers.items()
                            if k.startswith("cli."))
    out["trace.wrapper_s"] = call_cost_s * sum(v["calls"] for v in layers.values())
    return out


def _dir_bytes(path):
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True)
    parser.add_argument("--reference", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    import kreinspec  # noqa: F401  (loads the package before any timing)
    spec = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    reference = json.loads(Path(args.reference).read_text(encoding="utf-8"))
    out_dir = Path(spec["out"])
    tracer = Tracer()
    call_cost_s = wrapper_cost_s() if args.trace else 0.0
    runs = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(runs) % 2 == 1
        shutil.rmtree(out_dir, ignore_errors=True)
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer:
                    outcomes = tracer.run(len(runs), workloads.run_once, spec)
            else:
                outcomes = workloads.run_once(spec)
            wall = time.perf_counter() - t0
            problems, counts = workloads.check(spec, outcomes, reference)
        except Exception:  # a crashing run is a failed run; keep measuring
            wall = time.perf_counter() - t0
            problems, counts = [traceback.format_exc()], None
        counts = dict(counts or workloads.empty_counts(), bytes=_dir_bytes(out_dir))
        left = installed_wrappers()
        if left:
            problems.append(f"tracing wrappers left installed: {left[:3]}")
        run = {"traced": traced, "wall_s": wall, "problems": problems}
        if traced:
            run["layers"] = layer_metrics(tracer.layers(len(runs)), counts,
                                          call_cost_s)
        runs.append(run)
        elapsed = time.perf_counter() - start
        # run again while that ends nearer the deadline than stopping now;
        # a traced benchmark needs at least one run of each kind
        if elapsed + 0.5 * wall >= args.seconds and (
                not args.trace or len(runs) >= 2):
            break
    shutil.rmtree(out_dir, ignore_errors=True)

    if args.spans and args.trace:
        Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
        Path(args.spans).write_text(json.dumps(tracer.records()),
                                    encoding="utf-8")
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"runs": runs, "environment": environment(),
              "peak_rss_mb": peak_kib / 1024.0}
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
