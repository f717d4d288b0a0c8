"""Self-test of the benchmark.  From the repository root:

    python3 -m pytest bench/test_bench.py

It runs every workload once untraced and once traced (about two minutes on
two cores), and checks that each per-layer metric is non-zero on the
workload it is meant to move, that tracing leaves no wrapper installed, and
that the benchmark refuses to run without the program.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402

SL = ["sturm_liouville.sl_eigenvalues.s", "sturm_liouville.sl_eigenvalues.calls",
      "sturm_liouville.sl_eigenvector.s", "sturm_liouville.sl_eigenvector.calls",
      "sturm_liouville.sign_useful_ratio",
      "sturm_liouville.containment_report.self_s", "sturm_liouville.discretize.s",
      "sturm_liouville.eigenvalues", "sturm_liouville.nonreal",
      "sturm_liouville.sign_tested", "reporting.write_report.s",
      "reporting.finalize_record.s", "reporting.bytes", "cli.self_s",
      "trace.wrapper_s"]
# Which per-layer metric each workload must move (so must see non-zero).
MOVES = {
    "sl-even": SL,
    "sl-dense": SL,
    "harness": [
        "verification.verify_block_theorem.ms_p50",
        "verification.verify_block_theorem.ms_p95",
        "verification.verify_block_theorem.self_s",
        "verification.verify_tmain.ms_p50", "verification.verify_tmain.ms_p95",
        "verification.verify_tmain.self_s", "verification.fit_relative_bound.s",
        "verification.region_area.s", "verification.region_area.calls",
        "verification.resolvent_applicable_ratio",
        "operators.min_relative_bound.s", "operators.min_relative_bound.calls",
        "operators.resolvent_norm.s", "operators.resolvent_norm.calls",
        "operators.spectral_projections.s",
        "geometry.disk_region_membership.s", "geometry.disk_region_membership.calls",
        "cli.self_s", "trace.wrapper_s"],
    "quadrature": [
        "sturm_liouville.lemma_ls_check.s", "sturm_liouville.lemma_ls_check.calls",
        "sturm_liouville.quad.calls", "sturm_liouville.tau0_hilbert_form.s",
        "geometry.boundary_polyline.s", "trace.wrapper_s"],
}
# Metrics no workload is required to make non-zero.
MAY_BE_ZERO = {"sturm_liouville.indeterminate", "trace.overhead_s"}


def _declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_every_layer_metric_has_a_workload():
    declared = {m["name"] for m in _declared()["per_layer"]}
    named = set().union(*MOVES.values()) | MAY_BE_ZERO
    assert named == declared
    assert [w["name"] for w in _declared()["workloads"]] == list(workloads.WORKLOADS)
    assert set(MOVES) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(MOVES))
def test_traced_run_moves_its_layers(workload):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, done.stderr
    assert result["attempted"] == 2  # one untraced and one traced run
    metrics = result["metrics"]
    zero = [name for name in MOVES[workload] if metrics[name]["value"] == 0]
    assert not zero


def test_tracer_wraps_every_binding_and_restores_it():
    from kreinspec import cli, operators, sturm_liouville, verification
    originals = (operators.min_relative_bound, sturm_liouville.containment_report)
    tracer = tracing.Tracer()
    with tracer:
        assert verification.min_relative_bound is operators.min_relative_bound
        assert cli.containment_report is sturm_liouville.containment_report
        assert operators.min_relative_bound is not originals[0]
        assert (("kreinspec.cli", "containment_report")
                in tracing.installed_wrappers())
        tracer.run(0, verification.fit_relative_bound, [[1.0]], [[2.0]], (0.5,))
    assert tracing.installed_wrappers() == []
    assert verification.min_relative_bound is originals[0]
    assert cli.containment_report is originals[1]
    layers = tracer.layers(0)
    assert layers["operators.min_relative_bound"]["calls"] == 1
    fit = layers["verification.fit_relative_bound"]
    assert fit["self_s"] == pytest.approx(
        fit["s"] - layers["operators.min_relative_bound"]["s"])
    assert layers[tracing.ROOT]["calls"] == 1


def test_refuses_to_run_without_the_program():
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_tmp") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, Path(bare) / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "harness",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout == ""
