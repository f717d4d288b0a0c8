"""The four benchmark workloads: inputs from a seed, one run, verdict check.

``make_inputs`` runs in the benchmark's parent process and needs only NumPy;
``run_once`` and ``check`` run in the worker process, which imports
kreinspec.  Each workload's seed selects one of a fixed set of input
variants, so that every input has a stored reference verdict
(``reference.json``, written by ``make_reference.py``).
"""

import json
import math
from pathlib import Path

import numpy as np

# The workloads; BENCHMARK.json says why each was chosen.
WORKLOADS = ("sl-even", "sl-dense", "harness", "quadrature")

# Number of input variants a seed chooses from, each with a stored reference:
# sl-even well depths 1..40 (the criterion-07 range), sl-dense well tables,
# harness root seeds.  The quadrature seed is used as it is.
VARIANTS = {"sl-even": 40, "sl-dense": 16, "harness": 32}
LEMMA_RADII = 4       # radii per probe/potential pair
LEMMA_EXPONENTS = (2.0, 3.0, 10.0, 1e3)
# criterion-08 probe and potential families
LEMMA_PROBES = ([["gaussian", {"alpha": a, "center": c}]
                 for a, c in [(0.5, 0.0), (1.0, 0.7), (2.0, -1.2), (3.5, 0.2)]]
                + [["hermite", {"k": k}] for k in (0, 1, 2, 3)])
LEMMA_POTENTIALS = ([{"kind": "step", "depth": d, "width": w}
                     for d, w in [(1.0, 1.0), (4.0, 0.5)]]
                    + [{"kind": "gaussian", "depth": 2.0, "width": 1.5},
                       {"kind": "lorentzian", "depth": 1.0, "width": 1.0}])
REL_TOL = 1e-8
# BLAS threads of every run and of the stored reference.  A pair of non-real
# eigenvalues near a collision moves by ~1e-7 between 1 and 2 threads (sl-even
# depth 10), more than REL_TOL, so the reference holds for this count only.
BLAS_THREADS = 2


def variant_for(workload, seed):
    """The input variant a seed selects (sl-even: the depth, from 1)."""
    if workload == "quadrature":
        return seed
    draw = int(np.random.default_rng(seed).integers(VARIANTS[workload]))
    return draw + 1 if workload == "sl-even" else draw


def well_table(index):
    """A smooth two-Gaussian well, not even in x, scaled to L2 norm 5 so that
    the enclosure box (and with it the sign-test count) is the same size for
    every table."""
    rng = np.random.default_rng([7, index])
    x = np.linspace(-12.0, 12.0, 241)
    centers = rng.uniform(-3.0, 3.0, size=2)
    widths = rng.uniform(0.6, 1.6, size=2)
    weights = rng.uniform(0.3, 1.0, size=2)
    q = -sum(w * np.exp(-((x - c) / s) ** 2)
             for w, c, s in zip(weights, centers, widths))
    q *= 5.0 / math.sqrt(np.sum(q[:-1] ** 2 + q[:-1] * q[1:] + q[1:] ** 2)
                         * (x[1] - x[0]) / 3.0)
    return x, q


def _sl_step(argv_tail, out, ref):
    return {"check": "sl", "ref": ref,
            "argv": ["sl", *argv_tail, "--p", "2", "--L", "30",
                     "--out", str(out / "eigs.csv"),
                     "--report", str(out / "sl.json")],
            "report": str(out / "sl.json")}


def make_inputs(workload, seed, directory):
    """Write the workload's input files for ``seed`` into ``directory``."""
    return variant_inputs(workload, variant_for(workload, seed % 2**64),
                          directory)


def variant_inputs(workload, variant, directory):
    """Write one input variant's files into ``directory`` and return its run
    spec: a list of steps, each a CLI call or the lemma sweep, with the key
    of the stored reference its verdict is compared against."""
    directory = Path(directory)
    out = directory / "out"
    if workload == "sl-even":
        # Depth d and its mirror 41 - d: a run's sign-test count, and so
        # its time, then barely depends on the seed.
        steps = [_sl_step(["--kind", "step", "--depth", str(depth),
                           "--n", "4000"], out / str(depth),
                          ["sl-even", str(depth)])
                 for depth in (variant, VARIANTS["sl-even"] + 1 - variant)]
    elif workload == "sl-dense":
        index = variant
        x, q = well_table(index)
        table = directory / "well.csv"
        table.write_text("x,q\n" + "".join(f"{a!r},{b!r}\n" for a, b in
                                            zip(x.tolist(), q.tolist())),
                         encoding="utf-8")
        steps = [_sl_step(["--kind", "tabulated", "--file", str(table),
                           "--n", "3000"], out, ["sl-dense", str(index)])]
    elif workload == "harness":
        root = variant
        ref = ["harness", str(root)]
        steps = [
            {"check": "matrix-lab", "ref": ref,
             "argv": ["matrix-lab", "--trials", "40", "--max-dim", "20",
                      "--lambda-samples", "1000", "--seed", str(root),
                      "--jobs", "1", "--report", str(out / "lab" / "lab.json")],
             "report": str(out / "lab" / "lab.json")},
            {"check": "perturb", "ref": ref,
             "argv": ["perturb", "--trials", "200", "--max-dim", "20",
                      "--seed", str(root), "--jobs", "1",
                      "--report", str(out / "perturb" / "perturb.json")],
             "report": str(out / "perturb" / "perturb.json")},
        ]
    elif workload == "quadrature":
        rng = np.random.default_rng(variant)
        pairs = [[i, j] for i in range(len(LEMMA_PROBES))
                 for j in range(len(LEMMA_POTENTIALS))]
        pairs = [pairs[k] for k in rng.permutation(len(pairs))]
        radii = np.sort(10.0 ** rng.uniform(-2.0, 2.0, size=LEMMA_RADII))
        sweep = directory / "lemma_pairs.json"
        sweep.write_text(json.dumps({
            "probes": LEMMA_PROBES, "potentials": LEMMA_POTENTIALS,
            "pairs": pairs, "radii": radii.tolist(),
            "exponents": list(LEMMA_EXPONENTS)}), encoding="utf-8")
        steps = [
            {"check": "lemma", "ref": None, "file": str(sweep)},
            {"check": "tau0", "ref": ["quadrature", "tau0"],
             "argv": ["tau0", "--profile", "extremizer", "--X", "1e6",
                      "--out", str(out / "tau0" / "tau0.json")],
             "report": str(out / "tau0" / "tau0.json")},
            {"check": "region", "ref": None,
             "argv": ["region", "--kind", "bone", "--resolution", "512",
                      "--out", str(out / "region" / "bone.csv")],
             "report": str(out / "region" / "bone.csv")},
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    spec = {"workload": workload, "variant": variant, "out": str(out),
            "steps": steps}
    (directory / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    return spec


def _lemma_sweep(path):
    from kreinspec import sturm_liouville as sl
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    probes = [getattr(sl.ProbeFunction, kind)(**kw) for kind, kw in data["probes"]]
    potentials = [sl.Potential(**kw) for kw in data["potentials"]]
    violations = checks = 0
    for i, j in data["pairs"]:
        for r in data["radii"]:
            for p in data["exponents"]:
                checks += 1
                if not sl.lemma_ls_check(probes[i], potentials[j], p=p,
                                         r=r)["holds"]:
                    violations += 1
    return {"checks": checks, "violations": violations}


def run_once(spec):
    """Run every step of the spec; return one outcome per step (the CLI exit
    code, or the lemma sweep's counts).  Module attributes are looked up at
    call time so that an installed tracer sees the calls."""
    import kreinspec.cli
    outcomes = []
    for step in spec["steps"]:
        if step["check"] == "lemma":
            outcomes.append(_lemma_sweep(step["file"]))
        else:
            outcomes.append(kreinspec.cli.main(step["argv"]))
    return outcomes


def _close(a, b):
    return abs(a - b) <= REL_TOL * max(abs(b), 1.0)


def _nonreal_table(report):
    return sorted([row["re"], row["im"]] for row in report["checks"]["table"])


def reference_entry(step, outcome):
    """The stored reference for one step's outcome (``make_reference.py``)."""
    if outcome != 0:
        raise RuntimeError(f"{step['argv'][0]} exited {outcome}")
    report = json.loads(Path(step["report"]).read_text(encoding="utf-8"))
    if step["check"] == "sl":
        return {"nonreal": _nonreal_table(report)}
    if step["check"] == "matrix-lab":
        return {"matrixLabNonreal": report["aggregate"]["nonrealTotal"]}
    if step["check"] == "perturb":
        return {"perturbNonreal": sum(t["checks"]["nonrealCount"]
                                      for t in report["trials"])}
    if step["check"] == "tau0":
        return {"quotient": report["quotient"]}
    raise ValueError(f"no reference for step {step['check']!r}")


def empty_counts():
    return {"eigenvalues": 0, "nonreal": 0, "sign_tested": 0,
            "indeterminate": 0, "resolvent_sampled": 0,
            "resolvent_applicable": 0}


def check(spec, outcomes, reference):
    """Verdict of one run: (list of problems, counts read from the reports).
    A run passes when the list is empty."""
    problems = []
    counts = empty_counts()
    for step, outcome in zip(spec["steps"], outcomes):
        kind = step["check"]
        if kind == "lemma":
            if outcome["violations"]:
                problems.append(f"lemma: {outcome['violations']} violations")
            continue
        if outcome != 0:
            problems.append(f"{kind}: exit code {outcome}")
            continue
        if kind == "region":
            lines = Path(step["report"]).read_text(encoding="utf-8").splitlines()
            if len(lines) < 3 or lines[0] != "re,im":
                problems.append("region: boundary polyline missing")
            continue
        report = json.loads(Path(step["report"]).read_text(encoding="utf-8"))
        ref = reference
        for key in step["ref"]:
            ref = ref.get(key, {})
        if not ref:
            problems.append(f"{kind}: no stored reference {step['ref']}")
            continue
        if kind == "sl":
            checks = report["checks"]
            counts["eigenvalues"] += len(report["eigenvalues"])
            counts["nonreal"] += checks["nonrealCount"]
            counts["sign_tested"] += checks["signType"]["tested"]
            counts["indeterminate"] += checks["signType"]["indeterminate"]
            if not report["verified"] or checks["signType"]["failures"]:
                problems.append("sl: not verified")
            table = [complex(*row) for row in _nonreal_table(report)]
            want = [complex(*row) for row in ref["nonreal"]]
            if len(table) != len(want):
                problems.append(f"sl: {len(table)} non-real eigenvalues, "
                                f"reference {len(want)}")
            elif not all(min(abs(z - w) for z in table) <= REL_TOL * max(abs(w), 1.0)
                         for w in want):
                problems.append("sl: non-real table differs from reference")
        elif kind in ("matrix-lab", "perturb"):
            agg = report["aggregate"]
            if not agg["verified"] or agg["failures"]:
                problems.append(f"{kind}: {agg['failures']} failures")
            if kind == "matrix-lab":
                got, want = agg["nonrealTotal"], ref["matrixLabNonreal"]
                for trial in report["trials"]:
                    resolvent = trial["checks"]["resolvent"]
                    counts["resolvent_sampled"] += resolvent["sampled"]
                    counts["resolvent_applicable"] += resolvent["applicable"]
            else:
                got = sum(t["checks"]["nonrealCount"] for t in report["trials"])
                want = ref["perturbNonreal"]
            if not _close(got, want):
                problems.append(f"{kind}: nonrealTotal {got}, reference {want}")
        elif kind == "tau0":
            if not report["upperBoundSatisfied"]:
                problems.append("tau0: upper bound violated")
            if not _close(report["quotient"], ref["quotient"]):
                problems.append(f"tau0: quotient {report['quotient']}, "
                                f"reference {ref['quotient']}")
    return problems, counts
