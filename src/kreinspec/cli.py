"""Command-line surface: one subcommand per workflow.

Exit codes are a stable contract: 0 success/verified, 1 verification
failure, 2 usage or validation error, 3 hypothesis unmet, 4 numerical
failure.  Flags mirror the config-file keys one-to-one and override them.
All subcommands are deterministic for fixed flags and seeds.
"""

import argparse
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .geometry import DiskFamilyRegion, RelBound, SpectrumModel, \
    boundary_polyline, prior_hull_height, region_to_json
from .operators import KreinPerturbationProblem
from .reporting import COMMAND_SCHEMAS, ConfigError, RunConfig, RunRecord, \
    artifact_version, finalize_record, matrix_from_json, normalize_config, \
    read_config, write_csv, write_json, write_report
from .sturm_liouville import Potential, TAU0_UPPER_BOUND, TAU0_UPPER_TOL, \
    bst_region, containment_report, discretize, extremizer_probe, \
    guard_eig_memory, indicator_probe, sl_constants, tau0_hilbert_form
from .verification import DEFAULT_B_GRID, HypothesisUnmetError, random_block_operator, \
    random_krein_problem, trial_seeds, verify_block_theorem, verify_tmain

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_HYPOTHESIS = 3
EXIT_NUMERICAL = 4

# sl keys of the closed-form wells; kind tabulated refuses them from any source.
_WELL_KEYS = ("depth", "width")


def _add_schema_flags(sub, command):
    for key, (tname, default, desc, _check) in COMMAND_SCHEMAS[command].items():
        if command == "sl" and key in _WELL_KEYS:
            desc += "; step, gaussian and lorentzian only"
        kwargs = {"default": None, "dest": key,
                  "help": f"({tname}; {desc + '; ' if desc else ''}"
                          f"default {default})"}
        if tname == "bool":  # --no-KEY turns off a file's true
            kwargs["action"] = argparse.BooleanOptionalAction
        elif tname != "str":
            kwargs["type"] = int if tname == "int" else float
        sub.add_argument("--" + key.replace("_", "-"), **kwargs)


def _resolve_config(args, command) -> RunConfig:
    """The config file's keys, validated alone first, under the flags given;
    sl refuses ``_WELL_KEYS`` from either source for kind tabulated."""
    given = {} if args.config is None else read_config(args.config, command)[1]
    normalize_config(command, given)
    flags = {key: getattr(args, key) for key in COMMAND_SCHEMAS[command]
             if getattr(args, key, None) is not None}
    config = normalize_config(command, dict(given, **flags))
    wells = [k for k in _WELL_KEYS if k in flags or given.get(k) is not None]
    if command == "sl" and config.params["kind"] == "tabulated" and wells:
        where = f"--{wells[0]}" if wells[0] in flags else f"config key {wells[0]!r}"
        raise ConfigError(f"{where} applies to step, gaussian and lorentzian "
                          "wells only, not to kind tabulated")
    return config


def _record_for(args, config: RunConfig, **inputs) -> RunRecord:
    """Run record with the digest of each input file read, by flag name."""
    record = RunRecord(config={"command": config.command, **config.params})
    for flag, path in {"config": args.config, **inputs}.items():
        if path is not None:
            record.register_input(flag, path)
    return record


def cmd_region(args) -> int:
    config = _resolve_config(args, "region")
    p = config.params
    record = _record_for(args, config)
    out = Path(p["out"])
    window = None
    if p["re_min"] is not None or p["re_max"] is not None:
        window = (p["re_min"] if p["re_min"] is not None else -math.inf,
                  p["re_max"] if p["re_max"] is not None else math.inf)

    if p["kind"] == "hull":
        shape = RelBound(p["a"], p["b"])
    else:
        gamma = p["gamma"]
        if p["centers"] == "half-line-below":
            centers = SpectrumModel.half_line_below(gamma)
        elif p["centers"] == "half-line-above":
            centers = SpectrumModel.half_line_above(gamma)
        else:
            centers = SpectrumModel.interval(-gamma, gamma)
        shape = DiskFamilyRegion(RelBound(p["a"], p["b"]), centers,
                                 radius_scale=p["radius_scale"])
    pts = boundary_polyline(shape, p["resolution"], re_window=window)
    write_csv(out, ["re", "im"], [(z.real, z.imag) for z in pts])
    record.register(out)
    if p["kind"] != "hull":
        region_path = out.with_name(out.stem + "_region.json")
        write_json(region_path, region_to_json(shape))
        record.register(region_path)
    elif p["overlay_prior"]:
        xs = np.array([z.real for z in pts])
        prior_path = out.with_name(out.stem + "_prior.csv")
        write_csv(prior_path, ["re", "im"], zip(xs, prior_hull_height(shape, xs)))
        record.register(prior_path)
    finalize_record(record, out.parent)
    return EXIT_OK


def _run_suite(config: RunConfig, record: RunRecord, trial, payloads,
               own_aggregate, headline: str) -> int:
    """Run ``trial`` on every payload (in a process pool when --jobs > 1 and
    there are several), write the suite report and its run record, and
    name failing trials on stderr.  A trial returns its report summary and
    its diagnostics, {stage: {count name: count}}, which the run record
    sums over trials.  ``own_aggregate(summaries)`` gives the command's own
    aggregate entries; ``headline`` formats the aggregate into the stdout
    summary."""
    p = config.params
    if p["jobs"] > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=p["jobs"]) as pool:
            outcomes = list(pool.map(trial, payloads))
    else:
        outcomes = [trial(pl) for pl in payloads]
    summaries = [summary for summary, _ in outcomes]
    for _, diagnostics in outcomes:
        for stage, counts in diagnostics.items():
            total = record.diagnostics.setdefault(stage, dict.fromkeys(counts, 0))
            for key, count in counts.items():
                total[key] += count
    failing = [s for s in summaries if not s["verified"]]
    aggregate = dict(own_aggregate(summaries), trials=len(summaries),
                     failures=len(failing),
                     failingSeeds=[s.get("seed") for s in failing],
                     verified=not failing)
    report_path = Path(p["report"])
    write_report(record, {"aggregate": aggregate, "trials": summaries},
                 report_path)
    finalize_record(record, report_path.parent)
    for s in failing:
        print(f"FAIL trial {s['trial']} seed {s.get('seed')}", file=sys.stderr)
    print(f"{config.command}: " + headline.format(**aggregate))
    return EXIT_OK if not failing else EXIT_VERIFICATION


def _guard_stack_memory(path: str, n: int, depth: int) -> None:
    """Refuse, before any trial, a run stacking ``depth`` complex n x n matrices
    (48 bytes an entry with workspace) above ``DENSE_EIG_MAX_BYTES``."""
    guard_eig_memory(path, n, 48 * depth * n * n)


def _matrix_lab_trial(payload):
    index, seed, max_dim, lambda_samples = payload
    block = random_block_operator(seed, max_dim=max_dim)
    report = verify_block_theorem(block, lambda_samples=lambda_samples, seed=seed)
    return dict(report.to_json(), trial=index, seed=seed), report.diagnostics


def cmd_matrix_lab(args) -> int:
    config = _resolve_config(args, "matrix-lab")
    p = config.params
    # the bound fit stacks len(DEFAULT_B_GRID) matrices, the resolvent samples
    # lambda_samples of them
    _guard_stack_memory("block-matrix", p["max_dim"],
                        max(len(DEFAULT_B_GRID), p["lambda_samples"]))
    payloads = [(i, s, p["max_dim"], p["lambda_samples"])
                for i, s in enumerate(trial_seeds(p["seed"], p["trials"]))]
    return _run_suite(config, _record_for(args, config), _matrix_lab_trial,
                      payloads, lambda summaries: {
                          "rootSeed": p["seed"],
                          "nonrealTotal": sum(s["checks"]["nonrealCount"]
                                              for s in summaries)},
                      "{trials} trials, {nonrealTotal} non-real eigenvalues, "
                      "{failures} failures")


def _perturb_trial(payload):
    index, seed, max_dim, tau = payload
    problem = random_krein_problem(seed, max_dim=max_dim)
    report = verify_tmain(problem, tau=tau)
    return dict(report.to_json(), trial=index, seed=seed), report.diagnostics


def _perturb_file_trial(payload):
    problem, tau = payload
    report = verify_tmain(problem, tau=tau)
    return dict(report.to_json(), trial=0), report.diagnostics


def cmd_perturb(args) -> int:
    config = _resolve_config(args, "perturb")
    p = config.params
    record = _record_for(args, config, problem=p["problem"])
    if p["problem"] is not None:
        payload = json.loads(Path(p["problem"]).read_text(encoding="utf-8"))
        missing = [key for key in ("signature", "A0", "V")
                   if not isinstance(payload, dict) or key not in payload]
        if missing:
            raise ConfigError(f"{p['problem']}: problem needs key {missing[0]!r}")
        # the bound fit and the inertia counts each stack len(DEFAULT_B_GRID)
        _guard_stack_memory("perturbation", np.size(payload["signature"]),
                            len(DEFAULT_B_GRID))
        problem = KreinPerturbationProblem(
            signature=np.asarray(payload["signature"], dtype=float),
            a0=matrix_from_json(payload["A0"]),
            v=matrix_from_json(payload["V"]))
        trial, payloads = _perturb_file_trial, [(problem, p["tau"])]
    else:
        _guard_stack_memory("perturbation", p["max_dim"], len(DEFAULT_B_GRID))
        trial = _perturb_trial
        payloads = [(i, s, p["max_dim"], p["tau"])
                    for i, s in enumerate(trial_seeds(p["seed"], p["trials"]))]
    return _run_suite(config, record, trial, payloads, lambda summaries: {},
                      "{trials} instances, {failures} failures")


def _build_potential(p) -> Potential:
    if p["kind"] == "tabulated":
        if p["file"] is None:
            raise ConfigError("tabulated potential requires --file")
        rows = [line.split(",") for line in
                Path(p["file"]).read_text(encoding="utf-8").strip().splitlines()]
        header = bool(rows) and rows[0][0].strip().lower() == "x"
        xs, qs = [], []
        for number, r in enumerate(rows, 1):
            if len(r) < 2:
                raise ConfigError(f"{p['file']}: line {number} needs two columns")
            if not (header and number == 1):
                try:
                    xs.append(float(r[0]))
                    qs.append(float(r[1]))
                except ValueError as exc:
                    raise ConfigError(f"{p['file']}: line {number}: {exc}") from None
        return Potential(kind="tabulated", table=(xs, qs))
    return Potential(kind=p["kind"], depth=p["depth"], width=p["width"])


def cmd_sl(args) -> int:
    config = _resolve_config(args, "sl")
    p = config.params
    table_file = p["file"] if p["kind"] == "tabulated" else None
    record = _record_for(args, config, file=table_file)
    potential = _build_potential(p)
    disc = discretize(potential, L=p["L"], n=p["n"])
    report = containment_report(disc, p["p"])
    record.diagnostics = report.diagnostics

    out = Path(p["out"])
    rows = [(r["re"], r["im"], r["in_paper_box"], r["in_bst"],
             r["margin_paper"], r["margin_bst"])
            for r in report.checks["table"]]
    write_csv(out, ["re", "im", "in_paper_box", "in_bst", "margin_paper",
                    "margin_bst"], rows)
    record.register(out)

    c = sl_constants(p["p"])
    bst = bst_region(p["p"], 1.0)
    const_path = out.with_name(out.stem + "_constants.csv")
    write_csv(const_path,
              ["p", "s_p", "f_sp", "C_p", "im_coef", "re_coef", "bst_im",
               "bst_abs"],
              [(c.p, c.s_p, c.f_sp, c.c_p, c.im_coef, c.re_coef,
                bst.im_coef, bst.abs_coef)])
    record.register(const_path)

    report_path = Path(p["report"])
    write_report(record, report.to_json(), report_path)
    finalize_record(record, report_path.parent)
    print(f"sl: {report.nonreal_count} non-real eigenvalues, "
          f"{len(report.containment_failures)} containment failures, "
          f"{len(report.sign_type_failures)} sign failures")
    return EXIT_OK if report.verified else EXIT_VERIFICATION


def cmd_tau0(args) -> int:
    config = _resolve_config(args, "tau0")
    p = config.params
    record = _record_for(args, config)
    if p["profile"] == "indicator":
        f1, f2, support = indicator_probe()
        reference = 1.0 + (2.0 / math.pi) * (10.0 * math.log(2.0)
                                             - 6.0 * math.log(3.0))
    else:
        f1, f2, support = extremizer_probe(p["X"])
        reference = None
    value = tau0_hilbert_form(f1, f2, support)
    upper_ok = value <= TAU0_UPPER_BOUND + TAU0_UPPER_TOL
    payload = {"profile": p["profile"], "X": support[1], "quotient": value,
               "upperBound": TAU0_UPPER_BOUND, "upperBoundSatisfied": upper_ok,
               "reference": reference}
    report_path = Path(p["out"])
    write_report(record, payload, report_path)
    finalize_record(record, report_path.parent)
    print(f"tau0[{p['profile']}]: quotient {value:.6f} "
          f"(upper bound {TAU0_UPPER_BOUND:.6f})")
    return EXIT_OK if upper_ok else EXIT_VERIFICATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kreinspec",
        description="Spectral-enclosure toolkit: region data, block-matrix "
                    "and perturbation verification, indefinite "
                    "Sturm-Liouville pipeline.")
    parser.add_argument("--version", action="version",
                        version=f"kreinspec {artifact_version()}")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    specs = [
        ("region", cmd_region, "write a region boundary polyline as CSV"),
        ("matrix-lab", cmd_matrix_lab,
         "verify the block-matrix enclosure on random instances"),
        ("perturb", cmd_perturb,
         "verify the perturbation enclosure on random or file instances"),
        ("sl", cmd_sl,
         "discretize an indefinite Sturm-Liouville problem and check "
         "eigenvalue containment"),
        ("tau0", cmd_tau0,
         "evaluate the involution-form Rayleigh quotient for a probe"),
    ]
    for name, func, help_text in specs:
        sub = subs.add_parser(name, help=help_text)
        sub.add_argument("--config", default=None,
                         help="JSON config file; flags override its values")
        _add_schema_flags(sub, name)
        sub.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except HypothesisUnmetError as exc:
        print(f"hypothesis unmet: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
