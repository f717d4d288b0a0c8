import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kreinspec import sturm_liouville
from kreinspec.cli import main
from kreinspec.reporting import matrix_to_json, verify_manifest


def run(argv):
    return main(argv)


class TestRegionCommand:
    def test_bone_curve(self, tmp_path):
        out = tmp_path / "bone.csv"
        code = run(["region", "--kind", "bone", "--a", "10", "--b", "0.4",
                    "--gamma", "10", "--resolution", "128",
                    "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "re,im"
        pts = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
        top = max(y for _, y in pts)
        assert top == pytest.approx(math.sqrt(50), abs=0.05)
        # region metadata written alongside
        region = json.loads((tmp_path / "bone_region.json").read_text())
        assert region["gamma"] == 10.0
        verify_manifest(tmp_path / "run_record.json")

    def test_hull_with_prior_overlay(self, tmp_path):
        out = tmp_path / "hull.csv"
        code = run(["region", "--kind", "hull", "--a", "3", "--b", "0.9",
                    "--resolution", "64", "--overlay-prior",
                    "--out", str(out)])
        assert code == 0
        main_pts = out.read_text().strip().splitlines()[1:]
        prior_pts = (tmp_path / "hull_prior.csv").read_text().strip().splitlines()[1:]
        assert len(main_pts) == len(prior_pts) == 64
        # at every abscissa the prior curve lies above the sharper hull
        for m_ln, p_ln in zip(main_pts, prior_pts):
            mx, my = map(float, m_ln.split(","))
            px, py = map(float, p_ln.split(","))
            assert mx == px
            assert my <= py + 1e-12

    def test_no_flag_turns_off_config_bool(self, tmp_path):
        # a config file's true is overridden by --no-overlay-prior, and
        # --overlay-prior overrides a file's false
        for value, flag, prior in ((True, "--no-overlay-prior", False),
                                   (True, None, True),
                                   (False, "--overlay-prior", True)):
            cfg = tmp_path / f"{value}{flag}.json"
            cfg.write_text(json.dumps({"kind": "hull", "a": 3, "b": 0.5,
                                       "overlay_prior": value}))
            out = tmp_path / f"{cfg.stem}" / "h.csv"
            argv = ["region", "--config", str(cfg), "--out", str(out)]
            assert run(argv + ([flag] if flag else [])) == 0
            assert out.exists()
            assert (out.parent / "h_prior.csv").exists() is prior

    def test_degenerate_point(self, tmp_path):
        # gamma = 0 centers the disks on the point +0.0 (not -0.0) in both
        # the polyline and the region file
        out = tmp_path / "pt.csv"
        code = run(["region", "--kind", "disks", "--a", "0", "--b", "0",
                    "--gamma", "0", "--out", str(out)])
        assert code == 0
        assert out.read_bytes() == b"re,im\n0.0,0.0\n"
        assert (tmp_path / "pt_region.json").read_bytes() == (
            b'{\n "a": 0.0,\n "b": 0.0,\n "centers": {\n  "intervals": [],\n'
            b'  "points": [\n   0.0\n  ]\n },\n "gamma": 0.0,\n'
            b' "kind": "disk-family",\n "radiusScale": 1.0\n}\n')

    def test_csv_bytes(self, tmp_path):
        # repr floats, '.' separator, LF endings, one boundary point per line
        out = tmp_path / "hull.csv"
        code = run(["region", "--kind", "hull", "--a", "1.5625", "--b", "0",
                    "--re-min", "-1", "--re-max", "0.5", "--resolution", "16",
                    "--overlay-prior", "--out", str(out)])
        assert code == 0
        expected = "re,im\n" + "".join(
            f"{x!r},1.25\n" for x in np.linspace(-1.0, 0.5, 16).tolist())
        assert out.read_bytes() == expected.encode()
        assert (tmp_path / "hull_prior.csv").read_bytes() == expected.encode()

    def test_window_missing_region_exit_two(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        code = run(["region", "--kind", "bone", "--re-min", "100",
                    "--re-max", "200", "--out", str(out)])
        assert code == 2
        assert "misses the region" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["bone", "hull"])
    def test_reversed_window_exit_two(self, tmp_path, capsys, kind):
        out = tmp_path / "r.csv"
        code = run(["region", "--kind", kind, "--a", "3", "--b", "0.5",
                    "--re-min", "5", "--re-max", "3", "--out", str(out)])
        assert code == 2
        assert "reversed" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_parameters_exit_two(self, tmp_path, capsys):
        code = run(["region", "--kind", "bone", "--a", "-1",
                    "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_half_open_hull_window_exit_two(self, tmp_path, capsys):
        out = tmp_path / "hull.csv"
        code = run(["region", "--kind", "hull", "--a", "3", "--b", "0.5",
                    "--re-min", "-4", "--resolution", "64", "--out", str(out)])
        assert code == 2
        assert "finite re_window" in capsys.readouterr().err
        assert not out.exists()


class TestMatrixLabCommand:
    def test_small_suite_exit_zero(self, tmp_path):
        report = tmp_path / "lab.json"
        code = run(["matrix-lab", "--trials", "8", "--max-dim", "10",
                    "--seed", "42", "--lambda-samples", "50",
                    "--report", str(report)])
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["aggregate"]["verified"] is True
        assert payload["aggregate"]["trials"] == 8
        verify_manifest(tmp_path / "run_record.json")

    def test_run_record_sums_resolvent_diagnostics(self, tmp_path):
        # the run record counts the samples some side made applicable and
        # how each was decided; the report does not carry them
        report = tmp_path / "lab.json"
        assert run(["matrix-lab", "--trials", "6", "--max-dim", "10",
                    "--seed", "5", "--lambda-samples", "200",
                    "--report", str(report)]) == 0
        diag = json.loads((tmp_path / "run_record.json").read_text())[
            "diagnostics"]["resolvent"]
        assert diag["applicableSamples"] == diag["certified"] + diag["svd"]
        assert 0 < diag["applicableSamples"] <= 6 * 200
        assert "applicableSamples" not in report.read_text()

    def test_zero_trials_usage_error(self, tmp_path):
        code = run(["matrix-lab", "--trials", "0",
                    "--report", str(tmp_path / "r.json")])
        assert code == 2

    def test_deterministic_report_bytes(self, tmp_path):
        r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
        for r in (r1, r2):
            assert run(["matrix-lab", "--trials", "4", "--max-dim", "8",
                        "--seed", "7", "--lambda-samples", "20",
                        "--report", str(r)]) == 0
        assert r1.read_bytes() == r2.read_bytes()

    def test_parallel_jobs_match_serial(self, tmp_path):
        r1, r2 = tmp_path / "serial.json", tmp_path / "par.json"
        base = ["matrix-lab", "--trials", "4", "--max-dim", "8", "--seed",
                "3", "--lambda-samples", "20"]
        assert run(base + ["--report", str(r1)]) == 0
        assert run(base + ["--jobs", "2", "--report", str(r2)]) == 0
        assert r1.read_bytes() == r2.read_bytes()

    @pytest.mark.parametrize("samples, depth", [(20, 100), (1000, 1000)])
    def test_max_dim_memory_guard_exit_two(self, tmp_path, monkeypatch, capsys,
                                           samples, depth):
        # --max-dim 3 estimates 48 * depth * 9 bytes, depth the larger of the
        # b grid (100) and the resolvent samples: just above the limit it is
        # refused before any trial and no report is written
        argv = ["matrix-lab", "--trials", "1", "--max-dim", "3",
                "--lambda-samples", str(samples), "--report",
                str(tmp_path / "r.json")]
        monkeypatch.setattr(sturm_liouville, "DENSE_EIG_MAX_BYTES", 48 * depth * 9 - 1)
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "DENSE_EIG_MAX_BYTES" in err and "Traceback" not in err
        assert not (tmp_path / "r.json").exists()
        monkeypatch.setattr(sturm_liouville, "DENSE_EIG_MAX_BYTES", 48 * depth * 9)
        assert run(argv) == 0

    def test_fixed_seed_outcome_pinned(self, tmp_path):
        # verdicts and the non-real count of a fixed-seed suite: a refactor
        # of the harness must not move them
        report = tmp_path / "lab.json"
        assert run(["matrix-lab", "--trials", "50", "--seed", "42",
                    "--report", str(report)]) == 0
        aggregate = json.loads(report.read_text())["aggregate"]
        assert (aggregate["trials"], aggregate["failures"],
                aggregate["nonrealTotal"]) == (50, 0, 152)


class TestPerturbCommand:
    def test_generated_suite(self, tmp_path):
        report = tmp_path / "perturb.json"
        code = run(["perturb", "--trials", "10", "--max-dim", "8",
                    "--seed", "11", "--report", str(report)])
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["aggregate"]["verified"] is True

    def test_fixed_seed_outcome_pinned(self, tmp_path):
        # verdicts and the non-real count of a fixed-seed suite; every
        # report, of either branch, states its sign-type summary
        report = tmp_path / "perturb.json"
        assert run(["perturb", "--trials", "50", "--seed", "42",
                    "--report", str(report)]) == 0
        trials = json.loads(report.read_text())["trials"]
        assert [t["verified"] for t in trials] == [True] * 50
        assert sum(t["checks"]["nonrealCount"] for t in trials) == 54
        assert all("signType" in t["checks"] for t in trials)

    def test_problem_file(self, tmp_path):
        sig = np.array([1.0, -1.0])
        p = np.array([[2.0, 1.0], [1.0, 1.0]])
        w = np.array([[0.1, 0.0], [0.0, -0.2]])
        problem = {"signature": [1, -1],
                   "A0": matrix_to_json(sig[:, None] * p),
                   "V": matrix_to_json(sig[:, None] * w)}
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        report = tmp_path / "rep.json"
        code = run(["perturb", "--problem", str(path),
                    "--report", str(report)])
        assert code == 0
        payload = json.loads(report.read_text())
        trial = payload["trials"][0]
        assert trial["bounds"]["tau0"] >= 1.0
        assert trial["verified"] is True

    def test_invalid_problem_file_exit_two(self, tmp_path):
        problem = {"signature": [1, 2],  # not a +-1 signature
                   "A0": matrix_to_json(np.eye(2)),
                   "V": matrix_to_json(np.zeros((2, 2)))}
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        code = run(["perturb", "--problem", str(path),
                    "--report", str(tmp_path / "r.json")])
        assert code == 2

    def test_problem_file_memory_guard_exit_two(self, tmp_path, monkeypatch,
                                                capsys):
        # a 3 x 3 file's estimate is 48 * 100 * 9 bytes: just above the limit,
        # it is refused before any solve and no report is written
        monkeypatch.setattr(sturm_liouville, "DENSE_EIG_MAX_BYTES", 48 * 100 * 9 - 1)
        sig = np.array([1.0, -1.0, 1.0])
        problem = {"signature": sig.tolist(),
                   "A0": matrix_to_json(sig[:, None] * np.diag([2.0, 1.0, 3.0])),
                   "V": matrix_to_json(sig[:, None] * np.diag([0.1, -0.2, 0.0]))}
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        report = tmp_path / "r.json"
        assert run(["perturb", "--problem", str(path), "--report", str(report)]) == 2
        assert "DENSE_EIG_MAX_BYTES" in capsys.readouterr().err
        assert not report.exists()
        monkeypatch.setattr(sturm_liouville, "DENSE_EIG_MAX_BYTES", 48 * 100 * 9)
        assert run(["perturb", "--problem", str(path), "--report", str(report)]) == 0

    def test_max_dim_memory_guard_exit_two(self, tmp_path, monkeypatch, capsys):
        # --max-dim 3 estimates 48 * 100 * 9 bytes, as a 3 x 3 problem file
        argv = ["perturb", "--trials", "1", "--max-dim", "3", "--report",
                str(tmp_path / "r.json")]
        monkeypatch.setattr(sturm_liouville, "DENSE_EIG_MAX_BYTES", 48 * 100 * 9 - 1)
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "DENSE_EIG_MAX_BYTES" in err and "Traceback" not in err
        assert not (tmp_path / "r.json").exists()
        monkeypatch.setattr(sturm_liouville, "DENSE_EIG_MAX_BYTES", 48 * 100 * 9)
        assert run(argv) == 0

    @pytest.mark.parametrize("payload, key", [
        ({"signature": [1, -1], "V": matrix_to_json(np.zeros((2, 2)))}, "A0"),
        ([1, -1], "signature"),
    ], ids=["missing-A0", "not-an-object"])
    def test_problem_file_missing_key_exit_two(self, tmp_path, capsys,
                                               payload, key):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(payload))
        code = run(["perturb", "--problem", str(path),
                    "--report", str(tmp_path / "r.json")])
        assert code == 2
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize("a0, defect", [
        ({"data": []}, "'rows'"),
        ([[1.0, 0.0], [0.0, 1.0]], "'rows'"),
        ({"rows": 2, "cols": 1, "data": [1.0, 2.0]}, "entry 0"),
        ({"rows": 2, "cols": 1, "data": [[1.0, 0.0]]}, "2 entries"),
    ], ids=["no-rows", "nested-list", "plain-numbers", "short-data"])
    def test_malformed_matrix_exit_two(self, tmp_path, capsys, a0, defect):
        payload = {"signature": [1, -1], "A0": a0,
                   "V": matrix_to_json(np.zeros((2, 2)))}
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(payload))
        code = run(["perturb", "--problem", str(path),
                    "--report", str(tmp_path / "r.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "matrix" in err and defect in err
        assert "Traceback" not in err

    def test_parallel_jobs_match_serial(self, tmp_path):
        r1, r2 = tmp_path / "serial.json", tmp_path / "par.json"
        base = ["perturb", "--trials", "6", "--max-dim", "8", "--seed", "5"]
        assert run(base + ["--report", str(r1)]) == 0
        assert run(base + ["--jobs", "2", "--report", str(r2)]) == 0
        assert r1.read_bytes() == r2.read_bytes()


class TestSlCommand:
    def test_zero_depth_vacuous_pass(self, tmp_path):
        out = tmp_path / "eigs.csv"
        code = run(["sl", "--kind", "step", "--depth", "0", "--p", "2",
                    "--L", "6", "--n", "64", "--out", str(out),
                    "--report", str(tmp_path / "sl.json")])
        assert code == 0
        assert out.read_text().splitlines()[0] == \
            "re,im,in_paper_box,in_bst,margin_paper,margin_bst"

    def test_step_well_run(self, tmp_path):
        out = tmp_path / "eigs.csv"
        report = tmp_path / "sl.json"
        code = run(["sl", "--kind", "step", "--depth", "5", "--p", "2",
                    "--L", "14", "--n", "700", "--out", str(out),
                    "--report", str(report)])
        assert code == 0
        rows = out.read_text().strip().splitlines()[1:]
        assert len(rows) >= 4
        for row in rows:
            cells = row.split(",")
            assert cells[2] == "true" and cells[3] == "true"
        constants = (tmp_path / "eigs_constants.csv").read_text().splitlines()
        assert constants[0] == "p,s_p,f_sp,C_p,im_coef,re_coef,bst_im,bst_abs"
        values = constants[1].split(",")
        assert float(values[1]) == pytest.approx(2.188068850809769, rel=1e-12)
        payload = json.loads(report.read_text())
        assert payload["verified"] is True

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"kind": "step", "depth": 5, "p": 2, '
                       '"L": 6, "n": 64}')
        out = tmp_path / "eigs.csv"
        code = run(["sl", "--config", str(cfg), "--depth", "0",
                    "--out", str(out),
                    "--report", str(tmp_path / "sl.json")])
        assert code == 0
        payload = json.loads((tmp_path / "sl.json").read_text())
        assert payload["instance"]["depth"] == 0.0

    def test_tabulated_from_file(self, tmp_path):
        table = tmp_path / "q.csv"
        xs = np.linspace(-2, 2, 21)
        rows = "\n".join(f"{x},{-3.0 * math.exp(-x * x)}" for x in xs)
        table.write_text("x,q\n" + rows + "\n")
        code = run(["sl", "--kind", "tabulated", "--file", str(table),
                    "--p", "2", "--L", "6", "--n", "64",
                    "--out", str(tmp_path / "eigs.csv"),
                    "--report", str(tmp_path / "sl.json")])
        assert code == 0
        # a depth applies to the closed-form wells only
        payload = json.loads((tmp_path / "sl.json").read_text())
        assert payload["instance"]["depth"] is None

    @pytest.mark.parametrize("flag", ["--depth", "--width"])
    def test_tabulated_refuses_well_flags(self, tmp_path, capsys, flag):
        table = tmp_path / "q.csv"
        table.write_text("x,q\n-1.0,-2.0\n0.0,-3.0\n1.0,-2.0\n")
        code = run(["sl", "--kind", "tabulated", "--file", str(table),
                    flag, "7", "--p", "2", "--L", "6", "--n", "64",
                    "--out", str(tmp_path / "eigs.csv"),
                    "--report", str(tmp_path / "sl.json")])
        assert code == 2
        assert f"{flag} applies to step, gaussian and lorentzian" in \
            capsys.readouterr().err
        assert not (tmp_path / "sl.json").exists()

    @pytest.mark.parametrize("key", ["depth", "width"])
    def test_tabulated_refuses_well_keys_in_config(self, tmp_path, capsys, key):
        table = tmp_path / "q.csv"
        table.write_text("x,q\n-1.0,-2.0\n0.0,-3.0\n1.0,-2.0\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "tabulated", "file": str(table),
                                   key: 7, "p": 2, "L": 6, "n": 64}))
        code = run(["sl", "--config", str(cfg),
                    "--out", str(tmp_path / "eigs.csv"),
                    "--report", str(tmp_path / "sl.json")])
        assert code == 2
        assert f"config key {key!r} applies to step, gaussian and lorentzian" \
            in capsys.readouterr().err
        assert not (tmp_path / "sl.json").exists()

    def test_tabulated_flag_refuses_config_depth(self, tmp_path, capsys):
        # the kind comes from the flag, the depth from the file
        table = tmp_path / "q.csv"
        table.write_text("x,q\n-1.0,-2.0\n0.0,-3.0\n1.0,-2.0\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "step", "depth": 7, "p": 2,
                                   "L": 6, "n": 64}))
        code = run(["sl", "--config", str(cfg), "--kind", "tabulated",
                    "--file", str(table), "--out", str(tmp_path / "eigs.csv"),
                    "--report", str(tmp_path / "sl.json")])
        assert code == 2
        assert "config key 'depth'" in capsys.readouterr().err

    def test_bad_config_value_refused_under_flag(self, tmp_path, capsys):
        # the file is validated on its own, so a flag does not mask its error
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"kind": "step", "n": 3}')
        code = run(["sl", "--config", str(cfg), "--n", "64", "--L", "6",
                    "--out", str(tmp_path / "eigs.csv"),
                    "--report", str(tmp_path / "sl.json")])
        assert code == 2
        assert "field 'n'" in capsys.readouterr().err

    @staticmethod
    def _off_centre_table(path, centre=2.0, depth=6.0):
        xs = np.linspace(-4, 4, 81).tolist()
        path.write_text("x,q\n" + "".join(
            f"{x!r},{-depth * math.exp(-(x - centre) ** 2)!r}\n" for x in xs))
        return path

    def _tabulated_run(self, tmp_path, n=1000):
        table = self._off_centre_table(tmp_path / "q.csv")
        return run(["sl", "--kind", "tabulated", "--file", str(table),
                    "--p", "2", "--L", "15", "--n", str(n),
                    "--out", str(tmp_path / "eigs.csv"),
                    "--report", str(tmp_path / "sl.json")])

    def test_certified_run_records_diagnostics(self, tmp_path):
        assert self._tabulated_run(tmp_path) == 0
        record = json.loads((tmp_path / "run_record.json").read_text())
        diag = record["diagnostics"]
        assert diag["path"] == "certified"
        assert (diag["kappa"], diag["nonrealPairs"],
                diag["negativeTypeReal"]) == (2, 1, 1)
        assert diag["iterations"] >= 1
        assert diag["maxResidual"] <= sturm_liouville.SL_RESIDUAL_TOL
        assert diag["fallbackReason"] is None
        report = json.loads((tmp_path / "sl.json").read_text())
        assert report["checks"]["spectrum"] == {
            "path": "certified", "kappa": 2, "nonrealPairs": 1,
            "negativeTypeReal": 1, "real": 998}
        assert "diagnostics" not in report and "iterations" not in json.dumps(report)
        assert len(report["eigenvalues"]) == 2
        rows = (tmp_path / "eigs.csv").read_text().splitlines()[1:]
        assert [float(r.split(",")[1]) < 0 for r in rows] == [True, False]
        verify_manifest(tmp_path / "run_record.json")

    def test_fallback_run_records_its_reason(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sturm_liouville, "SL_MAX_ITERATIONS", 1)
        assert self._tabulated_run(tmp_path, n=400) == 0
        diag = json.loads((tmp_path / "run_record.json").read_text())[
            "diagnostics"]
        assert diag["path"] == "dense"
        assert diag["kappa"] == 2
        assert diag["fallbackReason"].startswith("not converged after 1")
        report = json.loads((tmp_path / "sl.json").read_text())
        assert report["checks"]["spectrum"] == {
            "path": "dense", "kappa": 2, "nonrealPairs": 1,
            "negativeTypeReal": 1, "real": 398}
        assert len(report["eigenvalues"]) == 2

    def test_count_that_does_not_close_exit_four(self, tmp_path, monkeypatch,
                                                 capsys):
        # claiming one negative eigenvalue of T too many: neither the
        # certified path nor its dense fallback can close kappa = P + W
        counts = sturm_liouville._sturm_counts
        monkeypatch.setattr(sturm_liouville, "_sturm_counts",
                            lambda d, pts: (counts(d, pts)[0] + 1,
                                            counts(d, pts)[1]))
        assert self._tabulated_run(tmp_path, n=400) == 4
        assert ("numerical failure: count does not close on the dense path: "
                "P + W = 1 + 1, kappa = 3") in capsys.readouterr().err
        assert not (tmp_path / "sl.json").exists()

    def test_dense_memory_guard_exit_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(sturm_liouville, "DENSE_EIG_MAX_BYTES", 10**6)
        monkeypatch.setattr(sturm_liouville, "SL_MAX_ITERATIONS", 1)
        assert self._tabulated_run(tmp_path, n=400) == 2
        assert "DENSE_EIG_MAX_BYTES" in capsys.readouterr().err

    @staticmethod
    def _measured_sl_run(tmp_path, *argv):
        """Run ``sl`` in a grandchild process; return its exit code, its
        peak RSS in MB and its stderr.  The child's own child is measured,
        so no earlier subprocess of the pytest process counts."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        command = [sys.executable, "-m", "kreinspec.cli", "sl", *argv,
                   "--out", str(tmp_path / "eigs.csv"),
                   "--report", str(tmp_path / "sl.json")]
        probe = ("import json, resource, subprocess, sys; "
                 "done = subprocess.run(json.loads(sys.argv[1]), "
                 "stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, "
                 "text=True); "
                 "print(done.returncode, resource.getrusage("
                 "resource.RUSAGE_CHILDREN).ru_maxrss); "
                 "print(done.stderr, file=sys.stderr)")
        done = subprocess.run([sys.executable, "-c", probe,
                               json.dumps(command)],
                              capture_output=True, text=True, timeout=300,
                              env=dict(os.environ, PYTHONPATH=src,
                                       OPENBLAS_NUM_THREADS="1"))
        code, peak_kib = map(int, done.stdout.split())
        return code, peak_kib / 1024, done.stderr

    def test_large_grid_runs_in_linear_memory(self, tmp_path):
        # a dense eig at n = 20000 would need 6.4 GB; the certified path
        # stays far below 500 MB
        table = self._off_centre_table(tmp_path / "q.csv")
        code, peak_mb, stderr = self._measured_sl_run(
            tmp_path, "--kind", "tabulated", "--file", str(table),
            "--n", "20000")
        assert code == 0, stderr
        assert peak_mb < 500
        report = json.loads((tmp_path / "sl.json").read_text())
        assert report["checks"]["spectrum"]["path"] == "certified"

    def test_parity_memory_guard_exit_two(self, tmp_path):
        # an even potential at n = 24000 takes the certified path in O(n)
        # memory, far below the eig guard's limit
        code, peak_mb, stderr = self._measured_sl_run(
            tmp_path, "--kind", "step", "--n", "24000")
        assert code == 0, stderr
        assert peak_mb < 500
        report = json.loads((tmp_path / "sl.json").read_text())
        assert report["checks"]["spectrum"]["path"] == "certified"

    def test_short_table_row_exit_two(self, tmp_path, capsys):
        table = tmp_path / "q.csv"
        table.write_text("x,q\n-1.0,-2.0\n0.5\n1.0,-2.0\n")
        code = run(["sl", "--kind", "tabulated", "--file", str(table),
                    "--p", "2", "--L", "6", "--n", "64",
                    "--out", str(tmp_path / "eigs.csv"),
                    "--report", str(tmp_path / "sl.json")])
        assert code == 2
        assert "line 3" in capsys.readouterr().err

    def test_non_numeric_table_cell_exit_two(self, tmp_path, capsys):
        table = tmp_path / "q.csv"
        table.write_text("x,q\n-1.0,-2.0\n0.5,abc\n1.0,-2.0\n")
        code = run(["sl", "--kind", "tabulated", "--file", str(table),
                    "--p", "2", "--L", "6", "--n", "64",
                    "--out", str(tmp_path / "eigs.csv"),
                    "--report", str(tmp_path / "sl.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{table}: line 3" in err and "'abc'" in err

    def test_record_lists_input_digests(self, tmp_path):
        table = tmp_path / "q.csv"
        table.write_text("x,q\n-1.0,-2.0\n0.0,-3.0\n1.0,-2.0\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"p": 2, "L": 6, "n": 64}')
        code = run(["sl", "--kind", "tabulated", "--file", str(table),
                    "--config", str(cfg), "--out", str(tmp_path / "eigs.csv"),
                    "--report", str(tmp_path / "sl.json")])
        assert code == 0
        record = json.loads((tmp_path / "run_record.json").read_text())
        assert record["inputDigests"] == {
            flag: {"sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
                   "bytes": path.stat().st_size}
            for flag, path in (("config", cfg), ("file", table))}

    def test_invalid_input_exit_two(self, tmp_path):
        code = run(["sl", "--kind", "step", "--depth", "5", "--p", "1",
                    "--out", str(tmp_path / "x.csv"),
                    "--report", str(tmp_path / "r.json")])
        assert code == 2

    def test_unknown_config_key_exit_two(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"kind": "step", "bogus": 1}')
        code = run(["sl", "--config", str(cfg),
                    "--out", str(tmp_path / "x.csv"),
                    "--report", str(tmp_path / "r.json")])
        assert code == 2

    def test_split_output_directories_verify(self, tmp_path):
        code = run(["sl", "--kind", "step", "--depth", "5", "--p", "2",
                    "--L", "6", "--n", "64",
                    "--out", str(tmp_path / "a" / "eigs.csv"),
                    "--report", str(tmp_path / "b" / "sl.json")])
        assert code == 0
        record = tmp_path / "b" / "run_record.json"
        paths = [o["path"] for o in json.loads(record.read_text())["outputs"]]
        assert paths == ["../a/eigs.csv", "../a/eigs_constants.csv", "sl.json"]
        verify_manifest(record)

    def test_eigensolver_failure_exit_four(self, tmp_path, monkeypatch,
                                           capsys):
        # LinAlgError subclasses ValueError but is a numerical failure; the
        # dense fallback, forced, runs the failing eig
        def fail(disc):
            raise np.linalg.LinAlgError("eigenvalues did not converge")

        monkeypatch.setattr(sturm_liouville, "SL_MAX_ITERATIONS", 1)
        monkeypatch.setattr(sturm_liouville, "sl_eigenvalues", fail)
        code = run(["sl", "--kind", "step", "--depth", "5", "--p", "2",
                    "--L", "6", "--n", "64",
                    "--out", str(tmp_path / "eigs.csv"),
                    "--report", str(tmp_path / "sl.json")])
        assert code == 4
        assert "numerical failure" in capsys.readouterr().err

    def test_report_bytes_deterministic(self, tmp_path):
        reports = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.csv"
            rep = tmp_path / f"{name}.json"
            assert run(["sl", "--kind", "step", "--depth", "5", "--p", "2",
                        "--L", "6", "--n", "64", "--out", str(out),
                        "--report", str(rep)]) == 0
            reports.append(rep.read_bytes())
        assert reports[0] == reports[1]


# 401 digits: an integer no float holds
BIG = 10**400


class TestOversizedInputs:
    """An input too large to use is a usage error: exit 2 with a one-line
    message, no traceback and no report."""

    @staticmethod
    def _sl(tmp_path, *argv):
        return ["sl", *argv, "--out", str(tmp_path / "eigs.csv"),
                "--report", str(tmp_path / "r.json")]

    def _refused(self, tmp_path, capsys, argv, message):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "r.json").exists()

    def test_sl_n_beyond_float_range(self, tmp_path, capsys):
        self._refused(tmp_path, capsys, self._sl(tmp_path, "--n", str(BIG)),
                      "field 'n': must be finite")

    def test_sl_config_l_beyond_float_range(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "step", "L": BIG}))
        self._refused(tmp_path, capsys,
                      self._sl(tmp_path, "--config", str(cfg)),
                      "field 'L': must be finite")

    def test_matrix_lab_max_dim_beyond_float_range(self, tmp_path, capsys):
        self._refused(tmp_path, capsys,
                      ["matrix-lab", "--max-dim", str(BIG), "--report",
                       str(tmp_path / "r.json")],
                      "field 'max_dim': must be finite")

    def test_matrix_lab_max_dim_estimate_beyond_float_range(self, tmp_path,
                                                            capsys):
        # 10^200 is a float, but its 48 * 1000 * n^2 byte estimate is not:
        # the memory guard computes in integers
        self._refused(tmp_path, capsys,
                      ["matrix-lab", "--max-dim", str(10**200), "--report",
                       str(tmp_path / "r.json")],
                      "DENSE_EIG_MAX_BYTES")

    def test_sl_grid_above_memory_limit(self, tmp_path, capsys):
        # the grid alone (24 n bytes) is refused before it is allocated
        self._refused(tmp_path, capsys,
                      self._sl(tmp_path, "--kind", "step", "--n",
                               "10000000000000"),
                      "grid eigenvalues at n = 10000000000000")


# the settings that could move a verdict and are named constants instead
REMOVED = [("sl", "tol", "1e-8"), ("sl", "slack_c", "1"),
           ("sl", "slack_kappa", "1"), ("tau0", "rel_tol", "1e-6")]


class TestRemovedSettings:
    @pytest.mark.parametrize("command, key, value", REMOVED)
    def test_flag_exit_two(self, tmp_path, capsys, command, key, value):
        flag = "--" + key.replace("_", "-")
        with pytest.raises(SystemExit) as help_exit:
            run([command, "--help"])
        assert help_exit.value.code == 0
        assert flag not in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            run([command, flag, value, "--out", str(tmp_path / "r.json")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("command, key, value", REMOVED)
    def test_config_key_exit_two(self, tmp_path, capsys, command, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: float(value)}))
        assert run([command, "--config", str(cfg),
                    "--out", str(tmp_path / "r.json")]) == 2
        assert f"unknown key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()


class TestTau0Command:
    def test_indicator_profile(self, tmp_path):
        report = tmp_path / "tau0.json"
        code = run(["tau0", "--profile", "indicator", "--out", str(report)])
        assert code == 0
        payload = json.loads(report.read_text())
        expected = 1 + (2 / math.pi) * (10 * math.log(2) - 6 * math.log(3))
        assert payload["quotient"] == pytest.approx(expected, abs=1e-6)
        assert payload["upperBoundSatisfied"] is True

    def test_extremizer_profile(self, tmp_path):
        report = tmp_path / "tau0.json"
        code = run(["tau0", "--profile", "extremizer", "--X", "1e4",
                    "--out", str(report)])
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["quotient"] <= 3 + 2 * math.sqrt(2) + 1e-4

    def test_bad_x_rejected(self, tmp_path):
        code = run(["tau0", "--profile", "extremizer", "--X", "0.5",
                    "--out", str(tmp_path / "r.json")])
        assert code == 2
