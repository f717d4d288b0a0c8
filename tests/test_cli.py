import hashlib
import json
import math

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

    def test_degenerate_point(self, tmp_path):
        out = tmp_path / "pt.csv"
        code = run(["region", "--kind", "disks", "--a", "0", "--b", "0",
                    "--gamma", "0", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[1:] == ["0.0,0.0"]

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


class TestPerturbCommand:
    def test_generated_suite(self, tmp_path):
        report = tmp_path / "perturb.json"
        code = run(["perturb", "--trials", "10", "--max-dim", "8",
                    "--seed", "11", "--report", str(report)])
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["aggregate"]["verified"] is True

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

    def test_short_table_row_exit_two(self, tmp_path, capsys):
        table = tmp_path / "q.csv"
        table.write_text("x,q\n-1.0,-2.0\n0.5\n1.0,-2.0\n")
        code = run(["sl", "--kind", "tabulated", "--file", str(table),
                    "--p", "2", "--L", "6", "--n", "64",
                    "--out", str(tmp_path / "eigs.csv"),
                    "--report", str(tmp_path / "sl.json")])
        assert code == 2
        assert "line 3" in capsys.readouterr().err

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
        # LinAlgError subclasses ValueError but is a numerical failure
        def fail(disc, force_dense=False):
            raise np.linalg.LinAlgError("eigenvalues did not converge")

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
