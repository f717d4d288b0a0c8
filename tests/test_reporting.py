import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from kreinspec.reporting import (
    ConfigError,
    IntegrityError,
    RunRecord,
    canonical_json,
    finalize_record,
    load_config,
    matrix_from_json,
    matrix_to_json,
    normalize_config,
    save_config,
    verify_manifest,
    write_csv,
    write_json,
    write_report,
)
from kreinspec.reporting import _json_default


class TestConfig:
    def test_minimal_sl_config_gets_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"kind": "step", "depth": 5, "p": 2}')
        cfg = load_config(path, "sl")
        assert cfg.params["L"] == 30.0
        assert cfg.params["n"] == 4000
        assert cfg.params["depth"] == 5.0

    def test_negative_tolerance_rejected_with_field_name(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"L": -1}')
        with pytest.raises(ConfigError, match="field 'L': must be > 0"):
            load_config(path, "sl")

    def test_all_violations_reported_at_once(self):
        with pytest.raises(ConfigError) as err:
            normalize_config("sl", {"L": -1, "n": 17, "bogus": 3})
        msg = str(err.value)
        assert "'L'" in msg and "'n'" in msg and "'bogus'" in msg
        assert "\n" not in msg  # one line

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            normalize_config("tau0", {"Y": 2.0})

    def test_unknown_command_rejected(self):
        with pytest.raises(ConfigError, match="unknown command"):
            normalize_config("frobnicate", {})

    def test_roundtrip_is_normalization(self, tmp_path):
        rng = np.random.default_rng(0)
        for _ in range(50):
            raw = {}
            if rng.uniform() < 0.7:
                raw["depth"] = float(rng.uniform(0.5, 20))
            if rng.uniform() < 0.7:
                raw["n"] = int(rng.integers(8, 60)) * 2
            if rng.uniform() < 0.5:
                raw["kind"] = str(rng.choice(["step", "gaussian"]))
            cfg = normalize_config("sl", raw)
            path = tmp_path / "rt.json"
            path.write_text(save_config(cfg))
            again = load_config(path)
            assert again == cfg
            assert save_config(again) == save_config(cfg)

    def test_command_mismatch_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"command": "sl", "depth": 2}')
        with pytest.raises(ConfigError, match="command"):
            load_config(path, "tau0")

    def test_parse_error_has_line_info(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "step",\n  broken\n}')
        with pytest.raises(ConfigError, match="line 2"):
            load_config(path, "sl")


class TestDeterministicSerialization:
    def test_same_report_twice_identical_bytes(self, tmp_path):
        report = {"b": [1.5, 2.25], "a": {"z": 0.1, "y": -3},
                  "name": "x", "flag": True}
        p1 = write_json(tmp_path / "r1.json", report)
        p2 = write_json(tmp_path / "r2.json", report)
        assert p1.read_bytes() == p2.read_bytes()

    def test_floats_round_trip_exactly(self, tmp_path):
        values = [0.1, 1 / 3, 1e-300, 123456.789e12, -2.5e-17]
        path = write_json(tmp_path / "f.json", {"v": values})
        back = json.loads(path.read_text())
        assert back["v"] == values

    def test_nan_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="non-finite"):
            write_json(tmp_path / "bad.json", {"margin": math.nan})

    def test_numpy_scalars_accepted(self, tmp_path):
        path = write_json(tmp_path / "np.json",
                          {"a": np.float64(1.5), "b": np.int64(3),
                           "c": np.arange(3)})
        back = json.loads(path.read_text())
        assert back == {"a": 1.5, "b": 3, "c": [0, 1, 2]}

    def test_csv_format(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["re", "im", "ok"],
                         [(0.5, -1.25, True), (2.0, 0.0, False)])
        assert path.read_text() == \
            "re,im,ok\n0.5,-1.25,true\n2.0,0.0,false\n"

    def test_csv_rejects_nan(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", ["x"], [(math.inf,)])


class TestStreamedJson:
    """write_json streams the encoder's chunks to <name>.part and renames
    it: the same bytes as canonical_json, and nothing left on failure.
    write_csv shares the part file and the rename."""

    # each writer as (file name, write(path, values)), values a list of floats
    WRITERS = [
        ("report.json",
         lambda path, values: write_json(path, {"values": values})),
        ("report.csv",
         lambda path, values: write_csv(path, ["value"],
                                        [(v,) for v in values])),
    ]

    FIXTURE = {
        "empty": {"list": [], "dict": {}},
        "nested": {"b": [[], {}, [1, [2.5, {"z": None, "a": False}]]],
                   "a": {"x": {"y": {}}}},
        "text": 'quote " backslash \\ newline \n tab \t \x01 \u00e9 \u2028 \U0001d49c',
        "negzero": -0.0,
        "numpy": {"f64": np.float64(0.1), "f32": np.float32(1.5),
                  "i64": np.int64(-3), "bool": np.bool_(True),
                  "vector": np.arange(3.0), "matrix": np.eye(2),
                  "empty": np.zeros((0, 2))},
    }

    def test_bytes_match_canonical_json(self, tmp_path):
        path = write_json(tmp_path / "r.json", self.FIXTURE)
        text = canonical_json(self.FIXTURE)
        assert path.read_bytes() == text.encode()
        # the format of json.dumps with the report settings, one newline added
        assert text == json.dumps(self.FIXTURE, sort_keys=True, allow_nan=False,
                                  separators=(",", ": "), indent=1,
                                  default=_json_default) + "\n"
        assert sorted(os.listdir(tmp_path)) == ["r.json"]

    @pytest.mark.parametrize("existing", [False, True])
    def test_refused_report_leaves_no_file(self, tmp_path, existing):
        # the NaN comes after more than a write buffer of text
        bad = [float(k) for k in range(20000)] + [math.nan]
        for name, write in self.WRITERS:
            target = tmp_path / name
            if existing:
                write(target, [1.0])
                before = target.read_bytes()
            with pytest.raises(ValueError, match="non-finite"):
                write(target, bad)
            assert os.listdir(tmp_path) == ([name] if existing else [])
            if existing:
                assert target.read_bytes() == before
                target.unlink()

    def test_symlink_replaced_not_written_through(self, tmp_path):
        for name, write in self.WRITERS:
            aside = write(tmp_path / ("aside-" + name), [1.0])
            kept = aside.read_bytes()
            link = tmp_path / name
            link.symlink_to(aside)
            write(link, [2.0])
            assert not link.is_symlink()
            assert link.read_bytes() == write(tmp_path / "fresh", [2.0]).read_bytes()
            assert aside.read_bytes() == kept

    def test_memory_independent_of_report_size(self, tmp_path):
        rng = np.random.default_rng(0)
        report = {"trials": [{"seed": k, "values": rng.standard_normal(30).tolist(),
                              "verified": True} for k in range(1700)]}
        size = len(canonical_json(report))
        assert 1.2e6 < size < 1.6e6
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            record = RunRecord(config={"command": "perturb"})
            write_report(record, report, tmp_path / "report.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < 0.5e6
        assert record.outputs[0][1]["bytes"] == size


class TestRunRecord:
    def test_manifest_verifies_clean(self, tmp_path):
        record = RunRecord(config={"command": "sl"})
        write_report(record, {"ok": True}, tmp_path / "report.json")
        write_csv(tmp_path / "data.csv", ["x"], [(1.0,)])
        record.register(tmp_path / "data.csv")
        rec_path = finalize_record(record, tmp_path)
        verify_manifest(rec_path)

    def test_corruption_detected(self, tmp_path):
        record = RunRecord(config={"command": "sl"})
        write_report(record, {"ok": True}, tmp_path / "report.json")
        rec_path = finalize_record(record, tmp_path)
        target = tmp_path / "report.json"
        target.write_bytes(target.read_bytes().replace(b"true", b"false"))
        with pytest.raises(IntegrityError, match="digest mismatch"):
            verify_manifest(rec_path)

    def test_missing_file_detected(self, tmp_path):
        record = RunRecord(config={"command": "sl"})
        write_report(record, {"ok": True}, tmp_path / "report.json")
        rec_path = finalize_record(record, tmp_path)
        (tmp_path / "report.json").unlink()
        with pytest.raises(IntegrityError, match="missing"):
            verify_manifest(rec_path)


class TestMatrixFormat:
    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        back = matrix_from_json(matrix_to_json(m))
        np.testing.assert_array_equal(m, back)

    def test_canonical_json_stable_for_matrix(self):
        m = np.array([[1.0 + 2.0j]])
        assert canonical_json(matrix_to_json(m)) \
            == canonical_json(matrix_to_json(m.copy()))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            matrix_from_json({"rows": 2, "cols": 2, "data": [[1, 0]]})
