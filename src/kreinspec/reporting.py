"""Run configuration, deterministic serialization, and run persistence.

Configs are flat JSON objects whose keys mirror the CLI flags one-to-one.
All outputs are byte-deterministic: JSON is dumped with sorted keys and
shortest round-trip float formatting, CSV uses '.' decimals and LF line
endings on every platform, and every produced file lands in a digest
manifest so a replayed run can be compared byte for byte.
"""

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

__all__ = [
    "ConfigError",
    "IntegrityError",
    "RunConfig",
    "RunRecord",
    "COMMAND_SCHEMAS",
    "load_config",
    "normalize_config",
    "save_config",
    "write_json",
    "write_csv",
    "write_report",
    "finalize_record",
    "verify_manifest",
    "matrix_to_json",
    "matrix_from_json",
    "artifact_version",
]


class ConfigError(ValueError):
    """Invalid run configuration; the message lists every violation found."""


class IntegrityError(RuntimeError):
    """A persisted output no longer matches its recorded digest."""


def artifact_version() -> str:
    try:
        from importlib.metadata import version
        return version("kreinspec")
    except Exception:
        return "0.1.0"


# ---------------------------------------------------------------------------
# config schemas: key -> (type, default, validator description, validator)

def _positive(x):
    return x > 0


def _nonneg(x):
    return x >= 0


def _seed64(x):
    return 0 <= x < 2**64


_SCHEMA_TYPES = {"int": int, "float": float, "str": str, "bool": bool}

COMMAND_SCHEMAS = {
    "region": {
        "kind": ("str", "bone", "one of disks|hull|bone",
                 lambda v: v in ("disks", "hull", "bone")),
        "a": ("float", 10.0, ">= 0", _nonneg),
        "b": ("float", 0.4, "in [0, 1)", lambda v: 0.0 <= v < 1.0),
        "gamma": ("float", 10.0, ">= 0", _nonneg),
        "radius_scale": ("float", 1.0, "> 0", _positive),
        "centers": ("str", "interval",
                    "one of interval|half-line-below|half-line-above",
                    lambda v: v in ("interval", "half-line-below",
                                    "half-line-above")),
        "resolution": ("int", 512, ">= 16", lambda v: v >= 16),
        "re_min": ("float", None, "finite", math.isfinite),
        "re_max": ("float", None, "finite", math.isfinite),
        "overlay_prior": ("bool", False, "", None),
        "out": ("str", "region.csv", "", None),
    },
    "matrix-lab": {
        "trials": ("int", 500, ">= 1", _positive),
        "max_dim": ("int", 20, ">= 2", lambda v: v >= 2),
        "seed": ("int", 42, "64-bit unsigned", _seed64),
        "lambda_samples": ("int", 1000, ">= 0", _nonneg),
        "jobs": ("int", 1, ">= 1", _positive),
        "report": ("str", "matrix_lab_report.json", "", None),
    },
    "perturb": {
        "trials": ("int", 200, ">= 1", _positive),
        "max_dim": ("int", 20, ">= 2", lambda v: v >= 2),
        "seed": ("int", 42, "64-bit unsigned", _seed64),
        "tau": ("float", None, "> 1 (omit for auto)", lambda v: v >= 1.0),
        "problem": ("str", None, "", None),
        "jobs": ("int", 1, ">= 1", _positive),
        "report": ("str", "perturb_report.json", "", None),
    },
    "sl": {
        "kind": ("str", "step", "one of step|gaussian|lorentzian|tabulated",
                 lambda v: v in ("step", "gaussian", "lorentzian", "tabulated")),
        "depth": ("float", 5.0, ">= 0", _nonneg),
        "width": ("float", 1.0, "> 0", _positive),
        "file": ("str", None, "", None),
        "p": ("float", 2.0, ">= 2", lambda v: v >= 2.0),
        "L": ("float", 30.0, "> 0", _positive),
        "n": ("int", 4000, "even, >= 16", lambda v: v >= 16 and v % 2 == 0),
        "tol": ("float", 1e-8, "> 0", _positive),
        "slack_c": ("float", 1.0, ">= 0", _nonneg),
        "slack_kappa": ("float", 1.0, ">= 0", _nonneg),
        "out": ("str", "sl_eigenvalues.csv", "", None),
        "report": ("str", "sl_report.json", "", None),
    },
    "tau0": {
        "profile": ("str", "indicator", "one of indicator|extremizer",
                    lambda v: v in ("indicator", "extremizer")),
        "X": ("float", 1e6, "> 1", lambda v: v > 1.0),
        "rel_tol": ("float", 1e-6, "> 0", _positive),
        "out": ("str", "tau0_report.json", "", None),
    },
}


@dataclass(frozen=True)
class RunConfig:
    command: str
    params: dict

    def get(self, key):
        return self.params[key]


def normalize_config(command: str, raw: dict) -> RunConfig:
    """Validate a flat key/value mapping against the command schema, fill
    defaults, and reject unknown keys; every violation is reported at once."""
    if command not in COMMAND_SCHEMAS:
        raise ConfigError(f"unknown command {command!r}; "
                          f"expected one of {sorted(COMMAND_SCHEMAS)}")
    schema = COMMAND_SCHEMAS[command]
    errors = []
    params = {}
    for key in sorted(raw):
        if key not in schema:
            errors.append(f"unknown key {key!r}")
    for key, (tname, default, desc, check) in schema.items():
        if key in raw and raw[key] is not None:
            value = raw[key]
            pytype = _SCHEMA_TYPES[tname]
            if pytype is float and isinstance(value, int) and not isinstance(value, bool):
                value = float(value)
            if pytype is int and isinstance(value, bool):
                errors.append(f"field {key!r}: expected int, got bool")
                continue
            if not isinstance(value, pytype):
                errors.append(f"field {key!r}: expected {tname}, "
                              f"got {type(value).__name__}")
                continue
            if pytype is float and not math.isfinite(value):
                errors.append(f"field {key!r}: must be finite")
                continue
            if check is not None and not check(value):
                errors.append(f"field {key!r}: must be {desc}, got {value!r}")
                continue
            params[key] = value
        else:
            params[key] = default
    if errors:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(errors))
    return RunConfig(command=command, params=params)


def load_config(path, command: str | None = None) -> RunConfig:
    """Load and validate a JSON config file.

    The file may carry its command under the key ``"command"``; otherwise the
    caller must pass one.  Parse errors keep the line/column diagnostics.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: parse error at line {exc.lineno}, "
                          f"column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    file_command = raw.pop("command", None)
    if file_command is not None and command is not None and file_command != command:
        raise ConfigError(f"{path}: config is for command {file_command!r}, "
                          f"expected {command!r}")
    command = command or file_command
    if command is None:
        raise ConfigError(f"{path}: no command given and none in the file")
    return normalize_config(command, raw)


def _jsonable(obj):
    """Recursively convert to plain JSON types, rejecting NaN/inf floats."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, float) and not math.isfinite(obj):
        raise ValueError(f"non-finite float {obj!r} in report; refusing to "
                         "serialize (upstream bug)")
    if isinstance(obj, complex):
        raise ValueError("complex values must be split into re/im before "
                         "serialization")
    return obj


def canonical_json(obj) -> str:
    return json.dumps(_jsonable(obj), sort_keys=True, allow_nan=False,
                      separators=(",", ": "), indent=1) + "\n"


def save_config(config: RunConfig) -> str:
    return canonical_json({"command": config.command, **config.params})


def write_json(path, obj) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(canonical_json(obj).encode("utf-8"))
    return path


def write_csv(path, header, rows) -> Path:
    """CSV with repr-formatted floats, '.' decimal separator and LF endings."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, (np.floating, np.integer)):
                cell = cell.item()
            if isinstance(cell, float):
                if not math.isfinite(cell):
                    raise ValueError(f"non-finite float {cell!r} in CSV row")
                cells.append(repr(cell))
            elif isinstance(cell, bool):
                cells.append("true" if cell else "false")
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
    return path


def _digest(path: Path) -> dict:
    data = Path(path).read_bytes()
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


@dataclass
class RunRecord:
    """Reproducibility envelope of one run: config snapshot, version,
    timestamps, input digests, and the manifest of produced files."""

    config: dict
    version: str = field(default_factory=artifact_version)
    created_at: str = field(
        default_factory=lambda: datetime.now(timezone.utc).isoformat())
    input_digests: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)  # (absolute path, digest)

    def register(self, path) -> None:
        self.outputs.append((os.path.abspath(path), _digest(path)))

    def register_input(self, flag: str, path) -> None:
        self.input_digests[flag] = _digest(path)


def write_report(record: RunRecord, report, path) -> Path:
    """Write a report as deterministic JSON and register it in the record."""
    out = write_json(path, report)
    record.register(out)
    return out


def finalize_record(record: RunRecord, directory) -> Path:
    """Persist the run record in ``directory``; its output manifest gives
    each path relative to that directory, in POSIX form."""
    path = Path(directory) / "run_record.json"
    outputs = [dict(digest, path=Path(os.path.relpath(out, directory)).as_posix())
               for out, digest in record.outputs]
    payload = {"config": record.config, "version": record.version,
               "createdAt": record.created_at,
               "inputDigests": record.input_digests, "outputs": outputs}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(canonical_json(payload).encode("utf-8"))
    return path


def verify_manifest(record_path) -> None:
    """Re-hash every file in a persisted run record; raise on any mismatch."""
    record_path = Path(record_path)
    payload = json.loads(record_path.read_text(encoding="utf-8"))
    for entry in payload["outputs"]:
        target = record_path.parent / entry["path"]
        if not target.exists():
            raise IntegrityError(f"{target}: listed in manifest but missing")
        actual = _digest(target)
        if actual["sha256"] != entry["sha256"]:
            raise IntegrityError(f"{target}: digest mismatch "
                                 f"(recorded {entry['sha256'][:12]}..., "
                                 f"actual {actual['sha256'][:12]}...)")


def matrix_to_json(m) -> dict:
    """Row-major [re, im] pair encoding of a dense complex matrix."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError("matrix must be 2-D")
    data = [[float(z.real), float(z.imag)] for z in m.ravel(order="C")]
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": data}


def matrix_from_json(obj) -> np.ndarray:
    rows, cols = int(obj["rows"]), int(obj["cols"])
    data = obj["data"]
    if len(data) != rows * cols:
        raise ValueError(f"matrix data length {len(data)} != rows*cols "
                         f"{rows * cols}")
    flat = np.array([complex(re, im) for re, im in data])
    return flat.reshape(rows, cols)
