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
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import islice
from pathlib import Path

import numpy as np

__all__ = [
    "ConfigError",
    "IntegrityError",
    "RunConfig",
    "RunRecord",
    "COMMAND_SCHEMAS",
    "read_config",
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
        "tau": ("float", None, ">= 1 (omit for auto)", lambda v: v >= 1.0),
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
        "out": ("str", "sl_eigenvalues.csv", "", None),
        "report": ("str", "sl_report.json", "", None),
    },
    "tau0": {
        "profile": ("str", "indicator", "one of indicator|extremizer",
                    lambda v: v in ("indicator", "extremizer")),
        "X": ("float", 1e6, "> 1", lambda v: v > 1.0),
        "out": ("str", "tau0_report.json", "", None),
    },
}


@dataclass(frozen=True)
class RunConfig:
    command: str
    params: dict


def normalize_config(command: str, raw: dict) -> RunConfig:
    """Validate a flat key/value mapping against the command schema (a number
    must be finite as a float), fill defaults and reject unknown keys; every
    violation is reported at once."""
    if command not in COMMAND_SCHEMAS:
        raise ConfigError(f"unknown command {command!r}; "
                          f"expected one of {sorted(COMMAND_SCHEMAS)}")
    schema = COMMAND_SCHEMAS[command]
    errors = [f"unknown key {key!r}" for key in sorted(raw) if key not in schema]
    params = {}
    for key, (tname, default, desc, check) in schema.items():
        if key in raw and raw[key] is not None:
            value = raw[key]
            pytype = _SCHEMA_TYPES[tname]
            if pytype is float and type(value) is int:  # int vs float compares exactly
                value = float(value) if abs(value) <= sys.float_info.max else math.inf
            if pytype is int and isinstance(value, bool):
                errors.append(f"field {key!r}: expected int, got bool")
                continue
            if not isinstance(value, pytype):
                errors.append(f"field {key!r}: expected {tname}, "
                              f"got {type(value).__name__}")
                continue
            if pytype is not str and not abs(value) <= sys.float_info.max:
                errors.append(f"field {key!r}: must be finite, in float range")
                continue
            if check is not None and not check(value):
                errors.append(f"field {key!r}: must be {desc}, got {value!r}")
                continue
            params[key] = value
        else:
            params[key] = default
    if errors:
        raise ConfigError("invalid configuration: " + "; ".join(errors))
    return RunConfig(command=command, params=params)


def read_config(path, command: str | None = None) -> tuple:
    """The command and the raw key/value mapping of a JSON config file, not
    yet validated.

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
    return command, raw


def load_config(path, command: str | None = None) -> RunConfig:
    """Load a JSON config file (see ``read_config``) and validate it."""
    return normalize_config(*read_config(path, command))


def _json_default(obj):
    """NumPy scalars and arrays as plain values (``json`` takes a float64 as
    the float it is); a complex value is refused."""
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    if isinstance(obj, complex):
        raise ValueError("complex values must be split into re/im before "
                         "serialization")
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


# The one definition of the report format; ``indent`` makes ``iterencode``
# the pure-Python encoder, whose chunks ``write_json`` streams to disk.
_ENCODER = json.JSONEncoder(sort_keys=True, allow_nan=False,
                            separators=(",", ": "), indent=1,
                            default=_json_default)
# write_json joins this many encoder chunks (about 100 kB of a report's
# objects) per write; _digest reads files in blocks of DIGEST_BLOCK bytes.
WRITE_BATCH = 1024
DIGEST_BLOCK = 1 << 16


@contextmanager
def _finite_only():
    """Re-raise the encoder's out-of-range float error as the report's."""
    try:
        yield
    except ValueError as exc:
        if "JSON compliant" not in str(exc):
            raise
        raise ValueError(f"non-finite float in report; refusing to serialize "
                         f"(upstream bug): {exc}") from None


def canonical_json(obj) -> str:
    with _finite_only():
        return "".join(_ENCODER.iterencode(obj)) + "\n"


def save_config(config: RunConfig) -> str:
    return canonical_json({"command": config.command, **config.params})


def _replace(path, write) -> Path:
    """Call ``write`` on ``<name>.part`` beside ``path``, opened for binary
    writing, then rename it into place: a write that fails leaves no part
    file and any earlier file at ``path`` as it was, and a symlink at
    ``path`` is replaced, not written through."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    part = path.with_name(path.name + ".part")
    try:
        with open(part, "wb") as out:
            write(out)
        os.replace(part, path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise
    return path


def write_json(path, obj) -> Path:
    """Stream ``canonical_json(obj)`` to ``path`` through ``_replace``: a
    non-finite float leaves no file behind."""
    chunks = _ENCODER.iterencode(obj)

    def write(out):
        with _finite_only():
            while batch := list(islice(chunks, WRITE_BATCH)):
                out.write("".join(batch).encode("utf-8"))
        out.write(b"\n")

    return _replace(path, write)


def write_csv(path, header, rows) -> Path:
    """CSV with repr-formatted floats, '.' decimal separator and LF endings,
    written through ``_replace``."""
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
    data = ("\n".join(lines) + "\n").encode("utf-8")
    return _replace(path, lambda out: out.write(data))


def _digest(path: Path) -> dict:
    sha, size = hashlib.sha256(), 0
    with open(path, "rb") as data:
        while block := data.read(DIGEST_BLOCK):
            sha.update(block)
            size += len(block)
    return {"sha256": sha.hexdigest(), "bytes": size}


@dataclass
class RunRecord:
    """Reproducibility envelope of one run: config snapshot, version,
    timestamps, input digests, solver diagnostics, and the manifest of
    produced files."""

    config: dict
    version: str = field(default_factory=artifact_version)
    created_at: str = field(
        default_factory=lambda: datetime.now(timezone.utc).isoformat())
    input_digests: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)
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
               "inputDigests": record.input_digests,
               "diagnostics": record.diagnostics, "outputs": outputs}
    return write_json(path, payload)


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
    """Inverse of ``matrix_to_json``; a malformed object raises ValueError
    naming its first defect."""
    if not isinstance(obj, dict) or not {"rows", "cols", "data"} <= obj.keys():
        raise ValueError("matrix must be an object with keys 'rows', 'cols' "
                         "and 'data'")
    rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    if not all(type(n) is int and n >= 0 for n in (rows, cols)):
        raise ValueError(f"matrix rows and cols must be non-negative integers, "
                         f"got {rows!r} and {cols!r}")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise ValueError(f"matrix data must be a list of rows*cols = "
                         f"{rows * cols} entries")
    for k, z in enumerate(data):
        if not (isinstance(z, list) and len(z) == 2 and all(
                type(v) in (int, float) for v in z)):
            raise ValueError(f"matrix data entry {k} is not an [re, im] pair "
                             f"of numbers: {z!r}")
    flat = np.array([complex(re, im) for re, im in data])
    return flat.reshape(rows, cols)
