"""The README documents every named constant of the numerical modules,
every constant it documents exists, the dense eig size cap it states is
the one the memory guard enforces, and the CLI flags it names are the
parser's."""

import argparse
import math
import re
from pathlib import Path

import numpy as np
import pytest

from kreinspec import cli, geometry, operators, reporting, sturm_liouville, verification
from kreinspec.reporting import ConfigError

README = Path(__file__).resolve().parents[1] / "README.md"
# mathematical values, not settings
EXEMPT = {"SQRT2"}


@pytest.mark.parametrize("module", [geometry, operators, verification,
                                    sturm_liouville],
                         ids=lambda m: m.__name__.split(".")[-1])
def test_public_constants_named_in_readme(module):
    text = README.read_text(encoding="utf-8")
    names = [name for name in vars(module)
             if re.fullmatch(r"[A-Z][A-Z0-9_]*", name) and name not in EXEMPT]
    assert names
    missing = [name for name in names
               if not re.search(rf"\b{name}\b", text)]
    assert not missing, f"README does not name {missing}"


def test_documented_constants_exist():
    # every `NAME = value` the README documents, NAME with an underscore
    # (single letters such as `A = S T` are mathematics), names a constant
    # of a kreinspec module, and a numeric value is the module's value
    text = README.read_text(encoding="utf-8")
    documented = re.findall(r"`([A-Z][A-Z0-9]*_[A-Z0-9_]+) = ([^`]+)`", text)
    assert documented
    modules = [geometry, operators, verification, sturm_liouville, reporting, cli]
    stale = []
    for name, value in documented:
        values = [getattr(m, name) for m in modules if hasattr(m, name)]
        if not values or (re.fullmatch(r"[-+0-9.e]+", value)
                          and any(v != float(value) for v in values)):
            stale.append(f"{name} = {value}")
    assert not stale, f"README documents {stale}, which no module defines so"


@pytest.mark.parametrize("path, bytes_per_n2, even_well",
                         [("dense", 16, True), ("dense", 16, False)])
def test_documented_eig_size_caps(path, bytes_per_n2, even_well):
    # the largest n whose eig working set fits DENSE_EIG_MAX_BYTES is the
    # cap README's bullet for that path states, and the next even n is
    # refused by the guard before anything is allocated, for an even step
    # well as for an off-centre one
    cap = math.isqrt(sturm_liouville.DENSE_EIG_MAX_BYTES // bytes_per_n2)
    text = README.read_text(encoding="utf-8")
    bullet = re.search(rf"^- \*\*{path}\*\* .*?(?=^- |^$)", text,
                       re.MULTILINE | re.DOTALL)
    assert bullet, f"README has no {path} bullet"
    assert f"`n` up to {cap})" in bullet.group(), (path, cap)
    n = cap + 2 - cap % 2  # the smallest even n above the cap
    if even_well:
        pot = sturm_liouville.Potential(kind="step", depth=5.0)
    else:
        xs = np.linspace(-2.0, 2.0, 31)
        pot = sturm_liouville.Potential(
            kind="tabulated", table=(xs, -3.0 * np.exp(-(xs - 0.6) ** 2)))
    disc = sturm_liouville.discretize(pot, L=30.0, n=n)
    with pytest.raises(ConfigError, match=f"{path} eigenvalues at n = {n} "):
        sturm_liouville.sl_eigenvalues(disc)


def _parser_flags() -> set:
    """Every option string of ``kreinspec`` and of its subcommands."""
    parser = cli.build_parser()
    subs = next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))
    flags = set(parser._option_string_actions)
    for sub in subs.choices.values():
        flags |= set(sub._option_string_actions)
    return flags


def _unknown_flags(text: str, flags: set) -> list:
    """The ``--flags`` of ``text`` that no parser defines; the lines of
    other programs' commands (``pip``, ``pytest``) are skipped."""
    lines = [line for line in text.splitlines()
             if not line.lstrip().startswith(("pip ", "pytest"))]
    named = re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", "\n".join(lines))
    return sorted(set(named) - flags)


def test_readme_flags_are_parser_flags():
    # --config, --version and --no-KEY are option strings of the parser
    # too; a README still naming a removed flag fails
    flags = _parser_flags()
    text = README.read_text(encoding="utf-8")
    assert not _unknown_flags(text, flags)
    stale = text + "\n`--tol`, `--slack-c`, `--slack-kappa`, `--rel-tol`\n"
    assert _unknown_flags(stale, flags) == [
        "--rel-tol", "--slack-c", "--slack-kappa", "--tol"]


@pytest.mark.parametrize("command", sorted(reporting.COMMAND_SCHEMAS))
def test_readme_flag_table_lists_every_config_key(command):
    # the README's flag table row for each subcommand names exactly the
    # flags of its config keys
    text = README.read_text(encoding="utf-8")
    row = re.search(rf"^\| `{command}` \|(.*)\|$", text, re.MULTILINE)
    assert row, f"README's flag table has no row for {command}"
    listed = re.findall(r"`(--[\w-]+)`", row.group(1))
    keys = ["--" + key.replace("_", "-")
            for key in reporting.COMMAND_SCHEMAS[command]]
    assert listed == keys
