"""The README documents every named constant of the numerical modules, and
every constant it documents exists."""

import re
from pathlib import Path

import pytest

from kreinspec import cli, geometry, operators, reporting, sturm_liouville, verification

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
