"""The README documents every named constant of the numerical modules."""

import re
from pathlib import Path

import pytest

from kreinspec import geometry, operators, sturm_liouville, verification

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
