"""Model formula language.

Users of statistical environments express models as formulas; the strawman
frame keeps that experience.  The supported grammar is intentionally small:

``<output> ~ <family>(<input>[, <input>...][, key=value...])``

Examples::

    intensity ~ powerlaw(frequency)
    sales ~ linear(price, advertising)
    y ~ poly(x, degree=3)
    value ~ exponential(t)

The right-hand side names a registered model family; keyword arguments are
forwarded to the family constructor (e.g. the polynomial degree).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.errors import FormulaError
from repro.fitting.families import FAMILY_REGISTRY, family_by_name
from repro.fitting.model import ModelFamily

__all__ = ["ParsedFormula", "parse_formula"]

_FORMULA_RE = re.compile(
    r"^\s*(?P<output>[A-Za-z_][A-Za-z0-9_.]*)\s*~\s*(?P<family>[A-Za-z_][A-Za-z0-9_]*)\s*\((?P<args>.*)\)\s*$"
)
_SIMPLE_RE = re.compile(
    r"^\s*(?P<output>[A-Za-z_][A-Za-z0-9_.]*)\s*~\s*(?P<inputs>[A-Za-z_][A-Za-z0-9_.]*(\s*\+\s*[A-Za-z_][A-Za-z0-9_.]*)*)\s*$"
)
_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.]*$")


@dataclass(frozen=True)
class ParsedFormula:
    """The result of parsing a model formula."""

    output: str
    inputs: tuple[str, ...]
    family_name: str
    family_kwargs: dict[str, object]
    text: str

    def build_family(self) -> ModelFamily:
        """Instantiate the model family this formula names."""
        kwargs = dict(self.family_kwargs)
        if self.family_name == "linear":
            kwargs.setdefault("input_names", self.inputs)
        return family_by_name(self.family_name, **kwargs)


def parse_formula(text: str) -> ParsedFormula:
    """Parse a formula string into output, inputs and a model family."""
    if not isinstance(text, str) or "~" not in text:
        raise FormulaError(f"a model formula must look like 'y ~ family(x)', got {text!r}")

    match = _FORMULA_RE.match(text)
    if match is not None:
        family_name = match.group("family").lower()
        if family_name not in FAMILY_REGISTRY:
            raise FormulaError(
                f"unknown model family {family_name!r}; known families: {sorted(FAMILY_REGISTRY)}"
            )
        inputs, kwargs = _parse_arguments(match.group("args"))
        if not inputs:
            raise FormulaError(f"formula {text!r} names no input columns")
        return ParsedFormula(
            output=match.group("output"),
            inputs=tuple(inputs),
            family_name=family_name,
            family_kwargs=kwargs,
            text=text,
        )

    # R-style shorthand for additive linear models: "y ~ x1 + x2".
    simple = _SIMPLE_RE.match(text)
    if simple is not None:
        inputs = tuple(part.strip() for part in simple.group("inputs").split("+"))
        return ParsedFormula(
            output=simple.group("output"),
            inputs=inputs,
            family_name="linear",
            family_kwargs={},
            text=text,
        )

    raise FormulaError(f"could not parse model formula {text!r}")


def _parse_arguments(args_text: str) -> tuple[list[str], dict[str, object]]:
    inputs: list[str] = []
    kwargs: dict[str, object] = {}
    for raw in _split_arguments(args_text):
        part = raw.strip()
        if not part:
            continue
        if "=" in part:
            key, _, value = part.partition("=")
            key = key.strip()
            if not _IDENT_RE.match(key):
                raise FormulaError(f"bad keyword argument name {key!r} in formula")
            kwargs[key] = _parse_literal(value.strip())
        else:
            if not _IDENT_RE.match(part):
                raise FormulaError(f"bad input column name {part!r} in formula")
            inputs.append(part)
    return inputs, kwargs


def _split_arguments(text: str) -> list[str]:
    return [piece for piece in text.split(",")] if text.strip() else []


def _parse_literal(text: str) -> object:
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text.strip("'\"")
