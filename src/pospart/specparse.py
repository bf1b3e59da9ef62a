"""Parser and renderer for the distribution mini-language.

Grammar (whitespace-insensitive, numbers are decimal literals with an
optional exponent):

    SPEC := point(x)
          | discrete(x1:w1, x2:w2, ...)
          | normal(mu, var)
          | cpoisson(lambda, y)
          | shift(SPEC, c)
          | sum(SPEC, SPEC)

The grammar is one table, _GRAMMAR, read by both parse_spec and render.
parse_spec builds the DistributionSpec tree directly; the tree mirrors the
grammar one-to-one, so render(parse_spec(s)) parses back to an equal tree.
Nesting deeper than 64 levels is a parse error.  Parse errors carry a
1-based byte offset and an expected-token message; invariant violations
(weight sums, negative variances) surface as semantic errors with the
offset of the offending construct.
"""

from __future__ import annotations

import re
from dataclasses import fields

from .distributions import (
    CenteredScaledPoisson,
    DistributionSpec,
    FiniteDiscrete,
    IndependentSum,
    Normal,
    PointMass,
    Shift,
    _MAX_DEPTH,
)
from .errors import PreconditionError, SpecParseError, SpecSemanticError

_NUMBER = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")
_NAME = re.compile(r"[a-zA-Z_]+")


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    @property
    def offset(self) -> int:
        # 1-based byte offset of the current position
        return len(self.text[: self.pos].encode()) + 1

    def fail(self, expected: str):
        got = self.text[self.pos : self.pos + 12] or "end of input"
        raise SpecParseError(f"expected {expected}, got {got!r}", self.offset)

    def expect(self, ch: str):
        self.skip_ws()
        if self.pos < len(self.text) and self.text[self.pos] == ch:
            self.pos += 1
            return
        self.fail(f"'{ch}'")

    def number(self) -> float:
        self.skip_ws()
        m = _NUMBER.match(self.text, self.pos)
        if not m:
            self.fail("a number")
        self.pos = m.end()
        return float(m.group())

    def name(self) -> tuple[str, int]:
        self.skip_ws()
        at = self.offset
        m = _NAME.match(self.text, self.pos)
        if not m:
            self.fail("a distribution name")
        self.pos = m.end()
        return m.group(), at


def _atoms(cur: _Cursor, depth: int) -> tuple:
    pairs = []
    while True:
        x = cur.number()
        cur.expect(":")
        pairs.append((x, cur.number()))
        cur.skip_ws()
        if not cur.text.startswith(",", cur.pos):
            return tuple(pairs)
        cur.pos += 1


# each argument kind: how it is read, and how it is written back
_KINDS = {
    "number": (lambda cur, depth: cur.number(), repr),
    "atoms": (_atoms, lambda pairs: ", ".join(f"{x!r}:{w!r}" for x, w in pairs)),
    "spec": (lambda cur, depth: _spec(cur, depth + 1), lambda spec: render(spec)),
}

# the grammar: name -> (variant, kinds of its comma-separated arguments,
# which are the variant's fields in order)
_GRAMMAR = {
    "point": (PointMass, ("number",)),
    "discrete": (FiniteDiscrete, ("atoms",)),
    "normal": (Normal, ("number", "number")),
    "cpoisson": (CenteredScaledPoisson, ("number", "number")),
    "shift": (Shift, ("spec", "number")),
    "sum": (IndependentSum, ("spec", "spec")),
}

def _spec(cur: _Cursor, depth: int = 1) -> DistributionSpec:
    word, at = cur.name()
    if depth > _MAX_DEPTH:
        raise SpecParseError(f"spec nested deeper than {_MAX_DEPTH} levels", at)
    cur.expect("(")
    if word not in _GRAMMAR:
        raise SpecParseError(f"expected one of {', '.join(_GRAMMAR)}", at)
    cls, kinds = _GRAMMAR[word]
    args = []
    for i, kind in enumerate(kinds):
        if i:
            cur.expect(",")
        args.append(_KINDS[kind][0](cur, depth))
    cur.expect(")")
    try:
        return cls(*args)
    except PreconditionError as exc:
        # constructor invariants become semantic errors at the call site
        raise SpecSemanticError(str(exc), at) from exc


def parse_spec(text: str) -> DistributionSpec:
    """Parse a spec string; raises SpecParseError / SpecSemanticError."""
    cur = _Cursor(text)
    spec = _spec(cur)
    cur.skip_ws()
    if cur.pos != len(cur.text):
        cur.fail("end of input")
    return spec


def render(spec: DistributionSpec) -> str:
    """Canonical spec string; parse_spec(render(s)) equals s."""
    for word, (cls, kinds) in _GRAMMAR.items():
        if isinstance(spec, cls):
            args = (_KINDS[kind][1](getattr(spec, f.name))
                    for kind, f in zip(kinds, fields(cls)))
            return f"{word}({', '.join(args)})"
    raise PreconditionError(f"unknown spec {spec!r}")
