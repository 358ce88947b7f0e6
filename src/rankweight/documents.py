"""Code documents: the self-contained JSON format and the element grammar.

A document fully determines a code:

    {"tower": {"characteristic": 2, "base_degree": 1,
               "extension_modulus": [1, 1, 1], "generator_name": "w"},
     "length": 2,
     "generators": [["1", "w"]]}

Moduli are low-to-high coefficient lists over the base; coefficients are
integers, "a/b" strings, or (when base_degree > 1) polynomial strings in the
base generator.  Elements are polynomial strings in the declared generator
("w^2+w+1"), rationals ("3/2"), with parenthesized base coefficients such as
"(u+1)*w" for nested bases; each parenthesis goes one base down.  Rendering
is canonical: descending powers, coefficient 1 omitted, '+-' folded to '-';
parse(render(x)) == x.

The element parser evaluates on payloads with each field's raw operations
and wraps one FieldElement per element string, at the end.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import ParseError, RowLengthMismatch, UnknownSymbol
from .fields import (
    BaseFieldDescriptor,
    ExtensionField,
    ExtensionTower,
    Field,
    FieldElement,
    PrimeField,
    Rationals,
    format_element,
    make_tower,
)
from .ranksupport import LinearCode

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([+\-*/^()]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise ParseError(f"cannot tokenize element string {text!r} at offset {pos}")
        num, name, sym = m.groups()
        if num is not None:
            tokens.append(("num", int(num)))
        elif name is not None:
            tokens.append(("name", name))
        else:
            tokens.append(("sym", sym))
        pos = m.end()
    return tokens


class _ElementParser:
    """Recursive-descent parser for polynomial element strings.

    Evaluation runs on payloads with each field's raw operations; only the
    final value is wrapped as a FieldElement.
    """

    def __init__(self, field: Field, tokens, text: str):
        self.field = field
        self.tokens = tokens
        self.text = text
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def fail(self, why):
        raise ParseError(f"bad element string {self.text!r}: {why}")

    def parse(self) -> FieldElement:
        value = self.expression(self.field)
        if self.pos != len(self.tokens):
            self.fail(f"trailing input at token {self.pos}")
        return FieldElement(self.field, value)

    def expression(self, fld: Field):
        sign = 1
        kind, val = self.peek()
        if kind == "sym" and val in "+-":
            self.take()
            sign = -1 if val == "-" else 1
        acc = self.term(fld)
        if sign < 0:
            acc = fld._neg(acc)
        while True:
            kind, val = self.peek()
            if kind == "sym" and val in "+-":
                self.take()
                nxt = self.term(fld)
                acc = fld._add(acc, fld._neg(nxt) if val == "-" else nxt)
            else:
                return acc

    def term(self, fld: Field):
        acc = self.factor(fld)
        while True:
            kind, val = self.peek()
            if kind == "sym" and val == "*":
                self.take()
                acc = fld._mul(acc, self.factor(fld))
            else:
                return acc

    def factor(self, fld: Field):
        base = self.atom(fld)
        kind, val = self.peek()
        if kind == "sym" and val == "^":
            self.take()
            kind, exp = self.take()
            if kind != "num":
                self.fail("exponent must be a nonnegative integer")
            result = fld._one
            while exp:
                if exp & 1:
                    result = fld._mul(result, base)
                exp >>= 1
                if exp:
                    base = fld._mul(base, base)
            return result
        return base

    def atom(self, fld: Field):
        kind, val = self.take()
        if kind == "num":
            nxt_kind, nxt_val = self.peek()
            if nxt_kind == "sym" and nxt_val == "/":
                self.take()
                dkind, den = self.take()
                if dkind != "num":
                    self.fail("denominator must be an integer")
                denom = fld._from_int(den)
                if fld._is_zero(denom):
                    self.fail(f"denominator {den} vanishes in {fld}")
                if fld.characteristic == 0:
                    return fld._from_fraction(Fraction(val, den))
                return fld._mul(fld._from_int(val), fld._inv(denom))
            return fld._from_int(val)
        if kind == "name":
            resolved = _resolve_name(fld, val)
            if resolved is not None:
                return resolved
            raise UnknownSymbol(f"element string {self.text!r} uses undeclared symbol {val!r}")
        if kind == "sym" and val == "(":
            if not isinstance(fld, ExtensionField):
                self.fail("parenthesized coefficients need an extension field")
            inner = self.expression(fld.base)
            kind, val = self.take()
            if not (kind == "sym" and val == ")"):
                self.fail("unbalanced parentheses")
            return (inner,) + (fld.base._zero,) * (fld.degree - 1)
        self.fail(f"unexpected token {val!r}")


def _resolve_name(fld: Field, val: str):
    """The payload of a generator name anywhere down the base chain, embedded upward."""
    if not isinstance(fld, ExtensionField):
        return None
    if val == fld.symbol:
        return fld._generator_payload()
    inner = _resolve_name(fld.base, val)
    if inner is None:
        return None
    return (inner,) + (fld.base._zero,) * (fld.degree - 1)


def parse_element(fld: Field, text: str) -> FieldElement:
    """Parse one element string in the given field's generator symbols."""
    if not isinstance(text, str):
        raise ParseError(f"element must be a string, got {text!r}")
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty element string")
    return _ElementParser(fld, tokens, text).parse()


def _parse_coefficient(fld: Field, spec, where: str):
    """Modulus coefficient: JSON int, or a string in the base element grammar."""
    if isinstance(spec, int):
        return fld.from_int(spec)
    if isinstance(spec, str):
        return parse_element(fld, spec)
    raise ParseError(f"{where}: expected integer or string coefficient, got {spec!r}")


def _render_coefficient(x: FieldElement):
    """Canonical JSON form of a modulus coefficient: int when possible, else string."""
    fld = x.field
    if isinstance(fld, PrimeField):
        return x.payload
    if isinstance(fld, Rationals):
        return int(x.payload) if x.payload.denominator == 1 else str(x.payload)
    return format_element(x)


@dataclass
class CodeDocument:
    """Parsed form of one code file; generators keep their original row order."""

    characteristic: int
    base_degree: int
    base_modulus: Optional[tuple]
    extension_modulus: tuple  # FieldElements over k
    generator_name: str
    base_generator_name: Optional[str]
    length: int
    rows: tuple  # tuples of FieldElements over L
    tower: ExtensionTower = field(compare=False, repr=False)

    def to_code(self) -> LinearCode:
        return LinearCode.from_generators(self.tower, self.length, [list(r) for r in self.rows])


def _expect(mapping, key, types, where):
    if key not in mapping:
        raise ParseError(f"{where}: missing required field {key!r}")
    value = mapping[key]
    if not isinstance(value, types) or isinstance(value, bool):
        raise ParseError(f"{where}.{key}: unexpected type {type(value).__name__}")
    return value


def parse_code_document(data) -> CodeDocument:
    """Validate a decoded JSON object and build the tower and generators."""
    if not isinstance(data, dict):
        raise ParseError("document root must be a JSON object")
    tower_spec = _expect(data, "tower", dict, "document")
    characteristic = _expect(tower_spec, "characteristic", int, "tower")
    base_degree = tower_spec.get("base_degree", 1)
    if not isinstance(base_degree, int) or isinstance(base_degree, bool):
        raise ParseError("tower.base_degree: expected integer")
    base_modulus = tower_spec.get("base_modulus")
    if base_modulus is not None:
        if not isinstance(base_modulus, list) or not all(
            isinstance(c, int) and not isinstance(c, bool) for c in base_modulus
        ):
            raise ParseError("tower.base_modulus: expected a list of integers")
        base_modulus = tuple(base_modulus)
    generator_name = tower_spec.get("generator_name", "w")
    base_generator_name = tower_spec.get("base_generator_name", "u") if base_degree > 1 else None
    if not isinstance(generator_name, str) or not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", generator_name):
        raise ParseError("tower.generator_name: expected an identifier string")
    if base_generator_name is not None and base_generator_name == generator_name:
        raise ParseError("tower: generator_name and base_generator_name must differ")
    ext_spec = _expect(tower_spec, "extension_modulus", list, "tower")

    desc = BaseFieldDescriptor(characteristic, base_degree, base_modulus)
    from .fields import build_base_field

    k = build_base_field(desc, symbol=base_generator_name or "u")
    ext_coeffs = [
        _parse_coefficient(k, c, f"tower.extension_modulus[{i}]") for i, c in enumerate(ext_spec)
    ]
    tower = make_tower(desc, ext_coeffs, symbol=generator_name, base_symbol=base_generator_name or "u")

    length = _expect(data, "length", int, "document")
    if length < 1:
        raise ParseError("document.length: must be >= 1")
    gen_spec = _expect(data, "generators", list, "document")
    rows = []
    for i, row in enumerate(gen_spec):
        if not isinstance(row, list):
            raise ParseError(f"generators[{i}]: expected a list of element strings")
        if len(row) != length:
            raise RowLengthMismatch(
                f"generators[{i}] has length {len(row)}, document says {length}"
            )
        rows.append(tuple(parse_element(tower.L, e) for e in row))
    return CodeDocument(
        characteristic=characteristic,
        base_degree=base_degree,
        base_modulus=base_modulus,
        extension_modulus=tuple(ext_coeffs),
        generator_name=generator_name,
        base_generator_name=base_generator_name,
        length=length,
        rows=tuple(rows),
        tower=tower,
    )


def parse_code_file(text: str) -> CodeDocument:
    """Parse UTF-8 JSON text; line/column diagnostics on malformed input."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"malformed JSON at line {e.lineno}, column {e.colno}: {e.msg}") from e
    return parse_code_document(data)


def tower_to_json(doc_or_tower) -> dict:
    """The canonical tower block, key order fixed."""
    if isinstance(doc_or_tower, CodeDocument):
        doc = doc_or_tower
        out = {"characteristic": doc.characteristic, "base_degree": doc.base_degree}
        if doc.base_modulus is not None:
            out["base_modulus"] = list(doc.base_modulus)
            out["base_generator_name"] = doc.base_generator_name
        out["extension_modulus"] = [_render_coefficient(c) for c in doc.extension_modulus]
        out["generator_name"] = doc.generator_name
        return out
    tower = doc_or_tower
    desc = tower.base_descriptor
    out = {"characteristic": desc.characteristic, "base_degree": desc.base_degree}
    if desc.base_modulus is not None:
        out["base_modulus"] = list(desc.base_modulus)
        out["base_generator_name"] = getattr(tower.k, "symbol", "u")
    out["extension_modulus"] = [
        _render_coefficient(FieldElement(tower.k, c)) for c in tower.L.modulus
    ]
    out["generator_name"] = tower.L.symbol
    return out


def document_to_json(doc: CodeDocument) -> dict:
    return {
        "tower": tower_to_json(doc),
        "length": doc.length,
        "generators": [[format_element(e) for e in row] for row in doc.rows],
    }


def render_code_document(doc: CodeDocument) -> str:
    """Canonical JSON text; parse(render(doc)) == doc."""
    return json.dumps(document_to_json(doc), indent=2)


def document_from_code(code: LinearCode) -> CodeDocument:
    """Standalone document reproducing a code (canonical generators)."""
    tower = code.tower
    desc = tower.base_descriptor
    return CodeDocument(
        characteristic=desc.characteristic,
        base_degree=desc.base_degree,
        base_modulus=desc.base_modulus,
        extension_modulus=tuple(FieldElement(tower.k, c) for c in tower.L.modulus),
        generator_name=tower.L.symbol,
        base_generator_name=getattr(tower.k, "symbol", None) if desc.base_degree > 1 else None,
        length=code.length,
        rows=tuple(tuple(row) for row in code.space.rows),
        tower=tower,
    )
