"""Code documents: the self-contained JSON format and the element grammar.

A document fully determines a code:

    {"tower": {"characteristic": 2, "base_degree": 1,
               "extension_modulus": [1, 1, 1], "generator_name": "w"},
     "length": 2,
     "generators": [["1", "w"]]}

Moduli are low-to-high coefficient lists over the base; coefficients are
integers, "a/b" strings, or (when base_degree > 1) polynomial strings in the
base generator.  Elements are polynomial strings in the declared generator
("w^2+w+1") and the base generator's name, which stands for its image in L,
with rationals ("3/2") and grouping parentheses ("(w+1)^3"); nested bases
render their coefficients parenthesized, as in "(u+1)*w".  Rendering is
canonical: descending powers, coefficient 1 omitted, '+-' folded to '-';
parse(render(x)) == x.

A parsed ``CodeDocument`` holds only the tower, the length and the rows; the
tower block is rendered from the tower itself (``tower_to_json``), both
floors included, so a modulus written with trailing zero coefficients comes
back without them and a base modulus comes back reduced mod p
([3, -1, 1] over GF(2) as [1, 1, 1]).  Two documents are equal iff they
render the same: same tower, generator names included, same length and the
same rows in the same order.  ``build_tower`` is the one reader of a tower
description, for documents and for verify's ``TowerTask`` alike: it builds
k once, parses the coefficients in it, and hands both to ``make_tower``.

One ``_ElementReader`` reads the element strings of one field, one reader
per field per document: k's for the modulus coefficients, L's for the rows.
It resolves the generator names of every floor to codes once, tokenizes each
string with one ``findall``, evaluates on codes in the field's kernel and
wraps one FieldElement per element string, at the end.  The grammar is
ASCII: a digit or space of another script is no token.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError, RowLengthMismatch, UnknownSymbol
from .fields import (
    ExtensionField,
    ExtensionTower,
    Field,
    FieldElement,
    PrimeField,
    Rationals,
    _element,
    _power,
    build_base_field,
    format_element,
    make_tower,
)
from .ranksupport import LinearCode

# ASCII only: a digit or space of another script is no token
_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z0-9_]*|[+\-*/^()])", re.ASCII)
_TOKENS = re.compile(f"(?:{_TOKEN.pattern})*", re.ASCII)  # a run of tokens from the start


def _tokenize(text: str) -> list:
    """The tokens of text as strings: one anchored match finds how far tokens
    cover the text, and ``findall`` reads them.

    An error gives the offset where the rest that no token covers begins,
    its leading whitespace included.
    """
    pos = _TOKENS.match(text).end()
    if pos != len(text):
        raise ParseError(f"cannot tokenize element string {text!r} at offset {pos}")
    return _TOKEN.findall(text)


def _generator_codes(fld: Field) -> dict:
    """The code in fld of the generator of every floor of fld, by name, embedded
    upward; where two floors share a name, the upper one is meant."""
    if not isinstance(fld, ExtensionField):
        return {}
    embed = fld._kern.embed_row
    codes = {name: embed((code,))[0] for name, code in _generator_codes(fld.base).items()}
    codes[fld.symbol] = fld.generator().code
    return codes


class _ElementReader:
    """Reads element strings of one field, on codes of its kernel.

    The generator names of every floor are resolved once, when the reader
    is made; each string is tokenized by one ``findall`` and read by
    ``_sum``, and only its value is wrapped as a FieldElement.
    """

    def __init__(self, field: Field):
        self.field = field
        self.kern = field._kern
        self.names = _generator_codes(field)

    def read(self, text) -> FieldElement:
        if not isinstance(text, str):
            raise ParseError(f"element must be a string, got {text!r}")
        tokens = _tokenize(text)
        if not tokens:
            raise ParseError("empty element string")
        tokens.append(None)  # the end: every read stops at it
        value, pos = self._sum(tokens, 0, text)
        if pos != len(tokens) - 1:
            self._fail(text, f"trailing input at token {pos}")
        return _element(self.field, value)

    @staticmethod
    def _fail(text, why):
        raise ParseError(f"bad element string {text!r}: {why}")

    def _sum(self, tokens, pos, text):
        """(code, position after it) of the sum that starts at token pos.

        A sum is an optional sign and products joined by + or -, a product
        is powers joined by *, and a power is an atom with an optional ^n.
        An atom is n, n/d, a generator name or a sum in parentheses, the one
        place where the reader recurses.
        """
        kern, names = self.kern, self.names
        total, sign = 0, "+"
        if tokens[pos] == "+" or tokens[pos] == "-":
            sign, pos = tokens[pos], pos + 1
        while True:
            product = None
            while True:
                tok = tokens[pos]
                pos += 1
                if tok is None:
                    self._fail(text, "unexpected token None")
                if tok.isdigit():
                    value = kern.int_code(int(tok))
                    if tokens[pos] == "/":
                        den = tokens[pos + 1]
                        pos += 2
                        if den is None or not den.isdigit():
                            self._fail(text, "denominator must be an integer")
                        den = int(den)
                        denom = kern.int_code(den)
                        if not denom:
                            self._fail(text, f"denominator {den} vanishes in {self.field}")
                        if self.field.characteristic == 0:
                            value = kern.fraction_code(Fraction(int(tok), den))
                        else:
                            value = kern.mul(value, kern.inv(denom))
                elif tok == "(":
                    value, pos = self._sum(tokens, pos, text)
                    if tokens[pos] != ")":
                        self._fail(text, "unbalanced parentheses")
                    pos += 1
                elif tok in names:
                    value = names[tok]
                elif tok.isidentifier():
                    raise UnknownSymbol(f"element string {text!r} uses undeclared symbol {tok!r}")
                else:
                    self._fail(text, f"unexpected token {tok!r}")
                if tokens[pos] == "^":
                    exp = tokens[pos + 1]
                    pos += 2
                    if exp is None or not exp.isdigit():
                        self._fail(text, "exponent must be a nonnegative integer")
                    value = _power(kern, value, int(exp))
                product = value if product is None else kern.mul(product, value)
                if tokens[pos] != "*":
                    break
                pos += 1
            total = kern.add(total, kern.neg(product) if sign == "-" else product)
            sign = tokens[pos]
            if sign != "+" and sign != "-":
                return total, pos
            pos += 1


def parse_element(fld: Field, text: str) -> FieldElement:
    """Parse one element string in the given field's generator symbols."""
    return _ElementReader(fld).read(text)


def _parse_coefficient(reader: _ElementReader, spec, where: str):
    """Modulus coefficient: an int or Fraction as given, or a string in k's element grammar."""
    if isinstance(spec, (int, Fraction)) and not isinstance(spec, bool):
        return spec
    if isinstance(spec, str):
        return reader.read(spec)
    raise ParseError(f"{where}: expected integer or string coefficient, got {spec!r}")


def build_tower(
    characteristic: int,
    extension_modulus,
    base_degree: int = 1,
    base_modulus=None,
    symbol: str = "w",
    base_symbol: str = "u",
) -> ExtensionTower:
    """The tower k[x]/(f) named by a document's tower block or a verify task.

    ``extension_modulus`` lists f's coefficients over k, low to high: ints,
    Fractions (over Q), or element strings in ``base_symbol``.
    """
    k = build_base_field(characteristic, base_degree, base_modulus, symbol=base_symbol)
    reader = _ElementReader(k)
    coeffs = [
        _parse_coefficient(reader, c, f"tower.extension_modulus[{i}]") for i, c in enumerate(extension_modulus)
    ]
    return make_tower(k, coeffs, symbol)


def _render_coefficient(k: Field, c):
    """Canonical JSON form of a modulus coefficient payload: int when possible, else string."""
    if isinstance(k, PrimeField):
        return c
    if isinstance(k, Rationals):
        return int(c) if c.denominator == 1 else str(c)
    return format_element(FieldElement(k, c))


@dataclass(eq=False)
class CodeDocument:
    """One code file: its tower, length and generator rows in their original order.

    Two documents are equal iff they render the same, generator names included.
    """

    tower: ExtensionTower
    length: int
    rows: tuple  # tuples of FieldElements over L

    def __eq__(self, other):
        if not isinstance(other, CodeDocument):
            return NotImplemented
        return document_to_json(self) == document_to_json(other)

    def to_code(self) -> LinearCode:
        return LinearCode.from_generators(self.tower, self.length, self.rows)


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
    names = {"generator_name": generator_name}
    if base_degree > 1:
        names["base_generator_name"] = base_generator_name
    for key, name in names.items():
        if not isinstance(name, str) or not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
            raise ParseError(f"tower.{key}: expected an identifier string")
    if base_generator_name is not None and base_generator_name == generator_name:
        raise ParseError("tower: generator_name and base_generator_name must differ")
    ext_spec = _expect(tower_spec, "extension_modulus", list, "tower")

    tower = build_tower(
        characteristic, ext_spec, base_degree, base_modulus, generator_name, base_generator_name or "u"
    )

    length = _expect(data, "length", int, "document")
    if length < 1:
        raise ParseError("document.length: must be >= 1")
    gen_spec = _expect(data, "generators", list, "document")
    rows, read = [], _ElementReader(tower.L).read
    for i, row in enumerate(gen_spec):
        if not isinstance(row, list):
            raise ParseError(f"generators[{i}]: expected a list of element strings")
        if len(row) != length:
            raise RowLengthMismatch(
                f"generators[{i}] has length {len(row)}, document says {length}"
            )
        rows.append(tuple(map(read, row)))
    return CodeDocument(tower, length, tuple(rows))


def parse_code_file(text: str) -> CodeDocument:
    """Parse UTF-8 JSON text; line/column diagnostics on malformed input."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"malformed JSON at line {e.lineno}, column {e.colno}: {e.msg}") from e
    return parse_code_document(data)


def tower_to_json(tower: ExtensionTower) -> dict:
    """The canonical tower block, key order fixed."""
    k = tower.k
    if isinstance(k, ExtensionField):  # GF(p^a): its base modulus as k holds it, reduced mod p
        out = {"characteristic": k.characteristic, "base_degree": k.degree,
               "base_modulus": list(k.modulus), "base_generator_name": k.symbol}
    else:
        out = {"characteristic": k.characteristic, "base_degree": 1}
    out["extension_modulus"] = [_render_coefficient(tower.k, c) for c in tower.L.modulus]
    out["generator_name"] = tower.L.symbol
    return out


def document_to_json(doc: CodeDocument) -> dict:
    return {
        "tower": tower_to_json(doc.tower),
        "length": doc.length,
        "generators": [[format_element(e) for e in row] for row in doc.rows],
    }


def render_code_document(doc: CodeDocument) -> str:
    """Canonical JSON text; parse(render(doc)) == doc."""
    return json.dumps(document_to_json(doc), indent=2)


def document_from_code(code: LinearCode) -> CodeDocument:
    """Standalone document reproducing a code (canonical generators)."""
    return CodeDocument(code.tower, code.length, tuple(code.space.rows))
