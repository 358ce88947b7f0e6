"""Code-document parsing, element grammar, canonical rendering, round-trips."""

import json
import re
from fractions import Fraction

import pytest

from helpers import gf4, gf8, gf9, gf16_over_gf2, gf16_over_gf4, qtheta, random_rational_vector, vec
from rankweight import cli, documents, fields
from rankweight.documents import (
    build_tower,
    document_from_code,
    document_to_json,
    parse_code_document,
    parse_code_file,
    parse_element,
    render_code_document,
    tower_to_json,
)
from rankweight.errors import (
    NotIrreducible,
    ParseError,
    RowLengthMismatch,
    UnknownSymbol,
)
from rankweight.fields import format_element
from rankweight.ranksupport import LinearCode
from rankweight.verify import TowerTask

SAMPLE = (
    '{"tower": {"characteristic": 2, "base_degree": 1, "extension_modulus": [1,1,1],'
    ' "generator_name": "w"}, "length": 2, "generators": [["1", "w"]]}'
)
TRAILING_ZERO = SAMPLE.replace("[1,1,1]", "[1,1,1,0]")  # renders as [1, 1, 1]


def test_parse_sample_document():
    doc = parse_code_file(SAMPLE)
    code = doc.to_code()
    t = gf4()
    assert code.length == 2
    assert code == LinearCode.from_generators(t, 2, [vec(t, 1, t.generator())])


def test_row_length_mismatch():
    bad = SAMPLE.replace('[["1", "w"]]', '[["1", "w", "0"]]')
    with pytest.raises(RowLengthMismatch):
        parse_code_file(bad)


def test_reducible_modulus_rejected():
    bad = SAMPLE.replace("[1,1,1]", "[1,0,1]")
    with pytest.raises(NotIrreducible):
        parse_code_file(bad)


def test_unknown_symbol():
    bad = SAMPLE.replace('"w"]]', '"z"]]')
    with pytest.raises(UnknownSymbol):
        parse_code_file(bad)


def test_malformed_json_has_position():
    with pytest.raises(ParseError) as e:
        parse_code_file('{"tower": ')
    assert "line" in str(e.value)


def test_missing_and_mistyped_fields():
    with pytest.raises(ParseError):
        parse_code_file('{"length": 2, "generators": []}')
    with pytest.raises(ParseError):
        parse_code_file('{"tower": {"characteristic": "two"}, "length": 2, "generators": []}')
    with pytest.raises(ParseError):
        parse_code_file(SAMPLE.replace('"length": 2', '"length": 0'))


def test_element_grammar():
    t = gf4()
    L = t.L
    w = t.generator()
    assert parse_element(L, "w^2+w+1") == w * w + w + 1
    assert parse_element(L, "0") == L.zero()
    assert parse_element(L, "5/3") == L.from_int(5) / L.from_int(3)
    with pytest.raises(ParseError):
        parse_element(L, "1/2")  # denominator vanishes in characteristic 2
    with pytest.raises(ParseError):
        parse_element(L, "w +")
    with pytest.raises(ParseError):
        parse_element(L, "w^")

    q = qtheta()
    theta = q.generator()
    from fractions import Fraction

    assert parse_element(q.L, "-1/2*t+3") == theta * Fraction(-1, 2) + 3
    assert parse_element(q.L, "t^2-3/2") == theta * theta - Fraction(3, 2)


def test_an_operator_where_an_atom_belongs_is_refused():
    with pytest.raises(ParseError, match=re.escape("bad element string '1+*w': unexpected token '*'")):
        parse_element(gf4().L, "1+*w")

def test_render_parse_roundtrip_elements():
    import random

    for t in (gf4(), gf8(), gf9(), gf16_over_gf4(), gf16_over_gf2()):
        for x in t.L.elements():
            y = parse_element(t.L, format_element(x))
            assert y == x and y.field is t.L and y.payload == x.payload
    q = qtheta()
    rng = random.Random(4)
    for _ in range(500):
        (x,) = random_rational_vector(rng, q, 1, height=rng.choice((1, 5, 40)))
        assert parse_element(q.L, format_element(x)) == x


def test_noncanonical_strings_match_element_operators():
    t4 = gf4()
    w = t4.generator()
    one = t4.L.one()
    cases = [
        (t4, "w*w", w * w),
        (t4, "w*w*w", w * w * w),
        (t4, "w^0", one),
        (t4, "w^5", w * w * w * w * w),
        (t4, "-w-1", -w - one),
        (t4, "w+w", w + w),
        (t4, "1+w^2", one + w * w),
        (t4, "(1)^3*w", w),
        (t4, "(w+1)^3", (w + 1) * (w + 1) * (w + 1)),  # parentheses group within the field
    ]
    t9 = gf9()
    v = t9.generator()
    cases += [
        (t9, "3/2", t9.L.from_int(3) / t9.L.from_int(2)),
        (t9, "1/2*w", t9.L.from_int(1) / t9.L.from_int(2) * v),
        (t9, "-w^2+2", -(v * v) + 2),
        (t9, "4", t9.L.from_int(4)),
    ]
    t16 = gf16_over_gf4()
    x = t16.generator()
    u = t16.embed(t16.k.generator())
    cases += [
        (t16, "(u+1)*w", (u + 1) * x),
        (t16, "(u)^2*w", u * u * x),
        (t16, "((1))*w", x),
        (t16, "((u+1))*w", (u + 1) * x),  # u names its image in L at any depth
        (t16, "(w+u)*(w-u)", x * x - u * u),
        (t16, "u*w+u^2", u * x + u * u),
        (t16, "w^4-w", x * x * x * x - x),
    ]
    q = qtheta()
    theta = q.generator()
    cases += [
        (q, "-1/2*t+3", theta * Fraction(-1, 2) + 3),
        (q, "t^3", q.L.from_int(2)),
        (q, "6/4*t*t", theta * theta * Fraction(3, 2)),
        (q, "(1/3)*t-(2)", theta / 3 - 2),
    ]
    for t, text, expected in cases:
        got = parse_element(t.L, text)
        assert got == expected and got.payload == expected.payload, text
    assert parse_element(t4.k, "(1)") == t4.k.one()  # a prime field groups too


def test_element_parser_error_messages():
    L = gf4().L
    qL = qtheta().L
    cases = [
        (L, "1/2", ParseError, "bad element string '1/2': denominator 2 vanishes in GF(4)"),
        (qL, "1/0", ParseError, "bad element string '1/0': denominator 0 vanishes in Q(t)"),
        (L, "w^x", ParseError, "bad element string 'w^x': exponent must be a nonnegative integer"),
        (L, "w^", ParseError, "bad element string 'w^': exponent must be a nonnegative integer"),
        (L, "(1", ParseError, "bad element string '(1': unbalanced parentheses"),
        (L, "z", UnknownSymbol, "element string 'z' uses undeclared symbol 'z'"),
        (L, "(w+1", ParseError, "bad element string '(w+1': unbalanced parentheses"),
        (gf4().k, "(w+1)^3", UnknownSymbol, "element string '(w+1)^3' uses undeclared symbol 'w'"),
        (L, "w w", ParseError, "bad element string 'w w': trailing input at token 1"),
        (L, "w)", ParseError, "bad element string 'w)': trailing input at token 1"),
        (L, "w +", ParseError, "bad element string 'w +': unexpected token None"),
        (L, "1/w", ParseError, "bad element string '1/w': denominator must be an integer"),
        (L, "w$", ParseError, "cannot tokenize element string 'w$' at offset 1"),
        # the offset is where the untokenizable rest starts, its leading whitespace included
        (L, "w$+1", ParseError, "cannot tokenize element string 'w$+1' at offset 1"),
        (L, "w + $ + 1", ParseError, "cannot tokenize element string 'w + $ + 1' at offset 3"),
        (L, "w+1  ", ParseError, "cannot tokenize element string 'w+1  ' at offset 3"),
        (L, "", ParseError, "empty element string"),
        (L, "  ", ParseError, "cannot tokenize element string '  ' at offset 0"),
        (L, " \t\n", ParseError, "cannot tokenize element string ' \\t\\n' at offset 0"),
        (L, 3, ParseError, "element must be a string, got 3"),
        (gf4().k, "(1/2)", ParseError, "bad element string '(1/2)': denominator 2 vanishes in GF(2)"),
        # the grammar is ASCII: an Arabic-Indic 3, a fullwidth 1 and a no-break space are no tokens
        (gf9().L, "\u0663", ParseError, "cannot tokenize element string '\u0663' at offset 0"),
        (gf9().L, "\uff11", ParseError, "cannot tokenize element string '\uff11' at offset 0"),
        (gf9().L, "w\u00a0+1", ParseError, "cannot tokenize element string 'w\\xa0+1' at offset 1"),
    ]
    for field, text, kind, message in cases:
        with pytest.raises(kind) as e:
            parse_element(field, text)
        assert str(e.value) == message


def test_document_roundtrip():
    docs = [
        SAMPLE,
        TRAILING_ZERO,
        json.dumps(
            {
                "tower": {
                    "characteristic": 0,
                    "base_degree": 1,
                    "extension_modulus": [-2, 0, 0, 1],
                    "generator_name": "t",
                },
                "length": 3,
                "generators": [["1", "t", "1/2"], ["0", "t^2", "-3"]],
            }
        ),
        json.dumps(
            {
                "tower": {
                    "characteristic": 2,
                    "base_degree": 2,
                    "base_modulus": [1, 1, 1],
                    "base_generator_name": "u",
                    "extension_modulus": ["u", "1", "1"],
                    "generator_name": "w",
                },
                "length": 2,
                "generators": [["(u+1)*w", "1"], ["u", "w"]],
            }
        ),
    ]
    for text in docs:
        doc = parse_code_file(text)
        rendered = render_code_document(doc)
        again = parse_code_file(rendered)
        assert again == doc
        assert render_code_document(again) == rendered


def test_document_from_code_reproduces():
    t = gf8()
    w = t.generator()
    code = LinearCode.from_generators(t, 3, [vec(t, 1, w, 0), vec(t, 0, 0, 1)])
    doc = document_from_code(code)
    text = render_code_document(doc)
    assert parse_code_file(text).to_code() == code
    payload = document_to_json(doc)
    assert list(payload) == ["tower", "length", "generators"]


def test_shipped_samples_parse_and_roundtrip():
    import pathlib

    samples = sorted((pathlib.Path(__file__).parent.parent / "samples").glob("*.json"))
    assert len(samples) >= 4
    for path in samples:
        doc = parse_code_file(path.read_text())
        code = doc.to_code()
        assert code.length == doc.length
        assert parse_code_file(render_code_document(doc)) == doc


def test_trailing_zero_modulus_tower_block_is_canonical(tmp_path, capsys):
    doc = parse_code_file(TRAILING_ZERO)
    assert doc == parse_code_file(SAMPLE)
    block = tower_to_json(doc.tower)
    assert block["extension_modulus"] == [1, 1, 1]
    path = tmp_path / "trailing.json"
    path.write_text(TRAILING_ZERO)
    assert cli.main(["analyze", str(path), "--format", "json"]) == 0
    analyzed = json.loads(capsys.readouterr().out)
    assert cli.main(["dual", str(path)]) == 0
    dualized = json.loads(capsys.readouterr().out)
    assert analyzed["tower"] == dualized["tower"] == block


def test_base_modulus_tower_block_is_canonical(tmp_path, capsys):
    """The base floor is rendered from the tower too: [3, -1, 1] over GF(2) is
    u^2 + u + 1, so it renders as [1, 1, 1], and the two documents are equal."""
    def document(base_modulus):
        return {"tower": {"characteristic": 2, "base_degree": 2, "base_modulus": base_modulus,
                          "base_generator_name": "u", "extension_modulus": ["u", "1", "1"],
                          "generator_name": "w"},
                "length": 2, "generators": [["1", "(u)*w"]]}

    odd, plain = document([3, -1, 1]), document([1, 1, 1])
    doc = parse_code_document(odd)
    assert doc.tower == gf16_over_gf4() and doc == parse_code_document(plain)
    assert document_to_json(doc) == plain and tower_to_json(doc.tower)["base_modulus"] == [1, 1, 1]
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(odd))
    assert cli.main(["dual", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["tower"] == plain["tower"]


def test_documents_differing_in_generator_name_are_unequal():
    doc = parse_code_file(TRAILING_ZERO)
    renamed = parse_code_file(
        TRAILING_ZERO.replace('"generator_name": "w"', '"generator_name": "x"').replace('"w"]]', '"x"]]')
    )
    assert renamed.tower == doc.tower and renamed.to_code() == doc.to_code()
    assert renamed != doc


def test_build_tower_coefficient_forms():
    """Ints, element strings and Fractions name the same modulus, for documents and TowerTask alike."""
    q = build_tower(0, (-2, 0, 0, 1), symbol="t")
    assert q == qtheta()
    assert build_tower(0, ("-2", Fraction(0), "0", 1)) == q
    assert build_tower(0, (Fraction(-1, 2), 0, 1)).L.modulus == (Fraction(-1, 2), 0, 1)
    nested = build_tower(2, ("u", "1", 1), base_degree=2, base_modulus=(1, 1, 1))
    assert nested == gf16_over_gf4()
    assert TowerTask(2, ("u", "1", 1), base_degree=2, base_modulus=(1, 1, 1)).build() == nested
    with pytest.raises(ParseError, match=r"tower.extension_modulus\[1\]: expected integer or string"):
        build_tower(2, (1, None, 1))


def test_build_tower_builds_its_base_field_once(monkeypatch):
    """The k that parses the modulus is the tower's k: one build_base_field per build_tower
    (GF(16)/GF(4) would otherwise test the base modulus and build k's kernels twice),
    and make_tower builds no base field of its own."""
    expected = gf16_over_gf4()
    real, calls = fields.build_base_field, []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (documents, fields):
        monkeypatch.setattr(module, "build_base_field", counted)
    nested = build_tower(2, ("u", "1", 1), base_degree=2, base_modulus=(1, 1, 1))
    assert nested == expected and calls == [(2, 2, (1, 1, 1))]
    assert fields.make_tower(nested.k, [nested.k.generator(), 1, 1]) == nested
    assert len(calls) == 1


def test_boolean_modulus_coefficient_is_rejected(tmp_path, capsys):
    """JSON true is not the integer 1: the document exits 1 with the coefficient message."""
    bad = SAMPLE.replace("[1,1,1]", "[true, 1, 1]")  # over GF(2)
    with pytest.raises(ParseError, match=r"tower.extension_modulus\[0\]: expected integer or string coefficient, got True"):
        parse_code_file(bad)
    path = tmp_path / "bool.json"
    path.write_text(bad)
    assert cli.main(["analyze", str(path)]) == 1
    assert "expected integer or string coefficient" in capsys.readouterr().err


def test_base_generator_name_must_be_an_identifier():
    doc = {
        "tower": {"characteristic": 2, "base_degree": 2, "base_modulus": [1, 1, 1],
                  "base_generator_name": "u u", "extension_modulus": ["u", "1", "1"],
                  "generator_name": "w"},
        "length": 2,
        "generators": [["1", "w"]],
    }
    with pytest.raises(ParseError, match=r"^tower.base_generator_name: expected an identifier string$"):
        parse_code_file(json.dumps(doc))
    doc["tower"].update(base_generator_name="u1", extension_modulus=["u1", "1", "1"])
    assert parse_code_file(json.dumps(doc)).tower.k.symbol == "u1"


@pytest.mark.parametrize("change, message", [
    (lambda d: [d], "document root must be a JSON object"),
    (lambda d: d["tower"].update(base_degree="2") or d, "tower.base_degree: expected integer"),
    (lambda d: d["tower"].update(base_degree=2, base_modulus=[1, "1", 1]) or d,
     "tower.base_modulus: expected a list of integers"),
    (lambda d: d["tower"].update(base_degree=2, base_modulus=[1, 1, 1], extension_modulus=["u", 1, 1],
                                 generator_name="u", base_generator_name="u") or d,
     "tower: generator_name and base_generator_name must differ"),
    (lambda d: d.update(generators=["1, w"]) or d, "generators[0]: expected a list of element strings"),
])
def test_each_document_refusal_names_its_field(change, message):
    with pytest.raises(ParseError) as e:
        parse_code_document(change(json.loads(SAMPLE)))
    assert str(e.value) == message
