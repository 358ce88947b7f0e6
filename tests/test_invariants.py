"""Internal cross-checks are explicit raises, so `python -O` keeps them."""

import ast
import itertools
import json
import multiprocessing
import os
import pathlib
import pickle
import random
import re
import subprocess
import sys
import textwrap
import time

import pytest

import rankweight
from helpers import gf4099_squared, gf8192, qtheta
from rankweight import cli, fields, ranksupport, verify, weights
from rankweight.documents import document_from_code, document_to_json, parse_code_file
from rankweight.linalg import Subspace, subspace_sum
from rankweight.errors import InfiniteField, InternalInvariantError
from rankweight.ranksupport import (
    KSubspace,
    closure,
    closure_oracle,
    galois_closure,
    is_extended,
    rank_support_code,
    restriction,
)
from rankweight.verify import TowerTask, VerifyPlan, exhaustive_codes, run_verify, standard_plan

PACKAGE_DIR = pathlib.Path(rankweight.__file__).resolve().parent
SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "samples"

# restriction's one elimination (its only tail_subspace call) made to return
# the zero space, so every Res(C) comes out as 0
WRONG_RESTRICTION = """
import json
from rankweight import ranksupport
from rankweight.linalg import Subspace
from rankweight.verify import run_verify, standard_plan

ranksupport.tail_subspace = lambda field, rows, num_cols, start: Subspace.zero(field, num_cols - start)
print(json.dumps(run_verify(standard_plan(theorem="delsarte"))))
"""

DELSARTE_SUMMARY = """
import json
from rankweight.verify import run_verify, standard_plan

print(json.dumps(run_verify(standard_plan(theorem="delsarte"))))
"""


SPAWNED_SUMMARIES = """
import json
import multiprocessing
from rankweight.verify import run_verify, standard_plan

multiprocessing.set_start_method("spawn")
print(json.dumps([run_verify(standard_plan(workers=w)) for w in (1, 2)]))
"""


def run_optimized(script):
    """Run a script under `python -O` against the source tree under test."""
    return run_script(script, "-O")


def run_script(script, *options):
    """Run a script in a fresh interpreter against the source tree under test."""
    proc = subprocess.run(
        [sys.executable, *options, "-c", script],
        capture_output=True,
        text=True,
        env={
            "PATH": "/usr/bin:/bin",
            "PYTHONPATH": str(PACKAGE_DIR.parent),
            "PYTHONDONTWRITEBYTECODE": "1",
        },
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _raises_assertion_error(node):
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statements_in_src():
    """No `assert` and no `raise AssertionError`: checks raise InternalInvariantError."""
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert) or _raises_assertion_error(node)
    ]
    assert offenders == []


# math functions with exact integer values; every other one returns a float
EXACT_MATH = {"isqrt", "gcd", "lcm", "comb"}


def _is_float(node):
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (float, complex))
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Name) and node.func.id == "float"
    if isinstance(node, ast.Attribute):
        return isinstance(node.value, ast.Name) and node.value.id == "math" and node.attr not in EXACT_MATH
    if isinstance(node, ast.ImportFrom) and node.module == "math":
        return any(alias.name not in EXACT_MATH for alias in node.names)
    return False


def test_no_floats_in_src():
    """Everything stays exact: no float literal, float() call or float-valued math function."""
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if _is_float(node)
    ]
    assert offenders == []


def test_float_gate_flags_each_kind():
    flagged = [
        any(_is_float(node) for node in ast.walk(ast.parse(src)))
        for src in ("x = 0.5", "y = float(3)", "import math\nz = math.sqrt(2)", "from math import log",
                    "w = 2j", "from math import gcd, lcm\nv = math.isqrt(9) // math.comb(4, 2)", "u = 7 // 2")
    ]
    assert flagged == [True, True, True, True, True, False, False]


# the helpers of the element path that ran beside the coded one while some fields had no kernel
FORK_NAMES = {"_rref_generic", "_finite_kernel", "_row_codes", "_combine"}


def _is_kernel(expr, bound):
    """A ``._kern`` read, or a name bound to one."""
    if isinstance(expr, ast.Attribute):
        return expr.attr == "_kern"
    return isinstance(expr, ast.Name) and expr.id in bound


def _kernel_fork_offences(source):
    """Where source forks on whether a field has a kernel.

    Every field has one, so a truth test of a ``._kern`` read, made
    directly or through a name assigned from one, picks a branch that cannot
    run; and no module names a helper of FORK_NAMES.
    """
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = [(target, node.value)]
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                    pairs = zip(target.elts, node.value.elts)
                bound.update(t.id for t, v in pairs if isinstance(t, ast.Name) and _is_kernel(v, ()))
    offences = []
    for node in ast.walk(tree):
        tested = []
        if isinstance(node, (ast.If, ast.While, ast.IfExp, ast.Assert)):
            tested = [node.test]
        elif isinstance(node, ast.BoolOp):
            tested = node.values
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            tested = [node.operand]
        elif isinstance(node, ast.comprehension):
            tested = node.ifs
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "bool":
            tested = node.args
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(isinstance(x, ast.Constant) and type(x.value) in (bool, type(None)) for x in operands):
                tested = operands
        offences += [f"{x.lineno}: truth test of a kernel" for x in tested if _is_kernel(x, bound)]
        names = [getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)]
        if isinstance(node, ast.ImportFrom):
            names += [alias.name for alias in node.names]
        offences += [f"{node.lineno}: names {name}" for name in names if name in FORK_NAMES]
    return offences


def test_no_module_forks_on_a_kernel():
    """Every tower field has a kernel: outside fields.py nothing tests for one."""
    offenders = [
        f"{path.name}:{offence}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if path.name != "fields.py"
        for offence in _kernel_fork_offences(path.read_text())
    ]
    assert offenders == []


def test_kernel_fork_gate_flags_each_kind():
    flagged = [
        bool(_kernel_fork_offences(src))
        for src in (
            "kern = f._kern\nif kern:\n    pass",
            "kern = f._kern\nif not kern:\n    pass",
            "kern, g = f._kern, 1\nx = 1 if kern else 2",
            "def k(f):\n    return f.order is not None and f._kern",
            "if f._kern:\n    pass",
            "assert f._kern is not False",
            "x = [r for r in rows if f._kern]",
            "rows, _ = _rref_generic(f, rows, n)",
            "from .linalg import _row_codes",
            "c = weights._combine(a, g, L, n)",
            "def _finite_kernel(field):\n    return field",
            "kern = f._kern\nz = kern.one if x else 0",
            "kern = f._kern\nif x:\n    kern.mul(a, b)",
            "c = _combine_codes(kern, a, g, n)",
            "s = '_combine'",
        )
    ]
    assert flagged == [True] * 11 + [False] * 4


# the Field and FieldElement methods that return or take wrapped elements
ELEMENT_METHODS = {"zero", "one", "from_int", "element", "elements", "generator", "inverse"}


def _uses_field_element(node):
    """A name, import or element-returning method call that brings FieldElement in."""
    if isinstance(node, ast.Name):
        return node.id == "FieldElement"
    if isinstance(node, ast.Attribute):
        return node.attr == "FieldElement"
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Attribute) and node.func.attr in ELEMENT_METHODS
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        names = [getattr(node, "module", None) or ""] + [alias.name for alias in node.names]
        return any(name.split(".")[-1] in ("FieldElement", "fields") for name in names)
    return False


# what a field offers on payloads: polys computes on kernel codes and reads none of it
PAYLOAD_NAMES = {"payload", "_zero", "_one", "_payloads", "_add", "_neg", "_mul", "_inv", "_is_zero",
                 "_from_int", "_from_fraction", "_mul_raw", "_inv_raw"}


def _polys_offences(source):
    """Where source brings FieldElement in, or reads a payload or a field's payload operation."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if _uses_field_element(node) or isinstance(node, ast.Attribute) and node.attr in PAYLOAD_NAMES]


def test_polys_works_on_codes_only():
    """polys computes with a kernel's operations on codes: it neither imports nor names
    FieldElement, nor calls the methods that build one, nor reads a payload."""
    assert _polys_offences((PACKAGE_DIR / "polys.py").read_text()) == []


def test_polys_gate_flags_each_kind():
    flagged = [
        bool(_polys_offences(src))
        for src in ("from .fields import FieldElement", "z = field.zero()", "z = field._mul(a, b)",
                    "o = field._one", "e = field._is_zero(c)", "n = field._from_int(3)", "p = x.payload",
                    "xs = list(field._payloads())",
                    "z = k.mul(a, b)", "o = k.one", "n = k.int_code(3)", "e = not c", "s = '_mul'")
    ]
    assert flagged == [True] * 8 + [False] * 5


def test_field_element_gate_flags_each_kind():
    flagged = [
        any(_uses_field_element(node) for node in ast.walk(ast.parse(src)))
        for src in ("from .fields import FieldElement", "from rankweight.fields import make_tower",
                    "from . import fields", "import rankweight.fields as f",
                    "x = FieldElement(k, 1)", "y = fields.FieldElement", "isinstance(c, FieldElement)",
                    "z = field.zero()", "inv = q[-1].inverse()", "e = list(field.elements())",
                    "z = field._mul(a, b)", "o = field._one", "from .errors import BadModulus",
                    "s = 'FieldElement'", "n = kern.int_code(3)", "o = kern.one")
    ]
    assert flagged == [True] * 10 + [False] * 6


# the payload arithmetic the field classes carried beside their kernels
PAYLOAD_ARITHMETIC = {"_add", "_neg", "_mul", "_inv", "_is_zero", "_from_int", "_from_fraction", "_mul_raw",
                      "_inv_raw", "_payloads"}


def _payload_arithmetic_offences(source):
    """Where a class of source defines a name of PAYLOAD_ARITHMETIC, as a method or a
    class attribute, or FieldElement's ``__slots__`` names payload, or there is no FieldElement."""
    classes = [node for node in ast.parse(source).body if isinstance(node, ast.ClassDef)]
    offences = [] if any(c.name == "FieldElement" for c in classes) else ["no FieldElement"]
    for cls in classes:
        for node in cls.body:
            names = [node.name] if isinstance(node, ast.FunctionDef) else []
            if isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            offences += [f"{cls.name}.{name}" for name in names if name in PAYLOAD_ARITHMETIC]
            if cls.name == "FieldElement" and "__slots__" in names and "payload" in ast.literal_eval(node.value):
                offences.append("FieldElement.__slots__ holds payload")
    return offences


def test_fields_carry_one_arithmetic():
    """An element is its kernel code: no field class keeps a payload arithmetic beside the kernel."""
    assert _payload_arithmetic_offences((PACKAGE_DIR / "fields.py").read_text()) == []


def test_payload_arithmetic_gate_flags_each_kind():
    clean = 'class FieldElement:\n    __slots__ = ("field", "code")\n' \
            "class PrimeField:\n    def __init__(self, p):\n        self.p = p\n" \
            "def _add_digits(p, a, b):\n    return a\n"
    offending = [clean.replace("def __init__(self, p)", f"def {name}(self, p)") for name in sorted(PAYLOAD_ARITHMETIC)]
    offending += [
        clean + "class ExtensionField:\n    @staticmethod\n    def _is_zero(a):\n        return not a\n",
        clean.replace("self.p = p\n", "self.p = p\n    _mul_raw = __init__\n"),
        clean.replace('("field", "code")', '("field", "payload")'),
        clean.replace("class FieldElement:", "class Element:"),
    ]
    innocent = [clean, clean.replace("def __init__(self, p)", "def _mul_table(self, p)"),
                clean + "def _inv(a):\n    return a\n", clean + "s = '_mul_raw'\n"]
    assert [bool(_payload_arithmetic_offences(src)) for src in offending] == [True] * len(offending)
    assert [bool(_payload_arithmetic_offences(src)) for src in innocent] == [False] * len(innocent)


# the kernel classes and their builder: they compute on codes and payloads only
KERNEL_DEFS = {"_FiniteKernel", "_Kernel", "_RationalKernel", "_QKernel", "_make_kernel"}


def _kernel_element_offences(source):
    """Where a definition of KERNEL_DEFS in source brings FieldElement in, or is missing."""
    defs = [node for node in ast.parse(source).body
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name in KERNEL_DEFS]
    offences = [f"no {name}" for name in sorted(KERNEL_DEFS - {d.name for d in defs})]
    return offences + [f"{d.name}:{node.lineno}" for d in defs for node in ast.walk(d) if _uses_field_element(node)]


def test_kernels_never_build_elements():
    """Kernels take and return codes and payloads; elements are built in linalg.decode_rows."""
    assert _kernel_element_offences((PACKAGE_DIR / "fields.py").read_text()) == []


def test_kernel_element_gate_flags_each_kind():
    clean = "".join(f"class {name}:\n    one = 1\n" for name in sorted(KERNEL_DEFS - {"_make_kernel"}))
    clean += "def _make_kernel(field):\n    return _Kernel(field)\n"
    flagged = [
        bool(_kernel_element_offences(src))
        for src in (
            clean,
            clean.replace("class _QKernel:", "class _QKernelOld:"),
            clean.replace("class _Kernel:\n    one = 1", "class _Kernel:\n    def d(self, c):\n        return FieldElement(self.field, c)"),
            clean.replace("return _Kernel(field)", "return _Kernel(field, field.zero())"),
            clean.replace("class _RationalKernel:\n    one = 1", "class _RationalKernel:\n    from .fields import FieldElement"),
            clean + "def decode(field, c):\n    return FieldElement(field, c)\n",
        )
    ]
    assert flagged == [False, True, True, True, True, False]


# what a kernel no longer offers: elements are coded by linalg._encode and decoded by linalg.decode_rows
KERNEL_BRIDGES = {"decode_rows", "mul_payloads", "inv_payload"}


def _kernel_bridge_offences(source):
    """Where source codes or decodes by hand instead of through linalg.

    It reads a ``.index`` table (a subscript or an alias of it; a call such
    as ``row.index(one)`` is a sequence method), or names decode_rows,
    mul_payloads or inv_payload on anything but the ``linalg`` module.
    """
    tree = ast.parse(source)
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    offences = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "index" and id(node) not in called:
            offences.append(f"{node.lineno}: reads .index")
        if isinstance(node, ast.Attribute) and node.attr in KERNEL_BRIDGES and getattr(node.value, "id", None) != "linalg":
            offences.append(f"{node.lineno}: names .{node.attr}")
    return offences


def test_only_linalg_codes_and_decodes_elements():
    offenders = [
        f"{name}:{offence}"
        for name in ("ranksupport.py", "weights.py", "verify.py")
        for offence in _kernel_bridge_offences((PACKAGE_DIR / name).read_text())
    ]
    assert offenders == []


def test_kernel_bridge_gate_flags_each_kind():
    flagged = [
        bool(_kernel_bridge_offences(src))
        for src in (
            "c = kern.index[x.payload]",
            "codes = [t.L._kern.index[b.payload] for b in basis]",
            "index = kern.index\nc = index[p]",
            "rows = kern.decode_rows(codes)",
            "c = L._kern.mul_payloads(a, b)",
            "p = kern.inv_payload(a)",
            "rows = decode_rows(L, codes)",
            "rows = linalg.decode_rows(L, codes)",
            "p = row.index(one)",
            "(c,) = _encode(kern, [v], n)",
            "s = 'mul_payloads'",
        )
    ]
    assert flagged == [True] * 6 + [False] * 5


def _member_code_offences(name, source):
    """Where module ``name`` names ``_member_code`` outside ``linalg._encode``.

    ``linalg._encode`` is the one check of rows of elements and
    ``fields._code_in`` the one check of a single element, so no other door
    tests membership itself.  Importing the name is fine; a call or an alias
    anywhere else is not.
    """
    tree = ast.parse(source)
    inside = set()
    if name == "linalg.py":
        inside = {id(node) for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "_encode"
                  for node in ast.walk(f)}
    return [
        node.lineno
        for node in ast.walk(tree)
        if "_member_code" in (getattr(node, "id", None), getattr(node, "attr", None)) and id(node) not in inside
    ]


def test_only_encode_tests_membership_outside_fields():
    offenders = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if path.name != "fields.py"
        for line in _member_code_offences(path.name, path.read_text())
    ]
    assert offenders == []


def test_member_code_gate_flags_each_kind():
    encode = "from .fields import _member_code\n" \
             "def _encode(kern, rows, n):\n    return [_member_code(kern.field, e) for r in rows for e in r]\n"
    flagged = [
        bool(_member_code_offences(name, src))
        for name, src in (
            ("linalg.py", encode),
            ("linalg.py", encode.replace("_member_code(", "fields._member_code(")),
            ("linalg.py", encode + "s = '_member_code'\n"),
            ("linalg.py", encode + "class Matrix:\n    def __init__(self, f, e):\n        _member_code(f, e)\n"),
            ("linalg.py", encode.replace("def _encode", "def _decode")),
            ("ranksupport.py", encode),
            ("weights.py", "check = fields._member_code\n"),
        )
    ]
    assert flagged == [False] * 3 + [True] * 4


# what closure_oracle is checked against; it must reach none of them
ORACLE_BANNED = {"closure", "rank_support_code", "restriction", "extend_to_L"}
# galois_closure must share no step with closure or with the literal oracle either
GALOIS_BANNED = ORACLE_BANNED | {"closure_oracle", "_subspace_codes"}


def _reached_names(source, root, banned):
    """The function root of source, with every function of the module it reaches by name:
    (the nodes of those functions, in name order; offences, one per name in banned they use)."""
    functions = {node.name: node for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)}
    reached, todo = set(), [root]
    while todo:
        name = todo.pop()
        if name in functions and name not in reached:
            reached.add(name)
            todo += [node.id for node in ast.walk(functions[name]) if isinstance(node, ast.Name)]
    if not reached:
        return [], [f"no {root}"]
    nodes, offences = [], []
    for name in sorted(reached):
        for node in ast.walk(functions[name]):
            ident = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if ident in banned:
                offences.append(f"{name}:{node.lineno} names {ident}")
            nodes.append(node)
    return nodes, offences


def _oracle_offences(source):
    """Where closure_oracle in source stops being a literal, independent check.

    The oracle and every function of its module that it reaches by name (its
    list builder) may name none of ORACLE_BANNED, and one of them must build
    each W_L with ``Subspace.from_vectors``.
    """
    nodes, offences = _reached_names(source, "closure_oracle", ORACLE_BANNED)
    if nodes and not any(
        isinstance(node, ast.Attribute) and node.attr == "from_vectors" and getattr(node.value, "id", None) == "Subspace"
        for node in nodes
    ):
        offences.append("no W_L is built with Subspace.from_vectors")
    return offences


def _galois_offences(source):
    """Where galois_closure in source stops being a third computation of C*:
    it and every function of its module that it reaches by name may name none
    of GALOIS_BANNED."""
    return _reached_names(source, "galois_closure", GALOIS_BANNED)[1]


def test_closure_oracle_stays_literal():
    assert _oracle_offences((PACKAGE_DIR / "ranksupport.py").read_text()) == []


def test_oracle_gate_flags_each_kind():
    literal = "def closure_oracle(C):\n    return [w for w in _spaces(C)]\n" \
              "def _spaces(C):\n    return [Subspace.from_vectors(L, n, embed(r)) for r in rows]\n"
    flagged = [
        bool(_oracle_offences(src))
        for src in (
            literal,
            literal + "def elsewhere(C):\n    return closure(C)\n",  # not reached from the oracle
            literal.replace("[w for w in _spaces(C)]", "closure(C)"),
            literal.replace("embed(r)", "restriction(C).rows"),
            literal.replace("Subspace.from_vectors(L, n, embed(r))", "extend_to_L(r).space"),
            literal.replace("embed(r)", "ranksupport.rank_support_code(C).space.rows"),
            literal.replace("Subspace.from_vectors(L, n, embed(r))", "Subspace(L, n, r)"),
            "def oracle(C):\n    return Subspace.from_vectors(L, n, [])\n",
        )
    ]
    assert flagged == [False, False, True, True, True, True, True, True]


def test_galois_closure_stays_independent():
    assert _galois_offences((PACKAGE_DIR / "ranksupport.py").read_text()) == []


def test_galois_gate_flags_each_kind():
    clean = "def galois_closure(C):\n    return _fix(C.space, C.tower._frobenius())\n" \
            "def _fix(S, sigma):\n    return subspace_sum(S, image(S, sigma))\n"
    flagged = [
        bool(_galois_offences(src))
        for src in (
            clean,
            clean + "def elsewhere(C):\n    return closure_oracle(C)\n",  # not reached from galois_closure
            clean.replace("_fix(C.space", "_fix(closure(C).space"),
            clean.replace("image(S, sigma)", "ranksupport.rank_support_code(C).space"),
            clean.replace("image(S, sigma)", "restriction(C).space"),
            clean.replace("image(S, sigma)", "extend_to_L(D).space"),
            clean.replace("_fix(C.space", "_fix(closure_oracle(C).space"),
            clean.replace("image(S, sigma)", "next(_subspace_codes(C.tower, k, n, n))"),
            clean.replace("galois_closure", "galois"),
        )
    ]
    assert flagged == [False, False] + [True] * 7


# the element helpers that witness search must not go back to
WITNESS_BANNED = {"embed_vector", "expansion_rows", "rank_support_vec"}


def _witness_offences(source):
    """Where witness search in source leaves codes before find_witness returns.

    ``decode_rows`` may be named only inside find_witness (importing it is
    fine), no helper of WITNESS_BANNED is imported or named, and no
    ``from_vectors`` call builds a subspace from elements.
    """
    tree = ast.parse(source)
    finder = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "find_witness"]
    if not finder:
        return ["no find_witness"]
    inside = {id(node) for node in ast.walk(finder[0])}
    offences = []
    for node in ast.walk(tree):
        names = [alias.name for alias in node.names] if isinstance(node, ast.ImportFrom) else []
        ident = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if ident == "decode_rows" and id(node) not in inside:
            offences.append(f"{node.lineno}: decode_rows outside find_witness")
        offences += [f"{node.lineno}: names {name}" for name in [ident, *names] if name in WITNESS_BANNED]
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "from_vectors":
            offences.append(f"{node.lineno}: calls from_vectors")
    return offences


def test_witness_search_stays_on_codes():
    assert _witness_offences((PACKAGE_DIR / "weights.py").read_text()) == []


def test_witness_gate_flags_each_kind():
    clean = "from .linalg import decode_rows\n" \
            "def find_witness(C):\n    return decode_rows(L, [_search(C)])[0]\n" \
            "def _search(C):\n    return C.space._codes[0]\n"
    flagged = [
        bool(_witness_offences(src))
        for src in (
            clean,
            clean.replace("return C.space._codes[0]", "return decode_rows(L, C.space._codes)[0]"),
            clean.replace("return C.space._codes[0]", "return linalg.decode_rows(L, C.space._codes)[0]"),
            clean + "from .ranksupport import rank_support_vec\n",
            clean.replace("decode_rows\n", "decode_rows, expansion_rows\n"),
            clean.replace("return C.space._codes[0]", "return ranksupport.embed_vector(t, e)"),
            clean.replace("return C.space._codes[0]", "return Subspace.from_vectors(L, n, rows)"),
            clean.replace("def find_witness(C)", "def find(C)"),
            clean + "s = 'decode_rows'\n",
        )
    ]
    assert flagged == [False] + [True] * 7 + [False]


DR_MEMO = "closure_maxwt"  # the slot of fields._TowerMemo that holds D_r's maxwt per closure
# what weight_Dr would name to read maxwt(W_L) = min(m, dim W) off the closure instead of walking it
DR_BANNED = {"min", "len", "dim", "degree", "rank_support_code", "restriction"}


def _dr_memo_offences(sources):
    """Where D_r's memo of maxwt per closure reaches past weight_Dr, or D_r stops walking.

    Across sources (module name -> source) only ``weight_Dr`` of weights.py
    names DR_MEMO, as an attribute, a name or a string, besides the class
    ``_TowerMemo`` of fields.py that declares it; ``weight_Dr`` names it,
    calls ``maxwt`` and names none of DR_BANNED.
    """
    owners = {("weights", "weight_Dr"), ("fields", "_TowerMemo")}
    offences, walker = [], None
    for module, source in sources.items():
        tree = ast.parse(source)
        allowed = set()
        for node in tree.body:
            if (module, getattr(node, "name", None)) in owners:
                allowed |= {id(inner) for inner in ast.walk(node)}
                if module == "weights":
                    walker = node
        for node in ast.walk(tree):
            ident = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if ident == DR_MEMO or isinstance(node, ast.Constant) and node.value == DR_MEMO:
                if id(node) not in allowed:
                    offences.append(f"{module}:{node.lineno} names {DR_MEMO}")
    if walker is None:
        return offences + ["no weight_Dr"]
    walks = reads = False
    for node in ast.walk(walker):
        ident = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if ident in DR_BANNED:
            offences.append(f"weight_Dr:{node.lineno} names {ident}")
        reads |= ident == DR_MEMO
        walks |= isinstance(node, ast.Call) and getattr(node.func, "id", None) == "maxwt"
    if not reads:
        offences.append(f"weight_Dr names no {DR_MEMO}")
    if not walks:
        offences.append("weight_Dr calls no maxwt")
    return offences


def test_only_weight_Dr_reads_its_memo_and_it_walks_every_closure():
    assert DR_MEMO in fields._TowerMemo.__slots__
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE_DIR.glob("*.py"))}
    assert _dr_memo_offences(sources) == []


def test_dr_memo_gate_flags_each_kind():
    tower = "class _TowerMemo:\n    __slots__ = ('closure_maxwt',)\n"
    clean = "def weight_Dr(C, r):\n    memo = C.tower._memo.closure_maxwt\n" \
            "    return _least(memo.setdefault(key, maxwt(closure(D))) for D in subs)\n"
    cases = [
        {"fields": tower, "weights": clean},
        {"weights": clean + "def weight_OSr(C, r):\n    return C.tower._memo.closure_maxwt[key]\n"},
        {"weights": clean, "ranksupport": "memo = getattr(t._memo, 'closure_maxwt')\n"},
        {"weights": clean, "fields": "def reset(t):\n    t._memo.closure_maxwt = {}\n"},
        {"weights": clean.replace("maxwt(closure(D))", "min(t.degree, closure(D).dim) or maxwt(closure(D))")},
        {"weights": clean.replace("maxwt(closure(D))", "len(closure(D).space._codes) or maxwt(closure(D))")},
        {"weights": clean.replace("maxwt(closure(D))", "rank_support_code(D).dim")},
        {"weights": clean.replace("maxwt(closure(D))", "walk(closure(D))")},
        {"weights": clean.replace("def weight_Dr", "def weight_D")},
        {"weights": clean + "note = 'the closure_maxwt memo'\n"},  # prose, not the name
        {"weights": clean.replace("C.tower._memo.closure_maxwt", "{}")},  # a memo of its own, or a stale name
    ]
    assert [bool(_dr_memo_offences(c)) for c in cases] == [False] + [True] * 8 + [False] + [True]


def _unreferenced(sources, wanted):
    """The top-level functions and classes of sources (module name -> source)
    whose names pass ``wanted`` and that no code in sources names outside their
    own definition.  An import names what it imports, so an export from the
    package's ``__init__`` counts; a ``cmd_*`` handler is named by its module's
    ``"cmd_" + command`` lookup (``cli.main``)."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    defs = [(name, node) for name, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and wanted(node.name)]
    unused = []
    for module, definition in defs:
        own = {id(node) for node in ast.walk(definition)}
        used = any(
            (node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)) == definition.name
            or isinstance(node, ast.ImportFrom) and any(a.name == definition.name for a in node.names)
            for tree in trees.values()
            for node in ast.walk(tree)
            if id(node) not in own
        ) or definition.name.startswith("cmd_") and any(
            isinstance(node, ast.Constant) and node.value == "cmd_" for node in ast.walk(trees[module]))
        if not used:
            unused.append(f"{module}.{definition.name}")
    return unused


def _unreferenced_private(sources):
    return _unreferenced(sources, lambda name: name.startswith("_") and not name.startswith("__"))


def _unreferenced_public(sources):
    return _unreferenced(sources, lambda name: not name.startswith("_"))


def test_every_private_definition_is_used():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE_DIR.glob("*.py"))}
    assert _unreferenced_private(sources) == []


def test_private_gate_flags_each_kind():
    linalg_src = "def _rref_coded(k, w, n):\n    return w\n" \
                 "def _rref_rows(f, rows, n):\n    return _rref_coded(f, rows, n)\n"
    cases = [
        {"linalg": linalg_src},  # _rref_rows left behind
        {"linalg": linalg_src + "def invert(m):\n    return _rref_rows(m.field, m.rows, 2)\n"},
        {"linalg": "def _walk(n):\n    return _walk(n - 1) if n else 0\n"},  # only calls itself
        {"linalg": "class _Kernel:\n    pass\n"},
        {"linalg": "def _helper():\n    return 1\n", "weights": "from .linalg import _helper\n"},
        {"linalg": "def _helper():\n    return 1\n", "weights": "x = linalg._helper()\n"},
        {"linalg": "def public():\n    def _inner():\n        return 1\n    return 2\n"},
        {"linalg": "def __getattr__(name):\n    return name\n"},
        {"linalg": "def _helper():\n    return 1\n", "weights": "s = '_helper'\n"},
    ]
    assert [bool(_unreferenced_private(c)) for c in cases] == [True, False, True, True, False, False,
                                                               False, False, True]


def test_every_public_definition_is_used_or_exported():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE_DIR.glob("*.py"))}
    assert _unreferenced_public(sources) == []


def test_public_gate_flags_each_kind():
    polys_src = "def mod(k, p, q):\n    return p\n" \
                "def is_irreducible_bruteforce(k, p):\n    return mod(k, p, p)\n"
    main = "def main(argv):\n    return globals()['cmd_' + argv[0]](argv)\n"
    cases = [
        {"polys": polys_src},  # is_irreducible_bruteforce called by no module
        {"polys": polys_src, "fields": "from . import polys\nok = polys.is_irreducible_bruteforce(k, f)\n"},
        {"polys": polys_src, "__init__": "from .polys import is_irreducible_bruteforce\n"},  # exported
        {"polys": "def walk(n):\n    return walk(n - 1) if n else 0\n"},  # only calls itself
        {"fields": "class Helper:\n    pass\n"},
        {"polys": polys_src, "tests": "s = 'is_irreducible_bruteforce'\n"},  # prose, not a name
        {"cli": main + "def cmd_dual(args):\n    return 0\n", "__init__": "from .cli import main\n"},
        {"weights": "def cmd_dual(args):\n    return 0\n"},  # no lookup names it there
        {"fields": "def _helper():\n    return 1\n"},  # private: the other gate's
    ]
    assert [bool(_unreferenced_public(c)) for c in cases] == [True, False, False, True, True, True,
                                                              False, True, False]


# the square-and-multiply loops allowed: fields's one power on codes, and polys's power of polynomials
POWER_LOOPS = {("fields", "_power"), ("polys", "pow_mod")}


def _while_loops(tree):
    """(name of the innermost function holding it, or None at module level; the loop) for each while loop."""
    loops = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.While):
                loops.append((owner, child))
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner)

    visit(tree, None)
    return loops


def _is_square_and_multiply(loop):
    """The loop tests a bit with ``& 1`` and shifts right (``>>`` or ``>>=``)."""
    nodes = list(ast.walk(loop))
    return any(
        isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd)
        and isinstance(node.right, ast.Constant) and node.right.value == 1
        for node in nodes
    ) and any(isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.RShift) for node in nodes)


def _second_path_offences(sources):
    """Where sources (module name -> source) hold a second trace or power on codes.

    No module but fields names ``_trace_codes``; ranksupport defines no
    function with "trace" in its name but ``trace_image``, which names the
    tower's ``_code_trace``; and no function but those of POWER_LOOPS holds
    a square-and-multiply while loop.
    """
    offences = []
    for module, source in sources.items():
        tree = ast.parse(source)
        functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        for node in ast.walk(tree):
            if (node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)) == "_trace_codes" \
                    and module != "fields":
                offences.append(f"{module}:{node.lineno} names _trace_codes")
        if module == "ranksupport":
            offences += [f"ranksupport:{f.lineno} defines {f.name}" for f in functions
                         if "trace" in f.name and f.name != "trace_image"]
            if not any(getattr(node, "attr", None) == "_code_trace"
                       for f in functions if f.name == "trace_image" for node in ast.walk(f)):
                offences.append("ranksupport: trace_image does not take the tower's _code_trace")
        offences += [f"{module}:{loop.lineno} square-and-multiply in {owner}" for owner, loop in _while_loops(tree)
                     if _is_square_and_multiply(loop) and (module, owner) not in POWER_LOOPS]
    return offences


def test_one_trace_and_one_power_on_codes():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE_DIR.glob("*.py"))}
    assert _second_path_offences(sources) == []


def test_second_path_gate_flags_each_kind():
    power = "def _power(kern, a, e):\n    while e:\n        if e & 1:\n            r = kern.mul(r, a)\n" \
            "        e >>= 1\n    return r\n"
    clean = {
        "fields": "def _trace_codes(t):\n    return t._memo.traces\n" + power,
        "polys": power.replace("_power", "pow_mod"),
        "ranksupport": "def trace_image(C):\n    trace = C.tower._code_trace\n    return [trace(c) for c in C]\n",
    }
    loop = "while e:\n    if e & 1:\n        r = r * a\n    e = e >> 1\n"  # square-and-multiply, unindented
    cases = [
        {},
        {"ranksupport": clean["ranksupport"].replace("C.tower._code_trace", "_codes(C.tower._trace_codes())")},
        {"weights": "def traces(t):\n    return t._trace_codes()\n"},
        {"ranksupport": clean["ranksupport"] + "def _coded_trace(t):\n    return t._code_trace\n"},
        {"ranksupport": clean["ranksupport"].replace("    trace = C.tower._code_trace\n",
                                                     "    def trace(c):\n        return C.tower._code_trace(c)\n")},
        {"ranksupport": clean["ranksupport"].replace("C.tower._code_trace", "_dot_product(C.tower)")},
        {"documents": "def factor(r, a, e):\n" + textwrap.indent(loop, " " * 4)},
        {"fields": clean["fields"] + "class FieldElement:\n    def __pow__(r, a, e):\n" + textwrap.indent(loop, " " * 8)},
        {"fields": clean["fields"] + "def _frobenius_map(kern, q):\n    def sigma(a, e=q, r=1):\n"
                   + textwrap.indent(loop, " " * 8) + "    return sigma\n"},
        {"polys": clean["polys"] + "r, a, e = 1, 2, 5\n" + loop},  # at module level
        {"documents": "def factor(r, a, e):\n" + textwrap.indent(loop.replace("e = e >> 1", "e //= 2"), " " * 4)},
    ]
    assert [bool(_second_path_offences({**clean, **case})) for case in cases] == [False] + [True] * 9 + [False]


CONSTRUCTORS = {"ExtensionTower", "ExtensionField"}  # called by fields alone
BASE_CONSTRUCTORS = {"PrimeField", "Rationals"}  # called by fields.build_base_field alone
RETIRED = {"_tower_over", "BaseFieldDescriptor", "base_descriptor"}  # second ways to describe a tower or k
DECIDERS = ("is_irreducible_gcd", "is_irreducible_rationals")  # called by fields._make_kernel alone


def _construction_offences(sources):
    """Where sources (module name -> source) build a tower or check a floor a second way.

    No module but fields calls (or renames on import) ``ExtensionTower`` or
    ``ExtensionField``; ``PrimeField`` and ``Rationals`` are called only
    inside ``fields.build_base_field``, the one reader of a description of k;
    no module defines ``_tower_over``, ``BaseFieldDescriptor`` or
    ``base_descriptor``; and the sources call ``is_irreducible_gcd`` and
    ``is_irreducible_rationals`` inside ``fields._make_kernel`` alone, the
    one place that decides irreducibility, each at least once, and
    ``is_irreducible_bruteforce`` at none.
    """
    offences, called = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        decider = {id(node) for f in tree.body if module == "fields" and isinstance(f, ast.FunctionDef)
                   and f.name == "_make_kernel" for node in ast.walk(f)}
        reader = {id(node) for f in tree.body if module == "fields" and isinstance(f, ast.FunctionDef)
                  and f.name == "build_base_field" for node in ast.walk(f)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
                if name in CONSTRUCTORS and module != "fields":
                    offences.append(f"{module}:{node.lineno} calls {name}")
                elif name in BASE_CONSTRUCTORS and id(node) not in reader:
                    offences.append(f"{module}:{node.lineno} calls {name} outside build_base_field")
                elif name == "is_irreducible_bruteforce":
                    offences.append(f"{module}:{node.lineno} calls is_irreducible_bruteforce")
                elif name in DECIDERS:
                    called.add(name)
                    if id(node) not in decider:
                        offences.append(f"{module}:{node.lineno} decides irreducibility outside _make_kernel")
            elif isinstance(node, ast.ImportFrom):
                offences += [f"{module}:{node.lineno} imports {a.name} as {a.asname}" for a in node.names
                             if a.name in CONSTRUCTORS and a.asname]
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in RETIRED:
                offences.append(f"{module}:{node.lineno} defines {node.name}")
    offences += [f"{name} is called nowhere" for name in DECIDERS if name not in called]
    return offences


def test_one_way_to_build_a_tower():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE_DIR.glob("*.py"))}
    assert _construction_offences(sources) == []


def test_construction_gate_flags_each_kind():
    check = "if not polys.is_irreducible_gcd(k, f):\n    return None\n"
    checks = check + "if not polys.is_irreducible_rationals(f):\n    return None\n"
    clean = {
        "fields": "def _make_kernel(field):\n" + textwrap.indent(checks, " " * 4)
                  + "class ExtensionField:\n    def __init__(self, k, f):\n        self._kern = _make_kernel(self)\n"
                  + "def build_base_field(p):\n    return PrimeField(p) if p else Rationals()\n"
                  + "def make_tower(k, f):\n    return ExtensionTower(ExtensionField(k, f))\n",
        "polys": "def is_irreducible_gcd(k, p):\n    return True\n"
                 "def is_irreducible_bruteforce(k, p):\n    return True\n",
        "documents": "from .fields import ExtensionTower, make_tower\n"
                     "def build_tower(k, f):\n    return make_tower(k, f)\n",
    }
    cases = [
        {},
        {"documents": clean["documents"] + "t = ExtensionTower(L)\n"},
        {"ranksupport": "L = fields.ExtensionField(k, (0, 0, 1))\n"},
        {"documents": "from .fields import ExtensionTower as Tower\n"},
        {"fields": clean["fields"] + "def _tower_over(base, k, f, s):\n    return make_tower(k, f)\n"},
        {"documents": clean["documents"] + "def _tower_over(base, k, f, s):\n    return make_tower(k, f)\n"},
        {"fields": clean["fields"] + "ok = polys.is_irreducible_bruteforce(k, g)\n"},
        {"fields": clean["fields"] + "ok = polys.is_irreducible_gcd(k, g)\n"},  # a second floor check
        {"fields": clean["fields"] + "ok = polys.is_irreducible_rationals(g)\n"},
        {"fields": clean["fields"].replace("polys.is_irreducible_gcd(k, f)", "polys.is_irreducible_rationals(f)")},
        # the checks, but in a helper of _make_kernel, in make_tower or in the constructor
        {"fields": clean["fields"].replace("def _make_kernel(field):\n",
                                           "def _make_kernel(field):\n    _quotient(k, f)\ndef _quotient(k, f):\n")},
        {"fields": "def make_tower(k, f):\n" + textwrap.indent(checks, " " * 4)
                   + "    return ExtensionTower(ExtensionField(k, f))\n"},
        {"fields": "class ExtensionField:\n    def __init__(self, k, f):\n" + textwrap.indent(checks, " " * 8)},
        # k built outside build_base_field: in another module, or in fields beside it
        {"documents": clean["documents"] + "k = PrimeField(2)\n"},
        {"verify": "k = fields.Rationals()\n"},
        {"fields": clean["fields"] + "def _gf(p):\n    return PrimeField(p)\n"},
        {"fields": clean["fields"] + "Q = Rationals()\n"},
        # a second description of k, as a class or as a tower property
        {"fields": clean["fields"] + "class BaseFieldDescriptor:\n    pass\n"},
        {"documents": clean["documents"] + "class Tower:\n    @property\n    def base_descriptor(self):\n"
                                           "        return None\n"},
        {"documents": clean["documents"] + "why = 'no ExtensionTower(L) here'\n"},  # prose, not a call
        {"verify": "def is_tower(t):\n    return isinstance(t, ExtensionTower)\n"},  # named, not called
        {"verify": "def is_base(k):\n    return isinstance(k, (PrimeField, Rationals))\n"},
    ]
    assert [bool(_construction_offences({**clean, **case})) for case in cases] == [False] + [True] * 18 + [False] * 3


def _zero_restriction(monkeypatch):
    monkeypatch.setattr(
        ranksupport,
        "tail_subspace",
        lambda field, rows, num_cols, start: Subspace.zero(field, num_cols - start),
    )


def test_wrong_restriction_fails_delsarte_suite(monkeypatch):
    # the codes with Res(C) != 0, for which Res(C) = 0 is wrong, in plan order
    expected = []
    for task in standard_plan().towers:
        tower = task.build()
        codes = [c for n in range(1, task.max_n + 1) for c in exhaustive_codes(tower, n)]
        expected.append([document_to_json(document_from_code(c)) for c in codes if restriction(c).dim])
    _zero_restriction(monkeypatch)
    summary = run_verify(standard_plan(theorem="delsarte"))
    assert not summary["ok"]
    for rep, docs in zip(summary["towers"], expected):
        entry = rep["checks"]["delsarte"]
        assert entry["failures"] == len(docs) > 0
        assert entry["assertions"] == entry["items"] - len(docs)
        assert {f["message"] for f in rep["failures"]} == {"Res(C)^perp != Rsupp(C^perp)"}
        assert [f["documents"][0] for f in rep["failures"]] == docs


def test_wrong_maxwt_fails_equivdef_suite(monkeypatch):
    """maxwt made one too large: OS_r and D_r then read d_Rr + 1 at r = 1 for every nonzero code.

    A run before the patch fills every memo it can reach.  D_r failing with
    the wrong value after it shows that no memo carries a maxwt from one run
    into the next.
    """
    assert run_verify(standard_plan(theorem="equivdef"))["ok"]
    expected = []
    for task in standard_plan().towers:
        tower = task.build()
        codes = [c for n in range(1, task.max_n + 1) for c in exhaustive_codes(tower, n)]
        expected.append([document_to_json(document_from_code(c)) for c in codes if c.dim])
    real = weights.maxwt
    monkeypatch.setattr(weights, "maxwt", lambda D: real(D) + 1)
    summary = run_verify(standard_plan(theorem="equivdef"))
    assert not summary["ok"]
    pattern = re.compile(r"four definitions disagree at r=1: \(d_Rr, M_r, OS_r, D_r\) = \((\d+), (\d+), (\d+), (\d+)\)")
    for rep, docs in zip(summary["towers"], expected):
        entry = rep["checks"]["equivdef"]
        assert entry["failures"] == len(docs) > 0 and entry["assertions"] == 0
        for failure in rep["failures"]:
            d_rr, m_r, os_r, d_r = map(int, pattern.fullmatch(failure["message"]).groups())
            assert d_rr == m_r and os_r == d_r == d_rr + 1
        assert [f["documents"][0] for f in rep["failures"]] == docs


def test_wrong_restriction_fails_delsarte_under_optimize(monkeypatch):
    _zero_restriction(monkeypatch)
    in_process = run_verify(standard_plan(theorem="delsarte"))
    assert not in_process["ok"]
    assert json.loads(run_optimized(WRONG_RESTRICTION)) == in_process


def test_delsarte_summary_same_under_optimize():
    in_process = run_verify(standard_plan(theorem="delsarte"))
    assert json.loads(run_optimized(DELSARTE_SUMMARY)) == in_process


def test_verify_delsarte_exits_2_on_wrong_restriction(monkeypatch, capsys):
    monkeypatch.setenv("RANKWEIGHT_WORKERS", "1")
    _zero_restriction(monkeypatch)
    assert cli.main(["verify", "--theorem", "delsarte"]) == 2
    assert "FAILURE [delsarte]: Res(C)^perp != Rsupp(C^perp)" in capsys.readouterr().out


def test_cli_maps_internal_invariant_error_to_exit_2(monkeypatch, capsys):
    # C is rank-degenerate, so Res(C^perp) != 0 and its zero stand-in
    # contradicts Rsupp(C) != k^n inside is_rank_degenerate
    _zero_restriction(monkeypatch)
    assert cli.main(["analyze", str(SAMPLES / "gf4_rational.json")]) == 2
    assert "degeneracy criteria disagree" in capsys.readouterr().err


ORACLE_MESSAGE = "closure differs from the Galois closure C + σ(C) + …"
EXTENDEDNESS_MESSAGE = "C = C* does not match extendedness"


def _support_plus_last_unit(C):
    """Rsupp(C) + k·e_n: a wrong rank support, and through it a wrong closure."""
    t, n = C.tower, C.length
    unit = Subspace.from_vectors(t.k, n, [[t.k.zero()] * (n - 1) + [t.k.one()]])
    return KSubspace(t, n, subspace_sum(rank_support_code(C).space, unit))


def test_wrong_closure_fails_the_closure_suite_on_the_oracle(monkeypatch):
    """galois_closure never asks for a rank support, so it catches a closure built on a wrong one.

    The wrong closure (Rsupp(C) + k·e_n)_L passes every other closure law
    checked with the same wrong support: only extendedness (for extended C)
    and the oracle (for the rest) can tell.
    """
    expected = []
    for task in standard_plan().towers:
        tower = task.build()
        codes = [c for n in range(1, task.max_n + 1) for c in exhaustive_codes(tower, n)]
        messages = []
        for c in codes:
            if _support_plus_last_unit(c).space != rank_support_code(c).space:
                messages.append(EXTENDEDNESS_MESSAGE if is_extended(c) else ORACLE_MESSAGE)
        expected.append(messages)
    for module in (ranksupport, verify):
        monkeypatch.setattr(module, "rank_support_code", _support_plus_last_unit)
    summary = run_verify(standard_plan(theorem="closure"))
    assert not summary["ok"]
    # over GF(4) and GF(9), n <= 2, every code that is not extended has full support
    assert [messages.count(ORACLE_MESSAGE) > 0 for messages in expected] == [False, True, False]
    for rep, messages in zip(summary["towers"], expected):
        assert [f["message"] for f in rep["failures"]] == messages
        assert rep["checks"]["closure"]["failures"] == len(messages)
        assert rep["checks"]["closure_pair"]["failures"] == 0


def test_a_closure_left_as_c_fails_the_closure_suite_on_each_code_that_is_not_extended(monkeypatch):
    """galois_closure made to return C itself: every extended code still passes,
    and every other code gives one counted failure, with its reproducer."""
    expected = []
    for task in standard_plan().towers:
        tower = task.build()
        codes = [c for n in range(1, task.max_n + 1) for c in exhaustive_codes(tower, n)]
        expected.append([document_to_json(document_from_code(c)) for c in codes if not is_extended(c)])
    monkeypatch.setattr(verify, "galois_closure", lambda C: C)
    summary = run_verify(standard_plan(theorem="closure"))
    assert not summary["ok"]
    for rep, docs in zip(summary["towers"], expected):
        entry = rep["checks"]["closure"]
        assert entry["failures"] == len(docs) > 0
        assert entry["assertions"] == 6 * (entry["items"] - len(docs))
        assert {f["message"] for f in rep["failures"]} == {ORACLE_MESSAGE}
        assert [f["documents"] for f in rep["failures"]] == [[doc] for doc in docs]
        assert rep["checks"]["closure_pair"]["failures"] == 0


def _every_other_sum_is_its_first_summand():
    calls = itertools.count()
    return lambda a, b: a if next(calls) % 2 else subspace_sum(a, b)


@pytest.mark.parametrize("theorem, name, wrong, check, message", [
    ("trace", "trace_image", lambda: restriction, "trace", "Tr(C) != Rsupp(C) on a separable tower"),
    ("trace", "restriction", lambda: rank_support_code, "trace", "Res(C) = Tr(C) does not match extendedness"),
    ("closure", "subspace_sum", _every_other_sum_is_its_first_summand, "closure_pair", "(C+C')* != C* + C'*"),
], ids=["trace_image-is-res", "restriction-is-rsupp", "every-other-sum-is-c"])
def test_a_one_function_mutation_reaches_the_check(monkeypatch, theorem, name, wrong, check, message):
    """One name of verify rebound, on GF(8)/GF(2), n <= 2: the check fails
    with its message, and each failure's documents load.  Both trace
    mutations fail on exactly the codes that are not extended, where
    Res(C) != Rsupp(C); a wrong sum fails on some of the pairs."""
    task = TowerTask(2, (1, 1, 0, 1), max_n=2)
    tower = task.build()
    codes = [c for n in range(1, task.max_n + 1) for c in exhaustive_codes(tower, n)]
    not_extended = [[document_to_json(document_from_code(c))] for c in codes if not is_extended(c)]
    monkeypatch.setattr(verify, name, wrong())
    summary = run_verify(VerifyPlan(towers=[task], theorem=theorem, force=True))
    assert not summary["ok"]
    report = summary["towers"][0]
    assert report["checks"][check]["failures"] == len(report["failures"]) > 0
    assert {(f["check"], f["message"]) for f in report["failures"]} == {(check, message)}
    if check == "trace":
        assert [f["documents"] for f in report["failures"]] == not_extended
    for failure in report["failures"]:
        assert len(failure["documents"]) == (2 if check == "closure_pair" else 1)
        for document in failure["documents"]:
            parse_code_file(json.dumps(document)).to_code()


@pytest.mark.parametrize("sigma, message", [
    (lambda q: lambda c: c, "order m on the generator"),  # the identity: order 1
    (lambda q: lambda c: c if c < q else 0, "order m on the generator"),  # fixes k, never returns to w
    (lambda q: lambda c: c ^ 1, "moves an element of k"),
])
def test_a_wrong_frobenius_fails_the_tower_check(monkeypatch, sigma, message):
    monkeypatch.setattr(fields, "_frobenius_map", lambda kern, q: sigma(q))
    tower = standard_plan().towers[1].build()  # GF(8)/GF(2)
    with pytest.raises(InternalInvariantError, match=message):
        tower._frobenius()
    assert tower._memo.frobenius is None  # a map that fails its check is not kept
    with pytest.raises(InternalInvariantError):
        galois_closure(exhaustive_codes(tower, 1)[1])


def test_closure_summaries_match_across_workers():
    summaries = [run_verify(standard_plan(theorem="closure", workers=w)) for w in (1, 2)]
    assert summaries[0]["ok"] and json.dumps(summaries[0]) == json.dumps(summaries[1])


# the benchmark's finite plan: the standard plan, a nested base and a tower with m > n
FINITE_PLAN = [
    TowerTask(2, (1, 1, 1), max_n=2),
    TowerTask(2, (1, 1, 0, 1), max_n=3),
    TowerTask(3, (1, 0, 1), max_n=2),
    TowerTask(2, ("u", "1", "1"), base_degree=2, base_modulus=(1, 1, 1), max_n=2),
    TowerTask(2, (1, 1, 0, 0, 1), max_n=2),
]


# the towers on which the three computations of C* are compared: FINITE_PLAN and GF(27)/GF(3)
GALOIS_TOWERS = FINITE_PLAN + [TowerTask(3, (2, 2, 0, 1), max_n=2)]


def test_three_computations_of_the_closure_agree(monkeypatch):
    """closure (from the rank support), galois_closure (C + σ(C) + ..., at
    most m - 1 sums) and the literal closure_oracle give one C* on every code;
    σ(C) = C exactly for the extended codes, and σ maps canonical codes to
    canonical codes."""
    sums = []
    real_sum = ranksupport.subspace_sum
    monkeypatch.setattr(ranksupport, "subspace_sum", lambda a, b: sums.append(1) or real_sum(a, b))
    for task in GALOIS_TOWERS:
        tower = task.build()
        sigma, m = tower._frobenius(), tower.degree
        for n in range(1, task.max_n + 1):
            for code in exhaustive_codes(tower, n):
                sums.clear()
                assert galois_closure(code) == closure(code) == closure_oracle(code)
                assert len(sums) <= m - 1
                image = tuple(tuple(map(sigma, row)) for row in code.space._codes)
                assert Subspace.from_codes(tower.L, n, image)._codes == image
                assert (image == code.space._codes) == is_extended(code)


def _qth_power(x, q):
    """x·x·…·x, q factors, by repeated multiplication."""
    power = x
    for _ in range(q - 1):
        power = power * x
    return power


def test_frobenius_is_the_qth_power():
    for task in GALOIS_TOWERS:
        tower = task.build()
        sigma, q = tower._frobenius(), tower.k.order
        assert tower._memo.frobenius is sigma  # made once per tower
        for x in tower.L.elements():
            assert sigma(x.code) == _qth_power(x, q).code


def test_frobenius_without_tables():
    """Above 4096 elements σ is square-and-multiply per code; the tower still
    checks it, and galois_closure agrees with closure."""
    rng = random.Random(5)
    for tower, samples in ((gf8192(), 40), (gf4099_squared(), 3)):
        sigma, q, L = tower._frobenius(), tower.k.order, tower.L
        assert not isinstance(getattr(sigma, "__self__", None), list)
        for _ in range(samples):
            x = fields._element(L, rng.randrange(1, L.order))
            assert sigma(x.code) == _qth_power(x, q).code
        for _ in range(samples):
            rows = [[rng.randrange(L.order) for _ in range(3)] for _ in range(rng.randint(1, 2))]
            code = ranksupport.LinearCode(tower, 3, Subspace.from_codes(L, 3, rows))
            assert galois_closure(code) == closure(code)


def test_no_frobenius_over_q():
    tower = qtheta()
    with pytest.raises(InfiniteField):
        tower._frobenius()
    with pytest.raises(InfiniteField):
        galois_closure(ranksupport.LinearCode.full(tower, 1))


def test_finite_summaries_match_across_workers():
    """The benchmark's finite plan: five towers, each with its memos, in one
    item list.  A child process holds all five at once and runs items of any
    of them in any of its blocks, so a memo that strayed from its tower would
    hand a code another tower's values, and the summaries would differ.
    (``test_a_tower_loaded_where_a_freed_one_lived_starts_cold`` guards memos
    keyed by a tower's id.)"""
    summaries = [run_verify(VerifyPlan(FINITE_PLAN, theorem="all", workers=w, force=True)) for w in (1, 2)]
    assert summaries[0]["ok"] and json.dumps(summaries[0]) == json.dumps(summaries[1])


# a child process inherits the parent's towers, and any patch on a module, only under fork
fork_only = pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                               reason="child processes inherit the parent's state only under fork")


@fork_only
def test_forked_workers_pickle_no_tower(monkeypatch):
    """Under fork, a child process takes the parent's items as they are: no
    tower is pickled on the way in, and none is rebuilt cold."""

    def refuse(self):
        raise RuntimeError("tower pickled")

    monkeypatch.setattr(fields.ExtensionTower, "__reduce__", refuse)
    with pytest.raises(RuntimeError, match="tower pickled"):  # the trap is the hook pickling calls
        pickle.dumps(standard_plan().towers[0].build())
    summaries = [json.dumps(run_verify(standard_plan(workers=w))) for w in (1, 2)]
    assert json.loads(summaries[0])["ok"] and summaries[0] == summaries[1]


@fork_only
def test_failing_summaries_match_across_workers(monkeypatch):
    """A worker reports each failure, reproducer documents included, as the parent does."""
    _zero_restriction(monkeypatch)
    summaries = [json.dumps(run_verify(standard_plan(theorem="delsarte", workers=w))) for w in (1, 2)]
    assert not json.loads(summaries[0])["ok"] and summaries[0] == summaries[1]


def _items(count):
    return [("equivdef", i, 0) for i in range(count)]


@fork_only
@pytest.mark.parametrize("portable", [True, False])
def test_an_error_in_a_child_is_raised_in_the_caller(monkeypatch, portable):
    """A child's exception comes back with its class and message, or, when it
    does not pickle, as a RuntimeError carrying its repr.  It stops the run:
    the caller takes no block after its first, and no child outlives it."""
    error = ValueError if portable else type("Local", (Exception,), {})  # Local is not importable
    caller, child_ran, ran = os.getpid(), multiprocessing.Event(), []

    def run_item(item):
        if os.getpid() == caller:
            child_ran.wait(10)  # holds the caller's first block until a child has run an item
            time.sleep(0.05)
            ran.append(item[1])
            return item
        child_ran.set()
        raise error(f"child failed on item {item[1]}")

    monkeypatch.setattr(verify, "_run_item", run_item)
    with pytest.raises(ValueError if portable else RuntimeError, match="child failed on item"):
        verify._execute(_items(20), 2)
    assert ran == list(range(5))  # the first block: 20 // (2 * 2) items
    assert multiprocessing.active_children() == []


@fork_only
def test_a_child_that_dies_without_sending_is_reported(monkeypatch):
    caller = os.getpid()

    def run_item(item):
        if os.getpid() != caller:
            os._exit(3)
        time.sleep(0.002)
        return item

    monkeypatch.setattr(verify, "_run_item", run_item)
    with pytest.raises(RuntimeError, match="exited with code 3"):
        verify._execute(_items(40), 2)
    assert multiprocessing.active_children() == []


@fork_only
def test_an_error_in_the_caller_ends_every_child(monkeypatch):
    """The caller's own exception is raised at once: its children, busy with
    long items, are terminated and joined, not waited for."""
    caller = os.getpid()

    def run_item(item):
        if os.getpid() == caller:
            raise ValueError("caller failed")
        time.sleep(5)
        return item

    monkeypatch.setattr(verify, "_run_item", run_item)
    start = time.monotonic()
    with pytest.raises(ValueError, match="caller failed"):
        verify._execute(_items(6), 3)
    assert multiprocessing.active_children() == []
    assert time.monotonic() - start < 4


def test_summaries_match_across_workers_under_spawn():
    """spawn, the default start method on macOS and Windows: each worker
    unpickles the items once and rebuilds the towers' kernels and memos."""
    one, two = (json.dumps(s) for s in json.loads(run_script(SPAWNED_SUMMARIES)))
    assert json.loads(one)["ok"] and one == two


IMPORT_FOOTPRINT = """
import sys
import rankweight
import rankweight.cli
print(" ".join(sorted(sys.modules)))
"""


def test_import_loads_no_introspection_modules():
    """A CLI call and every spawned worker pay ``import rankweight`` first;
    ``-S`` keeps site-packages from preloading anything."""
    loaded = set(run_script(IMPORT_FOOTPRINT, "-S").split())
    heavy = sorted(loaded & {"dataclasses", "inspect", "ast", "dis", "typing"})
    assert not heavy, f"import rankweight loads {heavy}"
