"""Echelon forms, kernels, complements, lattice operations, enumeration."""

import itertools
import random
import re
from fractions import Fraction

import pytest

from helpers import gf16_over_gf4, q_quarters, qtheta, residues_reference, rref_reference, tail_reference
from rankweight import linalg
from rankweight.errors import AmbientMismatch, FieldMismatch, InfiniteField
from rankweight.fields import FieldElement, PrimeField, Rationals, make_tower
from rankweight.linalg import (
    Matrix,
    Subspace,
    _encode,
    _residues,
    _rref_coded,
    contains,
    enumerate_subspaces,
    gaussian_binomial,
    kernel,
    orthogonal_complement,
    rref_canonical,
    subspace_intersection,
    subspace_sum,
    tail_subspace,
)

GF2 = PrimeField(2)
GF3 = PrimeField(3)
QQ = Rationals()
GF4 = make_tower(PrimeField(2), [1, 1, 1]).L
GF8 = make_tower(PrimeField(2), [1, 1, 0, 1]).L
GF9 = make_tower(PrimeField(3), [1, 0, 1]).L


def vecs(field, rows):
    return [[field.from_int(c) for c in row] for row in rows]


def test_rref_gf2():
    s = rref_canonical(Matrix(GF2, vecs(GF2, [[1, 1], [0, 1]])))
    assert s.rows == tuple(tuple(r) for r in vecs(GF2, [[1, 0], [0, 1]]))


def test_rref_zero_matrix():
    s = rref_canonical(Matrix(GF2, vecs(GF2, [[0, 0, 0]] * 3)))
    assert s.dim == 0 and s.ambient_dim == 3


def test_rref_rationals_scaling():
    s = rref_canonical(Matrix(QQ, vecs(QQ, [[2, 4]])))
    assert s.rows == tuple(tuple(r) for r in vecs(QQ, [[1, 2]]))


def test_rref_idempotent_and_preserves_rowspace():
    rng = random.Random(5)
    for field in (GF2, GF3, GF4, QQ):
        pool = list(field.elements()) if field.order else [field.from_int(i) for i in range(-4, 5)]
        for _ in range(50):
            n = rng.randint(1, 4)
            rows = [[rng.choice(pool) for _ in range(n)] for _ in range(rng.randint(1, 4))]
            s = rref_canonical(Matrix(field, rows, n))
            again = rref_canonical(Matrix(field, [list(r) for r in s.rows], n))
            assert again == s
            assert all(s.contains(r) for r in rows)
            assert all(Subspace.from_vectors(field, n, rows).contains(r) for r in s.rows)


def test_kernel_examples():
    s = kernel(Matrix(GF2, vecs(GF2, [[1, 1]])))
    assert s.rows == tuple(tuple(r) for r in vecs(GF2, [[1, 1]]))
    assert kernel(Matrix(GF2, vecs(GF2, [[1, 0], [0, 1]]))).dim == 0
    s = kernel(Matrix(QQ, vecs(QQ, [[1, 1, 0]])))
    assert s == Subspace.from_vectors(QQ, 3, vecs(QQ, [[1, -1, 0], [0, 0, 1]]))


def test_kernel_rank_nullity():
    rng = random.Random(17)
    for field in (GF2, GF3, QQ):
        pool = list(field.elements()) if field.order else [field.from_int(i) for i in range(-3, 4)]
        for _ in range(50):
            n = rng.randint(1, 5)
            m = Matrix(field, [[rng.choice(pool) for _ in range(n)] for _ in range(rng.randint(1, 4))], n)
            assert kernel(m).dim == n - rref_canonical(m).dim


def test_orthogonal_complement_examples():
    s = Subspace.from_vectors(GF2, 2, vecs(GF2, [[1, 1]]))
    assert orthogonal_complement(s) == s  # self-orthogonal in char 2
    assert orthogonal_complement(Subspace.full(GF2, 3)).dim == 0
    s = Subspace.from_vectors(QQ, 3, vecs(QQ, [[1, 0, 0]]))
    assert orthogonal_complement(s) == Subspace.from_vectors(QQ, 3, vecs(QQ, [[0, 1, 0], [0, 0, 1]]))


def test_complement_dimension_and_involution():
    rng = random.Random(23)
    for field in (GF2, GF3, GF4, QQ):
        pool = list(field.elements()) if field.order else [field.from_int(i) for i in range(-3, 4)]
        for _ in range(60):
            n = rng.randint(1, 4)
            s = Subspace.from_vectors(
                field, n, [[rng.choice(pool) for _ in range(n)] for _ in range(rng.randint(0, 4))]
            )
            comp = orthogonal_complement(s)
            assert s.dim + comp.dim == n
            assert orthogonal_complement(comp) == s


def test_sum_and_intersection_examples():
    e1 = Subspace.from_vectors(GF2, 2, vecs(GF2, [[1, 0]]))
    e2 = Subspace.from_vectors(GF2, 2, vecs(GF2, [[0, 1]]))
    assert subspace_sum(e1, e2) == Subspace.full(GF2, 2)
    assert subspace_sum(e1, e1) == e1
    s = subspace_sum(
        Subspace.from_vectors(GF2, 3, vecs(GF2, [[1, 1, 0]])),
        Subspace.from_vectors(GF2, 3, vecs(GF2, [[0, 1, 1]])),
    )
    assert s.dim == 2

    a = Subspace.from_vectors(GF2, 3, vecs(GF2, [[1, 0, 0], [0, 1, 0]]))
    b = Subspace.from_vectors(GF2, 3, vecs(GF2, [[0, 1, 0], [0, 0, 1]]))
    assert subspace_intersection(a, b) == Subspace.from_vectors(GF2, 3, vecs(GF2, [[0, 1, 0]]))
    assert subspace_intersection(a, Subspace.full(GF2, 3)) == a
    assert (
        subspace_intersection(
            Subspace.from_vectors(GF2, 2, vecs(GF2, [[1, 1]])),
            Subspace.from_vectors(GF2, 2, vecs(GF2, [[1, 0]])),
        ).dim
        == 0
    )


def test_contains_space_refuses_another_ambient():
    for other in (Subspace.full(GF2, 3), Subspace.full(GF3, 2)):
        with pytest.raises(AmbientMismatch, match="subspaces live in different ambient spaces"):
            Subspace.full(GF2, 2).contains_space(other)

def test_dimension_formula_random_pairs():
    rng = random.Random(41)
    for field in (GF2, GF3, GF4, QQ):
        pool = list(field.elements()) if field.order else [field.from_int(i) for i in range(-3, 4)]
        for _ in range(1000):
            n = rng.randint(1, 4)
            mk = lambda: Subspace.from_vectors(
                field, n, [[rng.choice(pool) for _ in range(n)] for _ in range(rng.randint(0, 3))]
            )
            a, b = mk(), mk()
            total = subspace_sum(a, b)
            meet = subspace_intersection(a, b)
            assert total.dim + meet.dim == a.dim + b.dim
            assert total.contains_space(a) and total.contains_space(b)
            assert a.contains_space(meet) and b.contains_space(meet)


def _span_set(space):
    """Every vector of a subspace over a finite field, listed literally."""
    field = space.field
    out = set()
    for coeffs in itertools.product(list(field.elements()), repeat=space.dim):
        v = [field.zero()] * space.ambient_dim
        for c, row in zip(coeffs, space.rows):
            v = [x + c * y for x, y in zip(v, row)]
        out.add(tuple(v))
    return out


def test_intersection_matches_literal_span_sets():
    rng = random.Random(43)
    for field in (GF2, GF3, GF4):
        pool = list(field.elements())
        for _ in range(60):
            n = rng.randint(1, 4)
            a, b = (
                Subspace.from_vectors(
                    field, n, [[rng.choice(pool) for _ in range(n)] for _ in range(rng.randint(0, 3))]
                )
                for _ in range(2)
            )
            meet = subspace_intersection(a, b)
            assert meet == rref_canonical(Matrix(field, [list(r) for r in meet.rows], n))
            assert _span_set(meet) == _span_set(a) & _span_set(b)


def test_intersection_over_q_matches_double_complement():
    # the reference is the double-complement formula a ∩ b = (a^⊥ + b^⊥)^⊥
    rng = random.Random(47)
    pool = [QQ.from_int(i) for i in range(-3, 4)] + [QQ.from_int(1) / QQ.from_int(d) for d in (2, 3)]
    for _ in range(300):
        n = rng.randint(1, 4)
        a, b = (
            Subspace.from_vectors(
                QQ, n, [[rng.choice(pool) for _ in range(n)] for _ in range(rng.randint(0, 4))]
            )
            for _ in range(2)
        )
        reference = orthogonal_complement(
            subspace_sum(orthogonal_complement(a), orthogonal_complement(b))
        )
        assert subspace_intersection(a, b) == reference


def test_contains():
    s = Subspace.from_vectors(GF2, 2, vecs(GF2, [[1, 1]]))
    assert contains(s, vecs(GF2, [[1, 1]])[0])
    assert not contains(s, vecs(GF2, [[1, 0]])[0])
    assert contains(s, vecs(GF2, [[0, 0]])[0])
    with pytest.raises(AmbientMismatch):
        contains(s, vecs(GF2, [[1, 0, 0]])[0])


def test_ambient_mismatch():
    a = Subspace.full(GF2, 2)
    b = Subspace.full(GF2, 3)
    with pytest.raises(AmbientMismatch):
        subspace_sum(a, b)
    with pytest.raises(AmbientMismatch):
        subspace_intersection(a, b)
    with pytest.raises(AmbientMismatch, match="num_cols is required for a matrix with no rows"):
        Matrix(GF2, [])
    assert Matrix(GF2, [], 2).num_rows == 0
    with pytest.raises(AmbientMismatch, match=re.escape("dimension 3 outside 0..2")):
        list(enumerate_subspaces(GF2, 2, 3))
    with pytest.raises(AmbientMismatch, match=re.escape("dimension -1 outside 0..2")):
        list(enumerate_subspaces(GF2, 2, -1))


def test_enumeration_counts_match_gaussian_binomials():
    for field in (GF2, GF3, GF4):
        q = field.order
        for n in range(1, 5):
            for r in range(0, n + 1):
                spaces = list(enumerate_subspaces(field, n, r))
                assert len(spaces) == gaussian_binomial(n, r, q)
                assert len(set(spaces)) == len(spaces)
                assert all(s.dim == r for s in spaces)


def test_enumeration_examples():
    assert len(list(enumerate_subspaces(GF2, 3, 1))) == 7
    assert len(list(enumerate_subspaces(GF4, 2, 2))) == 1
    assert len(list(enumerate_subspaces(GF4, 2, 1))) == 5
    with pytest.raises(InfiniteField):
        list(enumerate_subspaces(QQ, 2, 1))


def test_enumeration_census_against_echelon_profile_count():
    # independent census: sum over pivot profiles of q^(free positions)
    import itertools

    for field in (GF2, GF3, GF4):
        q = field.order
        for n in range(1, 5):
            for r in range(0, n + 1):
                total = 0
                for pivots in itertools.combinations(range(n), r):
                    free = sum(
                        1
                        for i in range(r)
                        for j in range(pivots[i] + 1, n)
                        if j not in pivots
                    )
                    total += q**free
                assert total == gaussian_binomial(n, r, q)


def test_gaussian_binomial_larger_fields():
    for q in (2, 3, 4, 8, 9):
        for n in range(0, 5):
            assert gaussian_binomial(n, 0, q) == 1
            assert gaussian_binomial(n, n, q) == 1
            if n >= 1:
                assert gaussian_binomial(n, 1, q) == (q**n - 1) // (q - 1)


def test_zero_dimensional_spaces_are_first_class():
    z = Subspace.zero(GF3, 3)
    full = Subspace.full(GF3, 3)
    assert subspace_sum(z, z) == z
    assert subspace_intersection(z, full) == z
    assert orthogonal_complement(z) == full
    assert z.contains([GF3.zero()] * 3)


def test_foreign_entries_raise_field_mismatch():
    qt = make_tower(Rationals(), [-2, 0, 0, 1], symbol="t").L
    gf8192 = make_tower(PrimeField(2), [1, 1, 0, 1, 1] + [0] * 8 + [1]).L
    # the rational kernel used to read the GF(8) payload's ints as coordinates
    # and return a Q(t) subspace with rows (1, 1/2*t^2)
    cases = [
        (qt, [GF8.generator(), GF8.one()]),
        (GF8, [qt.generator(), qt.one()]),
        (GF2, [GF3.one(), GF3.zero()]),  # GF(3)'s payloads 0 and 1 are GF(2) codes too
        (gf8192, [GF2.one(), GF2.one()]),  # no kernel: the generic elimination
        (QQ, [QQ.one(), 1]),
    ]
    for field, row in cases:
        with pytest.raises(FieldMismatch):
            Subspace.from_vectors(field, 2, [row])
        with pytest.raises(FieldMismatch):
            contains(Subspace.full(field, 2), row)
        mixed = [field.one(), row[-1]]
        with pytest.raises(FieldMismatch):
            Subspace.from_vectors(field, 2, [mixed])
    # an equal field built separately, other symbol included, is not foreign
    qz = make_tower(Rationals(), [-2, 0, 0, 1], symbol="z").L
    assert qz == qt and qz is not qt
    space = Subspace.from_vectors(qt, 2, [[qz.generator(), qz.one()]])
    assert space.dim == 1 and contains(space, [qz.generator(), qz.one()])
    gf8192_again = make_tower(PrimeField(2), [1, 1, 0, 1, 1] + [0] * 8 + [1], symbol="v").L
    assert Subspace.from_vectors(gf8192, 1, [[gf8192_again.generator()]]).dim == 1


def test_a_matrix_is_encoded_once(monkeypatch):
    """Matrix keeps the codes of its one check, and kernel and rref_canonical reduce those."""
    calls = []
    real = linalg._encode
    monkeypatch.setattr(linalg, "_encode", lambda *a: calls.append(a) or real(*a))
    for reduce in (kernel, rref_canonical):
        calls.clear()
        m = Matrix(GF2, vecs(GF2, [[1, 0]]))
        space = reduce(m)
        assert len(calls) == 1
        assert space == Subspace.from_vectors(GF2, 2, vecs(GF2, [[0, 1]] if reduce is kernel else [[1, 0]]))
    assert m.rows == tuple(map(tuple, vecs(GF2, [[1, 0]])))


# ---------------------------------------------------------------------------
# the whole-space exits of _rref_coded and _residues against a literal Gauss-Jordan
# ---------------------------------------------------------------------------


REFERENCE_FIELDS = {
    "GF(4)": lambda: GF4,
    "GF(9)": lambda: GF9,
    "GF(16)/GF(4)": lambda: gf16_over_gf4().L,
    "Q": lambda: QQ,
    "Q(t)": lambda: qtheta().L,
    "Q(w), fold_den 4": lambda: q_quarters().L,
}


def random_element(rng, field):
    """A seeded element: any element of a finite field, over Q(θ) coordinates a/b with |a|, b <= 5, some zero."""
    if field.order is not None:
        return rng.choice(list(field.elements()))

    def coord():
        return Fraction(0) if rng.random() < 0.3 else Fraction(rng.randint(-5, 5), rng.randint(1, 5))

    if isinstance(field, Rationals):
        return FieldElement(field, coord())
    return FieldElement(field, tuple(coord() for _ in range(field.degree)))


def matrix_shapes(rng, field, n):
    """Seeded rows of elements, (name, rows, num_cols), in every shape the exits meet."""
    zero = field.zero()

    def rows(count, cols=n):
        return [[random_element(rng, field) for _ in range(cols)] for _ in range(count)]

    square = rows(n)
    while len(rref_reference(field, square, n)[0]) < n:
        square = rows(n)
    basis = rows(n - 1)
    deficient = [[sum((random_element(rng, field) * b[j] for b in basis), zero) for j in range(n)] for _ in range(n + 1)]
    with_zeros = rows(n - 1) + [[zero] * n] + rows(2) + [[zero] * n]
    zero_first_column = [[zero] + r for r in rows(n + 1, n - 1)]  # the last column pivots, the first does not
    cases = [
        ("square full rank", square, n),
        ("more rows than columns", rows(n + 2), n),
        ("rank deficient", deficient, n),
        ("zero first column", zero_first_column, n),
        ("zero rows", with_zeros, n),
        ("zero rows only", [[zero] * n] * 2, n),
        ("one column", rows(3, 1), 1),
    ]
    for a, b in ((square, deficient), (deficient, deficient[1:]), (square, square), (zero_first_column, square),
                 (with_zeros, [])):
        a, b = rref_reference(field, a, n)[0], rref_reference(field, b, n)[0]
        zassenhaus = [r + r for r in a] + [r + (zero,) * n for r in b]  # tail_subspace's input from subspace_intersection
        cases.append((f"zassenhaus {len(a)}+{len(b)}", zassenhaus, 2 * n))
    return cases


@pytest.mark.parametrize("name", REFERENCE_FIELDS)
def test_the_whole_space_exits_match_a_literal_gauss_jordan(name):
    """_rref_coded, tail_subspace and _residues against rref_reference, which
    has no early exit, on seeded matrices of every shape; each square full-rank
    and taller matrix takes the identity exit, and each reduction against its
    row space the full-space exit."""
    field = REFERENCE_FIELDS[name]()
    kern = field._kern
    rng = random.Random(35)
    for n in (1, 3, 4):
        for shape, rows, cols in matrix_shapes(rng, field, n):
            reduced, pivots = rref_reference(field, rows, cols)
            codes = _encode(kern, rows, cols)
            assert _rref_coded(kern, list(codes), cols) == (tuple(_encode(kern, reduced, cols)), pivots), shape
            for start in {0, cols // 2, cols}:
                tail = tail_subspace(field, codes, cols, start)
                assert tail._codes == tuple(_encode(kern, tail_reference(field, rows, cols, start), cols - start)), shape
            vectors = [[random_element(rng, field) for _ in range(cols)] for _ in range(3)] + list(reduced)
            expected = residues_reference(field, reduced, vectors)
            residues = _residues(kern, tuple(_encode(kern, reduced, cols)), _encode(kern, vectors, cols))
            assert list(map(tuple, residues)) == _encode(kern, expected, cols), shape


def test_a_full_rank_square_reduction_skips_the_last_inverse(monkeypatch):
    """Over Q(t) an n x n full-rank reduction whose every pivot needs an inverse
    inverts at most n - 1 of them: the last pivot ends at the identity."""
    L = qtheta().L
    n, t, one, zero = 4, L.generator(), L.one(), L.zero()
    rows = [[t if i == j else one if j > i else zero for j in range(n)] for i in range(n)]
    calls = []
    kern_class = type(L._kern)  # the kernels use __slots__: patch the class
    real = kern_class.inv
    monkeypatch.setattr(kern_class, "inv", lambda self, a: calls.append(a) or real(self, a))
    assert rref_canonical(Matrix(L, rows)) == Subspace.full(L, n)
    assert 0 < len(calls) <= n - 1


def test_reducing_against_the_whole_space_subtracts_nothing(monkeypatch):
    """contains and contains_space against Subspace.full over Q(t) call sub_scaled zero times."""
    L = qtheta().L
    rng = random.Random(7)
    full = Subspace.full(L, 3)
    vectors = [[random_element(rng, L) for _ in range(3)] for _ in range(4)]
    other = Subspace.from_vectors(L, 3, vectors)
    calls = []
    kern_class = type(L._kern)
    real = kern_class.sub_scaled
    monkeypatch.setattr(kern_class, "sub_scaled", lambda self, *a: calls.append(a) or real(self, *a))
    assert contains(full, *vectors)
    assert full.contains_space(other) and full.contains_space(full)
    assert calls == []
    assert not Subspace.from_vectors(L, 3, vectors[:1]).contains_space(full) and calls
