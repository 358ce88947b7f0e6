"""Canonical exact linear algebra over any backend field.

Subspaces of F^n are kept in reduced row echelon form with no zero rows, so
two subspaces are equal iff their canonical matrices are identical; that
makes deduplication and equality checks O(1) after one reduction.

Intersection is Zassenhaus's sum-intersection algorithm: one reduction of
the stacked rows [a | a] and [b | 0] yields a + b in the rows pivoting in the
left half and the canonical basis of a ∩ b in the right halves of the rest.

``enumerate_subspaces`` streams every r-dimensional subspace of F^n exactly
once, ordered by pivot profile and then lexicographically on the free
entries; the census equals the Gaussian binomial coefficient.

Over a field with a kernel (``fields``: Q, Q[x]/(f) and finite fields of
order <= 4096) a subspace is stored as its canonical rows in element codes
(``Subspace._codes``).  Every reduction encodes its element inputs once,
eliminates on codes and keeps the result coded; ``dim``, equality, hashing,
``contains``, ``contains_space``, sums, intersections, orthogonal
complements and subspace enumeration work on the codes, and
``Subspace.from_codes`` builds from rows of codes.  ``Subspace.rows`` is
decoded on its first read, through the subspace's own field object, so its
entries are elements of that object.  The RREF is unique, so every route
gives the same codes, and decoding them gives the rows of the generic
elimination on ``FieldElement``s, which larger finite fields and finite
non-fields keep.
"""

from __future__ import annotations

import itertools
import operator
from typing import Iterator, List, Sequence

from .errors import AmbientMismatch, FieldMismatch, InfiniteField
from .fields import Field, FieldElement


class Matrix:
    """Row-major grid of elements of one field; zero-row matrices are legal."""

    __slots__ = ("field", "rows", "num_cols")

    def __init__(self, field: Field, rows: Sequence[Sequence[FieldElement]], num_cols: int | None = None):
        rows = [list(r) for r in rows]
        if num_cols is None:
            if not rows:
                raise ValueError("num_cols is required for a matrix with no rows")
            num_cols = len(rows[0])
        for r in rows:
            if len(r) != num_cols:
                raise ValueError("ragged matrix")
            for e in r:
                if not (e.field is field or e.field == field):
                    raise AmbientMismatch("matrix entry from a foreign field")
        self.field = field
        self.rows = rows
        self.num_cols = num_cols

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    def __repr__(self):
        return f"Matrix({self.num_rows}x{self.num_cols} over {self.field})"


class Subspace:
    """A subspace of F^n held as a canonical RREF basis matrix.

    The constructor trusts its input; build through ``rref_canonical`` or the
    classmethods unless the rows are canonical by construction.  It takes the
    rows as elements (``rows``), as codes of the field's kernel (``codes``),
    or both.

    Over a field with a kernel the codes are the stored form: rows given as
    elements are encoded on first use, and ``rows`` of a subspace given as
    codes is decoded on its first read, through this subspace's field
    object.  A code depends only on its element's payload, so the codes
    serve every equal field object, and canonical codes are unique, so
    ``==`` and the hash read them; ``==`` compares element rows instead
    only when both sides hold rows and one of them has no codes yet.  Code
    rows are tuples of codes held in a tuple, like ``rows``.  A pickle holds
    the rows as elements.
    """

    __slots__ = ("field", "ambient_dim", "_rows", "_codes")

    def __init__(self, field: Field, ambient_dim: int, rows: tuple | None = None, codes: tuple | None = None):
        self.field = field
        self.ambient_dim = ambient_dim
        self._rows = rows
        self._codes = codes

    def __reduce__(self):
        rows = self._rows
        if rows is None:  # decoded for the pickle only: the codes stay the stored form
            rows = self.field._kernel().decode_rows(self._codes)
        return type(self), (self.field, self.ambient_dim, rows)

    @property
    def rows(self) -> tuple:
        rows = self._rows
        if rows is None:
            rows = self._rows = self.field._kernel().decode_rows(self._codes)
        return rows

    @classmethod
    def zero(cls, field: Field, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, ())

    @classmethod
    def full(cls, field: Field, ambient_dim: int) -> "Subspace":
        kern = field._kernel()
        zero, one = (0, kern.one) if kern else (field.zero(), field.one())
        rows = tuple(
            tuple(one if i == j else zero for j in range(ambient_dim))
            for i in range(ambient_dim)
        )
        return cls(field, ambient_dim, None, rows) if kern else cls(field, ambient_dim, rows)

    @classmethod
    def from_vectors(cls, field: Field, ambient_dim: int, vectors) -> "Subspace":
        return _span(field, ambient_dim, vectors)

    @classmethod
    def from_codes(cls, field: Field, ambient_dim: int, codes, canonical: bool = False) -> "Subspace":
        """The span of rows of codes of field's kernel.

        With canonical set, ``codes`` is already the canonical basis, a tuple
        of tuples, and is kept as it is; otherwise it is reduced.
        """
        if not canonical:
            codes, _ = _rref_coded(field._kernel(), list(codes), ambient_dim)
        return cls(field, ambient_dim, None, codes)

    @property
    def dim(self) -> int:
        rows = self._rows
        return len(self._codes if rows is None else rows)

    def contains(self, v: Sequence[FieldElement]) -> bool:
        return contains(self, v)

    def contains_space(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim or other.field != self.field:
            raise AmbientMismatch("subspaces live in different ambient spaces")
        kern = self.field._kernel()
        if kern:
            return _reduces_to_zero(kern, _row_codes(self, kern), _row_codes(other, kern))
        return contains(self, *other.rows)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        if self.ambient_dim != other.ambient_dim or self.field != other.field:
            return False
        a, b = self._codes, other._codes
        if a is None or b is None:
            if self._rows is not None and other._rows is not None:
                return self._rows == other._rows  # canonical rows are unique too
            kern = (self if b is None else other).field._kernel()  # the coded side's field has one
            a, b = _row_codes(self, kern), _row_codes(other, kern)
        return a == b

    def __hash__(self):
        kern = self.field._kernel()
        if kern:
            return hash((self.field, self.ambient_dim, _row_codes(self, kern)))
        return hash((self.field, self.ambient_dim, self.rows))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.field}^{self.ambient_dim})"


def _payload_in(field: Field, e):
    """e's payload when e lies in a field equal to field, else FieldMismatch.

    Callers test ``e.field is field`` first and come here only on a miss, so
    an equal field built separately (other symbols included) still passes.
    """
    if getattr(e, "field", None) != field:
        raise FieldMismatch("row entry from a foreign field")
    return e.payload


def _check_entries(field: Field, rows) -> None:
    for r in rows:
        for e in r:
            if getattr(e, "field", None) is not field:
                _payload_in(field, e)


def _encode(kern, rows, num_cols: int) -> list:
    """Rows of elements of the kernel's field as tuples of kernel codes, in a list."""
    field, index = kern.field, kern.index
    work = []
    for r in rows:
        if len(r) != num_cols:
            raise ValueError(f"row of length {len(r)} in an ambient of {num_cols}")
        try:
            work.append(tuple([index[e.payload if e.field is field else _payload_in(field, e)] for e in r]))
        except (KeyError, TypeError, AttributeError):
            raise FieldMismatch("row entry from a foreign field") from None
    return work


def _finite_kernel(field: Field):
    """field's kernel when field is finite and has one, else False."""
    return field.order is not None and field._kernel()


def _row_codes(s: Subspace, kern) -> tuple:
    """s's rows as codes of kern, a kernel of s's field; encoded once and kept on s."""
    codes = s._codes
    if codes is None:
        codes = s._codes = tuple(_encode(kern, s._rows, s.ambient_dim))
    return codes


def _span(field: Field, ambient_dim: int, vectors) -> Subspace:
    """The canonical subspace spanned by vectors, coded over a field with a kernel."""
    kern = field._kernel()
    if kern:
        return Subspace.from_codes(field, ambient_dim, _encode(kern, vectors, ambient_dim))
    return Subspace(field, ambient_dim, tuple(_rref_generic(field, vectors, ambient_dim)[0]))


def _rref_rows(field: Field, rows: Sequence, num_cols: int):
    """Gaussian elimination to unique RREF; returns (rows, pivot_cols), rows as tuples of elements."""
    kern = field._kernel()
    if not kern:
        return _rref_generic(field, rows, num_cols)
    reduced, pivot_cols = _rref_coded(kern, _encode(kern, rows, num_cols), num_cols)
    return list(kern.decode_rows(reduced)), pivot_cols


def _rref_coded(kern, work: list, num_cols: int):
    """_rref_rows on kernel codes; ``work`` is reduced in place, and the
    reduced rows come back as a tuple of tuples."""
    one = kern.one
    pivot_cols: List[int] = []
    r = 0
    for col in range(num_cols):
        for pivot in range(r, len(work)):
            if work[pivot][col]:
                break
        else:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        row = work[r]
        lead = row[col]
        if lead != one:
            row = work[r] = kern.scale(row, kern.inv(lead))
            row[col] = one  # the kernel's own one: pivots share it
        for i, other in enumerate(work):
            if other[col] and i != r:
                work[i] = kern.sub_scaled(other, other[col], row)
        pivot_cols.append(col)
        r += 1
        if r == len(work):
            break
    return tuple(map(tuple, work[:r])), pivot_cols


def _rref_generic(field: Field, rows, num_cols: int):
    """In-place Gaussian elimination on elements; fields without a kernel."""
    work: List[List[FieldElement]] = [list(r) for r in rows]
    for r in work:
        if len(r) != num_cols:
            raise ValueError(f"row of length {len(r)} in an ambient of {num_cols}")
    _check_entries(field, work)
    pivot_cols: List[int] = []
    r = 0
    for col in range(num_cols):
        pivot = None
        for i in range(r, len(work)):
            if work[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        lead = work[r][col]
        if lead != field.one():
            inv = lead.inverse()
            work[r] = [e * inv for e in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col]:
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivot_cols.append(col)
        r += 1
        if r == len(work):
            break
    return [tuple(row) for row in work[:r]], pivot_cols


def rref_canonical(m: Matrix) -> Subspace:
    """Row space of m as a canonical subspace; idempotent."""
    return _span(m.field, m.num_cols, m.rows)


def _null_basis(reduced, pivot_cols, n: int, zero, one, neg) -> list:
    """A basis of {v : reduced v^T = 0} for RREF rows with those pivots, one vector per free column."""
    pivot_set = set(pivot_cols)
    basis = []
    for j in range(n):
        if j in pivot_set:
            continue
        v = [zero] * n
        v[j] = one
        for row, p in zip(reduced, pivot_cols):
            v[p] = neg(row[j])
        basis.append(tuple(v))
    return basis


def kernel(m: Matrix) -> Subspace:
    """{v : m v^T = 0}; dim = cols - rank."""
    field, n = m.field, m.num_cols
    kern = field._kernel()
    if kern:
        reduced, pivot_cols = _rref_coded(kern, _encode(kern, m.rows, n), n)
        return Subspace.from_codes(field, n, _null_basis(reduced, pivot_cols, n, 0, kern.one, kern.neg))
    rows, pivot_cols = _rref_generic(field, m.rows, n)
    return _span(field, n, _null_basis(rows, pivot_cols, n, field.zero(), field.one(), operator.neg))


def orthogonal_complement(s: Subspace) -> Subspace:
    """Complement for the standard bilinear form; dim s + dim s^⊥ = n.

    s's canonical rows are already reduced, so over a field with a kernel
    the complement is read off their codes with no elimination of s.
    """
    field, n = s.field, s.ambient_dim
    if s.dim == 0:
        return Subspace.full(field, n)
    kern = field._kernel()
    if kern:
        codes = _row_codes(s, kern)
        pivot_cols = [row.index(kern.one) for row in codes]  # a canonical row's first nonzero entry is one
        return Subspace.from_codes(field, n, _null_basis(codes, pivot_cols, n, 0, kern.one, kern.neg))
    return kernel(Matrix(field, [list(r) for r in s.rows], n))


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim or a.field != b.field:
        raise AmbientMismatch("subspace sum needs a common ambient space")
    kern = a.field._kernel()
    if kern:
        return Subspace.from_codes(a.field, a.ambient_dim, [*_row_codes(a, kern), *_row_codes(b, kern)])
    return _span(a.field, a.ambient_dim, list(a.rows) + list(b.rows))


def subspace_intersection(a: Subspace, b: Subspace) -> Subspace:
    """a ∩ b by Zassenhaus: one reduction of [a | a] stacked on [b | 0]."""
    if a.ambient_dim != b.ambient_dim or a.field != b.field:
        raise AmbientMismatch("subspace intersection needs a common ambient space")
    n = a.ambient_dim
    kern = a.field._kernel()
    if kern:
        zeros = (0,) * n
        stacked = [r + r for r in _row_codes(a, kern)] + [r + zeros for r in _row_codes(b, kern)]
    else:
        zeros = (a.field.zero(),) * n
        stacked = [r + r for r in a.rows] + [r + zeros for r in b.rows]
    return tail_subspace(a.field, stacked, 2 * n, n)


def tail_subspace(field: Field, rows, num_cols: int, start: int) -> Subspace:
    """The row-space vectors that vanish before column start, cut to columns start..

    ``rows`` holds elements of field or, over a field with a kernel, tuples
    of its codes.  One reduction: the reduced rows pivoting at or past start
    span exactly those vectors, and as their pivot columns are cleared in
    every other row, their tails are already the canonical basis of the
    result.
    """
    kern = field._kernel()
    if not kern:
        reduced, pivot_cols = _rref_generic(field, rows, num_cols)
    elif rows and num_cols and not isinstance(rows[0][0], FieldElement):
        reduced, pivot_cols = _rref_coded(kern, list(rows), num_cols)
    else:
        reduced, pivot_cols = _rref_coded(kern, _encode(kern, rows, num_cols), num_cols)
    tails = tuple(row[start:] for row, p in zip(reduced, pivot_cols) if p >= start)
    return Subspace(field, num_cols - start, None, tails) if kern else Subspace(field, num_cols - start, tails)


def contains(a: Subspace, *vectors: Sequence[FieldElement]) -> bool:
    """True iff every vector reduces to zero against a's canonical basis.

    a's rows are encoded at most once, and kept; no vector at all gives True.
    """
    n = a.ambient_dim
    for v in vectors:
        if len(v) != n:
            raise AmbientMismatch(f"vector has length {len(v)}, ambient is {n}")
    if not vectors:
        return True
    kern = a.field._kernel()
    if kern:
        return _reduces_to_zero(kern, _row_codes(a, kern), _encode(kern, vectors, n))
    _check_entries(a.field, vectors)
    rows = [(next(j for j, e in enumerate(row) if e), row) for row in a.rows]
    for v in vectors:
        residue = list(v)
        for pivot, row in rows:
            c = residue[pivot]
            if c:
                residue = [x - c * y for x, y in zip(residue, row)]
        if any(residue):
            return False
    return True


def _reduces_to_zero(kern, rows, vectors) -> bool:
    """True iff every coded vector reduces to zero against coded canonical rows."""
    one = kern.one  # a canonical row's first nonzero entry, its pivot, is one
    rows = [(row.index(one), row) for row in rows]
    for residue in vectors:
        for pivot, row in rows:
            c = residue[pivot]
            if c:
                residue = kern.sub_scaled(residue, c, row)
        if any(residue):
            return False
    return True


def enumerate_subspaces(field: Field, ambient_dim: int, dim: int) -> Iterator[Subspace]:
    """Every dim-dimensional subspace of field^ambient_dim, exactly once.

    Ordered by pivot profile (lexicographic column combinations), then by the
    free entries in row-major position order, each running through the field
    enumeration order.  Over a field with a kernel that order is the code
    order 0..q-1, pivots are the code 1, and the subspaces are built coded.
    """
    if field.order is None:
        raise InfiniteField("subspace enumeration needs a finite field")
    if not 0 <= dim <= ambient_dim:
        raise ValueError(f"dimension {dim} outside 0..{ambient_dim}")
    if dim == 0:
        yield Subspace.zero(field, ambient_dim)
        return
    kern = field._kernel()
    if kern:
        values, zero, one = range(field.order), 0, kern.one
    else:
        values, zero, one = list(field.elements()), field.zero(), field.one()
    for pivots in itertools.combinations(range(ambient_dim), dim):
        pivot_set = set(pivots)
        free = [
            (i, j)
            for i in range(dim)
            for j in range(pivots[i] + 1, ambient_dim)
            if j not in pivot_set
        ]
        for entries in itertools.product(values, repeat=len(free)):
            rows = [[zero] * ambient_dim for _ in range(dim)]
            for i, p in enumerate(pivots):
                rows[i][p] = one
            for (i, j), val in zip(free, entries):
                rows[i][j] = val
            rows = tuple(tuple(r) for r in rows)
            yield Subspace(field, ambient_dim, None, rows) if kern else Subspace(field, ambient_dim, rows)


def gaussian_binomial(n: int, r: int, q: int) -> int:
    """Number of r-dimensional subspaces of an n-space over GF(q)."""
    if r < 0 or r > n:
        return 0
    num = 1
    den = 1
    for i in range(r):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def invert(m: Matrix) -> Matrix:
    """Inverse of a square matrix; raises ValueError when singular."""
    n = m.num_cols
    if m.num_rows != n:
        raise ValueError("only square matrices can be inverted")
    field = m.field
    zero, one = field.zero(), field.one()
    augmented = [
        list(row) + [one if i == j else zero for j in range(n)]
        for i, row in enumerate(m.rows)
    ]
    reduced, pivots = _rref_rows(field, augmented, 2 * n)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return Matrix(field, [list(row[n:]) for row in reduced], n)

