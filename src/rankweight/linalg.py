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
order <= 4096), ``_rref_rows`` and ``contains`` encode each row once into
element codes, run one coded elimination or reduction that serves both kinds
of kernel, and decode at the end into elements of the field they were called
with.  The RREF is unique, so this gives the same rows and pivots as the
generic elimination on ``FieldElement``s, which larger finite fields and
finite non-fields keep.  ``contains`` tests any number of vectors against
one encoding of the subspace.

Over a finite field with a kernel a subspace also keeps its rows' codes
(``Subspace._codes``) between calls: the reductions fill them from the codes
they already hold, and ``contains``, ``contains_space`` and ``subspace_sum``
read them instead of encoding the rows again.  ``Subspace.from_codes``
builds a subspace from rows of codes.  Over Q and Q[x]/(f) nothing is kept:
a rational code is as large as its element, and every call encodes afresh.
"""

from __future__ import annotations

import itertools
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
    classmethods unless the rows are canonical by construction.

    ``_codes`` holds the rows as codes of the field's kernel, on finite fields
    only: None until a reduction or the first membership test fills it, and
    never written again.  Code rows are lists or tuples of ints that nothing
    mutates.  A code depends only on its element's payload, so the codes
    serve every equal field object.  They take no part in equality, hashing
    or pickling.
    """

    __slots__ = ("field", "ambient_dim", "rows", "_codes")

    def __init__(self, field: Field, ambient_dim: int, rows: tuple, codes=None):
        self.field = field
        self.ambient_dim = ambient_dim
        self.rows = rows
        self._codes = codes

    def __reduce__(self):
        # the codes are left out; the copy fills its own on first use
        return type(self), (self.field, self.ambient_dim, self.rows)

    @classmethod
    def zero(cls, field: Field, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, ())

    @classmethod
    def full(cls, field: Field, ambient_dim: int) -> "Subspace":
        zero, one = field.zero(), field.one()
        rows = tuple(
            tuple(one if i == j else zero for j in range(ambient_dim))
            for i in range(ambient_dim)
        )
        return cls(field, ambient_dim, rows)

    @classmethod
    def from_vectors(cls, field: Field, ambient_dim: int, vectors) -> "Subspace":
        return _span(field, ambient_dim, vectors)

    @classmethod
    def from_codes(cls, field: Field, ambient_dim: int, codes, canonical: bool = False) -> "Subspace":
        """The span of rows of codes of field's kernel, decoded through that kernel.

        So every entry is an element of this field object.  With canonical
        set, the rows are already the canonical basis and are not reduced.
        """
        kern = field._kernel()
        if not canonical:
            codes, _ = _rref_coded(kern, list(codes), ambient_dim)
        rows = tuple(kern.decode_rows(codes, (), ()))
        return cls(field, ambient_dim, rows, codes if field.order is not None else None)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, v: Sequence[FieldElement]) -> bool:
        return contains(self, v)

    def contains_space(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim or other.field != self.field:
            raise AmbientMismatch("subspaces live in different ambient spaces")
        kern = _finite_kernel(self.field)
        if kern:
            return _reduces_to_zero(kern, _row_codes(self, kern), _row_codes(other, kern))
        return contains(self, *other.rows)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.ambient_dim == other.ambient_dim
            and self.field == other.field
            and self.rows == other.rows
        )

    def __hash__(self):
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
    """Rows of elements of the kernel's field as lists of kernel codes."""
    field, index = kern.field, kern.index
    work = []
    for r in rows:
        if len(r) != num_cols:
            raise ValueError(f"row of length {len(r)} in an ambient of {num_cols}")
        try:
            work.append([index[e.payload if e.field is field else _payload_in(field, e)] for e in r])
        except (KeyError, TypeError, AttributeError):
            raise FieldMismatch("row entry from a foreign field") from None
    return work


def _finite_kernel(field: Field):
    """field's kernel when field is finite and has one, else False."""
    return field.order is not None and field._kernel()


def _row_codes(s: Subspace, kern) -> list:
    """s's rows as codes of kern, a kernel of s's field; kept on s over a finite field."""
    codes = s._codes
    if codes is None:
        codes = _encode(kern, s.rows, s.ambient_dim)
        if s.field.order is not None:
            s._codes = codes
    return codes


def _span(field: Field, ambient_dim: int, vectors) -> Subspace:
    """The canonical subspace spanned by vectors, with its codes where they are kept."""
    rows, _, codes = _reduce(field, vectors, ambient_dim)
    return Subspace(field, ambient_dim, tuple(rows), codes)


def _rref_rows(field: Field, rows: Sequence, num_cols: int):
    """Gaussian elimination to unique RREF; returns (rows, pivot_cols)."""
    reduced, pivot_cols, _ = _reduce(field, rows, num_cols)
    return reduced, pivot_cols


def _reduce(field: Field, rows: Sequence, num_cols: int):
    """_rref_rows plus the reduced rows' codes on a finite field with a kernel, else None."""
    kern = field._kernel()
    if not kern:
        return (*_rref_generic(field, rows, num_cols), None)
    coded = _encode(kern, rows, num_cols)
    reduced, pivot_cols = _rref_coded(kern, list(coded), num_cols)
    return kern.decode_rows(reduced, rows, coded), pivot_cols, reduced if field.order is not None else None


def _rref_coded(kern, work: list, num_cols: int):
    """_rref_rows on kernel codes; ``work`` is reduced in place."""
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
        for i, other in enumerate(work):
            if other[col] and i != r:
                work[i] = kern.sub_scaled(other, other[col], row)
        pivot_cols.append(col)
        r += 1
        if r == len(work):
            break
    return work[:r], pivot_cols


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


def kernel(m: Matrix) -> Subspace:
    """{v : m v^T = 0}; dim = cols - rank."""
    field = m.field
    n = m.num_cols
    rows, pivot_cols = _rref_rows(field, m.rows, n)
    pivot_set = set(pivot_cols)
    zero, one = field.zero(), field.one()
    basis = []
    for j in range(n):
        if j in pivot_set:
            continue
        v = [zero] * n
        v[j] = one
        for i, p in enumerate(pivot_cols):
            v[p] = -rows[i][j]
        basis.append(v)
    return _span(field, n, basis)


def orthogonal_complement(s: Subspace) -> Subspace:
    """Complement for the standard bilinear form; dim s + dim s^⊥ = n."""
    if s.dim == 0:
        return Subspace.full(s.field, s.ambient_dim)
    return kernel(Matrix(s.field, [list(r) for r in s.rows], s.ambient_dim))


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim or a.field != b.field:
        raise AmbientMismatch("subspace sum needs a common ambient space")
    kern = _finite_kernel(a.field)
    if kern:
        return Subspace.from_codes(a.field, a.ambient_dim, [*_row_codes(a, kern), *_row_codes(b, kern)])
    return _span(a.field, a.ambient_dim, list(a.rows) + list(b.rows))


def subspace_intersection(a: Subspace, b: Subspace) -> Subspace:
    """a ∩ b by Zassenhaus: one reduction of [a | a] stacked on [b | 0]."""
    if a.ambient_dim != b.ambient_dim or a.field != b.field:
        raise AmbientMismatch("subspace intersection needs a common ambient space")
    n = a.ambient_dim
    zeros = (a.field.zero(),) * n
    stacked = [r + r for r in a.rows] + [r + zeros for r in b.rows]
    return tail_subspace(a.field, stacked, 2 * n, n)


def tail_subspace(field: Field, rows, num_cols: int, start: int) -> Subspace:
    """The row-space vectors that vanish before column start, cut to columns start..

    One reduction: the reduced rows pivoting at or past start span exactly
    those vectors, and as their pivot columns are cleared in every other row,
    their tails are already the canonical basis of the result.
    """
    reduced, pivot_cols = _rref_rows(field, rows, num_cols)
    tails = tuple(row[start:] for row, p in zip(reduced, pivot_cols) if p >= start)
    return Subspace(field, num_cols - start, tails)


def contains(a: Subspace, *vectors: Sequence[FieldElement]) -> bool:
    """True iff every vector reduces to zero against a's canonical basis.

    a's rows are encoded once for all the vectors; no vector at all gives True.
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
    enumeration order.
    """
    if field.order is None:
        raise InfiniteField("subspace enumeration needs a finite field")
    if not 0 <= dim <= ambient_dim:
        raise ValueError(f"dimension {dim} outside 0..{ambient_dim}")
    if dim == 0:
        yield Subspace.zero(field, ambient_dim)
        return
    elems = list(field.elements())
    zero, one = field.zero(), field.one()
    for pivots in itertools.combinations(range(ambient_dim), dim):
        pivot_set = set(pivots)
        free = [
            (i, j)
            for i in range(dim)
            for j in range(pivots[i] + 1, ambient_dim)
            if j not in pivot_set
        ]
        for values in itertools.product(elems, repeat=len(free)):
            rows = [[zero] * ambient_dim for _ in range(dim)]
            for i, p in enumerate(pivots):
                rows[i][p] = one
            for (i, j), val in zip(free, values):
                rows[i][j] = val
            yield Subspace(field, ambient_dim, tuple(tuple(r) for r in rows))


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

