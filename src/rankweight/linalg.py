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

An element is (field, code) in its field's kernel (``fields``), and a
subspace is stored as its canonical rows in codes (``Subspace._codes``).  A
reduction reads the codes of its element inputs once, eliminates on codes
and keeps the result coded; ``dim``, equality, hashing, pickling,
``contains``, ``contains_space``, sums, intersections, orthogonal
complements and subspace enumeration work on the codes, and
``Subspace.from_codes`` reduces rows of codes.  ``_encode`` is the package's
one path from elements to codes, so its one check of rows of elements, and
``decode_rows`` its one path back; kernels never build an element.
``Subspace.rows`` decodes the codes on each read, with its own field object.

``_rref_coded`` is the one elimination and ``_residues`` the one reduction,
and both stop once the whole space is reached.  An elimination that finds a
pivot in the last column with every earlier column pivoted returns the
identity, the unique RREF of rank n in n columns; a reduction against n
canonical rows of F^n returns no residue.  Over Q and its extensions, where
each pivot costs an inverse, these are the common cases.  The whole of F^n
is one shared constant per (kernel one, n), ``_identity_codes``: that exit,
``Subspace.full`` and every sum, kernel or complement that reaches the whole
space return the same immutable tuple of unit rows.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterator, Sequence

from .errors import AmbientMismatch, FieldMismatch, InfiniteField
from .fields import Field, FieldElement, _element, _member_code


class Matrix:
    """Row-major grid of elements of one field; zero-row matrices are legal.

    The rows are held as tuples together with their codes from the one
    check, which ``kernel`` and ``rref_canonical`` reduce.
    """

    __slots__ = ("field", "rows", "num_cols", "_codes")

    def __init__(self, field: Field, rows: Sequence[Sequence[FieldElement]], num_cols: int | None = None):
        rows = tuple(map(tuple, rows))
        if num_cols is None:
            if not rows:
                raise AmbientMismatch("num_cols is required for a matrix with no rows")
            num_cols = len(rows[0])
        self._codes = _encode(field._kern, rows, num_cols)
        self.field = field
        self.rows = rows
        self.num_cols = num_cols

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    def __repr__(self):
        return f"Matrix({self.num_rows}x{self.num_cols} over {self.field})"


class Subspace:
    """A subspace of F^n held as a canonical RREF basis, in codes of F's kernel.

    The constructor trusts its input, the canonical rows as a tuple of
    tuples of codes; build through ``rref_canonical`` or the classmethods
    unless the rows are canonical by construction.  A code depends only on
    the field's construction data, so the codes serve every equal field
    object, and canonical codes are unique, so ``==``, the hash and the
    pickle read them.  ``rows`` decodes them as elements on each read and
    keeps nothing.
    """

    __slots__ = ("field", "ambient_dim", "_codes")

    def __init__(self, field: Field, ambient_dim: int, codes: tuple):
        self.field = field
        self.ambient_dim = ambient_dim
        self._codes = codes

    def __reduce__(self):
        return type(self), (self.field, self.ambient_dim, self._codes)

    @property
    def rows(self) -> tuple:
        return decode_rows(self.field, self._codes)

    @classmethod
    def zero(cls, field: Field, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, ())

    @classmethod
    def full(cls, field: Field, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, _identity_codes(field._kern, ambient_dim))

    @classmethod
    def from_vectors(cls, field: Field, ambient_dim: int, vectors) -> "Subspace":
        return cls.from_codes(field, ambient_dim, _encode(field._kern, vectors, ambient_dim))

    @classmethod
    def from_codes(cls, field: Field, ambient_dim: int, codes) -> "Subspace":
        """The span of rows of codes of field's kernel, reduced to its canonical basis."""
        return cls(field, ambient_dim, _rref_coded(field._kern, list(codes), ambient_dim)[0])

    @property
    def dim(self) -> int:
        return len(self._codes)

    def contains(self, v: Sequence[FieldElement]) -> bool:
        return contains(self, v)

    def contains_space(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim or other.field != self.field:
            raise AmbientMismatch("subspaces live in different ambient spaces")
        return _reduces_to_zero(self.field._kern, self._codes, other._codes)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.field == other.field and self._codes == other._codes

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self._codes))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.field}^{self.ambient_dim})"


def _encode(kern, rows, num_cols: int) -> list:
    """Rows of elements of the kernel's field as tuples of their codes, in a list.

    The one check of rows of elements: a row of another length raises AmbientMismatch, and
    an entry that is no element of an equal field (other symbols included) FieldMismatch.
    """
    field = kern.field
    work = []
    for r in rows:
        if len(r) != num_cols:
            raise AmbientMismatch(f"row of length {len(r)} in an ambient of {num_cols}")
        codes = tuple([_member_code(field, e) for e in r])
        if None in codes:
            raise FieldMismatch(f"a row entry is not an element of {field}")
        work.append(codes)
    return work


def decode_rows(field: Field, codes) -> tuple:
    """Rows of codes of field's kernel as tuples of elements of field."""
    return tuple(tuple([_element(field, c) for c in row]) for row in codes)


def _identity_codes(kern, n: int) -> tuple:
    """The canonical rows of the whole of F^n: the unit rows, in codes.

    One shared tuple per (``kern.one``, n), built the first time it is asked
    for: fields whose kernels have equal ones (every finite field; Q; the
    Q(θ) of one degree) get the very same immutable object.
    """
    return _unit_rows(kern.one, n)


@functools.cache
def _unit_rows(one, n: int) -> tuple:
    return tuple(tuple(one if i == j else 0 for j in range(n)) for i in range(n))


def _rref_coded(kern, work: list, num_cols: int):
    """Gaussian elimination to unique RREF on kernel codes: (rows, pivot_cols).

    ``work`` is overwritten, and the reduced rows come back as a tuple of
    tuples.  A pivot in the last column after every earlier column has one
    means rank num_cols, whose unique RREF is the identity; the identity
    comes back at once, without normalizing that pivot or clearing its
    column, work that cannot change the result.
    """
    one = kern.one
    pivot_cols: list[int] = []
    r = 0
    for col in range(num_cols):
        for pivot in range(r, len(work)):
            if work[pivot][col]:
                break
        else:
            continue
        if r == col == num_cols - 1:
            return _identity_codes(kern, num_cols), list(range(num_cols))
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


def rref_canonical(m: Matrix) -> Subspace:
    """Row space of m as a canonical subspace; idempotent."""
    return Subspace.from_codes(m.field, m.num_cols, m._codes)


def _null_basis(kern, reduced, pivot_cols, n: int) -> list:
    """A basis of {v : reduced v^T = 0} for coded RREF rows with those pivots, one vector per free column."""
    pivot_set, one, neg = set(pivot_cols), kern.one, kern.neg
    basis = []
    for j in range(n):
        if j in pivot_set:
            continue
        v = [0] * n
        v[j] = one
        for row, p in zip(reduced, pivot_cols):
            v[p] = neg(row[j])
        basis.append(tuple(v))
    return basis


def kernel(m: Matrix) -> Subspace:
    """{v : m v^T = 0}; dim = cols - rank."""
    field, n = m.field, m.num_cols
    kern = field._kern
    reduced, pivot_cols = _rref_coded(kern, list(m._codes), n)
    return Subspace.from_codes(field, n, _null_basis(kern, reduced, pivot_cols, n))


def orthogonal_complement(s: Subspace) -> Subspace:
    """Complement for the standard bilinear form; dim s + dim s^⊥ = n.

    s's canonical rows are already reduced, so the complement is read off
    their codes with no elimination of s.
    """
    field, n = s.field, s.ambient_dim
    kern = field._kern
    codes = s._codes
    pivot_cols = [row.index(kern.one) for row in codes]  # a canonical row's first nonzero entry is one
    return Subspace.from_codes(field, n, _null_basis(kern, codes, pivot_cols, n))


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim or a.field != b.field:
        raise AmbientMismatch("subspace sum needs a common ambient space")
    return Subspace.from_codes(a.field, a.ambient_dim, [*a._codes, *b._codes])


def subspace_intersection(a: Subspace, b: Subspace) -> Subspace:
    """a ∩ b by Zassenhaus: one reduction of [a | a] stacked on [b | 0]."""
    if a.ambient_dim != b.ambient_dim or a.field != b.field:
        raise AmbientMismatch("subspace intersection needs a common ambient space")
    n = a.ambient_dim
    zeros = (0,) * n
    stacked = [r + r for r in a._codes] + [r + zeros for r in b._codes]
    return tail_subspace(a.field, stacked, 2 * n, n)


def tail_subspace(field: Field, rows, num_cols: int, start: int) -> Subspace:
    """The row-space vectors that vanish before column start, cut to columns start..

    ``rows`` holds rows of codes of field's kernel.  One reduction: the
    reduced rows pivoting at or past start span exactly those vectors, and
    as their pivot columns are cleared in every other row, their tails are
    already the canonical basis of the result.
    """
    reduced, pivot_cols = _rref_coded(field._kern, list(rows), num_cols)
    return Subspace(field, num_cols - start, tuple(row[start:] for row, p in zip(reduced, pivot_cols) if p >= start))


def contains(a: Subspace, *vectors: Sequence[FieldElement]) -> bool:
    """True iff every vector reduces to zero against a's canonical basis.

    Only the vectors are encoded; no vector at all gives True.
    """
    kern = a.field._kern
    return _reduces_to_zero(kern, a._codes, _encode(kern, vectors, a.ambient_dim))


def _reduces_to_zero(kern, rows, vectors) -> bool:
    """True iff every coded vector reduces to zero against coded canonical rows."""
    return not _residues(kern, rows, vectors, 1)


def _residues(kern, rows, vectors, limit=None) -> list:
    """The nonzero residues of coded vectors reduced against coded canonical rows.

    A residue is zero in every pivot column of the rows, so the residues
    span (span(rows) + span(vectors)) / span(rows) in the columns off the
    pivots.  The scan stops once ``limit`` nonzero residues are found.
    When ``rows`` are as many as their columns, they span the whole space
    and every residue is zero, so none is computed.
    """
    if rows and len(rows) == len(rows[0]):
        return []
    one = kern.one  # a canonical row's first nonzero entry, its pivot, is one
    rows = [(row.index(one), row) for row in rows]
    out = []
    for residue in vectors:
        for pivot, row in rows:
            c = residue[pivot]
            if c:
                residue = kern.sub_scaled(residue, c, row)
        if any(residue):
            out.append(residue)
            if len(out) == limit:
                break
    return out


def enumerate_subspaces(field: Field, ambient_dim: int, dim: int) -> Iterator[Subspace]:
    """Every dim-dimensional subspace of field^ambient_dim, exactly once.

    Ordered by pivot profile (lexicographic column combinations), then by the
    free entries in row-major position order, each running through the field
    enumeration order, which is the code order 0..q-1; pivots are the code 1.
    """
    if field.order is None:
        raise InfiniteField("subspace enumeration needs a finite field")
    if not 0 <= dim <= ambient_dim:
        raise AmbientMismatch(f"dimension {dim} outside 0..{ambient_dim}")
    one = field._kern.one
    for pivots in itertools.combinations(range(ambient_dim), dim):
        pivot_set = set(pivots)
        free = [
            (i, j)
            for i in range(dim)
            for j in range(pivots[i] + 1, ambient_dim)
            if j not in pivot_set
        ]
        for entries in itertools.product(range(field.order), repeat=len(free)):
            rows = [[0] * ambient_dim for _ in range(dim)]
            for i, p in enumerate(pivots):
                rows[i][p] = one
            for (i, j), val in zip(free, entries):
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

