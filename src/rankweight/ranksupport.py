"""Rank supports, restriction, extension, trace image, duals, degeneracy,
and the generalized closure of a linear code over a field extension.

Conventions.  A vector c in L^n expands to the m-by-n matrix over k whose
row i, column j entry is the coefficient of basis element i in coordinate j
(c_j = sum_i entry[i][j] * basis_i).  The rank support of c is the row space
of that matrix; the rank support of a code is the sum of the supports of its
generators.  The closure of C is the smallest L-subspace of L^n spanned by
vectors of k^n that contains C; it equals the L-extension of the rank
support, and ``closure_oracle`` recomputes it literally as the intersection
of all extended superspaces for cross-checking on finite fields.

Rsupp(C), C^perp and Res(C) are computed once per code: ``rank_support_code``,
``dual`` and ``restriction`` fill write-once slots on the ``LinearCode`` the
first time they are asked, and return the stored value after that.
``restriction`` runs two independent computations (the dual-support identity
Res(C) = Rsupp(C^perp)^perp, and a direct k-linear system inside k^(mn)) the
first time Res(C) is needed, and raises ``InternalInvariantError`` when they
disagree; a result that fails the comparison is never stored.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .errors import InfiniteField, InseparableTower, InternalInvariantError, TowerMismatch
from .fields import ExtensionTower, FieldElement, is_separable_tower
from .linalg import (
    Matrix,
    Subspace,
    enumerate_subspaces,
    orthogonal_complement,
    subspace_intersection,
    tail_subspace,
)


class KSubspace:
    """A k-subspace of k^n attached to a tower (supports, restrictions, trace images)."""

    __slots__ = ("tower", "length", "space")

    def __init__(self, tower: ExtensionTower, length: int, space: Subspace):
        if space.ambient_dim != length or space.field != tower.k:
            raise TowerMismatch("subspace does not live in k^n for this tower")
        self.tower = tower
        self.length = length
        self.space = space

    @property
    def dim(self) -> int:
        return self.space.dim

    def __eq__(self, other):
        if not isinstance(other, KSubspace):
            return NotImplemented
        return self.tower == other.tower and self.length == other.length and self.space == other.space

    def __hash__(self):
        return hash((self.tower, self.length, self.space))

    def __repr__(self):
        return f"KSubspace(dim {self.dim} of k^{self.length})"


class LinearCode:
    """An L-linear subspace C of L^n in canonical reduced echelon form.

    A code is immutable: ``tower``, ``length`` and ``space`` fix it, and only
    they take part in equality and hashing.  The slots ``_rsupp``, ``_dual``
    and ``_res`` hold Rsupp(C), C^perp and Res(C); each is None until
    ``rank_support_code``, ``dual`` or ``restriction`` first computes it, and
    is never written again after that.
    """

    __slots__ = ("tower", "length", "space", "_rsupp", "_dual", "_res")

    def __init__(self, tower: ExtensionTower, length: int, space: Subspace):
        if space.ambient_dim != length or space.field != tower.L:
            raise TowerMismatch("generators do not live in L^n for this tower")
        self.tower = tower
        self.length = length
        self.space = space
        self._rsupp = self._dual = self._res = None

    @classmethod
    def from_generators(cls, tower: ExtensionTower, length: int, vectors) -> "LinearCode":
        for v in vectors:
            if len(v) != length:
                raise TowerMismatch(f"generator has length {len(v)}, code length is {length}")
            for e in v:
                if not isinstance(e, FieldElement) or not (e.field is tower.L or e.field == tower.L):
                    raise TowerMismatch("generator entry outside the tower's extension field")
        return cls(tower, length, Subspace.from_vectors(tower.L, length, vectors))

    @classmethod
    def zero(cls, tower: ExtensionTower, length: int) -> "LinearCode":
        return cls(tower, length, Subspace.zero(tower.L, length))

    @classmethod
    def full(cls, tower: ExtensionTower, length: int) -> "LinearCode":
        return cls(tower, length, Subspace.full(tower.L, length))

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def generators(self) -> tuple:
        return self.space.rows

    def __eq__(self, other):
        if not isinstance(other, LinearCode):
            return NotImplemented
        return self.tower == other.tower and self.length == other.length and self.space == other.space

    def __hash__(self):
        return hash((self.tower, self.length, self.space))

    def __repr__(self):
        return f"LinearCode(dim {self.dim} of L^{self.length} over {self.tower})"


class ExpandedMatrix:
    """The coordinate expansion of one vector: m rows (basis index) by n columns."""

    __slots__ = ("tower", "rows")

    def __init__(self, tower: ExtensionTower, rows: tuple):
        self.tower = tower
        self.rows = rows

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    @property
    def num_cols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def reassemble(self) -> list:
        """Rebuild the L-vector: coordinate j is sum_i rows[i][j] * basis_i."""
        t = self.tower
        n = self.num_cols
        out = []
        for j in range(n):
            acc = t.L.zero()
            for i, alpha in enumerate(t.basis):
                acc = acc + t.embed(self.rows[i][j]) * alpha
            out.append(acc)
        return out


def _check_vector(tower: ExtensionTower, c: Sequence[FieldElement]):
    for e in c:
        if not isinstance(e, FieldElement) or not (e.field is tower.L or e.field == tower.L):
            raise TowerMismatch("vector entry outside the tower's extension field")


def expansion_rows(tower: ExtensionTower, c: Sequence[FieldElement]) -> List[list]:
    """The m rows of the expansion matrix of c, as vectors over k (power basis)."""
    k = tower.k
    return [
        [FieldElement(k, x.payload[i]) for x in c]
        for i in range(tower.degree)
    ]


def expand_vector(tower: ExtensionTower, c: Sequence[FieldElement], basis=None) -> ExpandedMatrix:
    """Expansion matrix of c; ``basis`` may name an alternative k-basis of L.

    The alternative-basis route exists for the basis-independence harness:
    coordinates are obtained by inverting the transition matrix from the
    power basis.
    """
    _check_vector(tower, c)
    if basis is None:
        return ExpandedMatrix(tower, tuple(tuple(r) for r in expansion_rows(tower, c)))
    if len(basis) != tower.degree:
        raise ValueError(f"a k-basis of L has exactly {tower.degree} elements")
    from .linalg import invert

    k = tower.k
    transition = Matrix(
        k,
        [[FieldElement(k, b.payload[i]) for b in basis] for i in range(tower.degree)],
        tower.degree,
    )
    tinv = invert(transition)  # ValueError when the family is not a basis
    power = expansion_rows(tower, c)
    rows = [
        [
            sum((tinv.rows[i][l] * power[l][j] for l in range(tower.degree)), k.zero())
            for j in range(len(c))
        ]
        for i in range(tower.degree)
    ]
    return ExpandedMatrix(tower, tuple(tuple(r) for r in rows))


def support_space(tower: ExtensionTower, vectors, length: int) -> Subspace:
    """Row space over k of the stacked expansions of the given L-vectors."""
    stacked = []
    for v in vectors:
        stacked.extend(expansion_rows(tower, v))
    return Subspace.from_vectors(tower.k, length, stacked)


def rank_support_vec(tower: ExtensionTower, c: Sequence[FieldElement], basis=None) -> KSubspace:
    """Rank support of a vector: the k-row space of its expansion matrix."""
    _check_vector(tower, c)
    if basis is None:
        rows = expansion_rows(tower, c)
    else:
        rows = [list(r) for r in expand_vector(tower, c, basis).rows]
    return KSubspace(tower, len(c), Subspace.from_vectors(tower.k, len(c), rows))


def weight_of_vector(tower: ExtensionTower, c: Sequence[FieldElement]) -> int:
    """Rank weight wt_R(c) = dim Rsupp(c) <= min(m, n)."""
    return rank_support_vec(tower, c).dim


def rank_support_code(C: LinearCode) -> KSubspace:
    """Rank support of a code: the k-sum of the supports of its generators."""
    if C._rsupp is None:
        C._rsupp = KSubspace(C.tower, C.length, support_space(C.tower, C.space.rows, C.length))
    return C._rsupp


def embed_vector(tower: ExtensionTower, v) -> list:
    """Coordinatewise embedding k^n -> L^n."""
    return [tower.embed(x) for x in v]


def rational_part(tower: ExtensionTower, v) -> Optional[list]:
    """The k-vector equal to v when v lies in k^n, else None."""
    k = tower.k
    out = []
    for x in v:
        if any(not k._is_zero(c) for c in x.payload[1:]):
            return None
        out.append(FieldElement(k, x.payload[0]))
    return out


def dual(C: LinearCode) -> LinearCode:
    """Orthogonal complement for the standard bilinear form on L^n."""
    if C._dual is None:
        C._dual = LinearCode(C.tower, C.length, orthogonal_complement(C.space))
    return C._dual


def restriction(C: LinearCode) -> KSubspace:
    """Res(C) = C ∩ k^n, via the dual-support identity, cross-checked directly.

    Both routes run once per code, on the first call.  Raises
    InternalInvariantError when they disagree, before anything is stored, so
    every later call runs the comparison again.
    """
    if C._res is None:
        primary = orthogonal_complement(rank_support_code(dual(C)).space)
        if primary != _restriction_direct(C):
            raise InternalInvariantError("restriction paths disagree")
        C._res = KSubspace(C.tower, C.length, primary)
    return C._res


def _restriction_direct(C: LinearCode) -> Subspace:
    """C as a k-space inside k^(mn), met with the embedded k^n in one reduction.

    Each alpha*g is flattened with its coordinates on basis element 1 last,
    so C ∩ k^n is the part of that k-space vanishing on the other m-1 blocks.
    """
    t = C.tower
    m, n = t.degree, C.length
    flat_rows = []
    for g in C.space.rows:
        for alpha in t.basis:
            rows = expansion_rows(t, [alpha * gj for gj in g])
            flat_rows.append([e for row in rows[1:] + rows[:1] for e in row])
    return tail_subspace(t.k, flat_rows, m * n, (m - 1) * n)


def extend_to_L(D: KSubspace) -> LinearCode:
    """The L-span D_L of a k-subspace of k^n; dim_L D_L = dim_k D.

    A canonical RREF basis over k embeds entry by entry to the canonical RREF
    basis over L, so no reduction is needed.
    """
    t = D.tower
    rows = tuple(tuple(embed_vector(t, row)) for row in D.space.rows)
    return LinearCode(t, D.length, Subspace(t.L, D.length, rows))


def is_extended(C: LinearCode) -> bool:
    """True iff C has a basis in k^n, i.e. dim_k Res(C) = dim_L C."""
    return restriction(C).dim == C.dim


def trace_image(C: LinearCode) -> KSubspace:
    """Tr(C) as a k-subspace, spanned by the traces of basis multiples of generators.

    Requires a separable tower: outside that hypothesis Tr may vanish and the
    identity with the rank support fails, so inseparable input is refused.
    """
    t = C.tower
    if not is_separable_tower(t):
        raise InseparableTower(f"trace image needs a separable extension, got {t}")
    rows = []
    for g in C.space.rows:
        for alpha in t.basis:
            rows.append([t.trace(alpha * gj) for gj in g])
    return KSubspace(t, C.length, Subspace.from_vectors(t.k, C.length, rows))


def is_rank_degenerate(C: LinearCode) -> bool:
    """True iff Rsupp(C) != k^n; cross-checked against Res(C^perp) != 0."""
    primary = rank_support_code(C).dim < C.length
    if primary != (restriction(dual(C)).dim > 0):
        raise InternalInvariantError("degeneracy criteria disagree")
    return primary


def closure(C: LinearCode) -> LinearCode:
    """C* = Rsupp(C)_L: the smallest extended L-subspace containing C."""
    return extend_to_L(rank_support_code(C))


def closure_oracle(C: LinearCode) -> LinearCode:
    """Literal closure: intersect every extended superspace W_L over all W ⊆ k^n.

    Finite base fields only; this is the independent cross-check for
    ``closure`` and is kept deliberately naive.
    """
    t = C.tower
    if t.k.order is None:
        raise InfiniteField("closure_oracle enumerates k-subspaces; k is infinite")
    n = C.length
    result = Subspace.full(t.L, n)
    for d in range(0, n + 1):
        for w in enumerate_subspaces(t.k, n, d):
            wl = Subspace.from_vectors(t.L, n, [embed_vector(t, row) for row in w.rows])
            if all(wl.contains(g) for g in C.space.rows):
                result = subspace_intersection(result, wl)
    return LinearCode(t, n, result)
