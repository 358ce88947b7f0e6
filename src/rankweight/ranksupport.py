"""Rank supports, restriction, extension, trace image, duals, degeneracy,
and the generalized closure of a linear code over a field extension.

Conventions.  A vector c in L^n expands to the m-by-n matrix over k whose
row i, column j entry is the coefficient of basis element i in coordinate j
(c_j = sum_i entry[i][j] * basis_i).  The rank support of c is the row space
of that matrix; the rank support of a code is the sum of the supports of its
generators.  The closure of C is the smallest L-subspace of L^n spanned by
vectors of k^n that contains C; ``closure`` computes it as the L-extension
of the rank support.  Over a finite tower two more computations share no
step with it: ``galois_closure`` sums C + σ(C) + ... until the Frobenius σ
fixes the sum (Galois descent), and the verify sweeps check ``closure``
against it; ``closure_oracle`` intersects every extended superspace W_L,
built literally on each call, and is the reference that the tests hold
both of them to.

Rsupp(C), C^perp, Res(C) and C* are computed once per distinct code per
tower: ``rank_support_code``, ``dual``, ``restriction`` and ``closure`` fill
write-once slots on the ``LinearCode`` the first time they are asked, and
return the stored value after that.  ``LinearCode(tower, n, space)`` returns
the tower's one object for that space, from a table on the tower, so every
way of making a code (a population, a subcode, a dual, a closure, a loaded
pickle) meets a code again with its slots.  The table holds its codes
weakly: a code no caller keeps leaves it.  A code and its dual, or an
extended code and its closure (itself), make cycles that the garbage
collector frees.
``restriction`` reads Res(C) = C ∩ k^n off one reduction of the canonical
generators' coordinates; it never touches C^perp or a rank support.  The
Delsarte identity Res(C)^perp = Rsupp(C^perp) therefore compares two
independent computations (the ``delsarte`` verify suite checks it), and so
does the cross-check in ``is_rank_degenerate``.

Every field has a kernel (``fields``), and these work on the codes that
``linalg.Subspace`` stores: an L-code expands straight into the k-codes of
its coordinates (``kern.expand``), a k-code embeds as an L-code
(``kern.embed_row``; over a finite L the same int), and
``rank_support_code``, ``restriction``, ``extend_to_L`` and ``trace_image``
reduce those codes without building elements; ``trace_image`` takes the
tower's one trace on codes (``ExtensionTower._code_trace``).
``_coded_expansion`` is the one expansion: ``rank_support_vec`` encodes its
vector once and reduces the expansion's codes.  Only ``closure_oracle``
stays on elements, embedding and reducing literally.
"""

from __future__ import annotations

import weakref
from typing import Sequence

from .errors import InfiniteField, InternalInvariantError, TowerMismatch
from .fields import ExtensionTower, FieldElement
from .linalg import (
    Subspace,
    _encode,
    enumerate_subspaces,
    orthogonal_complement,
    subspace_intersection,
    subspace_sum,
    tail_subspace,
)


class _TowerSpace:
    """A subspace of k^n or L^n attached to a tower, fixed by ``tower``,
    ``length`` and ``space``; only they take part in equality and hashing,
    and a space of one class never equals one of the other."""

    __slots__ = ("tower", "length", "space")

    @property
    def dim(self) -> int:
        return self.space.dim

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.tower == other.tower and self.length == other.length and self.space == other.space

    def __hash__(self):
        return hash((self.tower, self.length, self.space))


class KSubspace(_TowerSpace):
    """A k-subspace of k^n attached to a tower (supports, restrictions, trace
    images); equality and hashing are those of ``_TowerSpace``."""

    __slots__ = ()

    def __init__(self, tower: ExtensionTower, length: int, space: Subspace):
        if space.ambient_dim != length or space.field != tower.k:
            raise TowerMismatch("subspace does not live in k^n for this tower")
        self.tower = tower
        self.length = length
        self.space = space

    def __repr__(self):
        return f"KSubspace(dim {self.dim} of k^{self.length})"


class LinearCode(_TowerSpace):
    """An L-linear subspace C of L^n in canonical reduced echelon form.

    A code is immutable: ``tower``, ``length`` and ``space`` fix it, and
    equality and hashing are those of ``_TowerSpace``.  The slots
    ``_rsupp``, ``_dual``, ``_res`` and ``_closure`` hold Rsupp(C), C^perp,
    Res(C) and C*; each is None until ``rank_support_code``, ``dual``,
    ``restriction`` or ``closure`` first computes it, and is never written
    again after that.
    Res(C) is computed from ``space`` alone, never from ``_dual`` or
    ``_rsupp``, so Res(C)^perp = Rsupp(C^perp) compares two independent
    computations.  The constructor returns the tower's one code for the
    space, so two equal codes of one tower are one object.
    """

    __slots__ = ("_rsupp", "_dual", "_res", "_closure", "__weakref__")

    def __new__(cls, tower: ExtensionTower, length: int, space: Subspace):
        """The tower's one code with this space, made on a miss.

        The space is checked first: the table's keys hold codes only, and a
        k-space can have the same codes as a live L-code.  The table
        (``codes`` of the tower's ``_TowerMemo``) maps the length and the
        canonical codes to a ``_Entry``, a weak reference that drops itself
        from the table when its code is freed, so the table keeps no code its
        callers have dropped.  A ``weakref.WeakValueDictionary`` does the same
        at twice the cost per lookup, which a cold CLI ``weights`` call,
        making each subcode once, shows.
        """
        if space.ambient_dim != length or space.field != tower.L:
            raise TowerMismatch("subspace does not live in L^n for this tower")
        table = tower._memo.codes
        key = length, space._codes
        entry = table.get(key)
        code = None if entry is None else entry()
        if code is None:
            code = object.__new__(cls)
            code.tower, code.length, code.space = tower, length, space
            code._rsupp = code._dual = code._res = code._closure = None
            entry = table[key] = _Entry(code, _Entry.drop)
            entry.table, entry.key = table, key
        return code

    def __reduce__(self):
        # a loaded code is its loaded tower's one code, with empty slots
        return LinearCode, (self.tower, self.length, self.space)

    @classmethod
    def from_generators(cls, tower: ExtensionTower, length: int, vectors) -> "LinearCode":
        return cls(tower, length, Subspace.from_vectors(tower.L, length, vectors))

    @classmethod
    def zero(cls, tower: ExtensionTower, length: int) -> "LinearCode":
        return cls(tower, length, Subspace.zero(tower.L, length))

    @classmethod
    def full(cls, tower: ExtensionTower, length: int) -> "LinearCode":
        return cls(tower, length, Subspace.full(tower.L, length))

    @property
    def generators(self) -> tuple:
        return self.space.rows

    def __repr__(self):
        return f"LinearCode(dim {self.dim} of L^{self.length} over {self.tower})"


class _Entry(weakref.ref):
    """A weak reference to a code in a tower's code table, with its place there."""

    __slots__ = ("table", "key")

    def drop(self):
        """The callback when the code is freed: its entry leaves the table."""
        self.table.pop(self.key, None)


def _coded_expansion(kern, codes) -> list:
    """The expansion rows of coded vectors over L, as tuples of k-codes.

    ``kern.expand`` reads an element's k-coordinates off its code: over a
    finite L the base-|k| digits of the code, lowest first; over Q(θ) the
    numerators over the common denominator, each reduced to a Q-code.
    """
    expand = kern.expand
    return [row for c in codes for row in zip(*map(expand, c))]


def rank_support_vec(tower: ExtensionTower, c: Sequence[FieldElement]) -> KSubspace:
    """Rank support of a vector: the k-row space of its expansion matrix."""
    n, kern = len(c), tower.L._kern
    rows = _coded_expansion(kern, _encode(kern, [c], n))
    return KSubspace(tower, n, Subspace.from_codes(tower.k, n, rows))


def rank_support_code(C: LinearCode) -> KSubspace:
    """Rank support of a code: the k-sum of the supports of its generators."""
    if C._rsupp is None:
        t, n = C.tower, C.length
        space = Subspace.from_codes(t.k, n, _coded_expansion(t.L._kern, C.space._codes))
        C._rsupp = KSubspace(t, n, space)
    return C._rsupp


def embed_vector(tower: ExtensionTower, v) -> list:
    """Coordinatewise embedding k^n -> L^n."""
    return [tower.embed(x) for x in v]


def dual(C: LinearCode) -> LinearCode:
    """Orthogonal complement for the standard bilinear form on L^n."""
    if C._dual is None:
        C._dual = LinearCode(C.tower, C.length, orthogonal_complement(C.space))
    return C._dual


def restriction(C: LinearCode) -> KSubspace:
    """Res(C) = C ∩ k^n by one reduction over k, computed once per code.

    The canonical generators g_i of C have pivot entries 1 and zeros in each
    other's pivot columns, so x ∈ C is sum x_(p_i) g_i, and x ∈ k^n forces
    every x_(p_i) into k.  So Res(C) holds the k-combinations of the g_i with
    no coordinates off the basis element 1: one reduction of the rows
    [coordinates of g_i on the other basis elements | coordinates on 1],
    keeping the tails of the rows that vanish on the head.
    """
    if C._res is None:
        t = C.tower
        m, n, kern = t.degree, C.length, t.L._kern
        expansions = [_coded_expansion(kern, [g]) for g in C.space._codes]
        flat_rows = [tuple(e for row in rows[1:] + rows[:1] for e in row) for rows in expansions]
        C._res = KSubspace(t, n, tail_subspace(t.k, flat_rows, m * n, (m - 1) * n))
    return C._res


def extend_to_L(D: KSubspace) -> LinearCode:
    """The L-span D_L of a k-subspace of k^n; dim_L D_L = dim_k D.

    A canonical RREF basis over k embeds entry by entry to the canonical RREF
    basis over L, so no reduction is needed.  The embedding works on codes:
    over a finite L it is the identity, since an L-code below |k| has its
    k-code as first coordinate and zeros above, and over Q(θ) the Q-code
    (n, d) becomes the L-code (n, 0, ..., 0, d).
    """
    t, n = D.tower, D.length
    embed_row = t.L._kern.embed_row
    return LinearCode(t, n, Subspace(t.L, n, tuple(embed_row(row) for row in D.space._codes)))


def is_extended(C: LinearCode) -> bool:
    """True iff C has a basis in k^n, i.e. dim_k Res(C) = dim_L C."""
    return restriction(C).dim == C.dim


def trace_image(C: LinearCode) -> KSubspace:
    """Tr(C) as a k-subspace, spanned by the traces of basis multiples of generators.

    Every tower is separable (finite fields and Q are perfect), so Tr(C) =
    Rsupp(C), the identity the ``trace`` verify suite checks.  The products
    run on codes, and each trace is the tower's
    (``ExtensionTower._code_trace``), the one that ``ExtensionTower.trace``
    takes on elements.
    """
    t = C.tower
    kern = t.L._kern
    n, trace, powers = C.length, t._code_trace, kern.basis
    rows = [tuple([trace(kern.mul(p, x)) for x in g]) for g in C.space._codes for p in powers]
    return KSubspace(t, n, Subspace.from_codes(t.k, n, rows))


def is_rank_degenerate(C: LinearCode) -> bool:
    """True iff Rsupp(C) != k^n; cross-checked against Res(C^perp) != 0."""
    primary = rank_support_code(C).dim < C.length
    if primary != (restriction(dual(C)).dim > 0):
        raise InternalInvariantError("degeneracy criteria disagree")
    return primary


def closure(C: LinearCode) -> LinearCode:
    """C* = Rsupp(C)_L: the smallest extended L-subspace containing C.

    Computed once per code: the slot ``_closure`` keeps the tower's one code
    for C*, which is C itself when C is extended, and brings its own slots.
    """
    if C._closure is None:
        C._closure = extend_to_L(rank_support_code(C))
    return C._closure


def galois_closure(C: LinearCode) -> LinearCode:
    """C* = C + σ(C) + ... + σ^(m-1)(C) over a finite tower, σ the Frobenius x -> x^|k|.

    An L-subspace is extended iff σ maps it to itself (Galois descent), so
    the sums S = C, S + σ(S), ... reach C* at the first S with σ(S) = S,
    after at most m - 1 sums.  σ fixes 0 and 1, so σ applied entrywise to
    canonical RREF codes gives the canonical codes of σ(S), and σ(S) = S is
    a tuple compare.  σ comes from the tower (``ExtensionTower._frobenius``,
    checked when it is made); no rank support, ``closure``, restriction or
    W_L takes part.  InfiniteField over an infinite k.
    """
    t, n = C.tower, C.length
    sigma = t._frobenius()
    space = C.space
    while True:
        image = tuple(tuple(map(sigma, row)) for row in space._codes)
        if image == space._codes:
            return LinearCode(t, n, space)
        space = subspace_sum(space, Subspace(t.L, n, image))


def closure_oracle(C: LinearCode) -> LinearCode:
    """Literal closure: intersect every extended superspace W_L over all W ⊆ k^n.

    Finite base fields only.  It is the tests' reference for ``closure`` and
    ``galois_closure``, which the verify sweeps compare, and is kept
    deliberately naive: it never uses a rank support, ``closure``,
    ``galois_closure`` or ``extend_to_L``, and keeps no W_L on the tower.
    Each call embeds and reduces every W_L literally.
    """
    t = C.tower
    if t.k.order is None:
        raise InfiniteField("closure_oracle enumerates k-subspaces; k is infinite")
    n = C.length
    result = None
    for d in range(n + 1):
        for w in enumerate_subspaces(t.k, n, d):
            wl = Subspace.from_vectors(t.L, n, [embed_vector(t, row) for row in w.rows])
            if wl.contains_space(C.space):
                result = wl if result is None else subspace_intersection(result, wl)
    return LinearCode(t, n, result)  # the last W_L, L^n itself, contains C
