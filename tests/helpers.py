"""Towers, code populations and vector pools shared across the test modules."""

import functools
import itertools
import random

from rankweight.fields import (
    BaseFieldDescriptor,
    FieldElement,
    build_base_field,
    make_tower,
    random_rational_element,
)
from rankweight.ranksupport import LinearCode
from rankweight.verify import exhaustive_codes


@functools.lru_cache(maxsize=None)
def gf4():
    return make_tower(BaseFieldDescriptor(2), [1, 1, 1])


@functools.lru_cache(maxsize=None)
def gf8():
    return make_tower(BaseFieldDescriptor(2), [1, 1, 0, 1])


@functools.lru_cache(maxsize=None)
def gf9():
    return make_tower(BaseFieldDescriptor(3), [1, 0, 1])


@functools.lru_cache(maxsize=None)
def gf16_over_gf4():
    # nested base GF(4) = GF(2)[u]/(u^2+u+1); extension x^2 + x + u over it
    base = BaseFieldDescriptor(2, base_degree=2, base_modulus=(1, 1, 1))
    return make_tower(base, [build_base_field(base).generator(), 1, 1])


@functools.lru_cache(maxsize=None)
def gf16_over_gf2():
    return make_tower(BaseFieldDescriptor(2), [1, 1, 0, 0, 1])


@functools.lru_cache(maxsize=None)
def gf3_degree_one():
    return make_tower(BaseFieldDescriptor(3), [1, 1])


@functools.lru_cache(maxsize=None)
def qtheta():
    return make_tower(BaseFieldDescriptor(0), [-2, 0, 0, 1], symbol="t")


def vec(tower, *entries):
    """Build an L-vector from ints/FieldElements; 'w' strings are not parsed here."""
    out = []
    for e in entries:
        out.append(tower.L.from_int(e) if isinstance(e, int) else e)
    return out


def reassemble(expanded):
    """Rebuild the L-vector of an ExpandedMatrix: coordinate j is sum_i rows[i][j] * basis_i."""
    t = expanded.tower
    n = len(expanded.rows[0]) if expanded.rows else 0
    out = []
    for j in range(n):
        acc = t.L.zero()
        for i, alpha in enumerate(t.basis):
            acc = acc + t.embed(expanded.rows[i][j]) * alpha
        out.append(acc)
    return out


def rational_part(tower, v):
    """The k-vector equal to v when v lies in k^n, else None."""
    k = tower.k
    out = []
    for x in v:
        if any(not k._is_zero(c) for c in x.payload[1:]):
            return None
        out.append(FieldElement(k, x.payload[0]))
    return out


def all_codes(tower, n):
    """Every L-subspace of L^n as a LinearCode, all dimensions."""
    return exhaustive_codes(tower, n)


def all_vectors(tower, n):
    elems = list(tower.L.elements())
    return [list(v) for v in itertools.product(elems, repeat=n)]


def random_rational_vector(rng, tower, n, height=5):
    return [random_rational_element(tower, rng, height) for _ in range(n)]


def random_q_codes(count, seed, max_n=3, max_dim=2, height=5):
    """Seeded random codes over Q(theta), theta^3 = 2, n <= max_n, dim <= max_dim."""
    t = qtheta()
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(1, max_n)
        dim = rng.randint(0, min(max_dim, n))
        gens = [random_rational_vector(rng, t, n, height) for _ in range(dim)]
        out.append(LinearCode.from_generators(t, n, gens))
    return out
