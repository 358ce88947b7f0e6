"""Exact rank supports, generalized closures and generalized rank weights
for linear codes over arbitrary finite field extensions.

Quick start::

    from rankweight import build_base_field, make_tower, LinearCode
    from rankweight import rank_support_code, closure, weight_report

    tower = make_tower(build_base_field(2), [1, 1, 1])   # GF(4)/GF(2)
    w = tower.generator()
    code = LinearCode.from_generators(tower, 2, [[tower.L.one(), w]])
    print(rank_support_code(code).dim)           # 2
    print(weight_report(code)["rank_distance"])  # 2
"""

from .errors import (
    AmbientMismatch,
    BadBase,
    BadModulus,
    BadR,
    EquivalenceViolation,
    FieldMismatch,
    InfiniteField,
    InternalInvariantError,
    NotIrreducible,
    ParseError,
    RankWeightError,
    RowLengthMismatch,
    SearchExhausted,
    TowerMismatch,
    UnknownSymbol,
    ZeroCode,
)
from .fields import (
    ExtensionField,
    ExtensionTower,
    FieldElement,
    PrimeField,
    Rationals,
    build_base_field,
    format_element,
    make_tower,
)
from .linalg import (
    Matrix,
    Subspace,
    contains,
    enumerate_subspaces,
    gaussian_binomial,
    kernel,
    orthogonal_complement,
    rref_canonical,
    subspace_intersection,
    subspace_sum,
)
from .ranksupport import (
    KSubspace,
    LinearCode,
    closure,
    closure_oracle,
    dual,
    extend_to_L,
    galois_closure,
    is_extended,
    is_rank_degenerate,
    rank_support_code,
    rank_support_vec,
    restriction,
    trace_image,
)
from .weights import (
    find_witness,
    maxwt,
    rank_distance,
    verify_witness,
    weight_Dr,
    weight_Mr,
    weight_OSr,
    weight_dRr,
    weight_report,
)
from .documents import (
    CodeDocument,
    document_from_code,
    parse_code_file,
    parse_element,
    render_code_document,
)
from .verify import TowerTask, VerifyPlan, run_verify, standard_plan

__version__ = "0.1.0"
