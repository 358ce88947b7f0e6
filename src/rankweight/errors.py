"""Exception hierarchy shared by all rankweight modules."""


class RankWeightError(Exception):
    """Base class for every error raised by this package."""


class BadBase(RankWeightError):
    """The base field k is described wrongly (composite characteristic, missing modulus, ...) or is not a base field."""


class BadModulus(RankWeightError):
    """Modulus polynomial is not monic, has degree 0, or has foreign coefficients."""


class NotIrreducible(RankWeightError):
    """Modulus polynomial factors over its coefficient field."""


class InfiniteField(RankWeightError):
    """Operation requires enumeration but the field is infinite."""


class FieldMismatch(RankWeightError):
    """An entry or element not of the field it is handed to, an int included, or arithmetic across fields."""


class TowerMismatch(RankWeightError):
    """A ``Subspace`` handed to ``KSubspace`` or ``LinearCode`` does not live in k^n or L^n of the tower."""


class AmbientMismatch(RankWeightError):
    """A row of the wrong length (decided by ``linalg._encode``), a subspace operation across ambient
    spaces, or a shape ``linalg`` cannot take: a matrix with no rows and no column count, or a
    subspace dimension outside 0..n."""


class ZeroCode(RankWeightError):
    """Quantity is undefined for the zero code (empty minimum)."""


class BadR(RankWeightError):
    """Generalized weight index r outside 1..dim(C)."""


class SearchExhausted(RankWeightError):
    """Witness search budget spent with existence still undecided."""


class EquivalenceViolation(RankWeightError):
    """The four generalized-weight values disagree where they are provably equal."""


class InternalInvariantError(RankWeightError):
    """An internal cross-check failed: a bug in this package, never bad input."""


class ParseError(RankWeightError):
    """Malformed code document or element string."""


class RowLengthMismatch(ParseError):
    """Generator row length differs from the declared code length."""


class UnknownSymbol(ParseError):
    """Element string uses a generator name that was not declared."""
