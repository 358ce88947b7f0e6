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
    """Arithmetic attempted between elements of different fields."""


class TowerMismatch(RankWeightError):
    """Vector or code entries do not belong to the expected extension tower."""


class AmbientMismatch(RankWeightError):
    """Subspace operation attempted across different ambient spaces or fields."""


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
