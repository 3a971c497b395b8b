"""Exception hierarchy.  Every error carries a machine-parsable token that the
CLI prints as ``error=<TOKEN>`` on failure."""

from __future__ import annotations


class SwError(Exception):
    token = "ERROR"


class SingularMatrixError(SwError):
    token = "SINGULAR"


class BudgetExceededError(SwError):
    token = "BUDGET_EXCEEDED"


class NotInImageError(SwError):
    """A syndrome tuple that no member of S produces; ``index`` is its row
    in the batch that was decoded, 0 for a single tuple."""

    token = "NOT_IN_IMAGE"

    def __init__(self, message: str, index: int = 0):
        super().__init__(message)
        self.index = index


class SyndromeNotDecodableError(SwError):
    token = "SYNDROME_NOT_DECODABLE"


class NotHammingPartitionError(SwError):
    token = "NOT_HAMMING_PARTITION"


class RNotInvertibleError(SwError):
    token = "R_NOT_INVERTIBLE"


class HeightNegativeError(SwError):
    token = "HEIGHT_NEGATIVE"


class DecompositionInvalidError(SwError):
    token = "DECOMPOSITION_INVALID"


class NotPerfectError(SwError):
    token = "NOT_PERFECT"


class ParamsNotPerfectError(SwError):
    token = "PARAMS_NOT_PERFECT"


class MalformedFileError(SwError):
    token = "MALFORMED_FILE"


class BadArgumentError(SwError, ValueError):
    """An argument outside its domain, such as a row split that does not
    partition the completion; still a ValueError for library callers."""

    token = "BAD_ARGUMENT"


class NotCompressibleError(SwError, ValueError):
    """Two members of S share a syndrome tuple, so no decoder exists."""

    token = "NOT_COMPRESSIBLE"


class VerdictMismatchError(SwError):
    """Two exact compressibility tests disagreed on one code: a defect in
    the library, not in its input."""

    token = "VERDICT_MISMATCH"
