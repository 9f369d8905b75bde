"""Exception types shared across the package.

SchemaError marks malformed input files or records (CLI exit code 2); every
other CacheWaysError maps to a runtime/simulation failure (CLI exit code 3).
"""


class CacheWaysError(Exception):
    """Base class for all package errors."""


class SchemaError(CacheWaysError):
    """An input file, record, or flag value violates its documented schema."""


# loop model
class FootprintUnanalyzable(CacheWaysError):
    """Footprint cannot be computed because an access is indirect."""


class OracleTooLarge(CacheWaysError):
    """Enumeration oracle would exceed its iteration cap."""


# timing
class FitSingular(CacheWaysError):
    """Design matrix is rank-deficient; drop features or add samples."""


class ArityError(CacheWaysError):
    """Bound vector length does not match the model depth."""


class AccuracyUndefined(CacheWaysError):
    """Accuracy requested but every observed time is zero."""


# sensitivity
class CurveIncomplete(CacheWaysError):
    """Way-time curve lacks points required by the computation."""


# allocation
class AdmissionRejected(CacheWaysError):
    """No socket can admit the process."""


class BitmaskOverflow(CacheWaysError):
    """Requested more ways than the socket has."""


class NotPlaced(CacheWaysError):
    """Operation on a pid the allocator does not know."""


# simulator / metrics
class TraceError(CacheWaysError):
    """Malformed trace or mix record; message names the offender."""


class MetricArity(CacheWaysError):
    """Metric inputs disagree on the pid set."""


class MetricUndefined(CacheWaysError):
    """Metric has no defined value on this input."""
