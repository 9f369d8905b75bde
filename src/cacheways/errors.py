"""Exception types shared across the package.

A class exists only where some caller tells it apart from the others.
SchemaError marks a malformed input file, record or value (CLI exit code
2), and `analyze` answers FootprintUnanalyzable, an indirect access, with a
default footprint.  Every other fault is a plain CacheWaysError whose
message names the offender (CLI exit code 3).
"""


class CacheWaysError(Exception):
    """Base class for all package errors."""


class SchemaError(CacheWaysError):
    """An input file, record, or flag value violates its documented schema."""


class FootprintUnanalyzable(CacheWaysError):
    """Footprint cannot be computed because an access is indirect."""
