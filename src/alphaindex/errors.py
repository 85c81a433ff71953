"""Exception hierarchy shared across the package.

Everything raised for *data-dependent* conditions derives from
:class:`AlphaIndexError`, so callers (notably the CLI) can separate domain
failures from genuine bugs or I/O problems.  Plain ``ValueError`` is reserved
for malformed arguments; the Bessel overflow guard raises the builtin
``OverflowError``.
"""


class AlphaIndexError(Exception):
    """Base class for all library-specific failures."""


class DegenerateGroupError(AlphaIndexError):
    """Every member of a group has h-index 0, so h-shares are undefined."""


class SampleTooLargeError(AlphaIndexError):
    """Requested subset size exceeds the group size."""


class TooFewGroupsError(AlphaIndexError):
    """Ranking needs at least two groups."""


class InsufficientDataError(AlphaIndexError):
    """Not enough usable data points for the requested fit."""


class FitDivergedError(AlphaIndexError):
    """An iterative fit did not converge, or its optimum lies on the edge of
    its search box (a Giddings peak outside the binned range)."""


class ZeroVarianceError(AlphaIndexError):
    """Sample variance is zero where a spread-normalized statistic is needed."""


class SampleSizeError(AlphaIndexError):
    """Sample size outside the supported range of a statistical test."""


class BinSpecError(AlphaIndexError):
    """Histogram bin specification is unusable for the given data."""
