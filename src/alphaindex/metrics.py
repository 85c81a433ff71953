"""Per-group scalar metrics and curves.

Everything here is a pure function over immutable inputs.  The cumulative
h-share curve and its concentration coefficient share the ascending running
sums of member h-indexes, exact integers converted to float only at the end,
so groups with equal h-indexes get a coefficient of exactly 0.0 and scaling
every h by a positive integer changes nothing.  The h-group is the h-index
of the member h-indexes.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING

from .errors import DegenerateGroupError

if TYPE_CHECKING:  # model imports h_index from here
    from .model import Group


def h_index(citations: Sequence[int]) -> int:
    """Largest k such that at least k entries are >= k; 0 for an empty list."""
    h = 0
    for rank, c in enumerate(sorted(citations, reverse=True), start=1):
        if c >= rank:
            h = rank
        else:
            break
    return h


def group_summary(group: Group) -> tuple[float, float]:
    """Mean member h-index and its standard error, ``sqrt(var(h)/n)``.

    Uses the unbiased (n-1) sample variance; a single-member group has
    standard error 0 by convention.
    """
    hs = group.h_values()
    n = len(hs)
    mean = sum(hs) / n
    if n == 1:
        return mean, 0.0
    var = sum((h - mean) ** 2 for h in hs) / (n - 1)
    return mean, math.sqrt(var / n)


@dataclass(frozen=True)
class LorenzCurve:
    """Cumulative-share curve of member h-indexes.

    ``points[i] = (f, phi)``: the poorest fraction ``f = (i+1)/n`` of members
    holds the fraction ``phi`` of the group's total h-index.  An implicit
    (0, 0) origin precedes the first point; the last point is (1, 1).
    """

    points: tuple[tuple[float, float], ...]


def _running_sums(group: Group) -> list[int]:
    """Ascending running sums of member h-indexes; the last, the total, is positive."""
    sums = list(accumulate(sorted(group.h_values())))
    if sums[-1] == 0:
        raise DegenerateGroupError(f"group {group.id!r}: all member h-indexes are zero")
    return sums


def lorenz_curve(group: Group) -> LorenzCurve:
    """Cumulative h-share over members sorted by ascending h-index.

    Raises :class:`DegenerateGroupError` when every member has h-index 0,
    since shares of a zero total are undefined.
    """
    sums = _running_sums(group)
    n, total = len(sums), sums[-1]
    return LorenzCurve(tuple((i / n, cum / total) for i, cum in enumerate(sums, start=1)))


def gini(group: Group) -> float:
    """Concentration coefficient of member h-indexes, in [0, 1).

    Trapezoidal evaluation of twice the area between the cumulative-share
    curve and the equality diagonal:

        g = 1 - (1/n) * sum_k (phi_k + phi_{k-1}),  phi_0 = 0, phi_n = 1.

    Computed as one exact integer ratio, so equal-h groups give exactly 0.0.
    Raises :class:`DegenerateGroupError` like :func:`lorenz_curve`.
    """
    sums = _running_sums(group)
    n, total = len(sums), sums[-1]
    trapezoid = 2 * sum(sums) - total  # sum of (cum_k + cum_{k-1}), cum_0 = 0
    return (n * total - trapezoid) / (n * total)


def h_group(group: Group) -> int:
    """Largest H such that at least H members have h-index >= H: the
    :func:`h_index` of the member h-indexes, and the crossing of
    :func:`psi_curve` with the identity line, max_i min(h_i, psi_i)."""
    return h_index(group.h_values())


def psi_curve(group: Group) -> list[tuple[int, int]]:
    """Plot-ready pairs (h_i, n - i + 1) over members sorted ascending by h.

    The survival curve: at least psi_i members have h-index >= h_i.  Its
    crossing with the identity line is :func:`h_group`.
    """
    hs = sorted(group.h_values())
    n = len(hs)
    return [(h, n - i + 1) for i, h in enumerate(hs, start=1)]


@dataclass(frozen=True)
class GroupMetrics:
    """Summary bundle for one group."""

    n: int
    mean_h: float
    stderr_h: float
    h_group: int
    gini: float


def group_metrics(group: Group) -> GroupMetrics:
    """All per-group metrics in one pass; raises on all-zero groups."""
    mean, stderr = group_summary(group)
    return GroupMetrics(
        n=len(group.members),
        mean_h=mean,
        stderr_h=stderr,
        h_group=h_group(group),
        gini=gini(group),
    )
