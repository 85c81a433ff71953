"""Cross-group comparison: Monte Carlo relative h-group and alpha weights.

Groups of different sizes are made comparable by repeatedly drawing subsets
of the smallest group's size from each group's h-index multiset and averaging
the subset h-indexes ("relative h-group").  Each group's quality weight
(alpha) is its relative h-group divided by its concentration coefficient,
normalized so the weights sum to 1: homogeneous groups are amplified,
top-heavy ones damped; an all-zero score total raises ``ValueError``.

Determinism: every sample draws from a stream derived from
``(seed, group position, sample index)``, so reports are bit-identical for
identical inputs regardless of evaluation order, parallelism, or how the
sampling kernel batches the samples.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import asdict, dataclass

from . import _kernels
from .errors import SampleTooLargeError, TooFewGroupsError
from .metrics import gini, h_group
from .model import Group

_MAX_SEED = 2**64 - 1


@dataclass(frozen=True)
class RankingConfig:
    """Knobs for :func:`rank`.

    ``reference_size`` overrides the default subset size (the smallest
    group's size).  ``gini_floor`` keeps the amplifier finite for perfectly
    homogeneous groups, whose concentration coefficient is 0.
    """

    n_samples: int = 1000
    seed: int = 0
    reference_size: int | None = None
    gini_floor: float = 1e-3

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be positive, got {self.n_samples}")
        if not 0 <= self.seed <= _MAX_SEED:
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.reference_size is not None and self.reference_size < 1:
            raise ValueError(f"reference_size must be positive, got {self.reference_size}")
        if not 0 < self.gini_floor < math.inf:
            raise ValueError(f"gini_floor must be positive and finite, got {self.gini_floor}")


@dataclass(frozen=True)
class SubsetStream:
    """Identity of a deterministic sampling stream."""

    seed: int
    key: int = 0

    def __post_init__(self):
        if not 0 <= self.seed <= _MAX_SEED:
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.key < 0:
            raise ValueError("key must be non-negative")


def relative_h_group(
    target: Group,
    sample_size: int,
    n_samples: int = 1000,
    stream: SubsetStream | int = 0,
) -> float:
    """Mean h-index of random fixed-size subsets of the target's members.

    Subsets are drawn uniformly without replacement from the member h-index
    multiset.  With ``sample_size`` equal to the group size the result is the
    group's absolute h-group exactly, for any stream.
    """
    if isinstance(stream, int):
        stream = SubsetStream(stream)
    hs = target.h_values()
    if sample_size < 1:
        raise ValueError(f"sample_size must be positive, got {sample_size}")
    if sample_size > len(hs):
        raise SampleTooLargeError(
            f"sample_size {sample_size} exceeds group {target.id!r} size {len(hs)}"
        )
    total = _kernels.subset_hindex_sum(hs, sample_size, n_samples, stream.seed, stream.key)
    return total / n_samples


@dataclass(frozen=True)
class RankingRow:
    """One group's entry in a ranking report.

    ``h_group`` is None when the report was built from precomputed
    (relative h-group, gini) pairs rather than raw member data.
    """

    group_id: str
    gini: float
    h_group: int | None
    relative_h_group: float
    alpha: float
    rank: int


@dataclass(frozen=True)
class RankingReport:
    """Ranked groups plus the provenance needed to reproduce the run."""

    rows: tuple[RankingRow, ...]
    reference_group_id: str | None
    reference_size: int | None
    seed: int | None
    n_samples: int | None
    gini_floor: float
    floored_group_ids: tuple[str, ...]

    def as_dict(self) -> dict:
        """JSON-ready representation."""
        return {
            "rows": [asdict(r) for r in self.rows],
            "provenance": {
                "reference_group_id": self.reference_group_id,
                "reference_size": self.reference_size,
                "seed": self.seed,
                "n_samples": self.n_samples,
                "gini_floor": self.gini_floor,
                "floored_group_ids": list(self.floored_group_ids),
            },
        }


def rank(groups: Sequence[Group], config: RankingConfig = RankingConfig()) -> RankingReport:
    """Rank two or more groups by alpha weight.

    Steps: (1) the smallest group is the reference (ties broken by
    lexicographic group id); (2) each group's relative h-group is estimated
    at the reference size on its own deterministic stream; (3) alpha weights
    are relative h-group over floored gini, normalized to sum to 1
    (``ValueError`` if they are all 0).  Rows are sorted by descending
    alpha, ties broken by group id.
    """
    groups = list(groups)
    if len(groups) < 2:
        raise TooFewGroupsError(f"ranking needs at least 2 groups, got {len(groups)}")
    ids = [g.id for g in groups]
    if len(set(ids)) != len(ids):
        raise ValueError("group ids must be unique for ranking")

    reference = min(groups, key=lambda g: (len(g.members), g.id))
    smallest = len(reference.members)
    ref_size = smallest if config.reference_size is None else config.reference_size
    if ref_size > smallest:
        raise SampleTooLargeError(
            f"reference size {ref_size} exceeds the smallest group size {smallest}"
        )

    ginis = [gini(g) for g in groups]  # raises DegenerateGroupError with the group named
    relatives = [
        relative_h_group(g, ref_size, config.n_samples, SubsetStream(config.seed, pos))
        for pos, g in enumerate(groups)
    ]
    absolutes = [h_group(g) for g in groups]
    provenance = (reference.id, ref_size, config.seed, config.n_samples)
    return _weigh(ids, ginis, absolutes, relatives, config.gini_floor, provenance)


def rank_from_precomputed(
    rows: Iterable[tuple[str, float, float]],
    gini_floor: float = 1e-3,
) -> RankingReport:
    """Alpha weights from precomputed (group_id, relative h-group, gini) rows.

    Applies only the normalization step, which lets published summary tables
    be re-weighted without the raw member data.  Non-positive gini values are
    clamped to ``gini_floor``, never rejected.
    """
    rows = list(rows)
    if not rows:
        raise TooFewGroupsError("no rows to rank")
    ids = [gid for gid, _, _ in rows]
    if len(set(ids)) != len(ids):
        raise ValueError("group ids must be unique for ranking")
    relatives = [float(rel) for _, rel, _ in rows]
    if any(rel < 0 for rel in relatives):
        raise ValueError("relative h-group values must be non-negative")
    ginis = [float(gv) for _, _, gv in rows]
    return _weigh(ids, ginis, [None] * len(ids), relatives, gini_floor, (None,) * 4)


def _weigh(ids, ginis, absolutes, relatives, gini_floor, provenance) -> RankingReport:
    """The ranked report; ``provenance`` is (reference id, reference size, seed, samples)."""
    scores = [rel / max(gv, gini_floor) for rel, gv in zip(relatives, ginis)]
    total = sum(scores)
    if total == 0:
        raise ValueError("all scores are zero; alpha weights are undefined")
    alphas = [s / total for s in scores]
    order = sorted(range(len(ids)), key=lambda i: (-alphas[i], ids[i]))
    rows = tuple(
        RankingRow(ids[i], ginis[i], absolutes[i], relatives[i], alphas[i], pos)
        for pos, i in enumerate(order, start=1)
    )
    floored = tuple(gid for gid, gv in zip(ids, ginis) if gv < gini_floor)
    return RankingReport(rows, *provenance, gini_floor, floored)
