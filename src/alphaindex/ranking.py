"""Cross-group comparison: Monte Carlo relative h-group and alpha weights.

Groups of different sizes are made comparable by repeatedly drawing subsets
of the smallest group's size from each group's h-index multiset and averaging
the subset h-indexes ("relative h-group").  Each group's quality weight
(alpha) is its relative h-group divided by its concentration coefficient,
floored at :data:`GINI_FLOOR`, normalized so the weights sum to 1:
homogeneous groups are amplified, top-heavy ones damped; an all-zero score
total raises ``ValueError``.

Determinism: each group is sampled on a stream keyed by the seed and its
id, over its sorted h-values, so reordering rows, groups or members changes
no output byte, and neither does evaluation order or kernel batching.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Iterable, Sequence
from dataclasses import asdict, dataclass

from . import _kernels
from .errors import SampleTooLargeError, TooFewGroupsError
from .metrics import gini, h_group, h_index
from .model import MAX_COUNT, Group

_MAX_SEED = 2**64 - 1

# Concentration coefficients below this are raised to it before dividing, so a
# perfectly homogeneous group (coefficient 0) gets a large but finite score.
GINI_FLOOR = 1e-3


def relative_h_group(
    target: Group,
    sample_size: int,
    n_samples: int = 1000,
    seed: int = 0,
) -> float:
    """Mean h-index of random fixed-size subsets of the target's members.

    Subsets are drawn uniformly without replacement from the member h-index
    multiset, on the stream keyed by ``seed`` and the target's id over the
    sorted h-values, so member order and other groups do not matter.  With
    ``sample_size`` equal to the group size the result is the group's
    absolute h-group exactly, for any stream.
    """
    if not 0 <= seed <= _MAX_SEED:  # the kernel could not tell it from another seed
        raise ValueError("seed must fit in 64 unsigned bits")
    hs = sorted(target.h_values())
    if sample_size < 1:
        raise ValueError(f"sample_size must be positive, got {sample_size}")
    if sample_size > len(hs):
        raise SampleTooLargeError(
            f"sample_size {sample_size} exceeds group {target.id!r} size {len(hs)}"
        )
    if sample_size == len(hs) and n_samples >= 1:  # the kernel refuses n_samples < 1
        # every subset is the whole group, so the kernel would sum h * n_samples
        return float(h_index(hs))
    # surrogatepass encodes every str, so no id can make the key raise
    digest = hashlib.blake2b(target.id.encode("utf-8", "surrogatepass"), digest_size=8).digest()
    key = int.from_bytes(digest, "little")
    return _kernels.subset_hindex_sum(hs, sample_size, n_samples, seed, key) / n_samples


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
                "gini_floor": GINI_FLOOR,
                "floored_group_ids": list(self.floored_group_ids),
            },
        }


def rank(groups: Sequence[Group], n_samples: int = 1000, seed: int = 0) -> RankingReport:
    """Rank two or more groups by alpha weight.

    Steps: (1) the smallest group is the reference (ties broken by
    lexicographic group id); (2) each group's relative h-group is estimated
    from ``n_samples`` subsets of the reference's size, on the stream keyed
    by ``seed`` and the group's id; (3) alpha weights are relative
    h-group over gini floored at :data:`GINI_FLOOR`, normalized to sum to 1.
    The reference is sampled whole, so its relative h-group is its h-group,
    at least 1 for a group :func:`gini` accepts, and the weights are always
    defined.  Rows are sorted by descending alpha, ties broken by group id,
    and floored ids are sorted, so the order of the input changes nothing.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be positive, got {n_samples}")
    groups = list(groups)
    if len(groups) < 2:
        raise TooFewGroupsError(f"ranking needs at least 2 groups, got {len(groups)}")
    ids = [g.id for g in groups]
    if len(set(ids)) != len(ids):
        raise ValueError("group ids must be unique for ranking")

    reference = min(groups, key=lambda g: (len(g.members), g.id))
    size = len(reference.members)
    ginis = [gini(g) for g in groups]  # raises DegenerateGroupError with the group named
    relatives = [relative_h_group(g, size, n_samples, seed) for g in groups]
    absolutes = [h_group(g) for g in groups]
    return _weigh(ids, ginis, absolutes, relatives, (reference.id, size, seed, n_samples))


def rank_from_precomputed(rows: Iterable[tuple[str, float, float]]) -> RankingReport:
    """Alpha weights from precomputed (group_id, relative h-group, gini) rows.

    Applies only the normalization step, which lets published summary tables
    be re-weighted without the raw member data.  A relative h-group must be
    a number in [0, 10**50], the model's count ceiling, so no score sum
    overflows, and a Gini value must be finite.  Gini values below
    :data:`GINI_FLOOR`, zero and negative ones included, are clamped to it.
    """
    rows = list(rows)
    if not rows:
        raise TooFewGroupsError("no rows to rank")
    ids = [gid for gid, _, _ in rows]
    if len(set(ids)) != len(ids):
        raise ValueError("group ids must be unique for ranking")
    relatives = [float(rel) for _, rel, _ in rows]
    if not all(0 <= rel <= MAX_COUNT for rel in relatives):  # false for nan too
        raise ValueError("relative h-group values must be finite and in [0, 10**50]")
    ginis = [float(gv) for _, _, gv in rows]
    if not all(map(math.isfinite, ginis)):
        raise ValueError("gini values must be finite")
    return _weigh(ids, ginis, [None] * len(ids), relatives, (None,) * 4)


def _weigh(ids, ginis, absolutes, relatives, provenance) -> RankingReport:
    """The ranked report; ``provenance`` is (reference id, reference size, seed, samples)."""
    scores = [rel / max(gv, GINI_FLOOR) for rel, gv in zip(relatives, ginis)]
    total = math.fsum(scores)
    if total == 0:
        raise ValueError("all scores are zero; alpha weights are undefined")
    alphas = [s / total for s in scores]
    order = sorted(range(len(ids)), key=lambda i: (-alphas[i], ids[i]))
    rows = tuple(
        RankingRow(ids[i], ginis[i], absolutes[i], relatives[i], alphas[i], pos)
        for pos, i in enumerate(order, start=1)
    )
    floored = tuple(sorted(gid for gid, gv in zip(ids, ginis) if gv < GINI_FLOOR))
    return RankingReport(rows, *provenance, floored)
