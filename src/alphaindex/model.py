"""Domain model: researcher profiles, groups, datasets, and validation.

A profile is a named tuple, since readers build one per row; the other
types are frozen dataclasses.  All are immutable after construction and
therefore safe to share across threads.  Construction enforces only
structural sanity (integer, non-negative counts, non-empty groups);
cross-field consistency is checked by :func:`validate`, which reports
violations as data rather than raising.
"""

from __future__ import annotations

import functools
import operator
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

from .metrics import h_index

#: Ceiling on every count: ``h_index``, ``total_citations`` and per-paper
#: citations.  Below it the squares and fourth powers of deviations
#: (variance, kurtosis) stay finite.  Moment ratios are taken in log space
#: and are refused by name only when R_k itself leaves the double range: one
#: total at the ceiling among eleven small ones is refused at k = 300.
MAX_COUNT = 10**50


class _ProfileFields(NamedTuple):
    id: str
    h_index: int
    total_citations: int | None = None
    paper_citations: tuple[int, ...] | None = None


class ResearcherProfile(_ProfileFields):
    """One group member, as a named tuple of four fields checked on construction.

    ``paper_citations`` (citations per paper) is optional: public datasets
    often publish only the summary fields.  When it is present, ``h_index``
    and ``total_citations`` are expected to be consistent with it, which
    :func:`validate` checks.  Every count must be an integer: numpy integers
    are stored as ``int``, and a float or string raises ``TypeError`` naming
    the field.

    Being a tuple, a profile compares equal to the tuple of its fields, can
    be unpacked, and has ``_fields`` and ``_asdict``.  Its fields cannot be
    assigned, and ``_replace``, ``_make``, ``copy`` and ``pickle`` all build
    through the checks here.
    """

    __slots__ = ()

    def __new__(cls, id: str, h_index: int, total_citations: int | None = None,
                paper_citations: tuple[int, ...] | None = None):
        h, total, papers = h_index, total_citations, paper_citations
        if not id:
            raise ValueError("researcher id must be non-empty")
        # plain ints pass as they are; anything else goes through
        # operator.index, which takes numpy integers and refuses floats and
        # strings (int() would truncate or parse them)
        if type(h) is not int or (total is not None and type(total) is not int):
            h = _count(h, id, "h_index")
            total = None if total is None else _count(total, id, "total_citations")
        if h < 0:
            raise ValueError(f"{id}: h_index must be non-negative")
        if total is not None and total < 0:
            raise ValueError(f"{id}: total_citations must be non-negative")
        if h > MAX_COUNT or (total or 0) > MAX_COUNT:
            raise ValueError(f"{id}: counts must not exceed 10**50")
        if papers is not None:
            try:
                papers = tuple(map(operator.index, papers))
            except TypeError:
                raise TypeError(
                    f"{id}: paper_citations must be integers, got {paper_citations!r}"
                ) from None
            if min(papers, default=0) < 0:
                raise ValueError(f"{id}: paper citation counts must be non-negative")
            if max(papers, default=0) > MAX_COUNT:
                raise ValueError(f"{id}: counts must not exceed 10**50")
        return tuple.__new__(cls, (id, h, total, papers))

    @classmethod
    def _make(cls, iterable) -> ResearcherProfile:
        # the inherited _make, which _replace calls, skips __new__
        return cls(*iterable)


# A profile from the tuple (id, h_index, total_citations, paper_citations),
# built without the checks of ResearcherProfile.__new__.  The caller must
# already have checked that the id is a str that is not blank, that each
# count is a plain int in [0, MAX_COUNT], and that paper_citations is None
# or a tuple of such ints.
_checked_profile = functools.partial(tuple.__new__, ResearcherProfile)
_h_index_of = operator.attrgetter("h_index")  # the field getter of Group.h_values


def _count(value, rid: str, name: str) -> int:
    """``value`` as a plain ``int``; a ``TypeError`` naming the field if it is no integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{rid}: {name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class Group:
    """A named committee or board.  Must have at least one member."""

    id: str
    members: tuple[ResearcherProfile, ...]
    label: str | None = None
    quality_tag: str | None = None

    def __post_init__(self):
        if not self.id:
            raise ValueError("group id must be non-empty")
        members = tuple(self.members)
        if not members:
            raise ValueError(f"group {self.id!r} has no members")
        object.__setattr__(self, "members", members)
        if self.label is None:
            object.__setattr__(self, "label", self.id)

    def h_values(self) -> tuple[int, ...]:
        """Member h-indexes, in member order."""
        return tuple(map(_h_index_of, self.members))


@dataclass(frozen=True)
class Dataset:
    """A collection of groups to analyze together."""

    groups: tuple[Group, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "groups", tuple(self.groups))


@dataclass(frozen=True)
class Violation:
    """One invariant violation found by :func:`validate`."""

    group_id: str | None
    member_id: str | None
    reason: str

    def __str__(self) -> str:
        where = []
        if self.group_id is not None:
            where.append(f"group {self.group_id!r}")
        if self.member_id is not None:
            where.append(f"member {self.member_id!r}")
        prefix = ", ".join(where)
        return f"{prefix}: {self.reason}" if prefix else self.reason


def validate(dataset: Dataset) -> list[Violation]:
    """Check every cross-field invariant; empty result means the dataset is valid.

    The checks are order-insensitive: permuting groups or members yields the
    same violation multiset.
    """
    violations: list[Violation] = []

    group_ids = Counter(g.id for g in dataset.groups)
    for gid in sorted(gid for gid, cnt in group_ids.items() if cnt > 1):
        violations.append(
            Violation(gid, None, f"group id appears {group_ids[gid]} times; ids must be unique")
        )

    for group in dataset.groups:
        member_ids = Counter(m.id for m in group.members)
        for mid in sorted(mid for mid, cnt in member_ids.items() if cnt > 1):
            violations.append(
                Violation(
                    group.id,
                    mid,
                    f"member id appears {member_ids[mid]} times within the group",
                )
            )
        for member in group.members:
            violations.extend(
                Violation(group.id, member.id, reason) for reason in _profile_issues(member)
            )
    return violations


def _profile_issues(member: ResearcherProfile) -> list[str]:
    issues = []
    if member.paper_citations is not None:
        true_h = h_index(member.paper_citations)
        if member.h_index != true_h:
            issues.append(
                f"declared h_index {member.h_index} but per-paper citations give {true_h}"
            )
        true_total = sum(member.paper_citations)
        if member.total_citations != true_total:
            issues.append(
                f"declared total_citations {member.total_citations} but per-paper "
                f"citations sum to {true_total}"
            )
    if member.total_citations is not None and member.h_index > member.total_citations:
        issues.append(
            f"h_index {member.h_index} exceeds total_citations {member.total_citations}"
        )
    return issues
