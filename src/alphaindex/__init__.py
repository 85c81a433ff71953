"""Rank researcher groups by the alpha-index.

The alpha-index weighs a group's Monte Carlo size-normalized h-index
("relative h-group") by the homogeneity of its members' h-indexes: the
relative h-group is divided by the group's Gini coefficient (floored at a
small positive value), and the weights are normalized to sum to 1, giving
comparable quality weights for committees or boards of different sizes.
Supporting statistics for citation and h-index distributions live in
:mod:`alphaindex.distribution`.

Importing the package loads no numpy.  The names from ``distribution``,
``ranking`` and ``synth``, the modules that use numpy, are served on first
access (PEP 562), so the commands that compute nothing numerical
(``validate``, ``metrics``, ``lorenz``, ``psi``) never load it.
"""

import importlib

from .errors import (
    AlphaIndexError,
    BinSpecError,
    DegenerateGroupError,
    FitDivergedError,
    InsufficientDataError,
    SampleSizeError,
    SampleTooLargeError,
    TooFewGroupsError,
    ZeroVarianceError,
)
from .ingest import (
    IngestReport,
    read_dataset,
    read_dataset_file,
    read_long_form,
    read_summary_form,
    write_dataset,
)
from .metrics import (
    GroupMetrics,
    LorenzCurve,
    gini,
    group_metrics,
    group_summary,
    h_group,
    h_index,
    lorenz_curve,
    psi_curve,
)
from .model import Dataset, Group, ResearcherProfile, Violation, validate

# public name -> the submodule that defines it, imported on first access
_LAZY = {
    **dict.fromkeys(
        (
            "GiddingsFit",
            "Histogram",
            "NormalityReport",
            "PowerLawFit",
            "StretchedExpFit",
            "bessel_i1",
            "build_histogram",
            "empirical_moment_ratio",
            "fit_beta",
            "fit_giddings",
            "giddings_eval",
            "kurtosis",
            "power_law_slope",
            "shapiro_wilk",
            "skewness",
            "theoretical_moment_ratio",
        ),
        "distribution",
    ),
    **dict.fromkeys(
        ("RankingReport", "RankingRow", "rank", "rank_from_precomputed", "relative_h_group"),
        "ranking",
    ),
    **dict.fromkeys(("StretchedExpParams", "sample_stretched_exp", "synth_group"), "synth"),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"

__all__ = [
    "AlphaIndexError",
    "BinSpecError",
    "Dataset",
    "DegenerateGroupError",
    "FitDivergedError",
    "GiddingsFit",
    "Group",
    "GroupMetrics",
    "Histogram",
    "IngestReport",
    "InsufficientDataError",
    "LorenzCurve",
    "NormalityReport",
    "PowerLawFit",
    "RankingReport",
    "RankingRow",
    "ResearcherProfile",
    "SampleSizeError",
    "SampleTooLargeError",
    "StretchedExpFit",
    "StretchedExpParams",
    "TooFewGroupsError",
    "Violation",
    "ZeroVarianceError",
    "bessel_i1",
    "build_histogram",
    "empirical_moment_ratio",
    "fit_beta",
    "fit_giddings",
    "giddings_eval",
    "gini",
    "group_metrics",
    "group_summary",
    "h_group",
    "h_index",
    "kurtosis",
    "lorenz_curve",
    "power_law_slope",
    "psi_curve",
    "rank",
    "rank_from_precomputed",
    "read_dataset",
    "read_dataset_file",
    "read_long_form",
    "read_summary_form",
    "relative_h_group",
    "sample_stretched_exp",
    "shapiro_wilk",
    "skewness",
    "synth_group",
    "theoretical_moment_ratio",
    "validate",
    "write_dataset",
]
