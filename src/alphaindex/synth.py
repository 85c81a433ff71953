"""Deterministic synthetic populations for demos and fit-recovery tests.

The inverse incomplete gamma function comes from ``scipy.special``, imported
on the first draw, so importing this module loads no scipy.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .model import Group, ResearcherProfile


@dataclass(frozen=True)
class StretchedExpParams:
    """Shape and scale of a stretched-exponential citation distribution.

    The density is proportional to ``exp(-(x/scale)**beta)`` on x > 0; its
    CDF is the regularized lower incomplete gamma ``P(1/beta, (x/scale)**beta)``.
    """

    beta: float
    scale: float = 1.0

    def __post_init__(self):
        for name, value in (("beta", self.beta), ("scale", self.scale)):
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")


def sample_stretched_exp(
    params: StretchedExpParams,
    n: int,
    rng: np.random.Generator,
    round_to_int: bool = False,
) -> np.ndarray:
    """Inverse-CDF draws from the density ``~ exp(-(x/scale)**beta)``:

        x = scale * Pinv(1/beta, U)^(1/beta),  U uniform on (0, 1),

    with ``Pinv`` the inverse regularized lower incomplete gamma.  At
    beta = 1 this reduces to the exponential draw ``-scale * ln(1 - U)``.

    Identical ``(params, n, seed)`` produce bit-identical samples.  With
    ``round_to_int`` the draws are rounded to integers so they can feed
    h-index-based metrics, which expect integer values.  ``ValueError`` is
    raised when extreme parameters push a draw out of the positive doubles
    (to infinity for tiny beta, to 0 for huge beta), or a rounded draw past
    the 64-bit integers.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    from scipy.special import gammaincinv

    # clip away an exact 0 so every draw is strictly positive
    u = np.clip(rng.random(n), np.finfo(float).tiny, None)
    with np.errstate(all="ignore"):
        x = params.scale * gammaincinv(1.0 / params.beta, u) ** (1.0 / params.beta)
    if not np.all(np.isfinite(x) & (x > 0)):
        raise ValueError(
            f"beta={params.beta} with scale={params.scale} gives draws that are "
            "not finite positive doubles"
        )
    if round_to_int:
        x = np.rint(x)
        # the int64 cast would wrap these to negative counts
        if x.max() >= 2.0**63:
            raise ValueError(
                f"beta={params.beta} with scale={params.scale} gives rounded draws of "
                "2**63 or more, past the 64-bit integers"
            )
        return x.astype(int)
    return x


def synth_group(group_id: str, member_hs: Sequence[int]) -> Group:
    """Group whose members carry the given h-indexes and no per-paper data.

    Its label is its id, and it has no quality tag.
    """
    members = tuple(
        ResearcherProfile(id=f"{group_id}-m{i:03d}", h_index=h)
        for i, h in enumerate(member_hs, start=1)
    )
    return Group(group_id, members)
