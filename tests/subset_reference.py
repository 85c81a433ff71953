"""Reference subset-sampling kernel: the sampling contract as a plain loop.

One sample at a time, on 64-bit-masked Python integers, exactly as the
contract in ``alphaindex._kernels`` states it.  The tests compare the numpy
kernel against this loop, and its Monte Carlo mean against the exact moments
of :func:`hindex_moments_exact`; neither is used by the package.
"""

from fractions import Fraction
from math import comb

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    """splitmix64 finalizer."""
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


def subset_hindex_sum(
    values, sample_size: int, n_samples: int, seed: int, key: int
) -> int:
    """Sum of h-indexes over ``n_samples`` random subsets of ``values``.

    Each subset has ``sample_size`` elements drawn without replacement.
    ``seed`` and ``key`` select the deterministic stream; sample ``j`` uses
    a state derived from ``(seed, key, j)`` only.
    """
    vals = [int(v) for v in values]
    n = len(vals)
    if any(v < 0 for v in vals):
        raise ValueError("values must be non-negative")
    if not 1 <= sample_size <= n:
        raise ValueError(f"sample_size must be in [1, {n}], got {sample_size}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be positive, got {n_samples}")

    idx = list(range(n))
    swaps = [0] * sample_size
    base = _mix((seed + (key + 1) * _GOLDEN) & _MASK64)
    total = 0
    for j in range(n_samples):
        state = _mix((base + (j + 1) * _GOLDEN) & _MASK64)
        # partial Fisher-Yates: idx[0:sample_size] becomes the subset
        for t in range(sample_size):
            state = (state + _GOLDEN) & _MASK64
            r = t + _mix(state) % (n - t)
            idx[t], idx[r] = idx[r], idx[t]
            swaps[t] = r
        # h-index of the subset by counting, values clipped at sample_size
        counts = [0] * (sample_size + 1)
        for t in range(sample_size):
            v = vals[idx[t]]
            counts[v if v < sample_size else sample_size] += 1
        acc = 0
        for k in range(sample_size, 0, -1):
            acc += counts[k]
            if acc >= k:
                total += k
                break
        # undo the swaps so the next sample starts from the identity
        for t in range(sample_size - 1, -1, -1):
            r = swaps[t]
            idx[t], idx[r] = idx[r], idx[t]
    return total


def hindex_moments_exact(values, sample_size: int) -> tuple[Fraction, Fraction]:
    """E[H] and E[H^2] of the h-index H of a uniform ``sample_size``-subset.

    A subset has h-index >= k exactly when at least k of its members have
    h >= k.  With c_k = #{h >= k}, that count is hypergeometric, so

        E[H]   = sum_{k=1..s} P(Hypergeom(n, c_k, s) >= k)
        E[H^2] = sum_{k=1..s} (2k - 1) P(Hypergeom(n, c_k, s) >= k)

    summed here in integers over the common denominator C(n, s).
    """
    vals = [int(v) for v in values]
    n, s = len(vals), int(sample_size)
    if not 1 <= s <= n:
        raise ValueError(f"sample_size must be in [1, {n}], got {sample_size}")
    first = second = 0
    for k in range(1, s + 1):
        c = sum(1 for v in vals if v >= k)
        # subsets holding j >= k of the c members with h >= k
        js = range(max(k, s - n + c), min(c, s) + 1)
        tail = sum(comb(c, j) * comb(n - c, s - j) for j in js)
        first += tail
        second += (2 * k - 1) * tail
    total = comb(n, s)
    return Fraction(first, total), Fraction(second, total)
