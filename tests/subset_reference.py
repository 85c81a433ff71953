"""Reference subset-sampling kernel: the sampling contract as a plain loop.

One sample at a time, on 64-bit-masked Python integers, exactly as the
contract in ``alphaindex._kernels`` states it.  The tests compare the numpy
kernel against this loop; it is not used by the package.
"""

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
