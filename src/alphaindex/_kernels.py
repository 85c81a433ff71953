"""Subset-sampling kernel.

The hot loop of group ranking draws many fixed-size subsets from a group's
h-index multiset and accumulates the h-index of each subset.  This module
does it with numpy, vectorized over samples, under a sampling contract that
fixes every result bit for bit:

* per-sample states are derived from ``(seed, key, j)`` with splitmix64
  mixing, making every sample independent of evaluation order;
* draw ``t`` of a sample is ``t + mix(state) % (n - t)``, the bounded
  reduction of a partial Fisher-Yates pass, and every sample starts from
  the identity permutation;
* the per-subset h-index is accumulated as an exact integer sum.

The pure-Python loop that states the contract one sample at a time lives in
``tests/subset_reference.py``, and the tests compare this kernel against it.

Cost: the values are clipped at the subset size s, so the partial
Fisher-Yates pass swaps values, not member indexes.  Each sample owns ``n``
value cells of a position-major pool typed ``np.min_scalar_type(s)`` (one
byte for s up to 255), and each of the s steps reads and writes one cell
per sample, so a call allocates about ``n_samples * n`` narrow cells and
touches ``2 * n_samples * s`` of them; the other stages are a pass or two
each over an ``(s, n_samples)`` array, the h-index sort in 32 bits.  Filling
the pool is cheap for committee and board sizes (tens to hundreds of
members) and becomes the dominant cost for groups of tens of thousands.
"""

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_U_GOLDEN = np.uint64(_GOLDEN)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_S30, _S27, _S31 = np.uint64(30), np.uint64(27), np.uint64(31)

# Samples are processed in chunks whose value pool has at most this many
# cells, which bounds the kernel's memory whatever the group size.
_MAX_CELLS = 1 << 20


def backend_name() -> str:
    """Name of the kernel implementation, reported in provenance."""
    return "numpy"


def _mix(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, in place on a uint64 array (arithmetic wraps)."""
    z ^= z >> _S30
    z *= _M1
    z ^= z >> _S27
    z *= _M2
    z ^= z >> _S31
    return z


def subset_hindex_sum(
    values, sample_size: int, n_samples: int, seed: int, key: int
) -> int:
    """Sum of h-indexes over ``n_samples`` random subsets of ``values``.

    Each subset has ``sample_size`` elements drawn without replacement.
    ``seed`` and ``key`` select the deterministic stream; sample ``j`` uses
    a state derived from ``(seed, key, j)`` only.

    The arguments are not checked.  The one caller,
    :func:`alphaindex.ranking.relative_h_group`, passes plain ints only:
    ``values`` a list of non-negative ones, ``1 <= sample_size <=
    len(values)``, ``n_samples >= 1``, and ``seed`` and ``key`` in
    ``[0, 2**64)``.
    """
    n = len(values)
    s = sample_size

    # A subset's h-index never exceeds s, so values are clipped at s here, in
    # Python ints, and then held in the narrowest unsigned type that holds s:
    # the swap pass moves them through memory, so a narrow pool is a fast one.
    pool_dtype = np.min_scalar_type(s)
    vals = np.array([v if v < s else s for v in values], dtype=pool_dtype)
    base = _mix(np.array([(seed + (key + 1) * _GOLDEN) & _MASK64], dtype=np.uint64))
    # state offset of draw t within its sample: (t + 1) * GOLDEN, wrapping
    step_offsets = np.arange(1, s + 1, dtype=np.uint64) * _U_GOLDEN
    bounds = np.arange(n, n - s, -1, dtype=np.uint64)
    ranks = np.arange(s, 0, -1, dtype=np.promote_types(pool_dtype, np.uint32))
    chunk = max(1, _MAX_CELLS // n)
    total = 0
    for j0 in range(0, n_samples, chunk):
        m = min(chunk, n_samples - j0)
        state = np.arange(j0 + 1, j0 + m + 1, dtype=np.uint64) * _U_GOLDEN
        state += base
        state = _mix(state)
        # row t, column j: mix(state_j + (t + 1) * GOLDEN) % (n - t); draw t adds t
        draws = _mix(step_offsets[:, None] + state[None, :])
        draws %= bounds[:, None]
        # position-major pool: cell p * m + j holds position p of sample j, and
        # draw t of sample j swaps cell t * m + j (row t of the pool) with cell
        # draw * m + t * m + j, built in place on the draws since draw < n
        cells = draws.view(np.int64)
        cells *= m
        cells += np.arange(s * m, dtype=np.int64).reshape(s, m)
        pool = np.repeat(vals, m)
        rows = pool.reshape(n, m)
        # partial Fisher-Yates on every sample at once; position t is never
        # read again after step t, so only the swapped-out cell is written
        chosen = np.empty((s, m), dtype=pool_dtype)
        for t in range(s):
            there = cells[t]
            chosen[t] = pool[there]
            pool[there] = rows[t]
        # h-index per sample: ascending sort in 32 bits (64 past 2**32 - 1 only),
        # then count the values >= their descending rank, s, s - 1, ..., 1
        subset = chosen.T.astype(ranks.dtype)
        subset.sort(axis=1)
        total += int(np.count_nonzero(subset >= ranks))
    return total
