"""Subset-sampling kernel: parity with the reference loop and stream structure."""

import json
import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
import subset_reference

from alphaindex import _kernels
from alphaindex.cli import main
from alphaindex.metrics import h_index
from alphaindex.ranking import rank
from alphaindex.synth import synth_group


def _random_case(rng, max_n):
    n = int(rng.integers(1, max_n + 1))
    vals = [int(v) for v in rng.integers(0, 80, size=n)]
    s = int(rng.integers(1, n + 1))
    seed = int(rng.integers(0, 2**64, dtype=np.uint64))
    key = int(rng.integers(0, 16))
    return vals, s, seed, key


def test_matches_reference_loop(rng):
    for _ in range(150):
        vals, s, seed, key = _random_case(rng, 400)
        m = int(rng.integers(1, 40))
        assert _kernels.subset_hindex_sum(vals, s, m, seed, key) == \
            subset_reference.subset_hindex_sum(vals, s, m, seed, key)


def test_chunking_does_not_change_the_sum(rng, monkeypatch):
    # chunks of 1-7 samples, so 5-60 samples cross one or more boundaries
    for _ in range(100):
        vals, s, seed, key = _random_case(rng, 400)
        m = int(rng.integers(5, 61))
        monkeypatch.setattr(_kernels, "_MAX_CELLS", len(vals) * int(rng.integers(1, 8)))
        assert _kernels.subset_hindex_sum(vals, s, m, seed, key) == \
            subset_reference.subset_hindex_sum(vals, s, m, seed, key)


def test_crosses_the_default_chunk_boundary(rng):
    vals = [int(v) for v in rng.integers(0, 30, size=400)]
    m = _kernels._MAX_CELLS // 400 + 7
    assert _kernels.subset_hindex_sum(vals, 20, m, 2**64 - 1, 5) == \
        subset_reference.subset_hindex_sum(vals, 20, m, 2**64 - 1, 5)


@pytest.mark.parametrize("n, s", [
    (300, 260), (130, 127), (131, 128), (257, 255), (258, 256),
    (32770, 32767), (32771, 32768), (65537, 65535), (65538, 65536),
])
def test_pool_types(rng, n, s):
    # s = 260 is past any 8-bit pool; the others pair the largest s of a
    # pool type with the smallest of the next, for unsigned pools (255 and
    # 65535) and signed ones (127 and 32767), with values past s to be clipped
    vals = [int(v) for v in rng.integers(0, s * 3 // 2, size=n)]
    assert _kernels.subset_hindex_sum(vals, s, 3, 77, 1) == \
        subset_reference.subset_hindex_sum(vals, s, 3, 77, 1)


def test_whole_group_subsets_across_forced_chunks(rng, monkeypatch):
    # s = n: every sample is the whole group, and its last draw has one choice
    vals = [int(v) for v in rng.integers(0, 60, size=50)]
    monkeypatch.setattr(_kernels, "_MAX_CELLS", 50 * 3)
    assert _kernels.subset_hindex_sum(vals, 50, 20, 9, 4) == \
        subset_reference.subset_hindex_sum(vals, 50, 20, 9, 4)


def test_members_at_and_above_the_sample_size():
    # h exactly s and h far above s both enter the pool as s
    s = 6
    vals = [s, s, s + 1, 10**6, 2**63, 3, 2, 1, 0, s]
    assert _kernels.subset_hindex_sum(vals, s, 300, 2**64 - 1, 3) == \
        subset_reference.subset_hindex_sum(vals, s, 300, 2**64 - 1, 3)


def test_prefix_sum_consistency():
    # sample j depends only on (seed, key, j): totals are prefix sums
    vals = [9, 4, 4, 2, 1, 0, 7]
    totals = [_kernels.subset_hindex_sum(vals, 3, m, 12345, 2) for m in range(1, 30)]
    singles = np.diff([0] + totals)
    assert np.all(singles >= 0)
    assert np.all(singles <= 3)
    # recomputing any prefix reproduces the same partial totals
    assert _kernels.subset_hindex_sum(vals, 3, 10, 12345, 2) == totals[9]


def test_streams_differ_by_seed_and_key():
    vals = list(range(20))
    base = _kernels.subset_hindex_sum(vals, 5, 200, 1, 0)
    assert _kernels.subset_hindex_sum(vals, 5, 200, 2, 0) != base or \
        _kernels.subset_hindex_sum(vals, 5, 200, 3, 0) != base
    assert _kernels.subset_hindex_sum(vals, 5, 200, 1, 1) != base or \
        _kernels.subset_hindex_sum(vals, 5, 200, 1, 2) != base


def test_deterministic():
    vals = [3, 1, 4, 1, 5, 9, 2, 6]
    args = (vals, 4, 1000, 987654321, 7)
    assert _kernels.subset_hindex_sum(*args) == _kernels.subset_hindex_sum(*args)


def test_full_size_subset_is_exact():
    # the only subset of size n is the whole multiset
    vals = [7, 3, 3, 1]
    for seed in (0, 1, 99):
        total = _kernels.subset_hindex_sum(vals, 4, 50, seed, 0)
        assert total == 50 * 3  # h-index of [7,3,3,1] is 3


@pytest.mark.parametrize("impl", [subset_reference])
def test_input_validation(impl):
    with pytest.raises(ValueError):
        impl.subset_hindex_sum([1, 2], 3, 10, 0, 0)
    with pytest.raises(ValueError):
        impl.subset_hindex_sum([1, 2], 0, 10, 0, 0)
    with pytest.raises(ValueError):
        impl.subset_hindex_sum([1, 2], 1, 0, 0, 0)
    with pytest.raises(ValueError):
        impl.subset_hindex_sum([1, -2], 1, 5, 0, 0)


def test_uniformity_sanity():
    # mean over many samples approaches the exhaustive-enumeration mean
    from itertools import combinations

    from alphaindex.metrics import h_index

    vals = [6, 5, 2, 2, 1]
    exact = np.mean([h_index(c) for c in combinations(vals, 3)])
    total = _kernels.subset_hindex_sum(vals, 3, 200_000, 31337, 0)
    assert total / 200_000 == pytest.approx(exact, abs=0.02)


class TestExactMoments:
    """The Monte Carlo kernel against the exact moments of a subset's h-index."""

    @staticmethod
    def enumerated(vals, s):
        hs = [h_index(sub) for sub in combinations(vals, s)]
        return Fraction(sum(hs), len(hs)), Fraction(sum(h * h for h in hs), len(hs))

    def test_oracle_matches_enumeration(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 9))
            vals = [int(v) for v in rng.integers(0, 10, size=n)]
            s = int(rng.integers(1, n + 1))
            assert subset_reference.hindex_moments_exact(vals, s) == self.enumerated(vals, s)

    @pytest.mark.parametrize("n", [20, 57, 150, 400])
    def test_kernel_mean_within_six_standard_errors(self, rng, n):
        n_samples = 2000
        vals = [int(v) for v in rng.integers(0, 3 * n // 4, size=n)]
        for s in (1, 4, n // 3, n):
            mean, square = subset_reference.hindex_moments_exact(vals, s)
            total = _kernels.subset_hindex_sum(vals, s, n_samples, int(rng.integers(0, 2**62)), s)
            var = square - mean * mean
            assert var >= 0 and (s < n or var == 0)
            if var == 0:  # every subset has the same h-index, as at s = n
                assert Fraction(total, n_samples) == mean
            else:
                z = (total / n_samples - float(mean)) / math.sqrt(var / n_samples)
                assert abs(z) <= 6.0, (n, s, total / n_samples, float(mean))


class TestHugeHIndex:
    """A member h far beyond int64 samples exactly like one at the subset size."""

    SMALL = [4, 1, 2]  # reference group: subsets have s = 3 members

    def groups(self, top):
        return [synth_group("big", [top, 5, 3, 2, 1, 0]), synth_group("small", self.SMALL)]

    def test_kernel(self):
        huge = [10**23, 5, 3, 2, 1, 0]
        clipped = [3, 3, 3, 2, 1, 0]
        assert _kernels.subset_hindex_sum(huge, 3, 500, 8, 0) == \
            _kernels.subset_hindex_sum(clipped, 3, 500, 8, 0)

    def test_rank(self):
        huge = {r.group_id: r for r in rank(self.groups(10**23), n_samples=500, seed=8).rows}
        at_s = {r.group_id: r for r in rank(self.groups(3), n_samples=500, seed=8).rows}
        assert huge.keys() == at_s.keys()
        for gid, row in huge.items():
            assert row.relative_h_group == at_s[gid].relative_h_group

    def test_cli(self, tmp_path, capsys):
        def run(top):
            path = tmp_path / f"top{top}.csv"
            rows = [f"big,b{i},{h}," for i, h in enumerate([top, 5, 3, 2, 1, 0])]
            rows += [f"small,s{i},{h}," for i, h in enumerate(self.SMALL)]
            path.write_text(
                "group_id,researcher_id,h_index,total_citations\n" + "\n".join(rows) + "\n",
                encoding="utf-8",
            )
            code = main(["rank", str(path), "--samples", "500", "--seed", "8",
                         "--format", "json", "--quiet"])
            out = capsys.readouterr().out
            assert code == 0
            return {r["group_id"]: r["relative_h_group"] for r in json.loads(out)["rows"]}

        assert run(10**23) == run(3)
