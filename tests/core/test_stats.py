"""StreamingPercentiles: exact-mode equivalence with numpy, sketch-mode
error bounds, and the fold transition."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.stats import StreamingPercentiles

latencies = st.lists(
    st.floats(
        min_value=0.0,
        max_value=1e6,
        allow_nan=False,
        allow_infinity=False,
    ),
    max_size=200,
)

quantiles = st.floats(min_value=0.0, max_value=100.0)


class TestExactMode:
    @settings(max_examples=200, deadline=None)
    @given(values=latencies, q=quantiles)
    def test_matches_numpy_linear(self, values, q):
        acc = StreamingPercentiles()
        for v in values:
            acc.add(v)
        assert acc.exact
        if not values:
            assert acc.percentile(q) == 0.0
            return
        expected = float(np.percentile(values, q))
        assert acc.percentile(q) == pytest.approx(expected, abs=1e-9)

    def test_empty_stream_is_zero(self):
        acc = StreamingPercentiles()
        assert acc.count == 0
        assert acc.percentile(50) == 0.0
        assert acc.summary() == {
            "count": 0, "p50": 0.0, "p99": 0.0, "p999": 0.0,
        }

    def test_one_sample_is_that_sample(self):
        acc = StreamingPercentiles()
        acc.add(0.25)
        for q in (0.0, 50.0, 99.0, 99.9, 100.0):
            assert acc.percentile(q) == 0.25

    def test_interleaved_add_and_query(self):
        acc = StreamingPercentiles()
        vals = []
        for v in (5.0, 1.0, 3.0, 2.0, 4.0):
            acc.add(v)
            vals.append(v)
            assert acc.percentile(50) == pytest.approx(
                float(np.percentile(vals, 50))
            )

    def test_out_of_range_quantile_raises(self):
        acc = StreamingPercentiles()
        with pytest.raises(ValueError):
            acc.percentile(-1)
        with pytest.raises(ValueError):
            acc.percentile(100.1)

    def test_bad_construction_raises(self):
        with pytest.raises(ValueError):
            StreamingPercentiles(exact_limit=0)
        with pytest.raises(ValueError):
            StreamingPercentiles(rel_error=0.0)
        with pytest.raises(ValueError):
            StreamingPercentiles(rel_error=1.0)


class TestSketchMode:
    def test_folds_past_exact_limit(self):
        acc = StreamingPercentiles(exact_limit=64)
        for i in range(63):
            acc.add(float(i + 1))
        assert acc.exact
        acc.add(64.0)
        assert not acc.exact
        assert acc.count == 64

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        q=st.floats(min_value=1.0, max_value=99.9),
    )
    def test_relative_error_bound(self, seed, q):
        rng = np.random.default_rng(seed)
        values = rng.lognormal(mean=0.0, sigma=2.0, size=512)
        acc = StreamingPercentiles(exact_limit=64, rel_error=0.01)
        for v in values:
            acc.add(float(v))
        assert not acc.exact
        # the sketch bounds relative error against the *nearest-rank*
        # quantile (interpolation moves the target by at most one
        # neighbouring sample, so check against the bracketing ranks)
        s = np.sort(values)
        rank = q / 100.0 * (len(s) - 1)
        lo, hi = s[math.floor(rank)], s[math.ceil(rank)]
        got = acc.percentile(q)
        assert lo * (1 - 0.011) <= got <= hi * (1 + 0.011)

    def test_zeros_survive_fold(self):
        acc = StreamingPercentiles(exact_limit=8)
        for _ in range(6):
            acc.add(0.0)
        for v in (1.0, 2.0, 3.0, 4.0):
            acc.add(v)
        assert not acc.exact
        assert acc.percentile(10) == 0.0
        assert acc.percentile(99) > 0.0

    def test_memory_stays_bounded(self):
        acc = StreamingPercentiles(exact_limit=128, rel_error=0.01)
        for i in range(50_000):
            acc.add(1e-3 * (1 + (i % 1000)))
        assert not acc.exact
        assert acc._samples == []
        # log-bucket count is O(log(max/min)/log(gamma)), not O(n)
        assert len(acc._buckets) < 1000
        assert acc.count == 50_000

    def test_min_max_clamping(self):
        acc = StreamingPercentiles(exact_limit=4)
        for v in (1.0, 1.0, 1.0, 1.0, 1.0):
            acc.add(v)
        assert not acc.exact
        assert acc.percentile(0) == 1.0
        assert acc.percentile(100) == 1.0
