import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import draw_sample, expectation_per_atom

from asymlab.dist import (
    Dataset,
    _row_groups,
    draw_indices,
    expectation,
    make_distribution,
    replication_seed,
    same_distribution,
)
from asymlab.errors import DuplicateSupportPoint, LengthMismatch, ZeroOrNegativeProb

SUPPORT5 = [-2.0, -1.0, 0.0, 1.0, 2.0]
PROBS5 = [0.1, 0.2, 0.4, 0.2, 0.1]


class TestMakeDistribution:
    def test_symmetric_five_point_has_mean_zero(self):
        dist = make_distribution(SUPPORT5, PROBS5)
        assert abs(expectation(dist, dist.column(0))) < 1e-15

    def test_zero_prob_rejected(self):
        with pytest.raises(ZeroOrNegativeProb):
            make_distribution([0.0, 1.0, 2.0], [0.5, 0.5, 0.0])

    def test_negative_prob_rejected(self):
        with pytest.raises(ZeroOrNegativeProb):
            make_distribution([0.0, 1.0], [1.5, -0.5])

    def test_weights_normalized(self):
        dist = make_distribution([0.0, 1.0, 2.0], [1.0, 2.0, 2.0])
        assert np.allclose(dist.probs, [0.2, 0.4, 0.4], atol=1e-15)

    def test_duplicate_points_rejected(self):
        with pytest.raises(DuplicateSupportPoint):
            make_distribution([1.0, 1.0, 2.0], [0.3, 0.3, 0.4])

    def test_signed_zeros_are_duplicates(self):
        with pytest.raises(DuplicateSupportPoint):
            make_distribution([[0.0, 1.0], [-0.0, 1.0]], [0.5, 0.5])
        with pytest.raises(DuplicateSupportPoint):
            make_distribution([[0.0, 1.0], [0.5, 1.0], [-0.0, 1.0]], [0.3, 0.3, 0.4])

    def test_duplicates_found_in_any_row_order(self, rng):
        grid = np.array(list(itertools.product([0.0, 1.0, 2.0], repeat=3)))  # 27 points
        make_distribution(rng.permutation(grid), np.ones(27))
        for _ in range(5):
            doubled = rng.permutation(np.vstack([grid, grid[rng.integers(27)]]))
            with pytest.raises(DuplicateSupportPoint):
                make_distribution(doubled, np.ones(28))

    def test_duplicate_check_leaves_numpy_ma_unloaded(self, run_python):
        # np.unique(..., axis=0) imports numpy.ma, about 10 ms of a cold start
        out = run_python(
            "import sys\n"
            "from asymlab.dist import make_distribution\n"
            "make_distribution([[0.0, 1.0], [1.0, 1.0], [1.0, 2.0]], [1, 1, 1])\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        assert out.strip() == "False"

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            make_distribution([1.0, 2.0], [0.2, 0.4, 0.4])

    def test_vector_support(self):
        dist = make_distribution([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5])
        assert dist.dim == 2 and dist.n_atoms == 2

    def test_equality_helper(self):
        a = make_distribution(SUPPORT5, PROBS5)
        b = make_distribution(SUPPORT5, PROBS5)
        assert same_distribution(a, b) and same_distribution(a, a)
        c = make_distribution(SUPPORT5, [0.2, 0.2, 0.2, 0.2, 0.2])
        assert not same_distribution(a, c)


class TestExpectation:
    def setup_method(self):
        self.dist = make_distribution(SUPPORT5, PROBS5)

    def test_identity_is_zero_by_symmetry(self):
        assert expectation(self.dist, self.dist.column(0)) == pytest.approx(0.0, abs=1e-15)

    def test_square_hand_sum(self):
        # 2 * (0.1 * 4) + 2 * (0.2 * 1) = 1.2
        x = self.dist.column(0)
        assert expectation(self.dist, x**2) == pytest.approx(1.2, abs=1e-14)

    def test_fourth_power_hand_sum(self):
        # 2 * (0.1 * 16) + 2 * (0.2 * 1) = 3.6
        x = self.dist.column(0)
        assert expectation(self.dist, x**4) == pytest.approx(3.6, abs=1e-14)

    def test_constant_one_integrates_to_one(self, rng):
        for _ in range(25):
            size = rng.integers(2, 40)
            dist = make_distribution(np.arange(size, dtype=float), rng.dirichlet(np.ones(size)))
            assert abs(expectation(dist, np.ones(size)) - 1.0) < 1e-12

    def test_matrix_valued(self):
        x = self.dist.column(0)
        outer = x[:, None, None] * np.ones((1, 2, 2))
        out = expectation(self.dist, outer)
        assert out.shape == (2, 2) and np.allclose(out, 0.0, atol=1e-14)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            expectation(self.dist, np.ones(4))

    def test_variance_by_expectation(self):
        x = self.dist.column(0)
        centered = x - expectation(self.dist, x)
        assert expectation(self.dist, centered**2) == pytest.approx(1.2, abs=1e-14)

    @settings(max_examples=50, deadline=None)
    @given(
        a=st.floats(-50, 50),
        b=st.floats(-50, 50),
        key=st.integers(0, 2**32 - 1),
    )
    def test_linearity(self, a, b, key):
        rng = np.random.default_rng(key)
        f = rng.standard_normal(5)
        g = rng.standard_normal(5)
        lhs = expectation(self.dist, a * f + b * g)
        rhs = a * expectation(self.dist, f) + b * expectation(self.dist, g)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(a) + abs(b))

    @settings(max_examples=50, deadline=None)
    @given(
        n_atoms=st.integers(2, 60),
        trailing=st.sampled_from([(), (1,), (3,), (2, 3)]),
        key=st.integers(0, 2**32 - 1),
    )
    def test_bit_identical_to_per_atom_fsum(self, n_atoms, trailing, key):
        rng = np.random.default_rng(key)
        dist = make_distribution(np.arange(n_atoms, dtype=float), rng.dirichlet(np.ones(n_atoms)))
        shape = (n_atoms, *trailing)
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, size=shape)
        got = expectation(dist, values)
        want = expectation_per_atom(dist.probs, values)
        if not trailing:
            assert isinstance(got, float) and got == want[0]
        else:
            assert got.shape == trailing
            assert np.array_equal(got.ravel(), want)


class TestDrawSample:
    def test_near_degenerate_mass(self):
        dist = make_distribution([5.0, 6.0], [1.0 - 1e-9, 1e-9])
        data = draw_sample(dist, 1, seed=0)
        assert data.rows[0, 0] == 5.0

    def test_deterministic_for_seed(self):
        dist = make_distribution(SUPPORT5, PROBS5)
        a = draw_sample(dist, 500, seed=123)
        b = draw_sample(dist, 500, seed=123)
        assert np.array_equal(a.rows, b.rows)

    def test_distinct_seeds_differ(self):
        dist = make_distribution(SUPPORT5, PROBS5)
        a = draw_sample(dist, 32, seed=1)
        b = draw_sample(dist, 32, seed=2)
        assert not np.array_equal(a.rows, b.rows)

    def test_frequencies_match_binomial_error(self):
        # oracle: binomial standard error sqrt(p (1 - p) / n)
        dist = make_distribution(SUPPORT5, PROBS5)
        n = 10**6
        idx = draw_indices(dist, n, seed=7)
        freq = np.bincount(idx, minlength=5) / n
        bound = 4.0 * np.sqrt(dist.probs * (1.0 - dist.probs) / n)
        assert np.all(np.abs(freq - dist.probs) < bound)

    def test_invalid_size(self):
        dist = make_distribution(SUPPORT5, PROBS5)
        with pytest.raises(ValueError):
            draw_sample(dist, 0, seed=1)

    def test_row_groups_match_rows_by_equality(self):
        # -0.0 is 0.0, as make_distribution counts it; ids follow first occurrence
        rows = np.array([[-0.0, 1.0], [2.0, -0.0], [0.0, 1.0], [1.0, -1.0], [2.0, 0.0]])
        ids, count = _row_groups(rows)
        assert ids.tolist() == [0, 1, 0, 2, 1] and count == 3


class TestReplicationSeeds:
    def test_deterministic(self):
        assert replication_seed(42, 3) == replication_seed(42, 3)

    def test_distinct_across_reps_and_masters(self):
        seeds = {replication_seed(m, r) for m in (1, 2) for r in range(200)}
        assert len(seeds) == 400

    def test_seeds_outside_64_bits_refused(self):
        # reduced modulo 2^64, -1 and 2^64 - 1 (or 5 and 2^64 + 5) ran the same stream
        dist = make_distribution(SUPPORT5, PROBS5)
        for seed in (-1, 2**64, 2**64 + 5):
            with pytest.raises(ValueError, match="2\\^64"):
                replication_seed(seed, 1)
            with pytest.raises(ValueError, match="2\\^64"):
                draw_indices(dist, 10, seed)

    @pytest.mark.parametrize("seed", [1.7, 1.0, "1", None])
    def test_a_seed_that_is_not_an_integer_is_refused(self, seed):
        # truncated by int(), 1.7 ran seed 1's stream
        with pytest.raises(ValueError, match="integer"):
            replication_seed(seed, 1)
        with pytest.raises(ValueError, match="integer"):
            draw_indices(make_distribution(SUPPORT5, PROBS5), 10, seed)

    def test_seeds_in_range_keep_their_streams(self):
        for master in (0, 5, 2**63 + 12345, 2**64 - 1):
            for rep in (1, 7):
                keyed = np.random.SeedSequence(master, spawn_key=(rep,))
                assert replication_seed(master, rep) == int(keyed.generate_state(1, np.uint64)[0])
        dist = make_distribution(SUPPORT5, PROBS5)
        for seed in (0, 2**64 - 1):
            draws = np.random.Generator(np.random.Philox(key=seed)).random(50)
            want = np.searchsorted(dist.cdf, draws, side="right")
            assert np.array_equal(draw_indices(dist, 50, seed), want)


def test_fsum_accumulation_beats_naive():
    # many tiny atoms summing to one: compensated summation keeps the unit
    # integral at 1e-12 where a naive running sum may drift
    size = 400
    probs = np.full(size, 1.0 / size)
    dist = make_distribution(np.arange(size, dtype=float), probs)
    assert abs(expectation(dist, np.ones(size)) - 1.0) < 1e-14
    assert abs(math.fsum(dist.probs) - 1.0) < 1e-15


class TestDatasetCounts:
    def test_rows_count_once_by_default(self):
        data = Dataset(np.zeros((7, 2)))
        assert data.n == 7 and data.dim == 2
        assert np.array_equal(data.counts, np.ones(7))

    def test_n_is_the_total_count(self):
        data = Dataset(np.array([[0.0], [1.0], [2.0]]), np.array([4, 0, 3]))
        assert data.n == 7

    def test_bad_counts_rejected(self):
        rows = np.zeros((3, 1))
        with pytest.raises(LengthMismatch):
            Dataset(rows, np.array([1, 2]))
        with pytest.raises(ValueError):
            Dataset(rows, np.array([1, -1, 2]))
        with pytest.raises(ValueError):
            Dataset(rows, np.array([1.0, 0.5, 2.0]))
