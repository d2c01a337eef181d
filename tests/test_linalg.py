"""The one positive-definite solve and the one full-column-rank rule."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymlab.linalg import _cholesky, _cholesky_lists


class TestCholesky:
    """``_cholesky`` against LAPACK ``dpotrf``/``dpotrs`` on the upper triangle."""

    @staticmethod
    def lapack(a, b):
        from scipy.linalg.lapack import dpotrf, dpotrs

        factor, info = dpotrf(a, lower=0)
        return dpotrs(factor, b, lower=0)[0] if info == 0 else None

    @staticmethod
    def spd(rng, n):
        """A random symmetric positive definite n x n matrix with condition
        number at most 1e3 and scale between e^-5 and e^5.  Its lower
        triangle is perturbed by 1e-9 relative, which neither solve reads."""
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = (q * np.exp(rng.uniform(0.0, math.log(1e3), n))) @ q.T
        a = np.triu(a) + np.tril(a, -1) * (1.0 + 1e-9 * rng.standard_normal((n, n)))
        return a * math.exp(rng.uniform(-5.0, 5.0))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_lapack(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(200):
            a = self.spd(rng, n)
            for b in (rng.standard_normal(n), rng.standard_normal((n, 3))):
                got, want = _cholesky(a, b), self.lapack(a, b)
                assert got.shape == want.shape == b.shape
                if n == 1:
                    assert np.array_equal(got, want)
                else:
                    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize(
        "a",
        [
            [[-1.0]],
            [[0.0]],
            [[1.0, 2.0], [2.0, 1.0]],  # indefinite
            [[1.0, 1.0], [1.0, 1.0]],  # singular: its second pivot is exactly 0
            [[3.0, 1.0], [1.0, 1.0 / 3.0]],  # singular: its second pivot is rounding noise
            [[1.0, 0.0, 0.0], [0.0, 2.0, 2.0], [0.0, 2.0, 2.0]],
        ],
    )
    def test_refuses_a_matrix_that_is_not_positive_definite(self, a):
        a = np.array(a)
        assert _cholesky(a, np.ones(len(a))) is None
        assert _cholesky(a, np.eye(len(a))) is None

    @pytest.mark.parametrize("where", [(0, 0), (0, 1), (1, 1)])
    def test_refuses_nan(self, where):
        a = np.array([[2.0, 0.5], [0.5, 1.0]])
        a[where] = math.nan
        assert _cholesky(a, np.ones(2)) is None

    @settings(max_examples=200, deadline=None)
    @given(
        k=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        u=st.lists(st.floats(-8.0, 8.0), min_size=3, max_size=3),
    )
    def test_diagonal_scaling_changes_neither_verdict_nor_solution(self, k, seed, u):
        # D a D with D = diag(10^u): each pivot scales with its own diagonal
        # entry, so the verdict is a's and the solution of (D a D) y = D b is
        # D^-1 x, up to rounding
        rng = np.random.default_rng(seed)
        a, b, d = self.spd(rng, k), rng.standard_normal(k), 10.0 ** np.array(u[:k])
        x = _cholesky(a, b)
        y = _cholesky(a * d[:, None] * d, d * b)
        assert x is not None and y is not None
        assert np.max(np.abs(d * y - x)) <= 1e-12 * np.max(np.abs(x))

    @settings(max_examples=200, deadline=None)
    @given(
        k=st.integers(1, 3),
        entries=st.lists(st.integers(-3, 3), min_size=6, max_size=6),
        u=st.lists(st.floats(-8.0, 8.0), min_size=3, max_size=3),
    )
    def test_refuses_an_exactly_rank_deficient_gram_at_every_scale(self, k, entries, u):
        # B B' with B of size k x (k - 1) has rank below k; integer entries
        # make the Gram matrix exact, so only the scaling rounds
        g = np.array(entries[: k * (k - 1)], dtype=float).reshape(k, k - 1)
        d = 10.0 ** np.array(u[:k])
        assert _cholesky((g @ g.T) * d[:, None] * d, np.ones(k)) is None

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_list_form_leaves_its_inputs_and_may_give_the_verdict_alone(self, n):
        rng = np.random.default_rng(40 + n)
        a, b = self.spd(rng, n), rng.standard_normal((n, 2))
        rows, cols = a.tolist(), b.T.tolist()
        kept = [row.copy() for row in rows], [col.copy() for col in cols]
        assert np.array_equal(np.array(_cholesky_lists(rows, cols)).T, _cholesky(a, b))
        assert (rows, cols) == kept
        assert _cholesky_lists(rows, []) == []
        singular = np.ones((n, n)) if n > 1 else np.zeros((1, 1))
        assert _cholesky_lists(singular.tolist(), []) is None

