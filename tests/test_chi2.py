import math

import numpy as np
import pytest
from oracles import noncentral_chisq_cdf_by_gammainc as cdf_by_gammainc
from oracles import noncentral_chisq_cdf_by_quadrature as cdf_by_quadrature

from asymlab.chi2 import TestStatistic, chisq_quantile, local_power, noncentral_chisq_cdf
from asymlab.errors import DomainError

GRID_X = (1e-8, 1e-3, 0.5, 2.0, 5.0, 12.0, 30.0, 80.0, 200.0, 450.0, 700.0, 1000.0, 1500.0, 3000.0)


class TestNoncentralCdf:
    def test_central_95_quantile_value(self):
        # oracle: numerical integration of the 1-dof central density
        assert noncentral_chisq_cdf(3.841458820694124, 1, 0.0) == pytest.approx(
            cdf_by_quadrature(3.841458820694124, 1, 0.0), abs=1e-9
        )
        assert noncentral_chisq_cdf(3.841458820694124, 1, 0.0) == pytest.approx(0.95, abs=1e-6)

    def test_zero_argument(self):
        # x/2 of the smallest subnormal rounds to 0 too; its CDF is below 1e-161
        for x in (0.0, 5e-324):
            for k in (1, 2, 3):
                for lam in (0.0, 2.5):
                    assert noncentral_chisq_cdf(x, k, lam) == 0.0

    def test_decreasing_in_noncentrality(self):
        # stochastic ordering on a grid
        for x in (1.0, 4.0, 9.0):
            for k in (1, 2, 4):
                values = [noncentral_chisq_cdf(x, k, lam) for lam in (0.0, 1.0, 2.0, 5.0, 10.0)]
                assert all(a > b for a, b in zip(values, values[1:]))

    def test_monte_carlo_spot_check(self):
        # simulate sum of squared shifted normals
        rng = np.random.default_rng(99)
        k, lam, x = 3, 4.0, 6.0
        shift = np.zeros(k)
        shift[0] = math.sqrt(lam)
        draws = rng.standard_normal((200000, k)) + shift
        emp = np.mean(np.sum(draws**2, axis=1) <= x)
        se = math.sqrt(emp * (1 - emp) / draws.shape[0])
        assert abs(noncentral_chisq_cdf(x, k, lam) - emp) < 4 * se

    def test_against_quadrature_small_grid(self):
        for k in (1, 2, 5):
            for lam in (0.0, 1.0, 20.0):
                for x in (0.5, 5.0, 20.0):
                    assert noncentral_chisq_cdf(x, k, lam) == pytest.approx(
                        cdf_by_quadrature(x, k, lam), abs=1e-9
                    )

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 8, 13, 30, 59, 60])
    def test_against_gammainc_grid(self, k):
        # odd k climbs from erfc, even k from exp; from x = 1500 on, exp(-x/2)
        # and erfc(sqrt(x/2)) underflow to zero and only the ladder's terms,
        # taken in logs, carry the upper tail
        for lam in (0.0, 1e-3, 0.5, 3.0, 10.0, 40.0, 150.0, 600.0):
            for x in GRID_X:
                got = noncentral_chisq_cdf(x, k, lam)
                assert abs(got - cdf_by_gammainc(x, k, lam)) <= 1e-14, (x, k, lam)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            noncentral_chisq_cdf(-1.0, 1, 0.0)
        with pytest.raises(DomainError):
            noncentral_chisq_cdf(1.0, 0, 0.0)
        with pytest.raises(DomainError):
            noncentral_chisq_cdf(1.0, 1, -0.5)
        with pytest.raises(DomainError):
            noncentral_chisq_cdf(math.nan, 1, 0.0)


class TestQuantile:
    def test_roundtrip(self):
        for k in (1, 2, 5):
            for p in (0.5, 0.9, 0.95, 0.99):
                c = chisq_quantile(k, p)
                assert noncentral_chisq_cdf(c, k, 0.0) == pytest.approx(p, abs=1e-9)

    def test_known_value(self):
        assert chisq_quantile(1, 0.95) == pytest.approx(3.8414588206941254, abs=1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            chisq_quantile(1, 1.0)

    def test_quantiles_below_one_are_relative(self):
        # a bracket of absolute width 1e-10 cannot place a quantile below
        # 1e-10: at k = 1 and prob 1e-6 (quantile 1.6e-12) the size missed
        # alpha by 3.3e-6, and at prob 1e-8 the power at ncp 4 fell below it
        for k in range(1, 6):
            for alpha in (0.5, 0.9, 1 - 1e-6, 1 - 1e-10):
                assert abs(local_power(k, 0.0, alpha) - alpha) <= 1e-9
                assert local_power(k, 4.0, alpha) >= alpha


    @pytest.mark.parametrize("p", [1e-300, 1e-100, 1e-20, 1e-12, 1e-6, 1e-3, 0.3])
    def test_lower_tail_k_2(self, p):
        # chi-square(2) is exponential with mean 2: the quantile is -2 log(1 - p)
        assert chisq_quantile(2, p) == pytest.approx(-2.0 * math.log1p(-p), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("p", [1e-150, 1e-40, 1e-20, 1e-12, 1e-8])
    def test_lower_tail_k_1(self, p):
        # P(chi-square(1) <= x) = erf(sqrt(x / 2)) = sqrt(2 x / pi) (1 - x / 6 + ...),
        # so the quantile is pi p^2 / 2 to a relative 1e-16 for p <= 1e-8
        assert chisq_quantile(1, p) == pytest.approx(0.5 * math.pi * p * p, rel=1e-9, abs=0.0)

    def test_lower_tail_cdf_is_relative(self):
        # below the mean the central CDF keeps its relative accuracy
        for k, x in ((1, 1e-30), (2, 1e-12), (3, 1e-6), (10, 0.5), (30, 20.0)):
            want = cdf_by_gammainc(x, k, 0.0)
            assert noncentral_chisq_cdf(x, k, 0.0) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_a_quantile_that_underflows_is_refused(self):
        # the chi-square(1) quantile at 1e-300 is about 1.6e-600
        with pytest.raises(DomainError, match="underflows"):
            chisq_quantile(1, 1e-300)


class TestLocalPower:
    def test_size_under_null(self):
        for k in range(1, 6):
            for alpha in (0.01, 0.05, 0.10):
                assert local_power(k, 0.0, alpha) == pytest.approx(alpha, abs=1e-8)

    def test_strictly_increasing_in_ncp(self):
        values = [local_power(1, ncp, 0.05) for ncp in (0.0, 1.0, 2.0, 4.0, 8.0)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_monte_carlo_power_at_ncp_10(self):
        # oracle: 10^6-draw simulation of the noncentral distribution
        rng = np.random.default_rng(7)
        crit = chisq_quantile(1, 0.95)
        draws = (rng.standard_normal(10**6) + math.sqrt(10.0)) ** 2
        emp = float(np.mean(draws > crit))
        assert abs(local_power(1, 10.0, 0.05) - emp) < 0.005

    def test_domain(self):
        with pytest.raises(DomainError):
            local_power(1, 1.0, 0.0)
        with pytest.raises(DomainError):
            local_power(1, -1.0, 0.05)
        # 1 - 1e-300 rounds to 1, which the quantile alone reports as prob=1.0
        with pytest.raises(DomainError, match="alpha = 1e-300"):
            local_power(1, 0.0, 1e-300)


class TestTestStatistic:
    def test_reject_semantics(self):
        crit = chisq_quantile(1, 0.95)
        assert TestStatistic(value=crit + 0.01, dof=1).reject(0.05)
        assert not TestStatistic(value=crit - 0.01, dof=1).reject(0.05)

    def test_zero_dof_never_rejects(self):
        assert TestStatistic(value=5.0, dof=0).reject(0.05) is False

    def test_invariants(self):
        with pytest.raises(ValueError):
            TestStatistic(value=-1.0, dof=1)
        with pytest.raises(ValueError):
            TestStatistic(value=1.0, dof=-1)
