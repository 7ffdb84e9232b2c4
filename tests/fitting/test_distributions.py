"""Tests for the closed-form distribution functions (`repro.fitting.distributions`).

Three tiers: textbook constants and closed forms that need nothing but
``math``; a grid against ``scipy.stats`` as the oracle (skipped where scipy is
not installed — it is a test-only dependency); hypothesis properties (skipped
where hypothesis is not installed).
"""

import itertools
import math
import sys
import threading

import pytest

from repro.fitting.distributions import (
    f_survival,
    regularized_incomplete_beta,
    student_t_quantile,
)

#: Agreement demanded of the oracle grid (relative).
ORACLE_RTOL = 1e-8


def t_survival(t: float, dof: float) -> float:
    """Upper tail of Student's t for ``t >= 0``: half the F(1, dof) tail at t²."""
    return 0.5 * f_survival(t * t, 1.0, dof)


class TestTextbookConstants:
    @pytest.mark.parametrize(
        "dof, expected",
        [(1, 12.7062047362), (2, 4.30265272975), (10, 2.22813885199), (30, 2.04227245630)],
    )
    def test_t_975(self, dof, expected):
        assert student_t_quantile(0.975, dof) == pytest.approx(expected, rel=1e-10)

    def test_t_975_tends_to_the_normal_quantile(self):
        assert student_t_quantile(0.975, 1e7) == pytest.approx(1.959964, abs=1e-6)

    def test_closed_forms_agree_with_the_iteration_next_door(self):
        # dof 1 and 2 are closed forms; the iteration handles every other dof
        # and must approach them continuously.
        for dof in (1, 2):
            for p in (0.6, 0.9, 0.975, 0.9995):
                assert student_t_quantile(p, dof + 1e-9) == pytest.approx(
                    student_t_quantile(p, dof), rel=1e-7
                )

    @pytest.mark.parametrize("t", [0.1, 1.0, 2.5, 40.0])
    def test_f_1_d2_is_the_two_sided_t_tail(self, t):
        # dof 1 (Cauchy) and dof 2 have elementary tails.
        assert f_survival(t * t, 1, 1) == pytest.approx(1.0 - 2.0 * math.atan(t) / math.pi, rel=1e-12)
        assert f_survival(t * t, 1, 2) == pytest.approx(1.0 - t / math.sqrt(2.0 + t * t), rel=1e-12)

    @pytest.mark.parametrize("f", [1e-3, 0.5, 1.0, 7.0, 1e4])
    @pytest.mark.parametrize("d", [1, 3, 10, 998])
    def test_f_with_two_degrees_of_freedom_is_elementary(self, f, d):
        assert f_survival(f, 2, d) == pytest.approx((1.0 + 2.0 * f / d) ** (-d / 2.0), rel=1e-11)
        assert f_survival(f, d, 2) == pytest.approx(
            1.0 - (d * f / (d * f + 2.0)) ** (d / 2.0), rel=1e-9, abs=1e-15
        )

    def test_survival_is_smooth_between_adjacent_arguments(self):
        # The front factor mixes log-gamma terms of size ~1e4 with terms of
        # size ~1e-4 that carry the dependence on f; summed in one chain the
        # result is quantised to ~2e-12 and the quantile iteration cannot settle.
        f = 0.025070916397458932**2
        step = abs(f_survival(f, 1, 3123) - f_survival(math.nextafter(f, 1.0), 1, 3123))
        assert step <= 1e-15

    def test_incomplete_beta_identities(self):
        for x in (0.0, 0.01, 0.3, 0.5, 0.77, 1.0):
            assert regularized_incomplete_beta(x, 1.0, 1.0) == pytest.approx(x, abs=1e-15)
            assert regularized_incomplete_beta(x, 3.5, 1.0) == pytest.approx(x**3.5, rel=1e-13)
            assert regularized_incomplete_beta(x, 1.0, 4.25) == pytest.approx(
                1.0 - (1.0 - x) ** 4.25, rel=1e-13, abs=1e-15
            )
            assert regularized_incomplete_beta(x, 2.5, 7.0) == pytest.approx(
                1.0 - regularized_incomplete_beta(1.0 - x, 7.0, 2.5), abs=1e-14
            )


class TestEdgeCases:
    def test_nan_statistic_gives_nan_and_returns(self):
        assert math.isnan(f_survival(math.nan, 1, 998))

    def test_infinite_statistic_has_no_tail(self):
        assert f_survival(math.inf, 3, 40) == 0.0
        assert f_survival(1e308, 10, 40) == 0.0  # d1 * f overflows

    @pytest.mark.parametrize("f", [0.0, -0.0, -3.0, -math.inf])
    def test_non_positive_statistic_has_the_whole_tail(self, f):
        assert f_survival(f, 3, 40) == 1.0

    @pytest.mark.parametrize("d1, d2", [(0, 5), (5, 0), (-1, 5), (math.nan, 5)])
    def test_f_rejects_non_positive_dof(self, d1, d2):
        with pytest.raises(ValueError, match="degrees of freedom"):
            f_survival(1.0, d1, d2)

    @pytest.mark.parametrize("dof", [1, 2, 2.5, 7, 3123])
    def test_median_is_zero(self, dof):
        assert student_t_quantile(0.5, dof) == 0.0

    @pytest.mark.parametrize("dof", [1, 2, 2.5, 7, 3123])
    @pytest.mark.parametrize("p", [0.001, 0.2, 0.45])
    def test_odd_symmetry_below_the_median(self, p, dof):
        assert student_t_quantile(p, dof) == -student_t_quantile(1.0 - p, dof)
        assert student_t_quantile(p, dof) < 0.0

    def test_quantile_just_above_the_median_stays_positive(self):
        # The normal start is less accurate than the answer here.
        t = student_t_quantile(0.5 + 1e-8, 1_964_075)
        assert 0.0 < t < 1e-7

    def test_fractional_dof_lies_between_its_neighbours(self):
        assert student_t_quantile(0.975, 3) < student_t_quantile(0.975, 2.5) < student_t_quantile(0.975, 2)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5, math.nan])
    def test_quantile_rejects_p_outside_the_open_interval(self, p):
        with pytest.raises(ValueError, match="p must lie"):
            student_t_quantile(p, 10)

    @pytest.mark.parametrize("dof", [0, -2, math.nan])
    def test_quantile_rejects_non_positive_dof(self, dof):
        with pytest.raises(ValueError, match="dof must be positive"):
            student_t_quantile(0.9, dof)

    def test_incomplete_beta_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="x must lie"):
            regularized_incomplete_beta(1.5, 1.0, 1.0)
        with pytest.raises(ValueError, match="must be positive"):
            regularized_incomplete_beta(0.5, 0.0, 1.0)


class TestScipyOracle:
    DOFS = (1, 2, 2.5, 3, 5, 10, 30, 100, 998, 3123, 1e5, 1e6)
    CONFIDENCES = (0.02, 0.1, 0.5, 0.8, 0.9, 0.95, 0.99, 0.999, 0.9999, 0.999999)
    D1 = tuple(range(1, 11))
    D2 = (1, 2, 3, 5, 10, 30, 100, 998, 3123, 2e4, 2e5)
    F = (1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0, 1e3, 1e4, 1e5)

    @pytest.fixture(scope="class")
    def stats(self):
        return pytest.importorskip("scipy.stats")

    def test_student_t_quantile_grid(self, stats):
        for dof, confidence in itertools.product(self.DOFS, self.CONFIDENCES):
            p = 0.5 + confidence / 2.0
            expected = float(stats.t.ppf(p, dof))
            assert student_t_quantile(p, dof) == pytest.approx(expected, rel=ORACLE_RTOL), (dof, confidence)
            assert student_t_quantile(1.0 - p, dof) == pytest.approx(
                float(stats.t.ppf(1.0 - p, dof)), rel=ORACLE_RTOL
            ), (dof, confidence)

    def test_f_survival_grid(self, stats):
        compared = 0
        for d1, d2, f in itertools.product(self.D1, self.D2, self.F):
            expected = float(stats.f.sf(f, d1, d2))
            if expected <= 1e-300:
                continue
            compared += 1
            assert f_survival(f, d1, d2) == pytest.approx(expected, rel=ORACLE_RTOL), (d1, d2, f)
        assert compared > 1000

    def test_edge_cases_match_the_oracle(self, stats):
        for f in (math.nan, math.inf, 0.0, -1.0):
            expected = float(stats.f.sf(f, 2, 30))
            got = f_survival(f, 2, 30)
            assert (math.isnan(got) and math.isnan(expected)) or got == expected, f


class TestProperties:
    """Hypothesis properties, written as inner functions so that the module
    still collects (and the tiers above still run) without hypothesis."""

    @pytest.fixture(scope="class")
    def hyp(self):
        return pytest.importorskip("hypothesis")

    def test_quantile_is_monotone_in_p(self, hyp):
        st = hyp.strategies

        @hyp.settings(max_examples=150, deadline=None)
        @hyp.given(
            st.floats(1e-6, 1.0 - 1e-6),
            st.floats(1e-6, 1.0 - 1e-6),
            st.floats(0.5, 1e5),
        )
        def check(p1, p2, dof):
            lo, hi = sorted((p1, p2))
            assert student_t_quantile(lo, dof) <= student_t_quantile(hi, dof)

        check()

    def test_survival_is_monotone_in_f(self, hyp):
        st = hyp.strategies

        @hyp.settings(max_examples=150, deadline=None)
        @hyp.given(
            st.floats(0.0, 1e6),
            st.floats(0.0, 1e6),
            st.floats(0.5, 50.0),
            st.floats(0.5, 1e5),
        )
        def check(f1, f2, d1, d2):
            lo, hi = sorted((f1, f2))
            upper, lower = f_survival(lo, d1, d2), f_survival(hi, d1, d2)
            assert 0.0 <= lower <= 1.0 and 0.0 <= upper <= 1.0
            assert lower <= upper * (1.0 + 1e-12) + 1e-15

        check()

    def test_quantile_round_trips_through_the_survival_function(self, hyp):
        st = hyp.strategies

        @hyp.settings(max_examples=150, deadline=None)
        @hyp.given(st.floats(0.5 + 1e-6, 1.0 - 1e-9), st.floats(0.5, 1e5))
        def check(p, dof):
            t = student_t_quantile(p, dof)
            assert t_survival(t, dof) == pytest.approx(1.0 - p, rel=1e-9)

        check()


def test_cache_returns_identical_floats_across_threads():
    """The memo is shared by every serving thread: under contention each one
    must read the float a single uncached evaluation produces, and the cache
    must stay within its bound."""
    grid = [(0.5 + c / 2.0, dof) for c in (0.9, 0.95, 0.99) for dof in (3, 17, 998, 3123.5)]
    expected = {key: student_t_quantile.__wrapped__(*key) for key in grid}
    student_t_quantile.cache_clear()
    mismatches: list[tuple] = []
    start = threading.Barrier(16)

    def reader() -> None:
        start.wait(timeout=30)
        for _ in range(200):
            for key in grid:
                value = student_t_quantile(*key)
                if value != expected[key]:
                    mismatches.append((key, value))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader) for _ in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []
    info = student_t_quantile.cache_info()
    assert info.currsize <= info.maxsize
    assert info.hits > 0
