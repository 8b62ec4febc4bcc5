"""Tests for numeric helpers and SVD canonicalization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.numerics import (
    frobenius_off_diagonal,
    mean_abs_off_diagonal,
    orthogonality_error,
    reconstruction_error,
    relative_off_diagonal,
    relative_residual,
    sign,
    singular_value_error,
    sort_svd,
)


class TestSign:
    def test_positive(self):
        assert sign(2.0) == 1.0

    def test_negative(self):
        assert sign(-2.0) == -1.0

    def test_zero_is_positive(self):
        # Hardware sign-bit convention: +0 -> +1 (never 0).
        assert sign(0.0) == 1.0

    def test_negative_zero(self):
        # sign() keys off the IEEE sign bit, exactly as the FPGA datapath
        # does: -0.0 carries a set sign bit.
        assert sign(-0.0) == -1.0


class TestOffDiagonalMetrics:
    def test_diagonal_gives_zero(self):
        d = np.diag([1.0, 2.0, 3.0])
        assert mean_abs_off_diagonal(d) == 0.0
        assert frobenius_off_diagonal(d) == 0.0
        assert relative_off_diagonal(d) == 0.0

    def test_known_values(self):
        d = np.array([[1.0, 3.0, 4.0], [3.0, 1.0, 0.0], [4.0, 0.0, 1.0]])
        assert mean_abs_off_diagonal(d) == pytest.approx(7.0 / 3.0)
        assert frobenius_off_diagonal(d) == pytest.approx(5.0)

    def test_zero_matrix_relative(self):
        assert relative_off_diagonal(np.zeros((3, 3))) == 0.0

    def test_1x1(self):
        assert mean_abs_off_diagonal(np.array([[7.0]])) == 0.0


class TestResiduals:
    def test_relative_residual_zero(self, rng):
        a = rng.standard_normal((5, 5))
        assert relative_residual(a, a) == 0.0

    def test_relative_residual_scale_free(self, rng):
        a = rng.standard_normal((5, 5))
        b = a + 0.01 * rng.standard_normal((5, 5))
        assert relative_residual(a, b) == pytest.approx(
            relative_residual(a * 1e8, b * 1e8)
        )

    def test_reconstruction_error_exact(self, rng):
        a = rng.standard_normal((8, 5))
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        assert reconstruction_error(a, u, s, vt) < 1e-14

    def test_orthogonality_error(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((8, 5)))
        assert orthogonality_error(q) < 1e-14
        assert orthogonality_error(q * 2.0) > 1.0


class TestSortSvd:
    def test_sorts_descending(self):
        s = np.array([1.0, 3.0, 2.0])
        _, s_out, _ = sort_svd(None, s, None)
        assert s_out.tolist() == [3.0, 2.0, 1.0]

    def test_sign_flip_into_u(self, rng):
        a = rng.standard_normal((6, 3))
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        s_signed = s.copy()
        s_signed[1] = -s_signed[1]
        u_mod = u.copy()
        u_mod[:, 1] = -u_mod[:, 1]
        u2, s2, vt2 = sort_svd(u_mod, s_signed, vt)
        assert np.all(s2 >= 0)
        assert np.allclose((u2 * s2) @ vt2, a)

    def test_sign_flip_into_vt_when_u_missing(self, rng):
        a = rng.standard_normal((6, 3))
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        s_signed = -s
        _, s2, vt2 = sort_svd(None, s_signed, -vt)
        assert np.all(s2 >= 0)
        # flipping both signs cancels in the product
        assert np.allclose((u * s) @ vt, (u * s2[np.argsort(-s)]) @ vt2[np.argsort(-s)])

    def test_none_factors_pass_through(self):
        u, s, vt = sort_svd(None, np.array([2.0, 1.0]), None)
        assert u is None and vt is None

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=12))
    @settings(max_examples=100)
    def test_output_always_descending_nonnegative(self, values):
        _, s, _ = sort_svd(None, np.array(values), None)
        assert np.all(s >= 0)
        assert np.all(np.diff(s) <= 0)


class TestSingularValueError:
    def test_identical(self):
        s = np.array([3.0, 2.0, 1.0])
        assert singular_value_error(s, s) == 0.0

    def test_order_insensitive(self):
        assert singular_value_error([1.0, 3.0], [3.0, 1.0]) == 0.0

    def test_relative_scaling(self):
        assert singular_value_error([10.0, 0.0], [10.0, 1.0]) == pytest.approx(0.1)

    def test_empty(self):
        assert singular_value_error([], []) == 0.0


class TestOffDiagonalMetricsAtExtremeScales:
    #: A Gram matrix whose entries are exact in binary at every scale.
    GRAM = np.array([[4.0, 1.0, -2.0], [1.0, 3.0, 0.5], [-2.0, 0.5, 5.0]])

    @pytest.mark.parametrize("k", [500, -500])
    def test_scaled_gram_gives_exactly_scaled_metrics(self, k):
        # The Gram matrix of an input scaled by 2**k is scaled by
        # 2**(2k); squaring its entries would overflow or underflow.
        scaled = np.ldexp(self.GRAM, 2 * k)
        assert frobenius_off_diagonal(scaled) == np.ldexp(
            frobenius_off_diagonal(self.GRAM), 2 * k)
        assert relative_off_diagonal(scaled) == relative_off_diagonal(
            self.GRAM)
        assert mean_abs_off_diagonal(scaled) == np.ldexp(
            mean_abs_off_diagonal(self.GRAM), 2 * k)

    def test_non_finite_entries_still_propagate(self):
        d = self.GRAM.copy()
        d[0, 1] = np.nan
        assert np.isnan(frobenius_off_diagonal(d))
        assert np.isnan(relative_off_diagonal(d))
