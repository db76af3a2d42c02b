"""Tests for repro.fuzzy.membership."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.exceptions import ConfigurationError
from repro.fuzzy.membership import GaussianMF, gaussian_sigma_from_radius

finite = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)


class TestGaussianMF:
    def test_peak_at_mean(self):
        mf = GaussianMF(mean=2.0, sigma=0.5)
        assert mf(2.0) == pytest.approx(1.0)

    def test_symmetry(self):
        mf = GaussianMF(mean=1.0, sigma=0.7)
        assert mf(1.0 + 0.3) == pytest.approx(mf(1.0 - 0.3))

    def test_one_sigma_value(self):
        mf = GaussianMF(mean=0.0, sigma=1.0)
        assert mf(1.0) == pytest.approx(np.exp(-0.5))

    def test_vectorized(self):
        mf = GaussianMF(mean=0.0, sigma=1.0)
        out = mf(np.array([0.0, 1.0, 2.0]))
        assert out.shape == (3,)
        assert out[0] == pytest.approx(1.0)

    def test_paper_formula(self):
        # F(v) = exp(-(v - mu)^2 / (2 sigma^2))
        mf = GaussianMF(mean=0.3, sigma=0.2)
        v = 0.55
        expected = np.exp(-((v - 0.3) ** 2) / (2 * 0.2 ** 2))
        assert mf(v) == pytest.approx(expected)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ConfigurationError):
            GaussianMF(mean=0.0, sigma=0.0)
        with pytest.raises(ConfigurationError):
            GaussianMF(mean=0.0, sigma=-1.0)

    def test_parameters_roundtrip(self):
        mf = GaussianMF(mean=1.5, sigma=0.25)
        assert mf.parameters() == {"mean": 1.5, "sigma": 0.25}
        assert mf.support_center() == 1.5

    @given(x=finite, mean=finite,
           sigma=st.floats(min_value=1e-3, max_value=1e3))
    def test_range_invariant(self, x, mean, sigma):
        value = float(GaussianMF(mean=mean, sigma=sigma)(x))
        assert 0.0 <= value <= 1.0


class TestGaussianSigmaFromRadius:
    def test_genfis2_convention(self):
        # sigma = r * range / sqrt(8)
        assert gaussian_sigma_from_radius(0.5, 2.0) == pytest.approx(
            0.5 * 2.0 / np.sqrt(8))

    def test_membership_at_radius_matches_chiu_kernel(self):
        # At distance r*range, membership should be exp(-4).
        radius, rng_span = 0.4, 1.0
        sigma = gaussian_sigma_from_radius(radius, rng_span)
        mf = GaussianMF(mean=0.0, sigma=sigma)
        assert mf(radius * rng_span) == pytest.approx(np.exp(-4.0))

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            gaussian_sigma_from_radius(0.0, 1.0)
        with pytest.raises(ConfigurationError):
            gaussian_sigma_from_radius(0.5, 0.0)
