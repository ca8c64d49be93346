import math

import numpy as np
import pytest

from sublevy.core import Quadrature
from sublevy.transform import (
    NonMonotoneTailError,
    TailPair,
    exponential_tails,
    power_tails,
    quantile_k,
    verify_transport,
)

LOG2 = 0.6931471805599453


def _symmetric_quadrature(z_cut=8.0, n=2001):
    zs = np.linspace(-z_cut, z_cut, n)
    return Quadrature(nodes=zs, weights=np.zeros_like(zs), z_cut=z_cut)


class TestQuantileK:
    def test_identity_when_tails_match(self):
        tails = exponential_tails(1.5, 1.5)
        for y in (0.3, 1.0, 4.0, -0.7, -2.5):
            assert quantile_k(tails, y, 1e-10) == pytest.approx(y, abs=1e-9)

    def test_exponential_pair_is_shift_with_dead_zone(self):
        tails = exponential_tails(1.0, 2.0)
        # above the dead zone the map subtracts log(lam_star/lam)
        assert quantile_k(tails, 1.0, 1e-10) == pytest.approx(1.0 - LOG2, abs=1e-9)
        assert quantile_k(tails, -3.0, 1e-10) == pytest.approx(-3.0 + LOG2, abs=1e-9)

    def test_empty_level_set_returns_zero(self):
        tails = exponential_tails(1.0, 2.0)
        # inside the dead zone the defining set is empty
        assert quantile_k(tails, 0.5, 1e-10) == 0.0
        assert quantile_k(tails, -0.2, 1e-10) == 0.0

    def test_monotone_on_each_half_line(self):
        tails = exponential_tails(1.0, 2.0)
        ys = np.linspace(0.05, 5.0, 40)
        ks = [quantile_k(tails, y, 1e-9) for y in ys]
        assert all(k2 >= k1 - 1e-8 for k1, k2 in zip(ks, ks[1:]))
        ks_neg = [quantile_k(tails, -y, 1e-9) for y in ys]
        assert all(k2 <= k1 + 1e-8 for k1, k2 in zip(ks_neg, ks_neg[1:]))

    def test_power_family_exact_dilation(self):
        alpha, ct, cr = 1.5, 2.0, 0.5
        tails = power_tails(alpha, ct, cr)
        scale = (ct / cr) ** (1.0 / alpha)
        for y in (0.2, 1.0, 7.0, -0.4, -3.0):
            assert quantile_k(tails, y, 1e-11) == pytest.approx(y * scale, rel=1e-8)

    def test_zero_mark_rejected(self):
        with pytest.raises(ValueError):
            quantile_k(exponential_tails(1.0, 1.0), 0.0, 1e-9)

    def test_nonpositive_tol_rejected(self):
        with pytest.raises(ValueError):
            quantile_k(exponential_tails(1.0, 1.0), 1.0, 0.0)

    def test_tail_not_finite_at_the_probe_diagnosed(self):
        tails = TailPair(
            target_upper=lambda z: math.inf,
            target_lower=lambda z: 1.0,
            reference_upper=lambda y: 0.5,
            reference_lower=lambda y: 0.5,
        )
        with pytest.raises(ValueError, match="tail not finite at z = 1e-09"):
            quantile_k(tails, 1.0, 1e-6)

    def test_cap_returns_z_max(self):
        # target tail never drops below the matched level inside the cap
        tails = TailPair(
            target_upper=lambda z: 1.0,
            target_lower=lambda z: 1.0,
            reference_upper=lambda y: 0.5,
            reference_lower=lambda y: 0.5,
        )
        assert quantile_k(tails, 1.0, 1e-9, z_max=100.0) == 100.0
        assert quantile_k(tails, -1.0, 1e-9, z_max=100.0) == -100.0

    def test_rising_tail_diagnosed(self):
        tails = TailPair(
            target_upper=lambda z: 1.0 if z < 2.0 else 3.0,
            target_lower=lambda z: 0.0,
            reference_upper=lambda y: 0.5,
            reference_lower=lambda y: 0.0,
        )
        with pytest.raises(NonMonotoneTailError, match="rose"):
            quantile_k(tails, 1.0, 1e-9, z_max=1e3)


class TestVerifyTransport:
    def test_exponential_pair_matches_target(self):
        tails = exponential_tails(1.0, 2.0)
        err = verify_transport(tails, _symmetric_quadrature(),
                               [0.1, 0.5, 1.0, 3.0, -0.1, -1.0, -3.0])
        assert err <= 1e-6

    def test_identity_pair_matches_target(self):
        tails = exponential_tails(1.5, 1.5)
        err = verify_transport(tails, _symmetric_quadrature(),
                               [0.2, 1.0, 2.0, -0.2, -1.0])
        assert err <= 1e-6

    def test_zero_threshold_rejected(self):
        with pytest.raises(ValueError):
            verify_transport(exponential_tails(1.0, 1.0),
                             _symmetric_quadrature(), [0.0])

    def test_atomic_target_fails_loudly(self):
        # a point mass cannot be reached by inverting continuous tails: the
        # quantile map collapses the atom and the reported error stays O(1)
        tails = TailPair(
            target_upper=lambda z: 1.0 if z <= 1.0 else 0.0,
            target_lower=lambda z: 0.0,
            reference_upper=lambda y: 2.0 * math.exp(-y),
            reference_lower=lambda y: 2.0 * math.exp(y),
        )
        quad = Quadrature(nodes=np.array([1.0]), weights=np.array([1.0]), z_cut=2.0)
        err = verify_transport(tails, quad, [0.5])
        assert err > 0.1

    def test_threshold_beyond_support_gives_zero_error(self):
        tails = exponential_tails(1.0, 2.0)
        err = verify_transport(tails, _symmetric_quadrature(z_cut=40.0, n=4001),
                               [30.0])
        # both target tail and pushed mass are ~ e^-30
        assert err <= 1e-9


class TestFamilies:
    def test_exponential_tail_values(self):
        tails = exponential_tails(1.0, 2.0)
        assert tails.target_upper(0.0) == 1.0
        assert tails.reference_upper(1.0) == pytest.approx(2.0 * math.exp(-1.0))
        assert tails.reference_lower(-1.0) == pytest.approx(2.0 * math.exp(-1.0))

    def test_exponential_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            exponential_tails(0.0, 1.0)
        with pytest.raises(ValueError):
            exponential_tails(1.0, -1.0)

    def test_power_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            power_tails(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            power_tails(1.0, 0.0, 1.0)

    def test_power_mass_blows_up_at_origin(self):
        tails = power_tails(1.0, 1.0, 1.0)
        assert tails.target_upper(1e-12) > 1e11
