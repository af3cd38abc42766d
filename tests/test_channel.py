import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamlink.channel import (
    MomentDecomposition,
    NakagamiParams,
    derive_moments,
    expected_gram,
    sample_channel,
    stack,
)


def gamma_amplitude_oracle(m, omega, size, rng):
    """Independent Nakagami amplitude sampler: r = sqrt(Gamma(m, omega/m))."""
    return np.sqrt(rng.gamma(shape=m, scale=omega / m, size=size))


class TestNakagamiParams:
    def test_rejects_small_m(self):
        with pytest.raises(ValueError):
            NakagamiParams(m=0.3, omega=1.0)

    def test_rejects_nonpositive_omega(self):
        with pytest.raises(ValueError):
            NakagamiParams(m=1.0, omega=0.0)
        with pytest.raises(ValueError):
            NakagamiParams(m=1.0, omega=-2.0)

    def test_boundary_m_accepted(self):
        p = NakagamiParams(m=0.5, omega=1.0)
        assert p.m == 0.5


class TestDeriveMoments:
    def test_rayleigh_case(self):
        # m=1, omega=1: squared mean is pi/4, independently recomputed
        mom = derive_moments(NakagamiParams(m=1.0, omega=1.0))
        assert mom.squared_mean == pytest.approx(0.785398163397448, abs=1e-12)
        assert mom.variance == pytest.approx(0.21460183660255205, abs=1e-12)
        assert mom.squared_mean == pytest.approx(math.pi / 4.0, rel=1e-14)

    def test_half_m_case(self):
        # m=0.5, omega=1: squared mean is 2/pi
        mom = derive_moments(NakagamiParams(m=0.5, omega=1.0))
        assert mom.squared_mean == pytest.approx(2.0 / math.pi, rel=1e-14)
        assert mom.squared_mean == pytest.approx(0.6366197723675809, abs=1e-12)

    def test_heavy_m_case(self):
        mom = derive_moments(NakagamiParams(m=3.0, omega=2.0))
        assert mom.squared_mean == pytest.approx(1.8407769454627694, abs=1e-12)
        assert mom.variance == pytest.approx(0.15922305453723062, abs=1e-12)

    def test_large_m_limit(self):
        # as m grows the channel hardens: squared mean -> omega, variance -> 0
        mom = derive_moments(NakagamiParams(m=1e6, omega=1.0))
        assert mom.squared_mean == pytest.approx(0.9999997485, abs=1e-9)
        assert mom.variance == pytest.approx(2.5145689e-07, rel=1e-4)
        assert mom.variance > 0

    def test_moments_match_amplitude_sampler(self):
        # cross-check against the Gamma-based amplitude representation
        rng = np.random.default_rng(7)
        for m, omega in [(0.5, 1.0), (1.0, 1.0), (3.0, 2.0)]:
            mom = derive_moments(NakagamiParams(m=m, omega=omega))
            r = gamma_amplitude_oracle(m, omega, 400_000, rng)
            assert np.mean(r) ** 2 == pytest.approx(mom.squared_mean, rel=5e-3)
            assert np.mean(r**2) == pytest.approx(mom.squared_mean + mom.variance, rel=5e-3)

    @given(
        m=st.floats(min_value=0.5, max_value=50.0),
        omega=st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=200, deadline=None)
    def test_decomposition_invariants(self, m, omega):
        mom = derive_moments(NakagamiParams(m=m, omega=omega))
        assert mom.squared_mean > 0
        assert mom.variance > 0
        assert mom.total == pytest.approx(omega, rel=1e-12)
        assert 0.0 < mom.correlation < 1.0


class TestSampleChannel:
    def test_shape_and_dtype(self):
        mom = derive_moments(NakagamiParams(m=1.0, omega=1.0))
        h = sample_channel(mom, 3, np.random.default_rng(0))
        assert h.shape == (3, 3)
        assert np.iscomplexobj(h)

    def test_rejects_bad_dimension(self):
        mom = derive_moments(NakagamiParams(m=1.0, omega=1.0))
        with pytest.raises(ValueError):
            sample_channel(mom, 0, np.random.default_rng(0))

    def test_deterministic_under_seed(self):
        mom = derive_moments(NakagamiParams(m=1.0, omega=1.0))
        h1 = sample_channel(mom, 4, np.random.default_rng(42))
        h2 = sample_channel(mom, 4, np.random.default_rng(42))
        np.testing.assert_array_equal(h1, h2)

    def test_element_moments(self):
        # entries must carry mean sqrt(squared_mean) and scatter power variance
        mom = derive_moments(NakagamiParams(m=1.0, omega=1.0))
        rng = np.random.default_rng(11)
        draws = np.stack([sample_channel(mom, 2, rng) for _ in range(50_000)])
        mean = draws.mean()
        assert mean.real == pytest.approx(math.sqrt(mom.squared_mean), rel=5e-3)
        assert abs(mean.imag) < 5e-3
        scatter = np.mean(np.abs(draws - math.sqrt(mom.squared_mean)) ** 2)
        assert scatter == pytest.approx(mom.variance, rel=2e-2)
        assert np.mean(np.abs(draws) ** 2) == pytest.approx(1.0, rel=1e-2)

    def test_stacked_draw_equals_single_draws(self):
        # one call for a (3, 5) stack takes the stream exactly as 15 single
        # draws in a row, and leaves it at the same place
        mom = derive_moments(NakagamiParams(m=1.0, omega=1.0))
        one_call, in_turn = np.random.default_rng(8), np.random.default_rng(8)
        stacked = sample_channel(mom, 2, one_call, (3, 5))
        assert stacked.shape == (3, 5, 2, 2)
        singles = np.stack([sample_channel(mom, 2, in_turn) for _ in range(15)])
        np.testing.assert_array_equal(stacked.reshape(15, 2, 2), singles)
        assert one_call.standard_normal() == in_turn.standard_normal()

    def test_generator_sequence_stacks_each_members_draw(self):
        # member i of a stack drawn from a sequence of generators is what
        # generator i alone gives, and each stream ends where it would
        mom = derive_moments(NakagamiParams(m=2.0, omega=1.0))
        stacked_rngs = [np.random.default_rng(s) for s in range(4)]
        alone_rngs = [np.random.default_rng(s) for s in range(4)]
        stacked = sample_channel(mom, 3, stacked_rngs, (5,))
        assert stacked.shape == (4, 5, 3, 3)
        alone = np.stack([sample_channel(mom, 3, rng, (5,)) for rng in alone_rngs])
        assert stacked.tobytes() == alone.tobytes()
        for a, b in zip(stacked_rngs, alone_rngs):
            assert a.bit_generator.state == b.bit_generator.state

    def test_hardened_channel_nearly_constant(self):
        mom = derive_moments(NakagamiParams(m=1e6, omega=1.0))
        h = sample_channel(mom, 2, np.random.default_rng(5))
        assert np.allclose(h, 1.0, atol=5e-3)


class TestStack:
    def test_stacks_vertically(self):
        a = np.arange(4.0).reshape(2, 2) + 0j
        b = 10.0 + np.arange(4.0).reshape(2, 2) + 0j
        s = stack(a, b)
        assert s.shape == (4, 2)
        np.testing.assert_array_equal(s[:2], a)
        np.testing.assert_array_equal(s[2:], b)

    def test_stacks_member_by_member(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(2, 4, 3, 3))
        s = stack(a, b)
        assert s.shape == (4, 6, 3)
        for k in range(4):
            np.testing.assert_array_equal(s[k], stack(a[k], b[k]))

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            stack(np.zeros((2, 2)), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            stack(np.zeros((2, 3)), np.zeros((2, 3)))


class TestExpectedGram:
    def test_structure(self):
        mom = derive_moments(NakagamiParams(m=1.0, omega=1.0))
        g = expected_gram(mom, 2)
        assert g.shape == (4, 4)
        # diagonal: M * (variance + squared_mean); off-diagonal: M * squared_mean
        assert np.allclose(np.diag(g), 2 * (mom.variance + mom.squared_mean))
        off = g[~np.eye(4, dtype=bool)]
        assert np.allclose(off, 2 * mom.squared_mean)
        # hermitian positive semidefinite
        assert np.allclose(g, g.conj().T)
        assert np.min(np.linalg.eigvalsh(g)) >= -1e-12

    @pytest.mark.parametrize("m,omega", [(0.5, 1.0), (1.0, 1.0), (3.0, 2.0)])
    def test_monte_carlo_gram_converges(self, m, omega):
        # empirical Gram of stacked draws must approach the closed form
        mom = derive_moments(NakagamiParams(m=m, omega=omega))
        rng = np.random.default_rng(123)
        dim = 2
        target = expected_gram(mom, dim)
        acc = np.zeros((2 * dim, 2 * dim), dtype=complex)
        n = 20_000
        for _ in range(n):
            s = stack(sample_channel(mom, dim, rng), sample_channel(mom, dim, rng))
            acc += s @ s.conj().T
        emp = acc / n
        scale = np.max(np.abs(target))
        assert np.max(np.abs(emp - target)) / scale < 0.05
