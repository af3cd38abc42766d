import math

import numpy as np
import pytest

from beamlink.beamformer import (
    DegenerateNormalizationError,
    IllConditionedChannelError,
    NoUniqueSolutionError,
    build_rotator,
    compose,
    left_pseudoinverse,
    normalization,
    solve_coupled_drivers,
)
from beamlink.channel import (
    MomentDecomposition,
    NakagamiParams,
    derive_moments,
    sample_channel,
    stack,
)


def random_stack(mom, dim, rng):
    return stack(sample_channel(mom, dim, rng), sample_channel(mom, dim, rng))


def jacobi_oracle(stack_a, stack_c, rot, tol=1e-12, max_iter=5000):
    """Fixed-point iteration of the two driver equations, fully independent
    of the closed-form path (uses numpy's pinv directly)."""
    p_a = np.linalg.pinv(stack_a)
    p_c = np.linalg.pinv(stack_c)
    m_ac = p_a @ rot
    m_ca = p_c @ rot
    for _ in range(max_iter):
        new_ac = p_a @ (rot - stack_c @ m_ca)
        new_ca = p_c @ (rot - stack_a @ m_ac)
        delta = max(
            np.linalg.norm(new_ac - m_ac), np.linalg.norm(new_ca - m_ca)
        )
        m_ac, m_ca = new_ac, new_ca
        if delta < tol:
            return m_ac, m_ca
    raise RuntimeError("fixed point did not converge")


def coupling_spectral_radius(stack_a, stack_c):
    p_a = np.linalg.pinv(stack_a)
    p_c = np.linalg.pinv(stack_c)
    k = p_a @ stack_c @ p_c @ stack_a
    return float(np.max(np.abs(np.linalg.eigvals(k))))


class TestBuildRotator:
    def test_zero_correlation_gives_negated_identity_block(self):
        mom = MomentDecomposition(squared_mean=0.0, variance=1.0)
        rot = build_rotator(mom, 2, rotation_angle=math.pi)
        expected = np.vstack([-np.eye(2), np.zeros((2, 2))])
        np.testing.assert_allclose(rot, expected, atol=1e-15)

    def test_rayleigh_values(self):
        # squared_mean/(variance+squared_mean) = 0.785398 for m=1, omega=1,
        # then every entry picks up e^(j pi)
        mom = derive_moments(NakagamiParams(m=1.0, omega=1.0))
        rot = build_rotator(mom, 2, rotation_angle=math.pi)
        assert rot.shape == (4, 2)
        np.testing.assert_allclose(rot[0, 0], -1.0, atol=1e-12)
        np.testing.assert_allclose(rot[1, 1], -1.0, atol=1e-12)
        np.testing.assert_allclose(rot[1, 0], -0.785398163397448, atol=1e-10)
        np.testing.assert_allclose(rot[3, 1], -0.785398163397448, atol=1e-10)

    def test_zero_angle_is_unrotated(self):
        mom = derive_moments(NakagamiParams(m=1.0, omega=1.0))
        rot = build_rotator(mom, 2, rotation_angle=0.0)
        assert np.all(rot.real > 0)
        assert np.allclose(rot.imag, 0.0)

    def test_entry_magnitudes_bounded(self):
        for m in (0.5, 1.0, 3.0, 20.0):
            mom = derive_moments(NakagamiParams(m=m, omega=2.0))
            rot = build_rotator(mom, 3, rotation_angle=1.2345)
            assert np.all(np.abs(rot) <= 1.0 + 1e-12)


class TestLeftPseudoinverse:
    def test_identity_stack(self):
        s = stack(np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex))
        p = left_pseudoinverse(s)
        np.testing.assert_allclose(p, np.hstack([np.eye(2), np.zeros((2, 2))]), atol=1e-14)

    def test_scaled_identity_stack(self):
        s = stack(2.0 * np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex))
        p = left_pseudoinverse(s)
        np.testing.assert_allclose(p, np.hstack([0.5 * np.eye(2), np.zeros((2, 2))]), atol=1e-14)

    def test_left_inverse_residual(self):
        mom = derive_moments(NakagamiParams(m=1.0, omega=1.0))
        rng = np.random.default_rng(2)
        for _ in range(200):
            s = random_stack(mom, 2, rng)
            p = left_pseudoinverse(s)
            resid = np.linalg.norm(p @ s - np.eye(2))
            assert resid < 1e-10

    def test_rank_deficient_raises(self):
        col = np.array([[1.0], [2.0]], dtype=complex)
        mat = np.hstack([col, col])  # duplicate columns, rank 1
        s = stack(mat, mat)
        with pytest.raises(IllConditionedChannelError) as exc:
            left_pseudoinverse(s)
        assert exc.value.condition > 1e9


class TestSolveCoupledDrivers:
    def setup_method(self):
        self.mom = derive_moments(NakagamiParams(m=1.0, omega=1.0))
        self.rot = build_rotator(self.mom, 2)

    def test_zero_targets_give_zero_drivers(self):
        rng = np.random.default_rng(4)
        s_a = random_stack(self.mom, 2, rng)
        s_c = random_stack(self.mom, 2, rng)
        zero_rot = np.zeros((4, 2), dtype=complex)
        d_ac, d_ca = solve_coupled_drivers(s_a, s_c, zero_rot)
        np.testing.assert_allclose(d_ac, 0.0, atol=1e-12)
        np.testing.assert_allclose(d_ca, 0.0, atol=1e-12)

    @pytest.mark.parametrize("m", [0.5, 1.0, 3.0])
    def test_residuals_random_instances(self, m):
        mom = derive_moments(NakagamiParams(m=m, omega=1.0))
        rot = build_rotator(mom, 2)
        rng = np.random.default_rng(int(10 * m))
        for _ in range(50):
            s_a = random_stack(mom, 2, rng)
            s_c = random_stack(mom, 2, rng)
            d_ac, d_ca = solve_coupled_drivers(s_a, s_c, rot)
            p_a = left_pseudoinverse(s_a)
            p_c = left_pseudoinverse(s_c)
            r1 = np.linalg.norm(d_ac - p_a @ (rot - s_c @ d_ca))
            r2 = np.linalg.norm(d_ca - p_c @ (rot - s_a @ d_ac))
            assert max(r1, r2) <= 1e-10

    def test_agrees_with_fixed_point_oracle(self):
        # only contractive instances converge under Jacobi iteration; scan
        # until enough of them have been compared
        mom = derive_moments(NakagamiParams(m=0.5, omega=1.0))
        rot = build_rotator(mom, 2)
        rng = np.random.default_rng(7)
        compared = 0
        for _ in range(400):
            s_a = random_stack(mom, 2, rng)
            s_c = random_stack(mom, 2, rng)
            if coupling_spectral_radius(s_a, s_c) >= 0.9:
                continue
            d_ac, d_ca = solve_coupled_drivers(s_a, s_c, rot)
            fp_ac, fp_ca = jacobi_oracle(s_a, s_c, rot)
            assert np.linalg.norm(d_ac - fp_ac) <= 1e-8
            assert np.linalg.norm(d_ca - fp_ca) <= 1e-8
            compared += 1
            if compared >= 10:
                break
        assert compared >= 10

    def test_singular_coupling_raises(self):
        eye_stack = stack(np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex))
        # P = [I, 0] and the partner's stack [I; 0] make the coupling product
        # exactly I, so I - K is the zero matrix
        with pytest.raises(NoUniqueSolutionError):
            solve_coupled_drivers(eye_stack, eye_stack, self.rot)


class TestCompose:
    def test_single_driver_identity_composition(self):
        d = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        np.testing.assert_allclose(compose([d]), d)

    def test_identity_factors(self):
        c = compose([np.eye(2, dtype=complex) for _ in range(3)])
        np.testing.assert_allclose(c, np.eye(2), atol=1e-15)

    def test_ascending_target_order(self):
        # the network passes each node's drivers in ascending target order;
        # compose must multiply them in exactly the order given
        a = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        b = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        assert not np.allclose(a @ b, b @ a)  # genuinely non-commuting pair
        np.testing.assert_allclose(compose([b, a]), b @ a)
        np.testing.assert_allclose(compose([a, b]), a @ b)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            compose([])


class TestNormalization:
    def comp(self, entries):
        return np.asarray(entries, dtype=complex)

    def test_two_identities(self):
        g = normalization([self.comp(np.eye(2)), self.comp(np.eye(2))])
        assert g == pytest.approx(4.0)

    def test_zero_composite_degenerate(self):
        with pytest.raises(DegenerateNormalizationError):
            normalization([self.comp(np.zeros((2, 2)))])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            normalization([])

    def test_matches_entrywise_sum(self):
        rng = np.random.default_rng(12)
        mats = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3)]
        g = normalization([self.comp(m) for m in mats])
        brute = sum(abs(m[i, j]) ** 2 for m in mats for i in range(2) for j in range(2))
        assert g == pytest.approx(brute, rel=1e-12)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(13)
        mat = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        g1 = normalization([self.comp(mat)])
        g2 = normalization([self.comp(q @ mat)])
        assert g1 == pytest.approx(g2, rel=1e-10)
