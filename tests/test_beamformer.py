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
    of the square solve (uses numpy's pinv directly)."""
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

    @pytest.mark.parametrize("shape", [(2, 1), (4, 1), (2, 2), (4, 4)])
    def test_stack_matches_numpy_pinv_bit_for_bit(self, shape):
        # the trials' zero-forcing equalizer of (64, M, M) effective channels,
        # and of (64, M, 1) ones taken through the repetition vector in diversity mode
        rng = np.random.default_rng(200 + shape[0] * 10 + shape[1])
        h = rng.normal(size=(64, *shape)) + 1j * rng.normal(size=(64, *shape))
        pinv = left_pseudoinverse(h)
        assert pinv.shape == (64, shape[1], shape[0])
        for member, got in zip(h, pinv):
            assert got.tobytes() == np.linalg.pinv(member).tobytes()

    def test_column_channel_is_mrc(self):
        # one column: W = h^H / ||h||^2, maximum-ratio combining at unit gain
        rng = np.random.default_rng(2)
        h = rng.normal(size=(4, 1)) + 1j * rng.normal(size=(4, 1))
        w = left_pseudoinverse(h)
        np.testing.assert_allclose(w, h.conj().T / np.vdot(h, h).real, rtol=1e-14)
        np.testing.assert_allclose(w @ h, [[1.0]], rtol=1e-14)


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
            fit = np.linalg.norm(s_a @ d_ac + s_c @ d_ca - rot)
            assert max(r1, r2, fit) <= 1e-10

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
        # both stacks are [I; 0], so [S_a S_c] = [[I, I], [0, 0]] has rank 2 of 4
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

    @pytest.mark.parametrize("entry", [1e200 + 0j, 1e200 + 1e200j, complex(math.inf, 0.0)])
    def test_overflow_is_degenerate_not_a_warning(self, entry):
        # an overflowed or inf product reaches normalization as inf or nan,
        # which erases the trial; under filterwarnings = error a warning
        # from the product would fail here first
        product = compose([np.full((3, 2, 2), entry)] * 2)
        with pytest.raises(DegenerateNormalizationError) as exc:
            normalization([product])
        assert exc.value.mask.tolist() == [True] * 3


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


class TestStackedInputs:
    """A (K, 2M, M) stack is solved member by member, bit for bit."""

    K = 16

    def stacks(self, dim, seed):
        mom = derive_moments(NakagamiParams(m=1.0, omega=1.0))
        rng = np.random.default_rng(seed)
        s_a = np.stack([random_stack(mom, dim, rng) for _ in range(self.K)])
        s_c = np.stack([random_stack(mom, dim, rng) for _ in range(self.K)])
        return s_a, s_c, build_rotator(mom, dim)

    @pytest.mark.parametrize("dim", [1, 2, 4])
    def test_left_pseudoinverse_equals_members(self, dim):
        s_a, _, _ = self.stacks(dim, 21)
        stacked = left_pseudoinverse(s_a)
        assert stacked.shape == (self.K, dim, 2 * dim)
        for member, s in zip(stacked, s_a):
            np.testing.assert_array_equal(member, left_pseudoinverse(s))

    @pytest.mark.parametrize("dim", [1, 2, 4])
    def test_solve_coupled_drivers_equals_members(self, dim):
        s_a, s_c, rot = self.stacks(dim, 22)
        d_ac, d_ca = solve_coupled_drivers(s_a, s_c, rot)
        assert d_ac.shape == d_ca.shape == (self.K, dim, dim)
        for k in range(self.K):
            one_ac, one_ca = solve_coupled_drivers(s_a[k], s_c[k], rot)
            np.testing.assert_array_equal(d_ac[k], one_ac)
            np.testing.assert_array_equal(d_ca[k], one_ca)

    @pytest.mark.parametrize("dim", [1, 2, 4])
    def test_trials_by_pairs_equals_members(self, dim):
        # the network solves every pair of every trial as one (trials, pairs) stack
        s_a, s_c, rot = self.stacks(dim, 27)
        s_a, s_c = s_a.reshape(4, 4, 2 * dim, dim), s_c.reshape(4, 4, 2 * dim, dim)
        d_ac, d_ca = solve_coupled_drivers(s_a, s_c, rot)
        assert d_ac.shape == d_ca.shape == (4, 4, dim, dim)
        for t, k in np.ndindex(4, 4):
            one_ac, one_ca = solve_coupled_drivers(s_a[t, k], s_c[t, k], rot)
            np.testing.assert_array_equal(d_ac[t, k], one_ac)
            np.testing.assert_array_equal(d_ca[t, k], one_ca)

    def test_trials_by_pairs_mask(self):
        s_a, s_c, rot = self.stacks(2, 28)
        s_a, s_c = s_a.reshape(4, 4, 4, 2), s_c.reshape(4, 4, 4, 2)
        s_c[2, 1] = s_a[2, 1]
        with pytest.raises(NoUniqueSolutionError) as exc:
            solve_coupled_drivers(s_a, s_c, rot)
        assert exc.value.mask.shape == (4, 4)
        assert np.argwhere(exc.value.mask).tolist() == [[2, 1]]

    def test_compose_and_normalization_equal_members(self):
        d_ac, d_ca = solve_coupled_drivers(*self.stacks(2, 23))
        composites = [compose([d_ac, d_ca]), d_ca]
        g = normalization(composites)
        assert g.shape == (self.K,)
        for k in range(self.K):
            np.testing.assert_array_equal(composites[0][k], d_ac[k] @ d_ca[k])
            assert g[k] == normalization([c[k] for c in composites])

    def test_ill_conditioned_member_is_flagged(self):
        s_a, _, _ = self.stacks(2, 24)
        col = np.array([[1.0], [2.0]], dtype=complex)
        s_a[5] = stack(np.hstack([col, col]), np.hstack([col, col]))
        with pytest.raises(IllConditionedChannelError) as exc:
            left_pseudoinverse(s_a)
        assert np.flatnonzero(exc.value.mask).tolist() == [5]
        assert exc.value.condition > 1e9

    def test_singular_coupling_member_is_flagged(self):
        s_a, s_c, rot = self.stacks(2, 25)
        eye_stack = stack(np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex))
        s_a[3] = s_c[3] = eye_stack
        with pytest.raises(NoUniqueSolutionError) as exc:
            solve_coupled_drivers(s_a, s_c, rot)
        assert np.flatnonzero(exc.value.mask).tolist() == [3]

    def test_degenerate_normalization_member_is_flagged(self):
        rng = np.random.default_rng(26)
        comps = rng.normal(size=(2, self.K, 2, 2)) + 0j
        comps[:, 9] = 0.0
        with pytest.raises(DegenerateNormalizationError) as exc:
            normalization(list(comps))
        assert np.flatnonzero(exc.value.mask).tolist() == [9]

    def test_single_matrix_mask_is_0d(self):
        col = np.array([[1.0], [2.0]], dtype=complex)
        mat = np.hstack([col, col])
        with pytest.raises(IllConditionedChannelError) as exc:
            left_pseudoinverse(stack(mat, mat))
        assert exc.value.mask.shape == () and bool(exc.value.mask)
