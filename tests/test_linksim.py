import concurrent.futures
import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import chi2_contingency as scipy_chi2_contingency
from scipy.stats import multivariate_normal as scipy_mvn
from scipy.stats import norm as scipy_norm

from beamlink import experiments, linksim
from beamlink.beamformer import IllConditionedChannelError, left_pseudoinverse
from beamlink.linksim import (
    BPSK,
    QPSK,
    MODULATIONS,
    LinkConfig,
    TrialStats,
    detect,
    modulate,
    received_signal,
    run_trials,
)
from beamlink.metrics import RATES, capacity, effective_snr
from beamlink.topology import Node, ScenarioError, build_scenario
from reference import (
    POINTS,
    block_streams,
    complex_modulate,
    full_block_detect,
    full_block_received_signal,
    per_draw_plan,
    per_trial_run,
    trial_link,
)


def q_function(x):
    return scipy_norm.sf(x)


def two_node_scenario(spacing=10.0, radius=6.0, eta=3.0):
    nodes = [
        Node(id=0, position=np.array([0.0, 0.0]), range_radius=radius),
        Node(id=1, position=np.array([spacing, 0.0]), range_radius=radius),
    ]
    return build_scenario(nodes, path_loss_exponent=eta, reference_distance=1.0)


def single_node_scenario():
    nodes = [Node(id=0, position=np.array([0.0, 0.0]), range_radius=6.0)]
    return build_scenario(nodes)


def pinv_of(h):
    """The trials' zero-forcing equalizer of one effective channel h."""
    return left_pseudoinverse(np.asarray(h, dtype=complex))


def argmin_bits(equalized, scheme):
    """Reference minimum-distance slicer: nearest point, then its bits."""
    tables = {"bpsk": np.array([[0], [1]]), "qpsk": np.array([[0, 0], [0, 1], [1, 0], [1, 1]])}
    index = np.argmin(np.abs(equalized[..., None] - POINTS[scheme.kind]), axis=-1)
    return tables[scheme.kind][index.reshape(-1)].reshape(-1)


def calibration_config(snr_db, packet_bits=2304):
    return LinkConfig(
        snr_db=tuple(snr_db),
        dimension=1,
        modulation=BPSK,
        packet_bits=packet_bits,
        fading=None,
    )


class TestModulate:
    def test_bpsk_convention(self):
        np.testing.assert_array_equal(modulate(np.array([0, 1]), BPSK), [[1.0, -1.0]])

    def test_qpsk_gray_map(self):
        # coordinates (Im x, Re x) of each symbol, the points' exactly
        s = math.sqrt(2.0)
        got = modulate(np.array([0, 0, 0, 1, 1, 1, 1, 0]), QPSK)
        want = [(1 + 1j) / s, (-1 + 1j) / s, (-1 - 1j) / s, (1 - 1j) / s]
        np.testing.assert_array_equal(got[1] + 1j * got[0], want)

    def test_rows_are_streams(self):
        # (..., N * b) bits give (..., b, N) coordinates, row by row
        rng = np.random.default_rng(3)
        for scheme in (BPSK, QPSK):
            bits = rng.integers(0, 2, size=(2, 3, 4 * scheme.bits_per_symbol), dtype=np.uint8)
            got = modulate(bits, scheme)
            assert got.shape == (2, 3, scheme.bits_per_symbol, 4)
            for index in np.ndindex(2, 3):
                np.testing.assert_array_equal(got[index], modulate(bits[index], scheme))

    def test_unit_average_energy(self):
        for scheme in (BPSK, QPSK):
            n = 2 ** scheme.bits_per_symbol
            all_bits = np.array(
                [b for k in range(n) for b in map(int, format(k, f"0{scheme.bits_per_symbol}b"))]
            )
            coordinates = modulate(all_bits, scheme)
            energy = np.sum(coordinates**2, axis=0)
            np.testing.assert_allclose(energy, 1.0, rtol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            modulate(np.array([0, 1, 0]), QPSK)

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            modulate(np.array([0, 2]), BPSK)

    def test_lookup_by_name(self):
        assert MODULATIONS == {"bpsk": BPSK, "qpsk": QPSK}


class TestLinkConfigPacket:
    def test_symbols_per_stream(self):
        link = LinkConfig(snr_db=(0.0,), dimension=2, modulation=QPSK, packet_bits=2304)
        assert link.symbols_per_stream == 576
        diversity = LinkConfig(snr_db=(0.0,), dimension=2, packet_bits=2304, mode="diversity")
        assert diversity.symbols_per_stream == 2304

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError, match="split"):
            LinkConfig(snr_db=(0.0,), dimension=2, packet_bits=2303)

    def test_bad_fields(self):
        with pytest.raises(ValueError):
            LinkConfig(snr_db=(0.0,), packet_bits=0)
        with pytest.raises(ValueError):
            LinkConfig(snr_db=(0.0,), dimension=0)


@st.composite
def trial_stats(draw):
    """A valid TrialStats: every counter drawn, then each sent count raised
    to hold its errors, and packets_sent its erasures too."""
    values = {f.name: draw(st.integers(0, 10**6)) for f in fields(TrialStats)}
    for _, errors, sent in RATES:
        values[sent] += values[errors]
    values["packets_sent"] += values["erasures"]
    return TrialStats(**values)


class TestTrialStats:
    @given(trial_stats(), trial_stats())
    def test_addition_sums_every_field(self, a, b):
        total = a + b
        for f in fields(TrialStats):
            assert getattr(total, f.name) == getattr(a, f.name) + getattr(b, f.name), f.name

    def test_addition(self):
        a = TrialStats(bits_sent=10, bit_errors=1, symbols_sent=10, symbol_errors=1,
                       packets_sent=1, packet_errors=1)
        b = TrialStats(bits_sent=20, bit_errors=0, symbols_sent=20, symbol_errors=0,
                       packets_sent=2, packet_errors=0, erasures=0)
        c = a + b
        assert c.bits_sent == 30 and c.bit_errors == 1
        assert c.packets_sent == 3 and c.packet_errors == 1

    def test_errors_cannot_exceed_sent(self):
        with pytest.raises(ValueError):
            TrialStats(bits_sent=5, bit_errors=6)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            TrialStats(bits_sent=-1)


def axes_of(known, scheme):
    """The (..., K, D/K, N) slicer axes of a known (..., K, N) part: Re for BPSK, (Im, Re) for QPSK."""
    parts = [known.real] if scheme.kind == "bpsk" else [known.imag, known.real]
    return np.stack(parts, axis=-2)


def slicer(symbols, leaks, factor, normals, scheme):
    """received_signal on a one-trial chunk, given its complex (senders, K, N)
    symbols and each other sender's complex (K, K) A_s: the (K, D/K, N) axes."""
    d = len(factor)
    real = [linksim._real_axes(np.asarray(a, dtype=complex), scheme.bits_per_symbol) for a in leaks]
    real = np.array(real).reshape(len(leaks), d, d)
    return received_signal(axes_of(symbols, scheme)[None], real[None], factor[None], normals[None])[0]


def decisions(e):
    """detect's bits for one trial's (K, D/K, N) axes, in the order sent."""
    return detect(e[None])[0].swapaxes(-1, -2).reshape(-1)


class TestReceivedSignal:
    """The slicer statistic: the known part x_0 + sum_s A_s x_s on each axis, plus F @ normals."""

    def test_identity_chain(self):
        x = np.array([[1.0, -1.0], [1.0, 1.0]], dtype=complex)
        e = slicer(x[None], [], np.zeros((2, 2)), np.ones((2, 2)), BPSK)
        np.testing.assert_array_equal(e, axes_of(x, BPSK))

    def test_noise_only(self):
        factor = np.array([[0.3, 0.0], [0.1, -0.4]])
        normals = np.array([[0.5, -1.0, 2.0], [1.5, 0.25, -2.0]])
        e = slicer(np.zeros((1, 2, 3), dtype=complex), [], factor, normals, BPSK)
        np.testing.assert_allclose(e[:, 0], factor @ normals, rtol=1e-15)

    def test_superposition(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        factor = rng.normal(size=(4, 4))
        normals = rng.normal(size=(4, 3))
        x0 = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        x1, x2 = (rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3)) for _ in range(2))
        e12 = slicer(np.stack([x0, x1 + x2]), [a], factor, normals, QPSK)
        e1 = slicer(np.stack([x0, x1]), [a], factor, normals, QPSK)
        e2 = slicer(np.stack([x0, x2]), [a], factor, normals, QPSK)
        e0 = slicer(np.stack([x0, 0 * x1]), [a], factor, normals, QPSK)
        np.testing.assert_allclose(e12, e1 + e2 - e0, atol=1e-12)

    def test_noise_block_not_mutated(self):
        # neither the symbols nor the normals buffer is ever written
        rng = np.random.default_rng(4)
        symbols = modulate(rng.integers(0, 2, size=(1, 2, 2, 2 * 5)), QPSK)
        normals = rng.normal(size=(1, 4, 5))
        before = symbols.copy(), normals.copy()
        for leaks in (np.eye(4)[None, None], np.empty((1, 0, 4, 4))):
            received_signal(symbols[:, : 1 + leaks.shape[1]], leaks, np.eye(4)[None], normals)
            np.testing.assert_array_equal(symbols, before[0])
            np.testing.assert_array_equal(normals, before[1])

    @pytest.mark.parametrize("dimension", [1, 2, 4])
    def test_diversity_column_matches_repeated_block(self, dimension):
        # the full-block reference: diversity sends (E @ rep) with the (1, N)
        # symbols, not E with the (M, N) block rep (x) symbols; the two agree
        # to rounding
        rng = np.random.default_rng(dimension)
        e = rng.normal(size=(dimension, dimension)) + 1j * rng.normal(size=(dimension, dimension))
        rep = linksim._alternating_unit_vector(dimension)
        s = complex_modulate(rng.integers(0, 2, size=2 * 64), QPSK)[None]
        noise = rng.normal(size=(dimension, 64)) + 1j * rng.normal(size=(dimension, 64))
        y = full_block_received_signal({0: e @ rep[:, None]}, {0: s}, noise)
        np.testing.assert_allclose(y, noise + e @ (rep[:, None] * s), rtol=1e-13)

    def test_two_multiplexing_senders_match_matrix_product(self):
        rng = np.random.default_rng(9)
        leaks = [rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for _ in range(2)]
        for scheme in (BPSK, QPSK):
            bits = rng.integers(0, 2, size=(3, 4, 32 * scheme.bits_per_symbol))
            x = complex_modulate(bits, scheme)
            d = 4 * scheme.bits_per_symbol
            e = slicer(x, leaks, np.zeros((d, d)), np.zeros((d, 32)), scheme)
            known = x[0] + leaks[0] @ x[1] + leaks[1] @ x[2]
            np.testing.assert_allclose(e, axes_of(known, scheme), rtol=1e-13, atol=1e-14)

    @pytest.mark.parametrize("scheme", [BPSK, QPSK], ids=lambda s: s.kind)
    def test_chunk_members_match_one_trial_chunks(self, scheme):
        # every trial of a chunk reads as in a chunk of its own, bit for bit
        rng = np.random.default_rng(11)
        d = 2 * scheme.bits_per_symbol
        symbols = modulate(rng.integers(0, 2, size=(5, 3, 2, 16 * scheme.bits_per_symbol)), scheme)
        leaks, factor = rng.normal(size=(5, 2, d, d)), rng.normal(size=(5, d, d))
        normals = rng.normal(size=(5, d, 16))
        chunk = received_signal(symbols, leaks, factor, normals)
        for t in range(5):
            one = received_signal(symbols[t : t + 1], leaks[t : t + 1], factor[t : t + 1], normals[t : t + 1])
            assert chunk[t : t + 1].tobytes() == one.tobytes()


class TestNoiseFactor:
    """F F^T against the covariance of W n's slicer axes, derived from the
    real 2K x 2M form of the complex combiner."""

    @staticmethod
    def axes_covariance(w, sigma2, scheme):
        # [Re; Im] of W n for n ~ CN(0, sigma2 I) is R @ (white 2M-vector)
        r = np.block([[w.real, -w.imag], [w.imag, w.real]]) * math.sqrt(sigma2 / 2.0)
        k = len(w)
        re, im = np.arange(k), k + np.arange(k)
        axes = re if scheme.kind == "bpsk" else np.stack([im, re], axis=1).reshape(-1)
        return (r @ r.T)[np.ix_(axes, axes)]

    @pytest.mark.parametrize("scheme", [BPSK, QPSK], ids=lambda s: s.kind)
    @pytest.mark.parametrize("shape", [(1, 4), (2, 2), (4, 4)])
    def test_factor_matches_the_axes_covariance(self, scheme, shape):
        rng = np.random.default_rng(shape[0] * 10 + shape[1])
        w = rng.normal(size=(16, *shape)) + 1j * rng.normal(size=(16, *shape))
        factor = linksim._noise_factor(w, 0.3, scheme.bits_per_symbol)
        for member, f in zip(w, factor):
            want = self.axes_covariance(member, 0.3, scheme)
            np.testing.assert_allclose(f @ f.T, want, rtol=1e-12, atol=1e-14)
            # each axis's marginal variance is sigma2 ||w_k||^2 / 2, the oracle's
            np.testing.assert_allclose(
                np.diag(want).reshape(shape[0], -1),
                np.repeat(0.15 * np.sum(np.abs(member) ** 2, axis=1)[:, None],
                          scheme.bits_per_symbol, axis=1),
                rtol=1e-12,
            )

    def test_near_singular_combiner_has_a_factor(self):
        # a channel of condition 1e9 gives a W W^H of condition ~1e16 that is
        # semidefinite only to rounding: Cholesky fails on it, the clipped
        # eigh factor does not
        rng = np.random.default_rng(0)
        u, _, vh = np.linalg.svd(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        w = np.linalg.pinv((u * [1.0, 1e-9]) @ vh)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(w @ w.conj().T)
        for scheme in (BPSK, QPSK):
            (f,) = linksim._noise_factor(w[None], 1.0, scheme.bits_per_symbol)
            cov = self.axes_covariance(w, 1.0, scheme)
            np.testing.assert_allclose(f @ f.T, cov, rtol=0.0, atol=1e-15 * np.abs(cov).max())


class TestDetect:
    def test_noiseless_roundtrip(self):
        rng = np.random.default_rng(1)
        for scheme in (BPSK, QPSK):
            d = 2 * scheme.bits_per_symbol
            bits = rng.integers(0, 2, size=64 * scheme.bits_per_symbol)
            x = complex_modulate(bits, scheme).reshape(1, 2, -1)
            e = slicer(x, [], np.zeros((d, d)), np.zeros((d, x.shape[-1])), scheme)
            np.testing.assert_array_equal(decisions(e), bits)
            # the full-block reference through a channel and its pseudoinverse
            h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            np.testing.assert_array_equal(full_block_detect(h @ x[0], pinv_of(h), scheme), bits)

    def test_bpsk_negative_halfplane(self):
        np.testing.assert_array_equal(decisions(np.array([[[-0.3]]])), [1])

    def test_on_constellation_point(self):
        s = (1 - 1j) / math.sqrt(2.0)  # bits (1, 0)
        e = slicer(np.array([[[s]]]), [], np.zeros((2, 2)), np.zeros((2, 1)), QPSK)
        np.testing.assert_array_equal(decisions(e), [1, 0])

    def test_bpsk_sign_decides_where_distances_tie(self):
        # |e - 1| and |e + 1| are both 1e9 in floating point; Re e < 0 decides
        e = slicer(np.array([[[-0.3 + 1e9j]]]), [], np.zeros((1, 1)), np.zeros((1, 1)), BPSK)
        np.testing.assert_array_equal(decisions(e), [1])
        got = full_block_detect(np.array([[-0.3 + 1e9j]]), pinv_of([[1.0 + 0j]]), BPSK)
        np.testing.assert_array_equal(got, [1])

    def test_qpsk_sign_decides_where_distances_tie(self):
        # all four distances are 1e9 in floating point; Im e < 0 and Re e < 0 decide
        e = slicer(np.array([[[-0.3 - 1e9j]]]), [], np.zeros((2, 2)), np.zeros((2, 1)), QPSK)
        np.testing.assert_array_equal(decisions(e), [1, 1])
        got = full_block_detect(np.array([[-0.3 - 1e9j]]), pinv_of([[1.0 + 0j]]), QPSK)
        np.testing.assert_array_equal(got, [1, 1])

    def test_singular_channel_raises(self):
        # _run_task erases the trial on this error
        h = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
        with pytest.raises(IllConditionedChannelError):
            pinv_of(h)

    @pytest.mark.parametrize("shape", [(2, 2), (4, 4), (2, 1), (4, 1)])
    def test_equalizer_matches_numpy_pinv(self, shape):
        # the full-block reference equalizes with pinv's formula on its one
        # SVD; the reference is numpy.linalg.pinv itself, sliced the same way
        rng = np.random.default_rng(shape[0] * 10 + shape[1])
        points = np.array([1 + 1j, -1 + 1j, 1 - 1j, -1 - 1j]) / math.sqrt(2.0)
        table = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
        for _ in range(200):
            h = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            y = rng.normal(size=(shape[0], 16)) + 1j * rng.normal(size=(shape[0], 16))
            equalized = np.linalg.pinv(h) @ y
            index = np.argmin(np.abs(equalized[..., None] - points), axis=-1)
            want = table[index.reshape(-1)].reshape(-1)
            np.testing.assert_array_equal(full_block_detect(y, pinv_of(h), QPSK), want)

    @pytest.mark.parametrize("shape", [(2, 1), (4, 1), (2, 2), (4, 4)])
    def test_packet_length_blocks_match_numpy_pinv(self, shape):
        # a full 2304-column packet block, the size at which pinv @ y goes
        # to a threaded BLAS path; the antenna-by-antenna contraction must
        # slice the same bits as it
        rng = np.random.default_rng(100 + shape[0] * 10 + shape[1])
        for scheme in (BPSK, QPSK):
            for _ in range(5):
                h = rng.normal(size=shape) + 1j * rng.normal(size=shape)
                y = rng.normal(size=(shape[0], 2304)) + 1j * rng.normal(size=(shape[0], 2304))
                want = argmin_bits(np.linalg.pinv(h) @ y, scheme)
                np.testing.assert_array_equal(full_block_detect(y, pinv_of(h), scheme), want)



class TestEqualizers:
    def test_mask_marks_zero_and_rank_one_members(self):
        # the trials' equalizer on a stack of a_0: the mask picks out the
        # trials to erase
        rng = np.random.default_rng(3)
        full = rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
        u = rng.normal(size=(2, 1)) + 1j * rng.normal(size=(2, 1))
        ones = np.ones((2, 2), dtype=complex)
        zero = np.zeros((2, 2), dtype=complex)
        members = np.stack([full[0], zero, u @ u.conj().T, ones, full[1]])
        # no divide warning either: the test run turns warnings into errors
        with pytest.raises(IllConditionedChannelError) as exc:
            linksim.left_pseudoinverse(members)
        assert exc.value.mask.tolist() == [False, True, True, True, False]
        assert exc.value.condition == math.inf


def test_composites_carry_unit_total_power():
    # a 4-node line: three pairs, two nodes with two drivers each
    sc = build_scenario(
        [Node(id=i, position=np.array([10.0 * i, 0.0]), range_radius=6.0) for i in range(4)]
    )
    plan = linksim._plan(sc, LinkConfig(snr_db=(5.0,), packet_bits=32))
    rng = np.random.default_rng(8)
    composites = linksim._solve_network(plan, plan.draw(rng, 20))
    power = sum(np.sum(np.abs(c) ** 2, axis=(1, 2)) for c in composites.values())
    np.testing.assert_allclose(power, 1.0, rtol=0.0, atol=1e-12)


class TestPlan:
    """The draw plan against the per-draw planner, bit for bit."""

    # pair (0, 1)'s chord foot lands on node 0: a draw at distance 0
    CHORD_ON_NODE = [((0.0, 0.0), 4.0), ((3.0, 0.0), 5.0), ((1.0, 2.5), 3.0)]

    def plans(self, scenario):
        for include_interference in (True, False):
            link = LinkConfig(snr_db=(0.0,), include_interference=include_interference)
            plan = linksim._plan(scenario, link)
            yield (plan.pairs, plan.senders, plan.amplitudes[:, 0, 0]), per_draw_plan(scenario, link)

    def test_random_networks_match_per_draw_planner(self):
        rng = np.random.default_rng(28)
        built = {False: 0, True: 0}
        for k in range(300):
            count = int(rng.integers(2, 7))
            ids = rng.permutation(40)[:count].tolist()
            xy = rng.uniform(-10, 10, size=(count, 2)).round(3)
            radii = rng.uniform(1, 12, size=count).round(4)
            powers = rng.choice([0.25, 1.0, 3.7], size=count)
            nodes = [Node(i, p, r, w) for i, p, r, w in zip(ids, xy, radii, powers)]
            own = float(rng.uniform(1, 4)) if k % 2 else None
            try:
                sc = build_scenario(nodes, float(rng.choice([2.0, 3.0, 3.7])),
                                    float(rng.choice([0.5, 1.0, 2.0])), own)
            except ScenarioError:
                continue
            built[own is not None] += 1
            for (pairs, senders, amplitudes), (ref_pairs, ref_senders, ref_amplitudes) in self.plans(sc):
                assert (pairs, senders) == (ref_pairs, ref_senders)
                assert amplitudes.tobytes() == ref_amplitudes.tobytes()
        assert min(built.values()) > 30, built

    def test_chord_on_node_and_single_link(self):
        nodes = [Node(i, np.array(xy), r) for i, (xy, r) in enumerate(self.CHORD_ON_NODE)]
        sc = build_scenario(nodes)
        assert sc.points[0].tolist() == [[0.0, 0.0], [0.0, 0.0]]
        for scenario in (sc, single_node_scenario()):
            for (pairs, senders, amplitudes), (ref_pairs, ref_senders, ref_amplitudes) in self.plans(scenario):
                assert (pairs, senders) == (ref_pairs, ref_senders)
                assert amplitudes.tobytes() == ref_amplitudes.tobytes()
        # node 0's channel to its own receive point, drawn at distance 0
        assert linksim._plan(sc, LinkConfig(snr_db=(0.0,))).amplitudes[1, 0, 0] == 1.0

    def test_one_path_gain_call_and_no_norm(self, monkeypatch):
        calls = []
        gain = linksim.path_gain

        def counted(distance, scenario):
            calls.append(len(distance))
            return gain(distance, scenario)

        def norm(*args, **kwargs):
            raise AssertionError("the plan measures no distance with np.linalg.norm")

        monkeypatch.setattr(linksim, "path_gain", counted)
        monkeypatch.setattr(np.linalg, "norm", norm)
        nodes = [Node(i, np.array(xy), r) for i, (xy, r) in enumerate(self.CHORD_ON_NODE)]
        plan = linksim._plan(build_scenario(nodes), LinkConfig(snr_db=(0.0,)))
        assert calls == [len(plan.amplitudes)] == [4 * 3 + 1]


class TestSinr:
    """The zero-forcing output SINR against the error the slicer sees, on
    one trial's channels of the 3-node chain, where node 2 is heard at the
    measured receive point; at 35 dB noise and interference both count."""

    # the golden runs' 3-node chain: 5 m apart, 12 m disks
    CHAIN3 = {"node_count": 3, "node_spacing": 5.0, "range_radius": 12.0}

    def trial(self, mode, dimension):
        config = experiments.load_config(overrides={
            "trials": 1, "seed": 5, "snr": {"start": 35.0, "stop": 35.0},
            "scenario": {**self.CHAIN3, "dimension": dimension, "transmission_mode": mode},
        })
        ((*_, scenario, link),) = config.runs
        plan = linksim._plan(scenario, link)
        assert len(plan.senders) == 3
        # trial 0 of point 0, drawn as run_trials draws it
        channels = plan.draw(block_streams(5, 0, 0)[0], 1)
        composites = linksim._solve_network(plan, channels)
        sent = [channels[0, d] @ composites[node_id][0] for node_id, d in plan.senders]
        if plan.repetition is not None:
            sent = [a @ plan.repetition[:, None] for a in sent]
        w = np.linalg.pinv(sent[0])
        interference = sum(np.sum(np.abs(w @ a) ** 2, axis=1) for a in sent[1:])
        sigma2 = 10.0 ** (-link.snr_db[0] / 10.0)
        sinr = effective_snr(interference, np.sum(np.abs(w) ** 2, axis=1), sigma2)
        return scenario, link, sent, w, sigma2, sinr

    @pytest.mark.parametrize("mode, dimension", [("multiplexing", 2), ("diversity", 4)])
    def test_analytic_sinr_matches_post_combiner_error(self, mode, dimension):
        _, _, sent, w, sigma2, sinr = self.trial(mode, dimension)
        rng = np.random.default_rng(17)
        n = 200_000
        streams = sent[0].shape[1]
        symbols = {s: modulate(rng.integers(0, 2, size=streams * n), BPSK).reshape(streams, n)
                   for s in range(len(sent))}
        noise = rng.normal(size=(dimension, n)) + 1j * rng.normal(size=(dimension, n))
        # the full-block reference: the (M, N) received block, then W
        y = full_block_received_signal(dict(enumerate(sent)), symbols, noise * math.sqrt(sigma2 / 2))
        error = np.abs(w @ y - symbols[0]) ** 2
        # the mean of n independent squared errors, within 4 standard errors
        bound = 4.0 * error.std(axis=1) / math.sqrt(n)
        assert np.all(np.abs(error.mean(axis=1) - 1.0 / sinr) < bound)

    @pytest.mark.parametrize("mode, dimension", [("multiplexing", 2), ("diversity", 4)])
    def test_capacity_sample_reads_the_sinr(self, mode, dimension):
        scenario, link, *_, sinr = self.trial(mode, dimension)
        (res,) = run_trials([(scenario, link)], n_trials=1, master_seed=5)
        assert res.capacity_samples[0] == pytest.approx(capacity(sinr), rel=1e-12)


@pytest.fixture
def pool_sizes(monkeypatch):
    """Each pool size run_trials opens, on 2 CPUs; the stand-in pool runs
    the tasks here and starts no process."""
    opened = []

    class InProcessPool:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(linksim.os, "cpu_count", lambda: 2)
    return opened


class TestRunTrials:
    def test_determinism_same_seed(self):
        sc = two_node_scenario()
        link = LinkConfig(snr_db=(5.0,), packet_bits=96)
        r1 = run_trials([(sc, link)], n_trials=20, master_seed=99)
        r2 = run_trials([(sc, link)], n_trials=20, master_seed=99)
        assert r1[0].stats == r2[0].stats
        np.testing.assert_array_equal(r1[0].capacity_samples, r2[0].capacity_samples)

    def test_different_seed_differs(self):
        sc = two_node_scenario()
        link = LinkConfig(snr_db=(5.0,), packet_bits=96)
        r1 = run_trials([(sc, link)], n_trials=20, master_seed=99)
        r2 = run_trials([(sc, link)], n_trials=20, master_seed=100)
        assert not np.array_equal(r1[0].capacity_samples, r2[0].capacity_samples)

    def test_worker_count_invariance(self, monkeypatch, real_pool):
        sc = two_node_scenario()
        link = LinkConfig(snr_db=(3.0, 9.0), packet_bits=96)
        # blocks of 5 trials: 3 per point, merged across processes
        monkeypatch.setattr(linksim, "_BATCH_TRIALS", 5)
        serial = run_trials([(sc, link)], n_trials=13, master_seed=7, workers=1)
        parallel = run_trials([(sc, link)], n_trials=13, master_seed=7, workers=3)
        assert real_pool == [(3, 6)]
        for a, b in zip(serial, parallel):
            assert a.stats == b.stats
            np.testing.assert_array_equal(a.capacity_samples, b.capacity_samples)

    def test_worker_count_invariance_with_erasures(self, monkeypatch, real_pool, zero_channels):
        # trials 15, 29 and 33 draw all-zero channels at both points, so
        # their pair solves are singular and they are erased
        nodes = [Node(id=i, position=np.array([10.0 * i, 0.0]), range_radius=6.0) for i in range(8)]
        sc = build_scenario(nodes)
        link = LinkConfig(snr_db=(5.0, 9.0), packet_bits=32)
        zero_channels(lambda plan, p, t: t in (15, 29, 33))
        # blocks (0, 13), (13, 26), (26, 37): the erasures fall in the last two
        monkeypatch.setattr(linksim, "_BATCH_TRIALS", 13)
        serial = run_trials([(sc, link)], n_trials=37, master_seed=15, workers=1)
        parallel = run_trials([(sc, link)], n_trials=37, master_seed=15, workers=3)
        assert real_pool == [(3, 6)]
        for a, b in zip(serial, parallel):
            assert np.flatnonzero(np.isnan(a.capacity_samples)).tolist() == [15, 29, 33]
            assert (a.snr_db, a.stats) == (b.snr_db, b.stats)
            np.testing.assert_array_equal(a.capacity_samples, b.capacity_samples)

    def test_chunk_size_invariance(self, monkeypatch, tmp_path):
        # chunks of one packet write the bytes of the default chunks, on a
        # QPSK run past an interferer whose second block holds 4 chunks
        def csv_bytes(name):
            config = experiments.load_config(overrides={
                "trials": 270, "seed": 3, "snr": {"start": 30.0, "stop": 30.0},
                "scenario": {**TestSinr.CHAIN3, "modulation": "qpsk", "packet_bits": 2304},
            })
            experiments.emit_csv(experiments.run_experiment(config), str(tmp_path / name))
            return (tmp_path / name).read_bytes()

        default = csv_bytes("default.csv")
        monkeypatch.setattr(linksim, "_CHUNK_VALUES", 1)
        assert csv_bytes("one-packet.csv") == default

    def test_trial_count_invariance(self, zero_channels):
        # trial 257, in block 1, reads the same in a run of 260 trials as in
        # one of 300: its capacity sample and, with every other trial
        # erased, its counters
        sc = single_node_scenario()
        link = LinkConfig(snr_db=(0.0,), dimension=2, modulation=QPSK, packet_bits=64)
        short, long = (run_trials([(sc, link)], n, master_seed=8)[0] for n in (260, 300))
        assert short.capacity_samples.tobytes() == long.capacity_samples[:260].tobytes()
        zero_channels(lambda plan, p, t: t != 257)
        short, long = (run_trials([(sc, link)], n, master_seed=8)[0].stats for n in (260, 300))
        assert (short.erasures, long.erasures) == (259, 299)
        assert 0 < short.symbol_errors <= short.bit_errors < short.bits_sent == 64
        assert (short.bit_errors, short.symbol_errors, short.packet_errors - short.erasures) == (
            long.bit_errors, long.symbol_errors, long.packet_errors - long.erasures
        )

    # the chain's diversity link counts its errors past both other nodes, and
    # the 2x2 BPSK pair its errors on 2 correlated axes past its other node
    DIVERSITY_CHAIN3 = {**TestSinr.CHAIN3, "transmission_mode": "diversity"}
    PAIR_2X2 = {"node_count": 2, "packet_bits": 512}

    def test_counted_trial_count_invariance(self, zero_channels):
        scenario = {**self.DIVERSITY_CHAIN3, "dimension": 4, "packet_bits": 128}
        self._check_counted_trial_count_invariance(scenario, (4, 3, 1), zero_channels)

    def test_counted_trial_count_invariance_on_two_axes(self, zero_channels):
        self._check_counted_trial_count_invariance(self.PAIR_2X2, (8, 2, 2), zero_channels)

    def _check_counted_trial_count_invariance(self, scenario, shape, zero_channels):
        # trial 257 reads the same in a run of 260 trials as in one of 300,
        # its capacity sample and, with every other trial erased, its
        # counters; the erased trials still draw their pattern counts
        config = experiments.load_config(overrides={
            "trials": 1, "seed": 8, "snr": {"start": 15.0, "stop": 15.0}, "scenario": scenario,
        })
        ((*_, sc, link),) = config.runs
        assert linksim._plan(sc, link).patterns.shape == shape
        short, long = (run_trials([(sc, link)], n, master_seed=8)[0] for n in (260, 300))
        assert short.capacity_samples.tobytes() == long.capacity_samples[:260].tobytes()
        zero_channels(lambda plan, p, t: t != 257)
        short, long = (run_trials([(sc, link)], n, master_seed=8)[0].stats for n in (260, 300))
        assert (short.erasures, long.erasures) == (259, 299)
        assert 0 < short.bit_errors < short.bits_sent == link.packet_bits
        assert (short.bit_errors, short.symbol_errors, short.packet_errors - short.erasures) == (
            long.bit_errors, long.symbol_errors, long.packet_errors - long.erasures
        )

    def test_counted_worker_count_invariance(self, monkeypatch, real_pool):
        scenario = {**self.DIVERSITY_CHAIN3, "packet_bits": 128}
        self._check_counted_worker_count_invariance(scenario, monkeypatch, real_pool)

    def test_counted_worker_count_invariance_on_two_axes(self, monkeypatch, real_pool):
        self._check_counted_worker_count_invariance(self.PAIR_2X2, monkeypatch, real_pool)

    def _check_counted_worker_count_invariance(self, scenario, monkeypatch, real_pool):
        # blocks of 5 trials, 3 per point, merged across processes
        config = experiments.load_config(overrides={
            "trials": 1, "seed": 7, "snr": {"start": 10.0, "stop": 20.0, "step": 10.0}, "scenario": scenario,
        })
        ((*_, sc, link),) = config.runs
        assert linksim._plan(sc, link).patterns is not None
        monkeypatch.setattr(linksim, "_BATCH_TRIALS", 5)
        serial = run_trials([(sc, link)], n_trials=13, master_seed=7, workers=1)
        parallel = run_trials([(sc, link)], n_trials=13, master_seed=7, workers=3)
        assert real_pool == [(3, 6)]
        assert 0 < serial[0].stats.bit_errors
        for a, b in zip(serial, parallel):
            assert a.stats == b.stats
            np.testing.assert_array_equal(a.capacity_samples, b.capacity_samples)

    @pytest.mark.parametrize("mode, dimension, modulation, packet_bits", [
        pytest.param("diversity", 4, "bpsk", 128, id="bpsk-128"),
        pytest.param("diversity", 4, "qpsk", 1024, id="qpsk-1024"),
        pytest.param("multiplexing", 2, "bpsk", 2048, id="multiplexing-bpsk-2048"),
    ])
    def test_counted_chunk_size_invariance(self, monkeypatch, mode, dimension, modulation, packet_bits):
        # chunks of one trial count what one chunk per task counts; the
        # packets are the smallest that count past the chain's 2 interferers
        config = experiments.load_config(overrides={
            "trials": 1, "seed": 3, "snr": {"start": 15.0, "stop": 15.0},
            "scenario": {**TestSinr.CHAIN3, "dimension": dimension, "transmission_mode": mode,
                         "modulation": modulation, "packet_bits": packet_bits},
        })
        ((*_, sc, link),) = config.runs
        assert linksim._plan(sc, link).patterns is not None
        (default,) = run_trials([(sc, link)], 270, master_seed=3)
        monkeypatch.setattr(linksim, "_CHUNK_VALUES", 1)
        (one,) = run_trials([(sc, link)], 270, master_seed=3)
        assert default.stats == one.stats
        assert 0 < one.stats.bit_errors

    @pytest.mark.parametrize("scenario, counted", [
        # the chain's diversity link: 32 symbols for each of 2^2 patterns
        pytest.param({**DIVERSITY_CHAIN3, "packet_bits": 128}, True, id="diversity-bpsk-128-True"),
        pytest.param({**DIVERSITY_CHAIN3, "packet_bits": 127}, False, id="diversity-bpsk-127-False"),
        # 32 symbols for each of 4^2 patterns
        pytest.param({**DIVERSITY_CHAIN3, "modulation": "qpsk", "packet_bits": 1024}, True,
                     id="diversity-qpsk-1024-True"),
        pytest.param({**DIVERSITY_CHAIN3, "modulation": "qpsk", "packet_bits": 1022}, False,
                     id="diversity-qpsk-1022-False"),
        # 2x2 BPSK past 2 interferers: 36 symbols for each of 2^(2 * 3 - 1)
        pytest.param({**TestSinr.CHAIN3, "packet_bits": 2304}, True, id="multiplexing-bpsk-2304-True"),
        # past one: 32 symbols for each of 2^(2 * 2 - 1)
        pytest.param({"node_count": 2, "packet_bits": 512}, True, id="pair-multiplexing-bpsk-512-True"),
        pytest.param({"node_count": 2, "packet_bits": 510}, False, id="pair-multiplexing-bpsk-510-False"),
        # four slicer axes (2x2 QPSK) or three (3x3 BPSK) never count
        pytest.param({"node_count": 1, "modulation": "qpsk", "packet_bits": 2304}, False,
                     id="single-multiplexing-qpsk-2304-False"),
        pytest.param({"node_count": 1, "dimension": 3, "packet_bits": 2304}, False,
                     id="single-3x3-bpsk-2304-False"),
    ])
    def test_counting_rule(self, scenario, counted):
        # a run counts its errors only with one stream or two BPSK streams,
        # and at least _SYMBOLS_PER_PATTERN symbols per pattern of the
        # senders' bits
        config = experiments.load_config(overrides={
            "trials": 1, "snr": {"start": 15.0, "stop": 15.0}, "scenario": scenario,
        })
        ((*_, sc, link),) = config.runs
        assert (linksim._plan(sc, link).patterns is not None) == counted

    def test_singular_trial_erased_alone_in_its_batch(self, zero_channels):
        # trial 3's channel is zeroed, so its h_eff is singular: it alone is
        # erased, and every other trial reads as in the block without the
        # zeroed channel.  Erasing every trial but 3 leaves trial 3's own
        # counters, so the two erasing runs add up to the clean one
        sc = single_node_scenario()
        link = LinkConfig(snr_db=(5.0,), dimension=2, packet_bits=64)
        plan = linksim._plan(sc, link)
        clean_stats, clean_caps = linksim._run_task(plan, link, 9, 0, 0, 6)
        zero_channels(lambda plan, p, t: t == 3)
        stats, caps = linksim._run_task(plan, link, 9, 0, 0, 6)
        zero_channels(lambda plan, p, t: t != 3)
        only_3, _ = linksim._run_task(plan, link, 9, 0, 0, 6)
        assert np.flatnonzero(np.isnan(caps)).tolist() == [3]
        kept = np.arange(6) != 3
        assert caps[kept].tobytes() == clean_caps[kept].tobytes()
        assert (stats.erasures, only_3.erasures) == (1, 5)
        erased = TrialStats(packets_sent=6, packet_errors=6, erasures=6)
        assert stats + only_3 == clean_stats + erased

    def test_singular_pair_erases_only_its_trial(self, zero_channels):
        # in a 4-node line, trial 5's draws of pair (1, 2) are zeroed: the one
        # solve over every pair of every trial erases trial 5 alone
        sc = build_scenario(
            [Node(id=i, position=np.array([10.0 * i, 0.0]), range_radius=6.0) for i in range(4)]
        )
        link = LinkConfig(snr_db=(5.0,), packet_bits=32)
        (clean,) = run_trials([(sc, link)], n_trials=12, master_seed=4)
        assert linksim._plan(sc, link).pairs[1] == (1, 2)
        zero_channels(lambda plan, p, t: t == 5, draws=slice(4, 8))
        (res,) = run_trials([(sc, link)], n_trials=12, master_seed=4)
        assert clean.stats.erasures == 0 and res.stats.erasures == 1
        assert np.flatnonzero(np.isnan(res.capacity_samples)).tolist() == [5]
        kept = np.arange(12) != 5
        assert res.capacity_samples[kept].tobytes() == clean.capacity_samples[kept].tobytes()

    def test_trial_stream_contract(self, monkeypatch):
        # block 1 of point 1, trials 3 and 4 in blocks of 3: the channel
        # stream gives both trials' channels, the bits stream ceil(3 * 5 /
        # 8) = 2 raw 64-bit words per trial, whose first 15 little-endian
        # bytes are the 3 senders' ceil(36 / 8) = 5 bytes each, and the
        # noise stream the (D, N) = (4, 9) normals of 2 QPSK streams per
        # trial; nothing else is drawn
        config = experiments.load_config(overrides={
            "trials": 1, "seed": 5, "snr": {"start": 20.0, "stop": 25.0, "step": 5.0},
            "scenario": {**TestSinr.CHAIN3, "modulation": "qpsk", "packet_bits": 36},
        })
        ((*_, scenario, link),) = config.runs
        plan = linksim._plan(scenario, link)
        assert len(plan.senders) == 3
        made = []

        def recorded(bit_generator):
            made.append(np.random.Generator(bit_generator))
            return made[-1]

        monkeypatch.setattr(linksim, "Generator", recorded)
        monkeypatch.setattr(linksim, "_BATCH_TRIALS", 3)
        stats, _ = linksim._run_task(plan, link, 5, 1, 3, 5)
        assert stats.bits_sent == 2 * 36
        channel_rng, bits_rng, noise_rng = block_streams(5, 1, 1)
        plan.draw(channel_rng, 2)
        bits_rng.bit_generator.random_raw(2 * 2)
        noise_rng.standard_normal((2, 4, 9))
        assert [rng.bit_generator.state for rng in made] == [
            rng.bit_generator.state for rng in (channel_rng, bits_rng, noise_rng)
        ]

        # the same chain in 2-antenna diversity with 1024-bit packets sends
        # one QPSK stream of 512 symbols past 2 interferers, 32 for each of
        # their 4^2 = 16 patterns, so the trials count their errors: the
        # channel stream gives both trials' channels, the bits stream both
        # trials' pattern counts from one multinomial(512, uniform over 16)
        # call, and the noise stream both
        # survivors' outcomes from one multinomial call on those counts,
        # over the (2, 16, 4) probabilities of which axes err; nothing else
        link = replace(link, mode="diversity", packet_bits=1024)
        plan = linksim._plan(scenario, link)
        assert plan.patterns.shape == (16, 3, 2)
        calls = []

        class Recorded(np.random.Generator):
            def multinomial(self, n, pvals, size=None):
                calls.append((made.index(self), np.array(n), np.array(pvals), size))
                return super().multinomial(n, pvals, size)

        def recorded_calls(bit_generator):
            made.append(Recorded(bit_generator))
            return made[-1]

        made.clear()
        monkeypatch.setattr(linksim, "Generator", recorded_calls)
        stats, _ = linksim._run_task(plan, link, 5, 1, 3, 5)
        assert (stats.bits_sent, stats.erasures) == (2 * 1024, 0)
        channel_rng, bits_rng, noise_rng = block_streams(5, 1, 1)
        plan.draw(channel_rng, 2)
        counts = bits_rng.multinomial(512, np.full(16, 1 / 16), size=2)
        (stream, n, pvals, size), (noise_stream, outcome_n, q, no_size) = calls
        assert (stream, n.tolist(), pvals.tolist(), size) == (1, 512, np.full(16, 1 / 16).tolist(), 2)
        assert (noise_stream, outcome_n.tolist(), q.shape, no_size) == (2, counts.tolist(), (2, 16, 4), None)
        np.testing.assert_allclose(q.sum(axis=-1), 1.0)
        noise_rng.multinomial(counts, q)
        assert [rng.bit_generator.state for rng in made] == [
            rng.bit_generator.state for rng in (channel_rng, bits_rng, noise_rng)
        ]

    @pytest.mark.parametrize("rows, row_bytes", [(1, 1), (1, 7), (3, 5), (2, 13), (3, 17), (1, 288)])
    def test_raw_words_are_integers_bytes(self, rows, row_bytes):
        # the bytes of ceil(rows * row_bytes / 8) raw words, little-endian,
        # are what integers(0, 256, (rows, row_bytes), uint8) draws, and the
        # normals drawn after them are the same
        words = -(-rows * row_bytes // 8)
        for seed in range(20):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            want = a.integers(0, 256, size=(rows, row_bytes), dtype=np.uint8)
            raw = np.asarray(b.bit_generator.random_raw(words), dtype="<u8")
            got = raw.view(np.uint8)[: rows * row_bytes].reshape(rows, row_bytes)
            np.testing.assert_array_equal(got, want)
            assert a.standard_normal(9).tobytes() == b.standard_normal(9).tobytes()

    def test_plan_built_once_per_call(self, monkeypatch):
        calls = []
        plan = linksim._plan

        def counted(*args):
            calls.append(args)
            return plan(*args)

        monkeypatch.setattr(linksim, "_plan", counted)
        run_trials([(two_node_scenario(), LinkConfig(snr_db=(3.0, 9.0), packet_bits=32))], 4, 1)
        assert len(calls) == 1

    def test_tasks_hold_at_most_a_batch(self, monkeypatch):
        # each task is one block of trials, counted from trial 0
        spans = []
        task = linksim._run_task

        def recorded(plan, link, master_seed, point_idx, start, stop):
            spans.append((start, stop))
            return task(plan, link, master_seed, point_idx, start, stop)

        monkeypatch.setattr(linksim, "_run_task", recorded)
        run_trials([(single_node_scenario(), calibration_config([0.0], 32))], 600, 1, workers=1)
        assert spans == [(0, 256), (256, 512), (512, 600)]

    def test_pool_capped_at_cpu_count(self, pool_sizes):
        # a pool starts all its processes at once, so 64 workers on 2 CPUs open 2
        opened = pool_sizes
        sc = two_node_scenario()
        link = LinkConfig(snr_db=(3.0, 9.0), packet_bits=96)
        serial = run_trials([(sc, link)], n_trials=13, master_seed=7, workers=1)
        capped = run_trials([(sc, link)], n_trials=13, master_seed=7, workers=64)
        assert opened == [2]
        for a, b in zip(serial, capped):
            assert a.stats == b.stats
            assert a.capacity_samples.tobytes() == b.capacity_samples.tobytes()

    def test_workers_beyond_trials_cost_no_memory(self, pool_sizes):
        # a million workers on 2 CPUs run each point's 3 trials as one task
        # on a pool of 2, not as a million mostly empty spans
        sc = two_node_scenario()
        link = LinkConfig(snr_db=(3.0, 9.0), packet_bits=96)
        serial = run_trials([(sc, link)], n_trials=3, master_seed=7, workers=1)
        tracemalloc.start()
        try:
            many = run_trials([(sc, link)], n_trials=3, master_seed=7, workers=10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert pool_sizes == [2]
        for a, b in zip(serial, many):
            assert a.stats == b.stats
            assert a.capacity_samples.tobytes() == b.capacity_samples.tobytes()

    def test_high_snr_error_free(self):
        sc = single_node_scenario()
        link = calibration_config([200.0], packet_bits=2304)
        (res,) = run_trials([(sc, link)], n_trials=5, master_seed=1)
        assert res.stats.bit_errors == 0
        assert res.stats.packet_errors == 0

    def test_calibration_capacity_is_exact(self):
        # unit channel, unit normalization, snr 0 dB: capacity log2(2) = 1
        sc = single_node_scenario()
        link = calibration_config([0.0], packet_bits=96)
        (res,) = run_trials([(sc, link)], n_trials=4, master_seed=3)
        np.testing.assert_allclose(res.capacity_samples, 1.0, atol=1e-12)

    def test_calibration_ber_matches_q_function(self):
        sc = single_node_scenario()
        link = calibration_config([0.0])
        n_trials = 90  # ~2e5 bits
        (res,) = run_trials([(sc, link)], n_trials=n_trials, master_seed=11)
        n = res.stats.bits_sent
        ber = res.stats.bit_errors / n
        target = q_function(math.sqrt(2.0))
        se = math.sqrt(target * (1 - target) / n)
        assert abs(ber - target) < 3 * se

    def test_ber_monotone_in_snr(self):
        sc = single_node_scenario()
        link = calibration_config([0.0, 4.0, 8.0])
        results = run_trials([(sc, link)], n_trials=60, master_seed=13)
        bers = [r.stats.bit_errors / r.stats.bits_sent for r in results]
        assert bers[0] > bers[1] > bers[2]

    def test_all_trials_erased_on_singular_coupling(self):
        # identity channels with symmetric geometry make the coupled solve
        # exactly singular, so every trial must erase, not crash
        sc = two_node_scenario()
        link = LinkConfig(snr_db=(5.0,), packet_bits=96, fading=None)
        (res,) = run_trials([(sc, link)], n_trials=8, master_seed=5)
        assert res.stats.erasures == 8
        assert res.stats.packet_errors == 8
        assert res.stats.packets_sent == 8
        assert res.stats.bits_sent == 0
        assert np.all(np.isnan(res.capacity_samples))

    def test_overflowing_normalization_erases_every_trial(self):
        # at this power the composites' squared norms overflow: the
        # normalization is inf, an erasure, whatever the warnings filter says
        nodes = [
            Node(id=i, position=np.array([10.0 * i, 0.0]), range_radius=6.0, tx_power=1e-200)
            for i in range(4)
        ]
        link = LinkConfig(snr_db=(5.0,), packet_bits=96)
        (res,) = run_trials([(build_scenario(nodes), link)], n_trials=5, master_seed=5)
        assert res.stats.erasures == 5
        assert np.all(np.isnan(res.capacity_samples))

    def test_counter_consistency(self):
        sc = two_node_scenario()
        link = LinkConfig(snr_db=(2.0,), packet_bits=96)
        (res,) = run_trials([(sc, link)], n_trials=40, master_seed=21)
        s = res.stats
        assert s.bit_errors <= s.bits_sent
        assert s.symbol_errors <= s.symbols_sent
        assert s.packet_errors <= s.packets_sent
        assert s.packets_sent == 40
        assert s.bits_sent == 96 * (40 - s.erasures)

    def test_interference_hurts(self):
        # the golden 3-node chain at 60 dB, where node 2's interference, not
        # the noise, decides most bits: the same draws without it lose few
        config = experiments.load_config(overrides={
            "trials": 20, "seed": 5, "snr": {"start": 60.0, "stop": 60.0},
            "scenario": {**TestSinr.CHAIN3, "packet_bits": 256},
        })
        ((*_, scenario, link),) = config.runs
        quiet = LinkConfig(**{**vars(link), "include_interference": False})
        (with_i,), (without_i,) = (run_trials([(scenario, lk)], 20, master_seed=5) for lk in (link, quiet))
        assert with_i.stats.bit_errors > 10 * without_i.stats.bit_errors

    @pytest.mark.parametrize("mode, dimension", [("multiplexing", 2), ("diversity", 4)])
    def test_equalizer_is_a_left_inverse_on_every_trial(self, monkeypatch, mode, dimension):
        # what _run_task hands left_pseudoinverse is every trial's a_0, and
        # W a_0 = I holds on each to criterion 3's bound
        handed = []
        equalize = linksim.left_pseudoinverse

        def recorded(a0):
            handed.append((a0, equalize(a0)))
            return handed[-1][1]

        monkeypatch.setattr(linksim, "left_pseudoinverse", recorded)
        config = experiments.load_config(overrides={
            "trials": 20, "seed": 6, "snr": {"start": 20.0},
            "scenario": {**TestSinr.CHAIN3, "dimension": dimension, "transmission_mode": mode,
                         "packet_bits": 64},
        })
        ((*_, scenario, link),) = config.runs
        run_trials([(scenario, link)], 20, master_seed=6)
        ((a0, w),) = handed
        assert a0.shape == (20, dimension, link.streams)
        residual = np.linalg.norm(w @ a0 - np.eye(link.streams), axis=(-2, -1))
        assert residual.max() <= 1e-10

    def test_diversity_mode_runs(self):
        sc = two_node_scenario()
        link = LinkConfig(
            snr_db=(10.0,), dimension=2, packet_bits=96, mode="diversity",
            include_interference=False,
        )
        (res,) = run_trials([(sc, link)], n_trials=30, master_seed=41)
        assert res.stats.packets_sent == 30
        assert res.stats.bits_sent == 96 * (30 - res.stats.erasures)
        # one stream: symbol count equals bit count for BPSK
        assert res.stats.symbols_sent == res.stats.bits_sent

    def test_qpsk_multiplexing_runs(self):
        sc = two_node_scenario()
        link = LinkConfig(snr_db=(15.0,), modulation=QPSK, packet_bits=192)
        (res,) = run_trials([(sc, link)], n_trials=25, master_seed=43)
        assert res.stats.symbols_sent == res.stats.bits_sent // 2

    def test_bad_args(self):
        sc = single_node_scenario()
        link = calibration_config([0.0])
        with pytest.raises(ValueError):
            run_trials([(sc, link)], n_trials=0, master_seed=1)
        with pytest.raises(ValueError):
            run_trials([(sc, link)], n_trials=1, master_seed=1, workers=0)
        with pytest.raises(ValueError):
            run_trials([], n_trials=1, master_seed=1, workers=2)

    def test_measured_node_selects_role(self):
        nodes = two_node_scenario().nodes
        link = LinkConfig(snr_db=(5.0,), packet_bits=96)
        r_a = run_trials([(build_scenario(nodes, measured_node=0), link)], 10, master_seed=51)
        r_b = run_trials([(build_scenario(nodes, measured_node=1), link)], 10, master_seed=51)
        # same seed, different measured role: different capacity draws
        assert not np.array_equal(r_a[0].capacity_samples, r_b[0].capacity_samples)


class TestChunkedStage:
    """The packet stage's counters, a chunk of trials at a time, against the
    per-trial stage of tests/reference.py, which draws its bytes with
    integers and compares its decisions bit by bit.  The single-stream
    cases would count their errors (_count_errors); here they go through
    the packet stage, which a single-stream task takes past the pattern
    cap."""

    # the golden runs' 3-node chain: node 2 is heard at the measured receive point
    CHAIN3 = {"node_count": 3, "node_spacing": 5.0, "range_radius": 12.0}
    CASES = {
        "bpsk-multiplexing-interference": {**CHAIN3, "packet_bits": 100},
        "qpsk-multiplexing-interference": {**CHAIN3, "modulation": "qpsk", "packet_bits": 36},
        "bpsk-diversity-interference": {**CHAIN3, "dimension": 4, "transmission_mode": "diversity",
                                        "packet_bits": 64},
        "qpsk-diversity-single-link": {"node_count": 1, "transmission_mode": "diversity",
                                       "modulation": "qpsk", "packet_bits": 44},
        "bpsk-multiplexing-no-interference": {**CHAIN3, "include_interference": False,
                                              "packet_bits": 100},
        "qpsk-multiplexing-4-streams": {"node_count": 1, "dimension": 4, "modulation": "qpsk",
                                        "packet_bits": 2304},
    }

    @pytest.mark.parametrize("name", CASES)
    def test_counters_match_per_trial_stage(self, name, monkeypatch, zero_channels):
        # chunks of 3 trials; trial 4 is erased, so the chunk of surviving
        # trials 3, 5, 6 has a gap in its middle
        config = experiments.load_config(overrides={
            "trials": 10, "seed": 31, "snr": {"start": 10.0, "stop": 40.0, "step": 30.0},
            "scenario": self.CASES[name],
        })
        ((*_, scenario, link),) = config.runs
        monkeypatch.setattr(linksim, "_CHUNK_VALUES", 3 * link.packet_bits)
        plan = linksim._plan
        monkeypatch.setattr(linksim, "_plan", lambda *args: replace(plan(*args), patterns=None))
        zero_channels(lambda plan, p, t: t == 4)
        results = run_trials([(scenario, link)], n_trials=10, master_seed=31)
        want_stats, want_caps = per_trial_run(scenario, link, 10, 31)
        assert sum((r.stats for r in results), TrialStats()) == want_stats
        assert want_stats.erasures == 2 and 0 < want_stats.bit_errors < want_stats.bits_sent
        caps = np.concatenate([r.capacity_samples for r in results])
        assert caps.tobytes() == want_caps.tobytes()


def _same_law(a, b, alpha):
    """Two-sample chi-square test that the integer samples a and b share one
    law: the values pooled into bins of at least 20 pooled samples in
    ascending order (the last bin takes any remainder), then Pearson's test
    on the 2 x bins table.  True unless it rejects at level alpha."""
    values, pooled = np.unique(np.concatenate([a, b]), return_counts=True)
    edges, filled = [], 0
    for value, count in zip(values, pooled):
        filled += count
        if filled >= 20:
            edges.append(value)
            filled = 0
    if len(edges) < 2:
        return True
    bins = np.searchsorted(np.array(edges[:-1]), values, side="left")
    table = np.zeros((2, len(edges)), dtype=int)
    for row, sample in enumerate((a, b)):
        np.add.at(table[row], bins[np.searchsorted(values, sample)], 1)
    return scipy_chi2_contingency(table).pvalue > alpha


class TestCountedLaw:
    """A counting trial's bit, symbol and packet error counts have the law
    of the packet stage's sign decisions, given its channels.  The channels
    are one draw, fixed for every trial; each path runs 600 one-trial runs
    on seeds of its own, and a two-sample chi-square test at level 0.001
    compares the per-trial counts with the per-trial stage of
    tests/reference.py (which draws bits and normals)."""

    ALPHA = 0.001
    TRIALS = 600
    DIVERSITY = {"transmission_mode": "diversity"}
    # (scenario, snr, seed of the fixed draw): noise alone decides bits on
    # the single links; past the pair's other node in diversity (Re A =
    # -0.55 on draw 2024), at 47 dB the interferer's sign moves an axis's
    # error rate between ~1e-4 and ~0.15.  The 2x2 BPSK links count on two
    # correlated axes: the single link's noise has correlation -0.88 on
    # draw 2024; past the pair's other node, draw 2036 has +0.36 and leaks
    # that move a stream's error rate up to ~0.6, and draw 2031 has -0.96
    # (past Genz's |r| = 0.925 switch) and error rates up to ~0.016
    CASES = {
        "bpsk-single-link": ({**DIVERSITY, "node_count": 1, "packet_bits": 32}, 0.0, 2024),
        "qpsk-single-link": ({**DIVERSITY, "node_count": 1, "modulation": "qpsk", "packet_bits": 64},
                             3.0, 2024),
        "bpsk-one-interferer": ({**DIVERSITY, "node_count": 2, "packet_bits": 64}, 47.0, 2024),
        "qpsk-one-interferer": ({**DIVERSITY, "node_count": 2, "modulation": "qpsk", "packet_bits": 256},
                                47.0, 2024),
        "2x2-bpsk-single-link": ({"node_count": 1, "packet_bits": 128}, 8.0, 2024),
        "2x2-bpsk-one-interferer": ({"node_count": 2, "packet_bits": 512}, 47.0, 2036),
        "2x2-bpsk-correlated": ({"node_count": 2, "packet_bits": 512}, 47.0, 2031),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_counts_match_the_decisions(self, name, monkeypatch):
        scenario, snr, draw = self.CASES[name]
        config = experiments.load_config(overrides={
            "trials": 1, "seed": 1, "snr": {"start": snr, "stop": snr}, "scenario": scenario,
        })
        ((*_, sc, link),) = config.runs
        plan = linksim._plan(sc, link)
        assert plan.patterns is not None and len(plan.senders) == scenario["node_count"]
        fixed = plan.draw(np.random.default_rng(draw), 1)
        monkeypatch.setattr(linksim._TaskPlan, "draw", lambda self, rng, trials: fixed.repeat(trials, 0))
        counted = [run_trials([(sc, link)], 1, seed)[0].stats for seed in range(self.TRIALS)]
        decided = [per_trial_run(sc, link, 1, 10**6 + seed)[0] for seed in range(self.TRIALS)]
        for field in ("bit_errors", "symbol_errors", "packet_errors"):
            a, b = (np.array([getattr(s, field) for s in stats]) for stats in (counted, decided))
            assert 0 < a.mean() < link.packet_bits / 2, (field, a.mean())
            assert _same_law(a, b, self.ALPHA), (field, np.bincount(a), np.bincount(b))

    def test_two_axis_outcome_law_matches_scipy(self, monkeypatch):
        # the (P, 4) outcome probabilities a 2x2 BPSK trial hands the noise
        # stream's multinomial are, pattern by pattern, scipy's orthant
        # probabilities of the slicer's e ~ N(d, Re(sigma2 W W^H) / 2), each
        # axis decided right on the side of the desired coordinate's sign.
        # Draw 2069 past the pair's other node has noise correlation -0.99
        # and error rates up to ~0.5 at 40 dB, where the chi-square test
        # above cannot tell rho from -rho
        config = experiments.load_config(overrides={
            "trials": 1, "seed": 1, "snr": {"start": 40.0, "stop": 40.0},
            "scenario": {"node_count": 2, "packet_bits": 512},
        })
        ((*_, sc, link),) = config.runs
        plan = linksim._plan(sc, link)
        fixed = plan.draw(np.random.default_rng(2069), 1)
        monkeypatch.setattr(linksim._TaskPlan, "draw", lambda self, rng, trials: fixed.repeat(trials, 0))
        handed = []

        class Recorded(np.random.Generator):
            def multinomial(self, n, pvals, size=None):
                handed.append(np.array(pvals))
                return super().multinomial(n, pvals, size)

        monkeypatch.setattr(linksim, "Generator", Recorded)
        run_trials([(sc, link)], 1, 0)
        (q,) = handed[-1]
        sent, w = trial_link(plan, None)
        cov = (10.0 ** (-40.0 / 10.0) / 2.0) * (w @ w.conj().T).real
        assert cov[0, 1] / math.sqrt(cov[0, 0] * cov[1, 1]) < -0.925
        digits = 2 * len(sent)
        assert q.shape == (2 ** (digits - 1), 4)
        for j, row in enumerate(q):
            bits = np.array([(j >> (digits - 1 - t)) & 1 for t in range(digits)]).reshape(len(sent), 2)
            x = 1.0 - 2.0 * bits
            d = sum(w @ a @ xs for a, xs in zip(sent, x)).real
            want = []
            for o in range(4):
                # axis i decided right (bit i of o) on x_0[i]'s side of 0
                above = [(x[0, i] > 0) == bool((o >> i) & 1) for i in range(2)]
                low = [0.0 if up else -np.inf for up in above]
                high = [np.inf if up else 0.0 for up in above]
                want.append(scipy_mvn.cdf(high, mean=d, cov=cov, lower_limit=low))
            np.testing.assert_allclose(row, want, rtol=0, atol=1e-13, err_msg=f"pattern {j}")
        assert 0.05 < q[:, :3].sum(axis=1).max()


class TestOrthants:
    """linksim._orthants, whose first orthant is _upper_orthant's port of
    Genz's BVND, against scipy's own port behind
    scipy.stats.multivariate_normal.cdf.  r takes both sides of BVND's
    switches at 0.3, 0.75 and 0.925, and h and k run from -8 to 38."""

    RHOS = (-1.0, -0.999, -0.93, -0.92, -0.76, -0.74, -0.31, -0.29, 0.0,
            0.29, 0.31, 0.74, 0.76, 0.92, 0.93, 0.999, 1.0)
    LIMITS = (-8.0, -5.0, -2.0, -0.5, 0.0, 0.7, 2.0, 4.0, 7.0, 12.0, 20.0, 30.0, 38.0)

    def grid(self):
        h, k = (a.ravel() for a in np.meshgrid(self.LIMITS, self.LIMITS))
        rows = len(self.RHOS)
        return np.tile(h, (rows, 1)), np.tile(k, (rows, 1)), np.array(self.RHOS)

    @staticmethod
    def scipy_orthant(h, k, r, upper=(True, True)):
        """P(X > h or X < h, Y > k or Y < k) by scipy; r = +-1 in closed form."""
        if abs(r) == 1.0:
            x, y = (h if upper[0] else -h), (k if upper[1] else -k)
            if r * (1 if upper[0] == upper[1] else -1) > 0:
                return scipy_norm.sf(max(x, y))
            return max(0.0, scipy_norm.cdf(-y) - scipy_norm.cdf(x))
        low = [h if upper[0] else -np.inf, k if upper[1] else -np.inf]
        high = [np.inf if upper[0] else h, np.inf if upper[1] else k]
        return scipy_mvn.cdf(high, mean=[0.0, 0.0], cov=[[1.0, r], [r, 1.0]], lower_limit=low)

    def test_gauss_legendre_tables(self):
        for (nodes, weights), points in zip(linksim._GAUSS_LEGENDRE, (6, 12, 20)):
            x, w = np.polynomial.legendre.leggauss(points)
            np.testing.assert_allclose(nodes, x[: points // 2], rtol=0, atol=1e-15)
            np.testing.assert_allclose(weights, w[: points // 2], rtol=0, atol=1e-15)

    def test_upper_orthant_matches_scipy(self):
        # within 4e-16 everywhere (BVND's accuracy is absolute), and within
        # 1e-12 relative on every orthant down to 1e-300 where both ports
        # sum positive terms, 0 <= r < 0.925.  Below 0 the orthant is a
        # difference in both; above 0.925 scipy's port loses far tails (it
        # reads Phi(-20) = 2.75e-89 for P(X > 20, Y > 20) at r = 0.999,
        # whose quadrature is 1.80e-89)
        h, k, r = self.grid()
        got = linksim._orthants(h, k, r)[..., 0]
        for row, rho in enumerate(self.RHOS):
            want = np.array([self.scipy_orthant(a, b, rho) for a, b in zip(h[row], k[row])])
            np.testing.assert_allclose(got[row], want, rtol=0, atol=4e-16, err_msg=f"r = {rho}")
            if 0.0 <= rho < 0.925:
                tail = want >= 1e-300
                assert tail.sum() > 100
                np.testing.assert_allclose(got[row, tail], want[tail], rtol=1e-12, atol=0,
                                           err_msg=f"r = {rho}")

    def test_orthants_are_probability_vectors(self):
        # every orthant matches scipy's within 4e-16, every q lies in [0, 1]
        # and sums to 1, out to limits where P(X > h) underflows and at
        # |r| = 1, and numpy's multinomial takes it
        h, k, r = self.grid()
        q = linksim._orthants(h, k, r)
        for row, rho in enumerate(self.RHOS):
            for col in range(0, h.shape[1], 5):
                a, b = h[row, col], k[row, col]
                want = [self.scipy_orthant(a, b, rho, upper) for upper in
                        ((True, True), (False, True), (True, False), (False, False))]
                np.testing.assert_allclose(q[row, col], want, rtol=0, atol=4e-16, err_msg=(a, b, rho))
        far = np.array([-1e6, -41.0, 41.0, 1e6])
        far_h, far_k = np.tile(far, (len(r), 4)), np.tile(np.repeat(far, 4), (len(r), 1))
        q = np.concatenate([q, linksim._orthants(far_h, far_k, r)], axis=1)
        assert np.all((0.0 <= q) & (q <= 1.0))
        np.testing.assert_allclose(q.sum(axis=-1), 1.0, rtol=0, atol=4e-16)
        counts = np.random.default_rng(0).multinomial(np.full(q.shape[:-1], 1000), q)
        assert np.all(counts.sum(axis=-1) == 1000)


class TestTrialStreams:
    """A block's streams are numpy's SeedSequence(seed, spawn_key=(p, b,
    kind)) streams, for multi-word seeds and point and block indices."""

    @pytest.mark.parametrize("seed", [0, 1, 12345, 2**32 - 1, 2**32, 2**64 + 5, 2**100 + 7])
    @pytest.mark.parametrize("point", [0, 1, 15, 2**32 - 1])
    def test_state_and_draws_match_numpy(self, seed, point):
        for block in [0, 1, 2**32]:
            streams = linksim._block_streams(seed, point, block)
            for kind, (rng, fresh) in enumerate(zip(streams, block_streams(seed, point, block))):
                assert rng.bit_generator.state == fresh.bit_generator.state
                seed_seq = rng.bit_generator.seed_seq
                assert (seed_seq.entropy, seed_seq.spawn_key) == (seed, (point, block, kind))
                assert rng.standard_normal(3).tobytes() == fresh.standard_normal(3).tobytes()
            # the three kinds are three streams
            assert len({rng.bit_generator.random_raw() for rng in streams}) == 3

    @pytest.mark.parametrize("seed, error", [(-1, ValueError), (2.0, TypeError)])
    def test_seed_must_be_a_non_negative_int(self, seed, error):
        # as numpy's SeedSequence rejects them
        with pytest.raises(error):
            run_trials([(single_node_scenario(), calibration_config([0.0], 32))], 2, seed)


class TestScheduler:
    """run_experiment hands every sweep value's tasks to one run_trials call."""

    @pytest.fixture
    def task_list(self, monkeypatch):
        """The (draws per trial, dimension, point, start, stop) of every task
        run_trials runs for a config, in the order it runs them; the tasks
        return empty counters instead of running their trials."""

        def tasks(overrides):
            ran = []

            def recorded(plan, link, master_seed, point_idx, start, stop):
                ran.append((len(plan.amplitudes), link.dimension, point_idx, start, stop))
                return TrialStats(), np.full(stop - start, math.nan)

            monkeypatch.setattr(linksim, "_run_task", recorded)
            config = experiments.load_config(overrides=overrides)
            runs = [(scenario, link) for *_, scenario, link in config.runs]
            linksim.run_trials(runs, config.trials, config.seed, workers=config.workers)
            return ran

        return tasks

    @pytest.mark.parametrize("experiment", ["ber_vs_dimension", "capacity_vs_nodes"])
    def test_one_pool_per_experiment(self, pool_sizes, tmp_path, experiment):
        def csv_bytes(workers):
            config = experiments.load_config(overrides={
                "experiment": experiment, "trials": 3, "seed": 7, "workers": workers,
                "scenario": {"packet_bits": 32},
            })
            path = tmp_path / f"w{workers}.csv"
            experiments.emit_csv(experiments.run_experiment(config), str(path))
            return path.read_bytes()

        assert csv_bytes(1) == csv_bytes(2)
        assert pool_sizes == [2]

    def test_workers_beyond_cpus_run_the_same_tasks(self, pool_sizes, task_list):
        base = {"experiment": "capacity_vs_nodes", "trials": 100}
        two = task_list({**base, "workers": 2})
        many = task_list({**base, "workers": 10**6})
        assert two == many
        assert pool_sizes == [2, 2]

    def test_link_sweep_on_two_workers(self, pool_sizes, task_list):
        # 16 snr points of 50 trials: one task each, in sweep order
        ran = task_list({"experiment": "ber_vs_dimension", "trials": 50, "workers": 2})
        assert ran == [(1, d, p, 0, 50) for d in (2, 4) for p in range(8)]
        assert pool_sizes == [2]

    def test_one_worker_keeps_the_per_run_task_list(self, task_list):
        # each run in sweep order, each snr point split into blocks of 256
        # trials: the task list of one run_trials call per value
        ran = task_list({"experiment": "ber_vs_dimension", "trials": 600, "workers": 1})
        spans = [(0, 256), (256, 512), (512, 600)]
        assert ran == [(1, d, p, a, b) for d in (2, 4) for p in range(8) for a, b in spans]
