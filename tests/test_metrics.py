import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamlink.linksim import TrialStats
from beamlink.metrics import (
    Estimate,
    MetricPoint,
    capacity,
    effective_snr,
    estimate_rates,
    mean_confidence,
    packet_error_rate,
    uncoded_stream_params,
    wilson_interval,
)


class TestCapacity:
    def test_zero(self):
        assert capacity([0.0]) == 0.0

    def test_powers_of_two(self):
        assert capacity([1.0]) == pytest.approx(1.0)
        assert capacity([3.0]) == pytest.approx(2.0)

    def test_five_db(self):
        # 10^0.5 linear; value recomputed independently
        assert capacity([10**0.5]) == pytest.approx(2.057373208606795, abs=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            capacity([-0.1])
        with pytest.raises(ValueError):
            capacity([1.0, -0.1])
        # a negative entry in any row of a (trials, K) stack
        with pytest.raises(ValueError):
            capacity([[1.0, 2.0], [3.0, 4.0], [1.0, -0.1]])

    def test_increasing_and_concave(self):
        grid = np.linspace(0.0, 50.0, 400)
        vals = np.array([capacity([s]) for s in grid])
        diffs = np.diff(vals)
        assert np.all(diffs > 0)
        assert np.all(np.diff(diffs) < 0)

    def test_streams_add(self):
        assert capacity(np.array([1.0, 3.0])) == pytest.approx(3.0, abs=1e-12)

    @pytest.mark.parametrize("streams", [1, 2, 3, 4, 9])
    def test_stack_gives_each_rows_sum(self, streams):
        # a (trials, K) stack sums each row exactly as a one-row call does
        sinr = np.random.default_rng(streams).exponential(size=(50, streams)) * 1e3
        rows = capacity(sinr)
        assert rows.shape == (50,)
        assert rows.tobytes() == np.array([capacity(row) for row in sinr]).tobytes()


class TestEffectiveSnr:
    def test_unit_chain(self):
        np.testing.assert_allclose(effective_snr(np.zeros(1), np.ones(1), 1.0), [1.0])

    def test_power_linearity(self):
        # twice the desired power halves the interference and noise gain
        interference, noise_gain = np.array([0.3, 1.2]), np.array([0.5, 2.0])
        one = effective_snr(interference, noise_gain, 0.7)
        two = effective_snr(interference / 2.0, noise_gain / 2.0, 0.7)
        np.testing.assert_allclose(two, 2.0 * one, rtol=1e-12)

    def test_matches_entrywise_sum(self):
        # SINR_k = 1 / (sum_s sum_j |(W a_s)[k, j]|^2 + sigma2 sum_m |W[k, m]|^2)
        rng = np.random.default_rng(5)
        w = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        senders = [rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2)) for _ in range(2)]
        sigma2 = 0.42
        brute = [
            1.0 / (
                sum(abs(sum(w[k, m] * a[m, j] for m in range(3))) ** 2
                    for a in senders for j in range(2))
                + sigma2 * sum(abs(w[k, m]) ** 2 for m in range(3))
            )
            for k in range(2)
        ]
        interference = sum(np.sum(np.abs(w @ a) ** 2, axis=1) for a in senders)
        got = effective_snr(interference, np.sum(np.abs(w) ** 2, axis=1), sigma2)
        np.testing.assert_allclose(got, brute, rtol=1e-12)

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError):
            effective_snr(np.zeros(2), np.ones(2), 0.0)
        with pytest.raises(ValueError):
            effective_snr(np.zeros(2), np.ones(2), -1.0)


class TestStreamError:
    """The per-stream error step, seen through one stream of exponent 1:
    there the packet error rate is p_e (conventional) or 1 - p_e (literal)."""

    def test_literal_zero_ser_degenerates_to_one(self):
        # printed formula gives stream error 1 at the error-free limit
        # (clamp documents it), so 1 - p_e reads 0
        assert packet_error_rate(0.0, [1], "literal") == 0.0

    def test_literal_ser_equal_to_distance(self):
        # SER equal to min_distance makes the printed form vanish exactly,
        # so 1 - p_e reads 1
        assert packet_error_rate(0.5, [1], "literal", min_distance=0.5) == 1.0

    def test_conventional_passthrough(self):
        assert packet_error_rate(0.01, [1], "conventional") == pytest.approx(0.01, rel=1e-12)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            packet_error_rate(0.1, [1], "bogus")

    def test_validation(self):
        with pytest.raises(ValueError):
            packet_error_rate(-0.1, [1])
        with pytest.raises(ValueError):
            packet_error_rate(1.1, [1])
        with pytest.raises(ValueError):
            packet_error_rate(0.1, [1], min_distance=0.0)
        with pytest.raises(ValueError):
            packet_error_rate(0.1, [0])
        with pytest.raises(ValueError):
            packet_error_rate(0.1, [2304, -1])


class TestPacketErrorRate:
    def test_conventional_zero_error(self):
        assert packet_error_rate(0.0, [2304], "conventional") == 0.0

    def test_literal_zero_stream_error_degenerates_to_one(self):
        # SER = min_distance gives literal stream error 0, at which the
        # printed packet formula collapses to 1
        assert packet_error_rate(0.5, [2304], "literal", min_distance=0.5) == 1.0

    def test_literal_zero_ser_chains_both_degeneracies(self):
        # SER = 0 gives literal stream error 1, whose survival term is 0, so
        # the printed packet formula returns 0; the two corruptions cancel
        assert packet_error_rate(0.0, [2304], "literal") == 0.0

    def test_conventional_reference_value(self):
        # 1 - (1 - 1e-4)^2304, evaluated independently
        per = packet_error_rate(1e-4, [2304], "conventional")
        assert per == pytest.approx(0.20579329730735163, rel=1e-12)

    def test_empty_stream_list(self):
        with pytest.raises(ValueError):
            packet_error_rate(0.1, [], "conventional")

    def test_monotone_in_ser_and_exponent(self):
        base = packet_error_rate(1e-3, [2304], "conventional")
        assert packet_error_rate(2e-3, [2304], "conventional") > base
        longer = packet_error_rate(1e-3, [4608], "conventional")
        assert longer > base

    def test_multi_stream_composition(self):
        single = packet_error_rate(1e-3, [2304], "conventional")
        # two streams of half the bits see the same total symbol count
        split = packet_error_rate(1e-3, uncoded_stream_params(2304, streams=2), "conventional")
        assert split == pytest.approx(single, rel=1e-12)

    @given(
        ser=st.floats(min_value=0.0, max_value=1.0),
        exponents=st.lists(st.integers(min_value=1, max_value=10000), min_size=1, max_size=4),
        d_min=st.floats(min_value=1e-3, max_value=4.0),
        mode=st.sampled_from(["literal", "conventional"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_output_in_unit_interval(self, ser, exponents, d_min, mode):
        assert 0.0 <= packet_error_rate(ser, exponents, mode, d_min) <= 1.0


class TestUncodedStreamParams:
    def test_exponent_is_symbol_count(self):
        assert uncoded_stream_params(2304, bits_per_symbol=2, streams=2) == [576, 576]

    def test_rejects_nondivisible(self):
        with pytest.raises(ValueError):
            uncoded_stream_params(2303, bits_per_symbol=2)


class TestWilson:
    def test_zero_errors(self):
        low, high = wilson_interval(0, 1000)
        assert low == 0.0
        assert high > 0.0

    def test_all_errors(self):
        low, high = wilson_interval(1000, 1000)
        assert high == 1.0
        assert low < 1.0

    def test_half_and_half(self):
        # frozen reference evaluated from the Wilson formula by hand
        low, high = wilson_interval(50, 100)
        assert low == pytest.approx(0.4038315303659956, abs=1e-12)
        assert high == pytest.approx(0.5961684696340044, abs=1e-12)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 4)

    @given(
        n=st.integers(min_value=1, max_value=10**6),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_brackets_the_estimate(self, n, data):
        k = data.draw(st.integers(min_value=0, max_value=n))
        low, high = wilson_interval(k, n)
        assert 0.0 <= low <= k / n <= high <= 1.0


class TestEstimateRates:
    def test_basic(self):
        stats = TrialStats(
            bits_sent=1000, bit_errors=10,
            symbols_sent=500, symbol_errors=8,
            packets_sent=10, packet_errors=3,
        )
        rates = estimate_rates(stats)
        assert rates["ber"].value == pytest.approx(0.01)
        assert rates["ser"].value == pytest.approx(0.016)
        assert rates["per"].value == pytest.approx(0.3)
        for est in rates.values():
            assert est.ci_low <= est.value <= est.ci_high
            assert 0.0 <= est.ci_low and est.ci_high <= 1.0

    def test_zero_denominator(self):
        with pytest.raises(ValueError):
            estimate_rates(TrialStats())


class TestMetricPoint:
    def test_per_model_is_required(self):
        est = Estimate(value=0.1, ci_low=0.0, ci_high=0.2)
        with pytest.raises(TypeError, match="per_model"):
            MetricPoint(snr_db=0.0, capacity=est, ber=est, ser=est, per=est)


class TestMeanConfidence:
    def test_simple(self):
        est = mean_confidence(np.array([1.0, 2.0, 3.0]))
        assert est.value == pytest.approx(2.0)
        assert est.ci_low < 2.0 < est.ci_high

    def test_nan_excluded(self):
        est = mean_confidence(np.array([1.0, np.nan, 3.0]))
        assert est.value == pytest.approx(2.0)

    def test_all_nan_rejected(self):
        with pytest.raises(ValueError):
            mean_confidence(np.array([np.nan, np.nan]))

    def test_single_sample_collapses(self):
        est = mean_confidence(np.array([4.2]))
        assert est.ci_low == est.ci_high == est.value

    def test_estimate_bracketing_enforced(self):
        with pytest.raises(ValueError):
            Estimate(value=1.0, ci_low=2.0, ci_high=3.0)
