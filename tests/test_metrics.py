import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamlink.linksim import TrialStats
from beamlink.metrics import (
    Estimate,
    StreamErrorParams,
    capacity,
    effective_snr,
    estimate_rates,
    mean_confidence,
    packet_error_rate,
    stream_error,
    uncoded_stream_params,
    wilson_interval,
)


def params(ser, d_min=2.0, bits=2304, rate=1.0, length=1):
    return StreamErrorParams(
        min_distance=d_min, bits=bits, code_rate=rate, length=length, symbol_error_rate=ser
    )


class TestCapacity:
    def test_zero(self):
        assert capacity(0.0) == 0.0

    def test_powers_of_two(self):
        assert capacity(1.0) == pytest.approx(1.0)
        assert capacity(3.0) == pytest.approx(2.0)

    def test_five_db(self):
        # 10^0.5 linear; value recomputed independently
        assert capacity(10**0.5) == pytest.approx(2.057373208606795, abs=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            capacity(-0.1)

    def test_increasing_and_concave(self):
        grid = np.linspace(0.0, 50.0, 400)
        vals = np.array([capacity(s) for s in grid])
        diffs = np.diff(vals)
        assert np.all(diffs > 0)
        assert np.all(np.diff(diffs) < 0)


class TestEffectiveSnr:
    def test_unit_chain(self):
        h = np.array([[1.0 + 0j]])
        assert effective_snr(1.0, h, 1.0, 1.0) == pytest.approx(1.0)

    def test_power_linearity(self):
        h = np.array([[1.0 + 1j], [0.5 - 0.25j]])
        one = effective_snr(1.0, h, 0.7, 2.0)
        two = effective_snr(2.0, h, 0.7, 2.0)
        assert two == pytest.approx(2.0 * one)

    def test_matches_entrywise_sum(self):
        rng = np.random.default_rng(5)
        h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        g = 3.7
        sigma2 = 0.42
        brute = sum(abs(h[i, j]) ** 2 for i in range(2) for j in range(2)) / (3.7 * 0.42)
        assert effective_snr(1.0, h, sigma2, g) == pytest.approx(brute, rel=1e-12)

    def test_degenerate_inputs(self):
        h = np.eye(2)
        with pytest.raises(ValueError):
            effective_snr(1.0, h, 0.0, 1.0)
        with pytest.raises(ValueError):
            effective_snr(1.0, h, 1.0, 0.0)
        with pytest.raises(ValueError):
            effective_snr(-1.0, h, 1.0, 1.0)


class TestStreamError:
    def test_literal_zero_ser_degenerates_to_one(self):
        # printed formula gives 1 at the error-free limit; clamp documents it
        assert stream_error(params(0.0), "literal") == 1.0

    def test_literal_ser_equal_to_distance(self):
        # SER equal to min_distance makes the printed form vanish exactly
        assert stream_error(params(0.5, d_min=0.5), "literal") == 0.0

    def test_conventional_passthrough(self):
        assert stream_error(params(0.01), "conventional") == 0.01

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            stream_error(params(0.1), "bogus")

    def test_validation(self):
        with pytest.raises(ValueError):
            params(-0.1)
        with pytest.raises(ValueError):
            params(0.1, d_min=0.0)
        with pytest.raises(ValueError):
            params(0.1, rate=0.0)
        with pytest.raises(ValueError):
            params(0.1, bits=0)


class TestPacketErrorRate:
    def test_conventional_zero_error(self):
        assert packet_error_rate([params(0.0)], "conventional") == 0.0

    def test_literal_zero_stream_error_degenerates_to_one(self):
        # SER = min_distance gives literal stream error 0, at which the
        # printed packet formula collapses to 1
        assert packet_error_rate([params(0.5, d_min=0.5)], "literal") == 1.0

    def test_literal_zero_ser_chains_both_degeneracies(self):
        # SER = 0 gives literal stream error 1, whose survival term is 0, so
        # the printed packet formula returns 0; the two corruptions cancel
        assert packet_error_rate([params(0.0)], "literal") == 0.0

    def test_conventional_reference_value(self):
        # 1 - (1 - 1e-4)^2304, evaluated independently
        per = packet_error_rate([params(1e-4)], "conventional")
        assert per == pytest.approx(0.20579329730735163, rel=1e-12)

    def test_empty_stream_list(self):
        with pytest.raises(ValueError):
            packet_error_rate([], "conventional")

    def test_monotone_in_ser_and_exponent(self):
        base = packet_error_rate([params(1e-3)], "conventional")
        assert packet_error_rate([params(2e-3)], "conventional") > base
        longer = packet_error_rate([params(1e-3, bits=4608)], "conventional")
        assert longer > base

    def test_multi_stream_composition(self):
        single = packet_error_rate([params(1e-3)], "conventional")
        # two streams of half the bits see the same total symbol count
        split = packet_error_rate(
            uncoded_stream_params(1e-3, packet_bits=2304, streams=2), "conventional"
        )
        assert split == pytest.approx(single, rel=1e-12)

    @given(
        ser=st.floats(min_value=0.0, max_value=1.0),
        bits=st.integers(min_value=1, max_value=10000),
        rate=st.floats(min_value=1e-3, max_value=1.0),
        length=st.integers(min_value=1, max_value=64),
        mode=st.sampled_from(["literal", "conventional"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_output_in_unit_interval(self, ser, bits, rate, length, mode):
        p = StreamErrorParams(
            min_distance=2.0, bits=bits, code_rate=rate, length=length, symbol_error_rate=ser
        )
        assert 0.0 <= stream_error(p, mode) <= 1.0
        assert 0.0 <= packet_error_rate([p, p], mode) <= 1.0


class TestUncodedStreamParams:
    def test_exponent_is_symbol_count(self):
        streams = uncoded_stream_params(0.01, packet_bits=2304, bits_per_symbol=2, streams=2)
        assert len(streams) == 2
        assert streams[0].exponent == pytest.approx(576.0)

    def test_rejects_nondivisible(self):
        with pytest.raises(ValueError):
            uncoded_stream_params(0.01, packet_bits=2303, bits_per_symbol=2)


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
