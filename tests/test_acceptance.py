"""End-to-end acceptance gate.

Each test exercises one release criterion at its stated tolerance and prints a
single pass/fail line.  Run with output visible:

    pytest tests/test_acceptance.py -v -s

The whole gate is deterministic (fixed seeds everywhere) and finishes in a few
minutes on one core.
"""
from __future__ import annotations

import math
import time

import numpy as np

from beamlink.beamformer import (
    NoUniqueSolutionError,
    build_rotator,
    left_pseudoinverse,
    solve_coupled_drivers,
)
from beamlink.channel import (
    NakagamiParams,
    derive_moments,
    expected_gram,
    sample_channel,
    stack,
)
from beamlink.experiments import emit_csv, load_config, run_experiment
from beamlink.metrics import packet_error_rate, uncoded_stream_params


def _report(number: int, slug: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\n[acceptance] criterion {number} {slug}: {status} ({detail})")
    assert ok, f"criterion {number} {slug}: {detail}"


def _q_function(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def test_criterion_1_channel_moment_fidelity():
    """Sampled stacked-channel Gram within 2% of its closed form, < 1 min."""
    t0 = time.time()
    draws = 100_000
    dim = 2
    worst = 0.0
    for m, omega in ((0.5, 1.0), (1.0, 1.0), (3.0, 2.0)):
        rng = np.random.default_rng(2024)
        mom = derive_moments(NakagamiParams(m, omega))
        acc = np.zeros((2 * dim, 2 * dim), dtype=complex)
        for _ in range(draws):
            s = stack(sample_channel(mom, dim, rng), sample_channel(mom, dim, rng))
            acc += s @ s.conj().T
        avg = acc / draws
        ref = expected_gram(mom, dim)
        rel = float(np.max(np.abs(avg - ref) / np.abs(ref)))
        worst = max(worst, rel)
    elapsed = time.time() - t0
    _report(
        1,
        "channel moment fidelity",
        worst <= 0.02 and elapsed < 60.0,
        f"worst relative gram error {worst:.4f} (bound 0.02), {elapsed:.1f}s",
    )


def test_criterion_2_coupled_solver_residuals():
    """Both driver equations satisfied to 1e-10; closed form matches the
    fixed-point iteration to 1e-8 wherever the iteration converges."""
    t0 = time.time()
    dim = 2
    rng = np.random.default_rng(77)
    worst_residual = 0.0
    worst_gap = 0.0
    solved = 0
    convergent = 0

    def instances():
        for m in (0.5, 1.0, 3.0):
            for _ in range(34):
                yield m
        # extra worst-case fading draws so enough contractive instances appear
        for _ in range(300):
            yield 0.5

    for m in instances():
        if solved >= 102 and convergent >= 10:
            break
        mom = derive_moments(NakagamiParams(m, 1.0))
        rot = build_rotator(mom, dim)
        s_a = stack(sample_channel(mom, dim, rng), sample_channel(mom, dim, rng))
        s_c = stack(sample_channel(mom, dim, rng), sample_channel(mom, dim, rng))
        try:
            d_ac, d_ca = solve_coupled_drivers(s_a, s_c, rot)
        except NoUniqueSolutionError:
            continue
        solved += 1
        p_a = np.linalg.pinv(s_a)
        p_c = np.linalg.pinv(s_c)
        t = rot
        r1 = np.linalg.norm(d_ac - p_a @ (t - s_c @ d_ca))
        r2 = np.linalg.norm(d_ca - p_c @ (t - s_a @ d_ac))
        worst_residual = max(worst_residual, float(r1), float(r2))

        k_mat = p_a @ s_c @ p_c @ s_a
        rho = float(np.max(np.abs(np.linalg.eigvals(k_mat))))
        if rho < 0.9 and convergent < 10:
            x = np.zeros((dim, dim), dtype=complex)
            for _ in range(5000):
                nxt = p_a @ (t - s_c @ (p_c @ (t - s_a @ x)))
                if np.linalg.norm(nxt - x) <= 1e-12:
                    x = nxt
                    break
                x = nxt
            convergent += 1
            worst_gap = max(worst_gap, float(np.linalg.norm(x - d_ac)))

    elapsed = time.time() - t0
    ok = (
        solved >= 100
        and worst_residual <= 1e-10
        and convergent >= 10
        and worst_gap <= 1e-8
        and elapsed < 30.0
    )
    _report(
        2,
        "coupled solver residuals",
        ok,
        f"{solved} instances, worst residual {worst_residual:.2e} (bound 1e-10), "
        f"{convergent} fixed-point checks, worst gap {worst_gap:.2e} (bound 1e-8), "
        f"{elapsed:.1f}s",
    )


def test_criterion_3_left_inverse_exactness():
    """P S = I to 1e-10 on 1000 random stacked channels."""
    rng = np.random.default_rng(5150)
    dim = 2
    eye = np.eye(dim)
    worst = 0.0
    for k in range(1000):
        m = (0.5, 1.0, 3.0)[k % 3]
        mom = derive_moments(NakagamiParams(m, 1.0))
        s = stack(sample_channel(mom, dim, rng), sample_channel(mom, dim, rng))
        p = left_pseudoinverse(s)
        worst = max(worst, float(np.linalg.norm(p @ s - eye)))
    _report(
        3,
        "left inverse exactness",
        worst <= 1e-10,
        f"worst |PS - I| = {worst:.2e} over 1000 channels (bound 1e-10)",
    )


def test_criterion_4_awgn_bpsk_calibration():
    """Measured BER on the clean-channel link matches Q(sqrt(2 snr)) within
    3 Monte-Carlo standard errors at {0, 2, 4, 6} dB, >= 1e6 bits per point."""
    t0 = time.time()
    trials = 440  # 440 x 2304 bits > 1e6 per snr point
    cfg = load_config(
        overrides={
            "trials": trials,
            "seed": 12345,
            "snr": {"start": 0.0, "stop": 6.0, "step": 2.0},
            "scenario": {"node_count": 1, "identity_channel": True, "packet_bits": 2304},
        }
    )
    series = run_experiment(cfg)
    details = []
    ok = True
    for point in series[0].points:
        n_bits = trials * 2304
        snr_lin = 10.0 ** (point.snr_db / 10.0)
        theory = _q_function(math.sqrt(2.0 * snr_lin))
        se = math.sqrt(theory * (1.0 - theory) / n_bits)
        gap = abs(point.ber.value - theory)
        ok = ok and n_bits >= 1_000_000 and gap <= 3.0 * se
        details.append(f"{point.snr_db:.0f}dB |{point.ber.value:.3e}-{theory:.3e}|={gap:.1e}<=3se={3*se:.1e}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 300.0
    _report(4, "awgn bpsk calibration", ok, "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_5_capacity_declines_with_density():
    """Mean capacity at 5 dB strictly decreasing over 2/4/8 nodes with
    non-overlapping 95% intervals."""
    cfg = load_config(overrides={"experiment": "capacity_vs_nodes", "seed": 12345})
    series = run_experiment(cfg)
    caps = {s.param_value: s.points[0].capacity for s in series}
    c2, c4, c8 = caps[2.0], caps[4.0], caps[8.0]
    ok = (
        c2.value > c4.value > c8.value
        and c2.ci_low > c4.ci_high
        and c4.ci_low > c8.ci_high
    )
    _report(
        5,
        "capacity declines with density",
        ok,
        f"2 nodes [{c2.ci_low:.3e},{c2.ci_high:.3e}] > 4 nodes "
        f"[{c4.ci_low:.3e},{c4.ci_high:.3e}] > 8 nodes [{c8.ci_low:.3e},{c8.ci_high:.3e}]",
    )


def test_criterion_6_per_declines_with_spacing():
    """Packet error rate strictly decreasing over 5/8/11 m spacing with
    non-overlapping 95% intervals."""
    cfg = load_config(overrides={"experiment": "per_vs_distance", "seed": 12345})
    series = run_experiment(cfg)
    pers = {s.param_value: s.points[0].per for s in series}
    p5, p8, p11 = pers[5.0], pers[8.0], pers[11.0]
    ok = (
        p5.value > p8.value > p11.value
        and p8.ci_high < p5.ci_low
        and p11.ci_high < p8.ci_low
    )
    _report(
        6,
        "per declines with spacing",
        ok,
        f"5m [{p5.ci_low:.3f},{p5.ci_high:.3f}] > 8m [{p8.ci_low:.3f},{p8.ci_high:.3f}] "
        f"> 11m [{p11.ci_low:.4f},{p11.ci_high:.4f}]",
    )


def test_criterion_7_diversity_slope_ratio():
    """log10(BER)-per-dB slope between 8 and 12 dB at least 1.5x steeper for
    4 branches than for 2."""
    cfg = load_config(
        overrides={
            "experiment": "ber_vs_dimension",
            "seed": 12345,
            "snr": {"start": 8.0, "stop": 12.0, "step": 2.0},
        }
    )
    series = run_experiment(cfg)
    slopes = {}
    for s in series:
        x = np.array([p.snr_db for p in s.points])
        y = np.log10([p.ber.value for p in s.points])
        slopes[s.param_value] = float(np.polyfit(x, y, 1)[0])
    ratio = slopes[4.0] / slopes[2.0]
    ok = slopes[2.0] < 0.0 and slopes[4.0] < 0.0 and ratio >= 1.5
    _report(
        7,
        "diversity slope ratio",
        ok,
        f"slope M=2 {slopes[2.0]:.4f}, M=4 {slopes[4.0]:.4f} dec/dB, ratio {ratio:.2f} >= 1.5",
    )


def test_criterion_8_analytic_per_agreement():
    """Conventional analytic PER from measured SER within 20% of counted PER
    on the clean BPSK link; literal form stays clamped to [0, 1]."""
    cfg = load_config(
        overrides={
            "trials": 600,
            "seed": 12345,
            "snr": {"start": 8.0, "stop": 8.0, "step": 1.0},
            "scenario": {"node_count": 1, "identity_channel": True, "packet_bits": 2304},
        }
    )
    point = run_experiment(cfg)[0].points[0]
    counted = point.per.value
    model = point.per_model.value
    rel_gap = abs(model - counted) / counted
    # the as-printed form must stay a probability even at its degeneracies
    exponents = uncoded_stream_params(2304, bits_per_symbol=1, streams=2)
    literal_vals = [
        packet_error_rate(ser, exponents, "literal", min_distance=2.0) for ser in (0.0, 1e-4, 0.5, 1.0)
    ]
    clamped = all(0.0 <= v <= 1.0 for v in literal_vals)
    documented = "clamp" in packet_error_rate.__doc__.lower()
    ok = 0.05 < counted < 0.95 and rel_gap <= 0.20 and clamped and documented
    _report(
        8,
        "analytic per agreement",
        ok,
        f"counted {counted:.4f} vs model {model:.4f}, gap {100 * rel_gap:.1f}% <= 20%; "
        f"literal clamped to [0,1] and documented",
    )


def test_criterion_9_reproducible_csv(tmp_path):
    """Identical CSV bytes across repeat runs and across worker counts."""
    def run_to(path, workers):
        cfg = load_config(
            overrides={
                "trials": 64,
                "seed": 12345,
                "workers": workers,
                "snr": {"start": 0.0, "stop": 5.0, "step": 5.0},
                "output": str(path),
                "scenario": {"packet_bits": 96},
            }
        )
        emit_csv(run_experiment(cfg), str(path))
        return path.read_bytes()

    first = run_to(tmp_path / "a.csv", 1)
    second = run_to(tmp_path / "b.csv", 1)
    parallel = run_to(tmp_path / "c.csv", 8)
    ok = first == second == parallel
    _report(
        9,
        "reproducible csv",
        ok,
        f"repeat identical: {first == second}; workers 1 vs 8 identical: {first == parallel}; "
        f"{len(first)} bytes",
    )
