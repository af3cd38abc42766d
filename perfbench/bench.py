"""One measuring process of the benchmark; run.py starts it in a fresh
interpreter so wrappers from a traced run never reach an untraced one.

    python3 perfbench/bench.py <measure|trace> <workload> <seed> <seconds> <out dir>

`measure` times untraced load_config -> run_experiment -> emit_csv passes in
a closed loop for `seconds`, times the host-speed kernel between passes,
and checks every CSV.  `trace` alternates
untraced and traced passes for `seconds` and reports per-layer numbers
from the traced ones.  Either way the last stdout line is one JSON object.
"""
from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import beamlink  # noqa: E402
from beamlink.beamformer import (  # noqa: E402
    DegenerateNormalizationError,
    IllConditionedChannelError,
    NoUniqueSolutionError,
)
from beamlink.experiments import emit_csv, load_config, run_experiment  # noqa: E402
from beamlink.linksim import DetectionError  # noqa: E402

from hostspeed import host_speed, kernel_seconds  # noqa: E402
from tracer import LINALG_CALLERS, LINALG_NAMES, RUN_TRIALS, Tracer, self_times  # noqa: E402
from workloads import CSV_HEADER, METRICS_PER_POINT, WORKLOADS, Workload, config_for, master_seed  # noqa: E402

MIN_PASSES = 3
# a run stops starting passes this long after its measuring time is up, even
# if it has too few, so the whole benchmark stays inside its time limit
OVERRUN_S = 60.0
ERASURE_CAUSES = {
    "ill_conditioned": IllConditionedChannelError.__name__,
    "no_unique": NoUniqueSolutionError.__name__,
    "degenerate_norm": DegenerateNormalizationError.__name__,
    "detection": DetectionError.__name__,
}
ESTIMATE_SPANS = (
    "metrics.estimate_rates",
    "metrics.mean_confidence",
    "metrics.packet_error_rate",
    "metrics.uncoded_stream_params",
)
# per-layer metrics that only in-trial spans give; forked workers return none
IN_TRIAL_METRICS = (
    "beamformer.solve_coupled_drivers.self_s",
    "beamformer.solve_coupled_drivers.calls_per_trial",
    "beamformer.compose_normalize.self_s",
    "beamformer.build_rotator.calls_per_trial",
    *(f"{m}.linalg_calls_per_trial.{f}" for m in LINALG_CALLERS for f in LINALG_NAMES),
    "channel.sample_channel.self_s",
    "channel.sample_channel.calls_per_trial",
    "channel.derive_moments.calls_per_trial",
    "linksim.detect.self_s",
    "linksim.received_signal.self_s",
    "linksim.modulate.self_s",
    "linksim.modulate.calls_per_trial",
    "linksim.trial_other_s",
    *(f"linksim.erasures.{cause}" for cause in ERASURE_CAUSES),
    "topology.path_gain.self_s",
    "metrics.capacity.self_s",
)
# metrics that must repeat exactly from one traced pass to the next
EXACT_METRICS = tuple(
    name
    for name in IN_TRIAL_METRICS
    if ".calls_per_trial" in name or ".linalg_calls_per_trial." in name or ".erasures." in name
) + ("linksim.erasure_share", "experiments.emit_csv.bytes", "trace.spans_per_trial")


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _untraced_call(name, fn, *args):
    return fn(*args)


@dataclass
class Pass:
    trials: int = 0
    run_s: float = 0.0
    emit_s: float = 0.0
    cpu_s: float = 0.0
    csv: bytes = b""
    snr_points: int = 0
    error: str | None = None

    @property
    def trials_per_s(self) -> float:
        return self.trials / (self.run_s + self.emit_s)


def run_pass(config_path: Path, tracer: Tracer | None = None) -> Pass:
    """One load_config -> run_experiment -> emit_csv pass; errors are kept, not raised."""
    call = tracer.call if tracer is not None else _untraced_call
    clock = time.perf_counter
    p = Pass()
    try:
        config = call("experiments.load_config", load_config, str(config_path))
        c0 = _cpu_s()
        t0 = clock()
        series = call("experiments.run_experiment", run_experiment, config)
        t1 = clock()
        call("experiments.emit_csv", emit_csv, series, config.output)
        t2 = clock()
        p.cpu_s = _cpu_s() - c0
        p.run_s, p.emit_s = t1 - t0, t2 - t1
        p.snr_points = len(config.snr_points())
        p.trials = config.trials * p.snr_points * len(series)
        p.csv = Path(config.output).read_bytes()
    except Exception as exc:  # a failed pass is counted, not fatal
        p.error = f"{type(exc).__name__}: {exc}"
    return p


def check_csv(data: bytes, workload: Workload, snr_points: int) -> str | None:
    """Structure check of one CSV; returns what is wrong, or None."""
    text = data.decode("utf-8")
    if not text.endswith("\n"):
        return "csv does not end with a newline"
    lines = text[:-1].split("\n")
    if lines[0] != CSV_HEADER:
        return f"bad header {lines[0]!r}"
    expected = METRICS_PER_POINT * snr_points * workload.sweep_values
    if len(lines) - 1 != expected:
        return f"{len(lines) - 1} rows, expected {expected}"
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != 9:
            return f"row with {len(fields)} fields: {line!r}"
        value, low, high = (float(f) for f in fields[4:7])
        if not low <= value <= high:
            return f"interval does not bracket value: {line!r}"
    return None


class Checker:
    """Counts attempted and failed passes; a pass fails if it raised, its CSV
    is malformed, or its bytes differ from the first CSV of the run."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.first_csv: bytes | None = None
        self.problems: list[str] = []

    def accept(self, p: Pass, label: str) -> bool:
        self.attempted += 1
        problem = p.error
        if problem is None:
            if self.first_csv is None:
                problem = check_csv(p.csv, self.workload, p.snr_points)
                if problem is None:
                    self.first_csv = p.csv
            elif p.csv != self.first_csv:
                problem = "csv bytes differ from the first pass of this run"
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"{label}: {problem}")
        return problem is None


def write_config(workload: Workload, seed: int, out_dir: Path, workers: int | None = None) -> Path:
    tag = "" if workers is None else f"-w{workers}"
    path = out_dir / f"config{tag}.json"
    csv = out_dir / f"out{tag}.csv"
    path.write_text(json.dumps(config_for(workload, master_seed(seed), str(csv), workers)))
    return path


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": None, "version": None}
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "start_method": multiprocessing.get_start_method(allow_none=True)
        or multiprocessing.get_context().get_start_method(),
        "git_commit": git_commit(ROOT),
        "beamlink_path": str(Path(beamlink.__file__).parent),
    }


def git_commit(root: Path) -> str | None:
    """HEAD commit read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _keep_going(start: float, seconds: float, done: int) -> bool:
    elapsed = time.perf_counter() - start
    if elapsed >= seconds + OVERRUN_S:
        return False
    return elapsed < seconds or done < MIN_PASSES


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _peak_rss_mb() -> float:
    kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kib / 1024.0


def measure(workload: Workload, seed: int, seconds: float, out_dir: Path) -> dict:
    checker = Checker(workload)
    config_path = write_config(workload, seed, out_dir)
    # the warm-up pass runs on 1 worker, so with more workers every later
    # pass must reproduce the 1-worker bytes
    checker.accept(run_pass(write_config(workload, seed, out_dir, workers=1)), "1-worker warm-up")

    # the host-speed kernel runs before the first pass and after every pass,
    # so each pass is bracketed by two timings of it
    kernel_seconds()
    kernel_s = [kernel_seconds()]
    passes: list[Pass] = []
    speeds: list[float] = []
    start = time.perf_counter()
    while _keep_going(start, seconds, len(passes)):
        p = run_pass(config_path)
        kernel_s.append(kernel_seconds())
        if checker.accept(p, f"pass {len(passes)}"):
            passes.append(p)
            speeds.append(host_speed((kernel_s[-2] + kernel_s[-1]) / 2))

    wall_rates = [p.trials_per_s for p in passes]
    # with 1 worker a pass runs where the kernel runs, so the kernel's speed
    # is the pass's; forked workers spend their time in process start-up and
    # BLAS threads fighting over both CPUs, which the kernel does not track
    if workload.workers == 1:
        rates = [rate / speed for rate, speed in zip(wall_rates, speeds)]
    else:
        rates = wall_rates
    return {
        "attempted": checker.attempted,
        "failed": checker.failed,
        "problems": checker.problems,
        "csv_sha256": _sha256(checker.first_csv),
        "trials_per_pass": passes[0].trials if passes else 0,
        "trials_per_s_samples": rates,
        "trials_per_s": _median(rates),
        "wall_trials_per_s_samples": wall_rates,
        "wall_trials_per_s": _median(wall_rates),
        "host_speed_samples": speeds,
        "host_speed": _median(speeds),
        "peak_rss_mb": _peak_rss_mb(),
        "env": environment(),
    }


def _sha256(data: bytes | None) -> str | None:
    return None if data is None else hashlib.sha256(data).hexdigest()


def layer_metrics(tracer: Tracer, p: Pass, in_trial: bool) -> dict[str, float]:
    """Per-layer numbers of one traced pass, from its spans and counts."""
    spans = tracer.spans
    selfs = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    dur_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    in_trials_self = 0.0
    for (name, start, end, _, trace_id), own in zip(spans, selfs):
        self_s[name] += own
        dur_s[name] += end - start
        calls[name] += 1
        if trace_id >= 0:
            in_trials_self += own
    n = p.trials
    points = len(tracer.point_results)
    erasures = sum(pr.stats.erasures for pr in tracer.point_results)
    m = {
        "beamformer.solve_coupled_drivers.self_s": self_s["beamformer.solve_coupled_drivers"],
        "beamformer.solve_coupled_drivers.calls_per_trial": calls["beamformer.solve_coupled_drivers"] / n,
        "beamformer.compose_normalize.self_s": self_s["beamformer.compose"] + self_s["beamformer.normalization"],
        "beamformer.build_rotator.calls_per_trial": calls["beamformer.build_rotator"] / n,
        "channel.sample_channel.self_s": self_s["channel.sample_channel"],
        "channel.sample_channel.calls_per_trial": calls["channel.sample_channel"] / n,
        "channel.derive_moments.calls_per_trial": calls["channel.derive_moments"] / n,
        "linksim.detect.self_s": self_s["linksim.detect"],
        "linksim.received_signal.self_s": self_s["linksim.received_signal"],
        "linksim.modulate.self_s": self_s["linksim.modulate"],
        "linksim.modulate.calls_per_trial": calls["linksim.modulate"] / n,
        "linksim.trial_other_s": self_s[RUN_TRIALS],
        "linksim.run_trials.s_per_point": dur_s[RUN_TRIALS] / points,
        "linksim.erasure_share": erasures / n,
        "topology.build_scenario.s": dur_s["topology.build_scenario"],
        "topology.path_gain.self_s": self_s["topology.path_gain"],
        "metrics.estimate.self_s": sum(self_s[s] for s in ESTIMATE_SPANS),
        "metrics.capacity.self_s": self_s["metrics.capacity"] + self_s["metrics.effective_snr"],
        "experiments.load_config.s": dur_s["experiments.load_config"],
        "experiments.emit_csv.s": dur_s["experiments.emit_csv"],
        "experiments.emit_csv.bytes": float(len(p.csv)),
        "trace.accounted_share": in_trials_self / dur_s[RUN_TRIALS],
        "trace.spans_per_trial": len(spans) / n,
    }
    for caller in LINALG_CALLERS:
        for fn in LINALG_NAMES:
            m[f"{caller}.linalg_calls_per_trial.{fn}"] = tracer.counts[(caller, fn)] / n
    for cause, exc_name in ERASURE_CAUSES.items():
        m[f"linksim.erasures.{cause}"] = tracer.errors[exc_name] / n
    if not in_trial:
        for name in IN_TRIAL_METRICS:
            m[name] = 0.0
    return m


def trace(workload: Workload, seed: int, seconds: float, out_dir: Path) -> dict:
    checker = Checker(workload)
    config_path = write_config(workload, seed, out_dir)
    one_worker_path = write_config(workload, seed, out_dir, workers=1)
    # forked workers keep their spans, so in-trial boundaries are traced only with 1 worker
    in_trial = workload.workers == 1
    tracer = Tracer()
    checker.accept(run_pass(one_worker_path), "1-worker warm-up")

    untraced: list[Pass] = []
    one_worker: list[Pass] = []
    traced: list[tuple[Pass, dict]] = []
    all_spans: list = []
    problems: list[str] = []
    start = time.perf_counter()
    while _keep_going(start, seconds, len(traced)):
        p = run_pass(config_path)
        if checker.accept(p, f"untraced {len(untraced)}"):
            untraced.append(p)
        if workload.workers > 1:
            q = run_pass(one_worker_path)
            if checker.accept(q, f"1-worker {len(one_worker)}"):
                one_worker.append(q)
        tracer.reset()
        tracer.install(in_trial=in_trial)
        try:
            p = run_pass(config_path, tracer)
        finally:
            tracer.uninstall()
        if checker.accept(p, f"traced {len(traced)}"):
            m = layer_metrics(tracer, p, in_trial)
            if in_trial:
                counted = sum(tracer.errors[e] for e in ERASURE_CAUSES.values())
                total = sum(pr.stats.erasures for pr in tracer.point_results)
                if counted != total:
                    problems.append(f"erasures by cause sum to {counted}, TrialStats total is {total}")
            traced.append((p, m))
            all_spans.extend([len(traced) - 1, *s] for s in tracer.spans)

    metrics: dict[str, float] = {}
    if traced:
        for name in traced[0][1]:
            values = [m[name] for _, m in traced]
            if name in EXACT_METRICS and len(set(values)) != 1:
                problems.append(f"{name} does not repeat exactly across traced passes: {values}")
            metrics[name] = _median(values)
    untraced_rate = _median([p.trials_per_s for p in untraced])
    traced_rate = _median([p.trials_per_s for p, _ in traced])
    one_worker_rate = _median([p.trials_per_s for p in one_worker]) if one_worker else untraced_rate
    metrics["linksim.cpu_s_per_trial"] = _median([p.cpu_s / p.trials for p in untraced])
    metrics["linksim.scaling_efficiency"] = (
        untraced_rate / (workload.workers * one_worker_rate) if one_worker_rate else 0.0
    )
    # pair each traced pass with the untraced pass just before it, so drift in
    # machine speed over the run cancels out of the difference
    metrics["trace.overhead_trials_per_s"] = _median(
        [u.trials_per_s - t.trials_per_s for u, (t, _) in zip(untraced, traced)]
    )

    with open(out_dir / "spans.jsonl", "w", encoding="utf-8") as fh:
        for span in all_spans:
            fh.write(json.dumps(span) + "\n")
    return {
        "attempted": checker.attempted,
        "failed": min(checker.attempted, checker.failed + len(problems)),
        "problems": checker.problems + problems,
        "csv_sha256": _sha256(checker.first_csv),
        "traced_passes": len(traced),
        "untraced_trials_per_s": untraced_rate,
        "traced_trials_per_s": traced_rate,
        "not_measured": [] if in_trial else list(IN_TRIAL_METRICS),
        "metrics": metrics,
        "env": environment(),
    }


def main(argv: list[str]) -> int:
    mode, name, seed, seconds, out_dir = argv
    run = {"measure": measure, "trace": trace}[mode]
    result = run(WORKLOADS[name], int(seed), float(seconds), Path(out_dir))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
