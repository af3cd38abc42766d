"""beamlink's benchmark: trials per second of named experiment sweeps, set-up
time, peak memory and failures, or, with --trace 1, per-layer numbers taken
by wrapping each module boundary from outside the program.

    python3 perfbench/run.py --workload dense_capacity --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run it from a checkout of the repository; it imports beamlink from the
checkout's src/ and writes only under perfbench/out/.  The last stdout line
is one JSON object with the keys correct, attempted, failed and metrics;
the line before it holds the details (environment, CSV digests, samples).
A human-readable table goes to stderr.  `--workload all` runs every
workload untraced and traced, with metric names prefixed by the workload.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from workloads import WORKLOADS, config_for, master_seed  # noqa: E402

SETUP_PROBES = 11  # timed fresh-interpreter set-ups per run; the median is reported
# a run must end within 180 s; leave room for the set-up probes
CHILD_TIMEOUT_S = 160.0

END_TO_END_UNITS = {
    "trials_per_s": "trials/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark itself cannot run here."""


def _run_child(args: list[str], timeout: float) -> str:
    """Run a child interpreter in its own session; on timeout kill the whole group."""
    proc = subprocess.Popen(
        [sys.executable, *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{args[0]} timed out after {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} exited {proc.returncode}: {err.strip()[-2000:]}")
    return out


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def setup_seconds(workload, seed: int, out_dir: Path) -> list[float]:
    """Fresh-interpreter set-up times; the first probe also fills the bytecode cache."""
    config = out_dir / "config-setup.json"
    config.write_text(json.dumps(config_for(workload, master_seed(seed), str(out_dir / "setup.csv"))))
    probe = str(HERE / "probe_setup.py")
    times = []
    for k in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        reached = float(_run_child([probe, str(ROOT), str(config)], timeout=60).strip().splitlines()[-1])
        if k > 0:
            times.append(reached - start)
    return times


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> tuple[dict, dict]:
    """Returns (result, details) for one workload."""
    workload = WORKLOADS[name]
    out_dir = HERE / "out" / f"{name}-{'trace' if traced else 'measure'}"
    out_dir.mkdir(parents=True, exist_ok=True)
    for old in out_dir.iterdir():
        old.unlink()
    bench = str(HERE / "bench.py")
    if traced:
        child = _last_json(
            _run_child([bench, "trace", name, str(seed), str(seconds), str(out_dir)], CHILD_TIMEOUT_S)
        )
        metrics = child.pop("metrics")
        units = per_layer_units()
        missing = set(units) - set(metrics)
        if missing:
            raise BenchError(f"per-layer metrics not produced: {sorted(missing)}")
        values = {k: {"value": metrics[k], "unit": units[k]} for k in units}
    else:
        setups = setup_seconds(workload, seed, out_dir)
        child = _last_json(
            _run_child([bench, "measure", name, str(seed), str(seconds), str(out_dir)], CHILD_TIMEOUT_S)
        )
        child["setup_s_samples"] = setups
        raw = {
            "trials_per_s": child["trials_per_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": child["peak_rss_mb"],
            "ok_share": 1.0 - child["failed"] / child["attempted"],
        }
        values = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in raw.items()}
    result = {
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": values,
    }
    details = {"workload": name, "seed": seed, "trace": int(traced), **child}
    (out_dir / "result.json").write_text(json.dumps({"result": result, "details": details}, indent=1))
    return result, details


def per_layer_units() -> dict[str, str]:
    """Per-layer metric names and units, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def _table(result: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"  {name:<52} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "beamlink" / "__init__.py").is_file():
        print(f"error: no beamlink sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            result, details = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
            _table(result)
            print(json.dumps(details))
            print(json.dumps(result))
            return 0
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        all_details = []
        for name in WORKLOADS:
            for traced in (False, True):
                result, details = run_workload(name, args.seed, args.seconds, traced)
                print(f"{name} ({'traced' if traced else 'untraced'}):", file=sys.stderr)
                _table(result)
                combined["correct"] &= result["correct"]
                combined["attempted"] += result["attempted"]
                combined["failed"] += result["failed"]
                for metric, m in result["metrics"].items():
                    combined["metrics"][f"{name}/{metric}"] = m
                all_details.append(details)
        print(json.dumps(all_details))
        print(json.dumps(combined))
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
