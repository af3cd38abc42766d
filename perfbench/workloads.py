"""The benchmark's workloads: which named experiment runs, at which fixed
trial budget and worker count.  Why each one is in the benchmark is recorded
in BENCHMARK.json and perfbench/README.md.

Every workload is a closed loop in one process: the next
load_config -> run_experiment -> emit_csv pass starts when the previous one
has returned.  The seed is a benchmark argument; it becomes the config's
master seed and nothing else.
"""
from __future__ import annotations

from dataclasses import dataclass

# metric rows per (snr point, sweep value): ber, capacity, per, per_model, ser
METRICS_PER_POINT = 5
CSV_HEADER = "snr_db,param_name,param_value,metric,value,ci_low,ci_high,trials,seed"


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    trials: int  # trials per snr point and sweep value
    workers: int
    sweep_values: int  # length of the experiment's fixed parameter sweep


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dense_capacity", "capacity_vs_nodes", trials=100, workers=1, sweep_values=3),
        Workload("link_sweep", "ber_vs_dimension", trials=50, workers=1, sweep_values=2),
        Workload("link_sweep_2w", "ber_vs_dimension", trials=50, workers=2, sweep_values=2),
    )
}


def config_for(workload: Workload, seed: int, output: str, workers: int | None = None) -> dict:
    """The JSON config a pass loads; `seed` is already the config's master seed."""
    return {
        "experiment": workload.experiment,
        "trials": workload.trials,
        "seed": seed,
        "workers": workload.workers if workers is None else workers,
        "output": output,
    }


def master_seed(seed: int) -> int:
    """Map any benchmark seed to a valid non-negative config seed."""
    return seed % (2**32)
