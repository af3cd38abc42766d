"""Set-up probe: a fresh interpreter runs `import beamlink`, `load_config` and
the first scenario build, then prints the monotonic clock at the moment the
first trial would start and exits without running it.

    python3 perfbench/probe_setup.py <checkout root> <config.json>

run.py reads the clock before starting this process; the difference is
the set-up time.  time.perf_counter is CLOCK_MONOTONIC on Linux, which is
shared by all processes, so the two readings compare.
"""
import sys
import time

sys.path.insert(0, sys.argv[1] + "/src")

import beamlink  # noqa: E402,F401  (numpy included)
from beamlink import experiments  # noqa: E402


class FirstTrial(Exception):
    pass


def _first_trial(*args, **kwargs):
    raise FirstTrial


config = experiments.load_config(sys.argv[2])
experiments.run_trials = _first_trial  # run_experiment builds the scenario, then calls this
try:
    experiments.run_experiment(config)
except FirstTrial:
    print(repr(time.perf_counter()))
else:
    sys.exit("run_experiment returned without reaching a trial")
