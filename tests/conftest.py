import concurrent.futures
from concurrent.futures import ProcessPoolExecutor

import pytest

from beamlink import linksim


@pytest.fixture
def real_pool(monkeypatch):
    """The (processes, tasks) of each real process pool run_trials opens,
    with the CPU count read as 3 whatever the host has."""
    opened = []

    class RecordedPool(ProcessPoolExecutor):
        def __init__(self, max_workers):
            super().__init__(max_workers=max_workers)
            self.processes = max_workers

        def map(self, fn, *iterables):
            iterables = [list(it) for it in iterables]
            opened.append((self.processes, len(iterables[0])))
            return super().map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordedPool)
    monkeypatch.setattr(linksim.os, "cpu_count", lambda: 3)
    return opened


@pytest.fixture
def zero_channels(monkeypatch):
    """zero(chosen, draws) patches _TaskPlan.draw so that each trial t of SNR
    point p with chosen(plan, p, t) has the given draws (all of them by
    default) of its channels zeroed after its block's stream drew them.  A
    channel stream is keyed (p, block, 0) and draws the block's trials in
    turn from trial block * _BATCH_TRIALS, in one call or in several."""
    draw = linksim._TaskPlan.draw
    drawn = {}  # id of a channel stream -> (the stream, trials it drew)

    def zero(chosen, draws=slice(None)):
        def zeroed(plan, rng, trials):
            channels = draw(plan, rng, trials)
            point, block, _ = rng.bit_generator.seed_seq.spawn_key
            _, before = drawn.get(id(rng), (rng, 0))
            drawn[id(rng)] = rng, before + trials
            first = block * linksim._BATCH_TRIALS + before
            for i in range(trials):
                if chosen(plan, point, first + i):
                    channels[i, draws] = 0.0
            return channels

        monkeypatch.setattr(linksim._TaskPlan, "draw", zeroed)

    return zero
