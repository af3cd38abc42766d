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

    monkeypatch.setattr(linksim, "ProcessPoolExecutor", RecordedPool)
    monkeypatch.setattr(linksim.os, "cpu_count", lambda: 3)
    return opened
