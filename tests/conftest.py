from concurrent.futures import ProcessPoolExecutor

import pytest

from stamc import smc

# a task that starts and stops on broadcast channels and counts its starts
TASK = """
int n = 0;
clock p;
clock w;
broadcast chan start;
broadcast chan stop;

template Task() {
  init loc idle { inv p <= 12; }
  loc work { inv w <= 6; }
  idle -> work { guard p >= 8; sync start!; update p := 0, w := 0, n := n + 1; }
  work -> idle { guard w >= 1; sync stop!; }
}

system Task;
"""


@pytest.fixture
def task_text():
    return TASK


@pytest.fixture
def pools(monkeypatch):
    """Every process pool smc creates while the test runs, each with the
    run-index chunks submitted to it, their futures and whether it was
    shut down."""
    created = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.chunks = []
            self.futures = []
            self.shut_down = False
            created.append(self)

        def submit(self, fn, /, *args, **kwargs):
            self.chunks.append(list(args[0]))
            future = super().submit(fn, *args, **kwargs)
            self.futures.append(future)
            return future

        def shutdown(self, *args, **kwargs):
            super().shutdown(*args, **kwargs)
            self.shut_down = True

    monkeypatch.setattr(smc, "ProcessPoolExecutor", CountingPool)
    return created
