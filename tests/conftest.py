from concurrent.futures import ProcessPoolExecutor

import pytest

from stamc import smc
from stamc.engine import CompiledNetwork

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


@pytest.fixture(autouse=True)
def cold_networks():
    """Each test starts with no compiled network cached, so a test that
    counts compiles sees only its own."""
    smc._compiled.cache_clear()


@pytest.fixture
def compiles(monkeypatch):
    """The networks smc compiles while the test runs."""
    built = []
    monkeypatch.setattr(smc, "CompiledNetwork",
                        lambda network: built.append(network)
                        or CompiledNetwork(network))
    return built


@pytest.fixture
def task_text():
    return TASK


# models whose names the engine cannot compile as the guard or invariant
# reads; id -> (issue code validation must report, model text)
UNRESOLVABLE = {
    # B.y is a clock, so B.y * B.y is a nonlinear guard
    "qualified-clock-guard": ("nonlinear guard", """
template A() {
  init loc a;
  loc b;
  a -> b { guard B.y * B.y >= 16; }
}
template B() { clock y; init loc s; }
system A, B;
"""),
    "qualified-clock-invariant": ("nonlinear invariant", """
template A() {
  init loc a { inv B.y * B.y <= 16; }
  loc b;
  a -> b { guard B.y >= 4; }
}
template B() { clock y; init loc s; }
system A, B;
"""),
    "unknown-component": ("unknown name", """
template A() { init loc a; loc b; a -> b { guard B.y > 0; } }
system A;
"""),
    "unknown-member": ("unknown name", """
template A() { clock y; init loc a; loc b; a -> b { guard A.z >= 0; } }
system A;
"""),
    # the parameter n shadows the local n, so n is no update target
    "parameter-update-target": ("unknown name", """
template A(n: int) {
  int n;
  init loc a;
  a -> a { guard n < 100; update n := n + 1; }
}
system A(7);
"""),
}


@pytest.fixture(params=list(UNRESOLVABLE))
def unresolvable(request):
    """(issue code, model text) of a model validation must reject."""
    return UNRESOLVABLE[request.param]


@pytest.fixture
def pools(monkeypatch):
    """Every process pool smc creates while the test runs, each with the
    run-index chunks submitted to it, every submit's arguments, their
    futures and whether it was shut down."""
    created = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.chunks = []
            self.args = []
            self.futures = []
            self.shut_down = False
            created.append(self)

        def submit(self, fn, /, *args, **kwargs):
            self.chunks.append(list(args[0]))
            self.args.append(args)
            future = super().submit(fn, *args, **kwargs)
            self.futures.append(future)
            return future

        def shutdown(self, *args, **kwargs):
            super().shutdown(*args, **kwargs)
            self.shut_down = True

    monkeypatch.setattr(smc, "ProcessPoolExecutor", CountingPool)
    return created
