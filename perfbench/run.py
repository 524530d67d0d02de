"""Benchmark of the stamc checker.

Run from the root of a checkout:

    python3 perfbench/run.py --workload suite --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation
beyond one clock read before and after each ``engine.run`` and a timing
of a fixed reference routine at most every 50 ms, by which the run and
wall times are scaled to one host speed (``layers.RunLog`` says why), and
set-up time by a fresh interpreter's start-up timed next to it; the log
lists them unscaled too. ``--trace 1``
runs one unit of the workload untraced and again with every layer wrapped,
and reports the per-layer split. Both check the outputs against
references. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it list every metric with its unit, and a copy with the
environment goes to ``.perfbench_out/``.

The workloads are described in ``workloads.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_TIMEOUT_S = 120
# Set-up is mostly a fresh interpreter loading modules, which a busy host
# slows less than it slows layers.reference_work(). Its reference is a fresh
# interpreter importing two of the program's third-party dependencies; a
# scaled set-up time is what the wall clock would read on a host that
# starts that one in STARTUP_REFERENCE_S.
STARTUP_REFERENCE = "import numpy, click; print('ready', flush=True)"
STARTUP_REFERENCE_S = 0.2


def _import_stamc():
    """Put the checkout's ``src`` first on the path and import stamc from
    it; refuse a stamc found anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import stamc
    if not Path(stamc.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"stamc imported from {stamc.__file__}, "
                          f"not from {src}")


def environment() -> dict:
    from importlib.metadata import version
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "click": version("click"),
        "loadavg_start": list(os.getloadavg()),
        "machine": platform.machine(),
    }


def measure_setup(workload: str, size: str, probes: int) -> tuple:
    """Seconds from process start to ready-for-the-first-run, once per
    fresh process: as measured, and scaled by the start-up reference timed
    right before each probe."""
    times, scaled = [], []
    for _ in range(probes):
        reference = _seconds_to_ready(["-c", STARTUP_REFERENCE])
        times.append(_seconds_to_ready(
            [str(HERE / "setup_probe.py"), workload, size]))
        scaled.append(times[-1] * STARTUP_REFERENCE_S / reference)
    return times, scaled


def _seconds_to_ready(args: list) -> float:
    """Seconds from starting ``python args`` to its line ``ready``."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=SETUP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("set-up probe timed out")
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed: {err.strip()}")
    return elapsed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs each workload at a toy size, for the "
                         "benchmark's own smoke test")
    args = ap.parse_args(argv)

    try:
        _import_stamc()
        import workloads
    except ImportError as exc:
        print(f"error: cannot import stamc from this checkout: {exc}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds < 0:
        print("error: --seconds must be >= 0", file=sys.stderr)
        return 2

    env = environment()
    size = workloads.SIZES[args.size]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work_dir = OUT / tag
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        bench = workloads.WORKLOADS[args.workload](size, work_dir)
        bench.setup()
        setup_times = []
        if args.trace:
            outcome = bench.trace(args.seed)
        else:
            setup_times, setup_scaled = measure_setup(
                args.workload, args.size, size.setup_probes)
            outcome = bench.measure(args.seed, args.seconds,
                                    statistics.median(setup_scaled))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    correct = outcome.failed == 0 and not outcome.problems
    share = outcome.failed / max(outcome.attempted, 1)
    if args.trace:
        # It reads 0 on a correct run, so it is a per-layer metric; an
        # end-to-end metric may not read 0.
        outcome.metrics["failed_share"] = (share, "ratio")
    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"size {args.size}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    if setup_times:
        print(f"  setup_s is the median of {len(setup_times)} fresh "
              f"processes, scaled; as measured: "
              f"{', '.join(f'{t:.3f}' for t in setup_times)}")
    for key, value in outcome.notes.items():
        if key == "not_applicable":
            key = "not applicable here, reported as 0"
        print(f"  {key}: {value}")
    print(f"  failed_share {share:g} ({outcome.failed} of "
          f"{outcome.attempted})")
    for problem in outcome.problems:
        print(f"  FAILED: {problem}")

    record = {"env": env, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "size": args.size, "setup_times_s": setup_times,
              "notes": outcome.notes, "problems": outcome.problems,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in outcome.metrics.items()}}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in outcome.metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
