"""Does one workload's set-up in a fresh process and prints ``ready``.

``run.py`` times this process from its start to that line, which covers
the imports, reading the files, parsing, validation, observer attachment
and network compilation that precede the first simulated run.

    python3 perfbench/setup_probe.py WORKLOAD SIZE
"""

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main(name: str, size: str) -> int:
    with tempfile.TemporaryDirectory(dir=workloads.ROOT / ".perfbench_out") \
            as work_dir:
        workloads.WORKLOADS[name](workloads.SIZES[size],
                                  Path(work_dir)).setup()
        print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
