"""Fresh-interpreter set-up probe for one workload.

``python3 perfbench/setup_probe.py <workload> <workdir>`` imports what
the workload needs, builds its library, server and store, prints
``ready`` and tears everything down again.  ``run.py`` times the span
from spawning this interpreter to the ``ready`` line as ``setup_s``,
and runs it under ``-X importtime`` for the per-package import times.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS  # noqa: E402


def main() -> None:
    workload = WORKLOADS[sys.argv[1]]
    env = workload.setup(Path(sys.argv[2]))
    print("ready", flush=True)
    workload.close(env)


if __name__ == "__main__":
    main()
