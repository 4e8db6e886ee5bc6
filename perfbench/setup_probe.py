"""Set-up probe: import stabkit, build and warm one workload's codes and
decoders, then print "ready".  run.py times process start to that line.

    python3 perfbench/setup_probe.py <workload>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

workloads.setup(workloads.WORKLOADS[sys.argv[1]])
print("ready", flush=True)
