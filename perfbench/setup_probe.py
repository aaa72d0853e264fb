"""Set-up probe: a fresh interpreter imports seqot and builds one workload.

Prints the monotonic clock at the moment the workload's objects are built
and warmed up; run.py subtracts the moment it spawned this process.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def main():
    name, seed = sys.argv[1], int(sys.argv[2])
    sq = workloads.load_seqot()
    with tempfile.TemporaryDirectory(prefix=".work-", dir=Path(__file__).parent) as work:
        workloads.WORKLOADS[name](sq, seed, work)
        ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    print(json.dumps({"ready": ready}))


if __name__ == "__main__":
    main()
