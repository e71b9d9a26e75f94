"""Time one benchmark set-up in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR

Set-up is importing camech plus generating the workload's inputs.  After
it, the probe runs ``SLICES`` calibration slices and prints three numbers:
the set-up's CPU seconds, its wall seconds and the slices' mean CPU
seconds.  ``run.py`` starts several probes one after another and scales
each set-up time by its own probe's slices.
"""

import os
import sys
import time

SLICES = 200


def main() -> None:
    start, cpu_start = time.perf_counter(), time.process_time()
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:0] = [os.path.join(os.path.dirname(here), "src"), here]
    from pathlib import Path

    from workloads import WORKLOADS

    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    WORKLOADS[name](seed, workdir)
    cpu, wall = time.process_time() - cpu_start, time.perf_counter() - start

    from calibration import calibration_slice

    slices = [calibration_slice() for _ in range(SLICES)]
    print(cpu, wall, sum(slices) / len(slices))


if __name__ == "__main__":
    main()
