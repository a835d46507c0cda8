"""Runs the benchmark's subprocesses one at a time and reports on each.

    python3 bench/spawn.py <cpu>

Reads one JSON job per line on stdin: {"argv", "cwd", "env", "stdout",
"stderr"}, the last two being files for the child's output.  Writes one
JSON line per job: {"code", "seconds", "maxrss_kb", "calibration_s"}: the
wall time from spawn to exit, the child's peak RSS from os.wait4, and the
mean of calibrate() just before the spawn and just after the exit.  This
process and its children run on the one given CPU, so the calibration
measures the speed of the CPU the child ran on.

The benchmark starts children from this small process rather than from
itself because a child's peak RSS counts the memory of the process it was
spawned from, up to its exec.
"""

import json
import os
import subprocess
import sys
import time


def calibrate() -> float:
    """Fastest of three runs of a fixed loop of dict and str work: how fast
    this CPU is running at the moment.  It is the same in every version of
    the benchmark, so timings divided by it compare across runs."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        table = {}
        for i in range(20_000):
            table[i & 255] = str(i) + "x"
        best = min(best, time.perf_counter() - start)
    return best


def main() -> None:
    os.sched_setaffinity(0, {int(sys.argv[1])})
    for line in sys.stdin:
        job = json.loads(line)
        before = calibrate()
        with open(job["stdout"], "wb") as out, open(job["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(job["argv"], stdout=out, stderr=err,
                                    cwd=job["cwd"], env=job["env"])
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            seconds = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"code": proc.returncode, "seconds": seconds, "maxrss_kb": usage.ru_maxrss,
                 "calibration_s": (before + calibrate()) / 2}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
