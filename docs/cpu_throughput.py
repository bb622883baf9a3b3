"""Do two processes get two CPUs of throughput on this machine?

Times a fixed pure-Python loop run twice in one process, then once in each
of two concurrent processes (one ``os.fork``). With two CPUs of throughput
the concurrent pair finishes in about half the serial time (ratio near 0.5);
a ratio near 1 means the two processes share one CPU of throughput, so
splitting work over processes cannot shorten wall time. It also prints the
CPUs this process may run on (``os.sched_getaffinity``). About 1 s.

    python docs/cpu_throughput.py
"""

import os
import time

LOOP = 3_000_000


def spin() -> int:
    total = 0
    for i in range(LOOP):
        total += i & 7
    return total


def main() -> None:
    start = time.perf_counter()
    spin()
    spin()
    serial = time.perf_counter() - start

    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        spin()
        os._exit(0)
    spin()
    os.waitpid(pid, 0)
    concurrent = time.perf_counter() - start

    print(f"serial, 2 loops in 1 process:     {serial:.3f} s")
    print(f"concurrent, 1 loop in 2 processes: {concurrent:.3f} s")
    print(f"ratio concurrent / serial:         {concurrent / serial:.2f}")
    print(f"CPU affinity: {sorted(os.sched_getaffinity(0))}")


if __name__ == "__main__":
    main()
