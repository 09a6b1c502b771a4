"""Fixed reference program whose run time measures the machine's current speed.

    python3 perfbench/reference.py [PROCS]

The benchmark runs it as its own process right before every timed
invocation, with as many worker processes as the workload uses, and rescales
that invocation's times by REF_S / (its wall time).  A host that is slower for a
while (other tenants, frequency changes) then moves the reference and the
workload together and cancels out.  The kernel mixes what the workloads do:
Python set intersections over a sparse random graph and many tiny numpy
calls, after interpreter start and a numpy import.  It never imports
collapse_lab, so no change to the program can change it.
"""

import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

N = 20_000


def kernel(seed: int) -> int:
    rng = np.random.Generator(np.random.PCG64(seed))
    adj = [set() for _ in range(N)]
    for a, b in zip(rng.integers(0, N, 30_000).tolist(), rng.integers(0, N, 30_000).tolist()):
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    dominated = 0
    for _ in range(2):
        for na in adj:
            target = len(na) - 1
            dominated += sum(1 for b in na if len(na & adj[b]) == target)
    for _ in range(2_000):
        dominated += int(np.cumsum(rng.random(8))[-1] > 4.0)
    return dominated


if __name__ == "__main__":
    procs = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    if procs == 1:
        print(kernel(0))
    else:
        with ProcessPoolExecutor(max_workers=procs) as pool:
            print(list(pool.map(kernel, range(procs))))
