"""Times ``bounds.supt_quantile`` alone at the shapes the test suite and the
benchmark call it with, and measures the memory its draws take.

    python scripts/bench_supt.py [--src src] [--repeats 7] [--dims 2,3,20,40]

For each dimension d in ``--dims`` it builds one fixed positive-definite
covariance and calls ``supt_quantile(cov, 0.1, 100_000, seed)``: d = 2 is a
``ds-*`` test split (one policy, two guardrails), which takes the closed
form and draws nothing (its peak is then about 0); d = 3 is the smallest
dimension that still simulates, d = 20 the ``paper`` workload's final
certification, d = 40 the acceptance suite's coverage check. It also
times one rank-deficient 20 x 20 covariance whose columns
repeat those of a 10-dimensional one, as pruned rules that treat the same
rows make ``snpl``'s final covariance singular. It prints the case, d, the
rank r (the draws take r normals each), the median wall time of
``--repeats`` calls (``time.perf_counter``) and the peak ``tracemalloc``
size of one further call, in MB; numpy reports its array buffers to
``tracemalloc``, so the peak covers the draws. BLAS is pinned to one
thread, as in ``perfbench/run.py``. ``--src`` imports ``snpl`` from another
source tree, so two trees can be compared on one host.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
import tracemalloc

N_SIM = 100_000
LEVEL = 0.1


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default="src", help="source tree holding the snpl package")
    parser.add_argument("--repeats", type=int, default=7, help="timed calls per dimension")
    parser.add_argument("--dims", default="2,3,20,40", help="comma-separated dimensions")
    args = parser.parse_args(argv)

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, os.path.abspath(args.src))
    import numpy as np
    from snpl.bounds import supt_quantile

    def random_cov(d):
        a = np.random.default_rng(d).standard_normal((d, d + 3))
        return a @ a.T / d

    def duplicated_cov(d):
        idx = np.arange(d) % ((d + 1) // 2)
        return random_cov((d + 1) // 2)[np.ix_(idx, idx)]

    cases = [("full", random_cov(int(x))) for x in args.dims.split(",") if x]
    cases.append(("dup", duplicated_cov(20)))
    print(f"{'case':>5} {'d':>4} {'r':>4} {'median ms':>10} {'peak MB':>8}")
    for name, cov in cases:
        supt_quantile(cov, LEVEL, N_SIM, 0)  # warm-up
        times = []
        for seed in range(args.repeats):
            start = time.perf_counter()
            supt_quantile(cov, LEVEL, N_SIM, seed)
            times.append(time.perf_counter() - start)
        tracemalloc.start()
        supt_quantile(cov, LEVEL, N_SIM, 0)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        d, r = cov.shape[0], np.linalg.matrix_rank(cov)
        median = statistics.median(times) * 1e3
        print(f"{name:>5} {d:>4} {r:>4} {median:>10.2f} {peak / 2**20:>8.2f}")


if __name__ == "__main__":
    main()
