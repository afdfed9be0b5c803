"""Times ``estimators.class_stats`` alone at the shapes the benchmark calls
it with, on a dataset that has not seen the class and on one that has.

    python scripts/bench_class_stats.py [--src src] [--repeats 7]

The ``paper`` workload calls ``class_stats`` on the 2,500 threshold
policies of ``build_class(500)`` at n = 1,000 (``snpl``, ``bonferroni``)
and on the learning sides of the ``ds-*`` splits, n = 750, 500 and 250;
``large-n`` calls it on the 10 policies of ``build_class(2)`` at
n = 50,000. For each shape it prints the median wall time
(``time.perf_counter``) of ``--repeats`` calls in ms, twice: ``first``
times the first call of a freshly built class on the dataset, ``repeat`` a
further call on the same dataset and class, as ``bonferroni`` makes after
``snpl``. On n = 1,000 and 50,000 the first call groups the class and
buckets the rows. A learning side is split from the n = 1,000 data as
``hcpi_run`` splits it (``Dataset._of_rows`` of a uniform random
floor(rho n) rows), after the class was scored on the full data, as
``snpl`` and ``bonferroni`` do first in a replication; its first call
indexes those buckets at its rows. The data are ``generate(n)`` from seed
0 and the scores IPW ones (``arm_scores`` without a nuisance model), since
the statistics cost the same for either score.

Before timing, it asserts at grid 40 (200 policies, n = 1,000) that a
repeat call returns the same bits as the first and that both agree with
``influence_table``, the per-policy reference, to 1e-12: the batched sums
are not bit-identical to the reference's per-policy means. BLAS is pinned
to one thread, as in ``perfbench/run.py``. ``--src`` imports ``snpl`` from
another source tree, so two trees can be compared on one host.
"""

from __future__ import annotations

import argparse
import math
import os
import statistics
import sys
import time

# (workload, n, grid_size, rho): |Pi| = 5 * grid_size; with a rho, the
# learning side of a ds-* split of the n rows is timed.
SHAPES = (
    ("paper", 1_000, 500, None),
    ("paper", 1_000, 500, 0.75),
    ("paper", 1_000, 500, 0.5),
    ("paper", 1_000, 500, 0.25),
    ("large-n", 50_000, 2, None),
)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default="src", help="source tree holding the snpl package")
    parser.add_argument("--repeats", type=int, default=7, help="timed calls per shape and kind")
    args = parser.parse_args(argv)

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, os.path.abspath(args.src))
    import numpy as np
    from snpl.core import Dataset
    from snpl.estimators import arm_scores, class_stats, influence_table
    from snpl.harness import BenchmarkConfig
    from snpl.synthetic import build_class, generate

    config = BenchmarkConfig()
    spec, baseline = config.spec(), config.baseline()

    def candidates(grid_size):
        return [p for p in build_class(grid_size) if p.policy_id != baseline.policy_id]

    dataset = generate(1_000, np.random.default_rng(0))
    scores = arm_scores(dataset)
    pols = candidates(40)
    first = class_stats(dataset, pols, spec, baseline, scores)
    again = class_stats(dataset, pols, spec, baseline, scores)
    table = influence_table(dataset, scores, pols, spec, baseline)
    for field in ("means", "variances", "goal"):
        a, b, ref = getattr(first, field), getattr(again, field), getattr(table, field)
        assert np.array_equal(a, b), f"repeat call moved {field}"
        assert np.allclose(a, ref, rtol=0.0, atol=1e-12), f"{field} differs from the reference"
    assert first.policy_ids == again.policy_ids == table.policy_ids

    def learning_side(parent, rho, rng):
        learn = np.zeros(parent.n, dtype=bool)
        learn[rng.permutation(parent.n)[: math.floor(rho * parent.n)]] = True
        return Dataset._of_rows(parent, np.flatnonzero(learn))

    print(f"{'workload':>8} {'n':>7} {'|Pi|':>5} {'first ms':>9} {'repeat ms':>10}")
    for workload, n, grid_size, rho in SHAPES:
        parent = generate(n, np.random.default_rng(0))
        parent_scores = arm_scores(parent)
        class_stats(parent, candidates(grid_size), spec, baseline, parent_scores)  # warm-up
        split_rng = np.random.default_rng(1)
        times = {"first": [], "repeat": []}
        for _ in range(args.repeats):
            pols = candidates(grid_size)
            dataset, scores = parent, parent_scores
            if rho is not None:
                class_stats(parent, pols, spec, baseline, parent_scores)
                dataset = learning_side(parent, rho, split_rng)
                scores = arm_scores(dataset)
            for kind in ("first", "repeat"):
                start = time.perf_counter()
                class_stats(dataset, pols, spec, baseline, scores)
                times[kind].append(time.perf_counter() - start)
        first_ms, repeat_ms = (statistics.median(times[k]) * 1e3 for k in ("first", "repeat"))
        print(f"{workload:>8} {dataset.n:>7} {len(pols):>5} {first_ms:>9.2f} {repeat_ms:>10.2f}")


if __name__ == "__main__":
    main()
