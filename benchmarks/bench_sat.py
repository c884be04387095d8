"""Benchmark the pure and compiled SAT kernels on the same workloads.

Both kernels execute the identical search, so this measures raw
interpreter overhead.  Every instance is solved by each kernel and the
statuses are cross-checked before any timing is reported.

Run from the repository root:

    python3 benchmarks/bench_sat.py
    python3 benchmarks/bench_sat.py --cnf-vars 80 120 160 --expand-count 30
"""

import argparse
import random
import time

from qexpand import expand, oracle, sat


def random_3cnf(rng, num_vars, ratio):
    clauses = []
    for _ in range(int(num_vars * ratio)):
        vs = rng.sample(range(1, num_vars + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return clauses


def time_cnf_batch(kernel, batch):
    statuses = []
    t0 = time.perf_counter()
    for clauses in batch:
        s = sat.Solver(kernel=kernel)
        for c in clauses:
            s.add_clause(c)
        statuses.append(s.solve().status)
    return time.perf_counter() - t0, statuses


def time_expand_batch(kernel, seeds):
    verdicts = []
    t0 = time.perf_counter()
    for seed in seeds:
        q = oracle.random_pcnf(seed)
        r = expand.solve(q, expand.SolveConfig(kernel=kernel))
        verdicts.append(r.verdict)
    return time.perf_counter() - t0, verdicts


def fmt_row(name, pure_t, comp_t):
    if comp_t is None:
        return "%-28s %8.3fs %10s %8s" % (name, pure_t, "-", "-")
    return "%-28s %8.3fs %9.3fs %7.1fx" % (name, pure_t, comp_t, pure_t / comp_t)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--cnf-vars", type=int, nargs="+", default=[60, 100, 140])
    ap.add_argument("--cnf-count", type=int, default=20, help="instances per size")
    ap.add_argument("--ratio", type=float, default=4.2, help="clause/variable ratio")
    ap.add_argument("--expand-count", type=int, default=60, help="random instances")
    args = ap.parse_args(argv)

    kernels = ["pure"]
    if sat.COMPILED:
        kernels.append("compiled")
    else:
        print("note: compiled kernel not available, timing pure only")
    print("%-28s %9s %10s %8s" % ("workload", "pure", "compiled", "speedup"))

    for nv in args.cnf_vars:
        rng = random.Random(args.seed * 1000 + nv)
        batch = [random_3cnf(rng, nv, args.ratio) for _ in range(args.cnf_count)]
        times = {}
        answers = {}
        for k in kernels:
            times[k], answers[k] = time_cnf_batch(k, batch)
        if len(kernels) == 2 and answers["pure"] != answers["compiled"]:
            raise SystemExit("kernel disagreement on random 3-CNF, vars=%d" % nv)
        name = "3-CNF n=%d m=%d x%d" % (nv, int(nv * args.ratio), args.cnf_count)
        print(fmt_row(name, times["pure"], times.get("compiled")))

    seeds = list(range(args.seed, args.seed + args.expand_count))
    times = {}
    answers = {}
    for k in kernels:
        times[k], answers[k] = time_expand_batch(k, seeds)
    if len(kernels) == 2 and answers["pure"] != answers["compiled"]:
        raise SystemExit("kernel disagreement on expansion runs")
    print(fmt_row("expansion x%d" % args.expand_count, times["pure"], times.get("compiled")))


if __name__ == "__main__":
    main()
