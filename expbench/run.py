"""Expansion benchmark for qexpand.

Generates seeded QBF instances in-process, hands each to qexpand as
QDIMACS text and follows the path of `qexpand solve --cert` followed by
`qexpand check`: qdimacs.parse, expand.solve with the default
SolveConfig (plus a per-instance time limit), and on FALSE
proof.extract_certificate, format_certificate, parse_certificate and
check_certificate.  Every verdict is gated (see gates.py); a wrong
verdict, witness or certificate exits 1 and prints no numbers.

Run from the repository root, one process per workload:

    python3 expbench/run.py --workload ci2qbf --seed 1 --seconds 30 --trace 0

A run solves a fixed number of instances per seed, sized so that one pass
over them takes about a fifth of --seconds with the pure kernel on a
quiet 2-core x86 host.  --trace 0 measures the end-to-end metrics with
tracing off: five passes over the instances, each instance keeping its
least time.  --trace 1 runs one pass untraced, then the same instances
with span wrappers installed (tracing.py), then untraced again, and
reports per-layer self times and counts plus trace.overhead, the traced
over the untraced time.
The last stdout line is one JSON object with keys correct, attempted,
failed and metrics; the lines before it are a readable summary.
"""

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".expbench")

import_start = time.perf_counter()
sys.path.insert(0, os.path.join(ROOT, "src"))
try:
    import qexpand
    from qexpand import expand, proof, qdimacs, sat
except ImportError as e:
    sys.exit("expbench: cannot import qexpand from %s/src: %s" % (ROOT, e))
if not os.path.abspath(qexpand.__file__).startswith(os.path.join(ROOT, "src")):
    sys.exit("expbench: qexpand imported from %s, not this checkout" % qexpand.__file__)

import families  # noqa: E402
import gates  # noqa: E402
import tracing  # noqa: E402

# Seconds the imports of qexpand and of the benchmark modules took.
IMPORT_S = time.perf_counter() - import_start


def declared_units():
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}

# Far above the slowest instance of any workload (under 2 s with the
# pure kernel on a 2-core x86 container), so an UNKNOWN is a regression.
TIME_LIMIT_S = 60.0
CONFIG = expand.SolveConfig(time_limit=TIME_LIMIT_S)
PASSES = 5


class Workload:
    """A family of instances: base formulas under seeded renamings.

    base(i) returns the (blocks, clauses) of formula i, the same for
    every seed; the seed only picks the renaming.  Random formulas vary
    widely in cost, so fixing them keeps the spread between seeds down
    to what renaming causes.

    expect is the verdict known by construction, or None; warm(i) is a
    small member of the family; rate is the instances per second the pure
    kernel decides on such a host, which sizes a run.
    """

    def __init__(self, base, expect, warm, rate):
        self.base = base
        self.expect = expect
        self.warm = warm
        self.rate = rate


def _fixed(blocks_clauses):
    return lambda i: blocks_clauses


# Sizes keep instances short enough for many per run.  Larger members
# (forall 7 exists 35; Equality n=7, the smallest that resets at the
# default period; QParity n=96) take 0.2 s, 2 to 12 s and 1.2 s per
# instance with the pure kernel, too few per run for medians that repeat.
# Equality n=6 is the smallest member where stripping outweighs the
# forall solve.
WORKLOADS = {
    # forall SAT solve dominates: assumption handling and kernel work
    "ci2qbf": Workload(
        lambda i: families.chen_interian(families.seeded_rng("ci2qbf", i), 4, 20, 37),
        None,
        lambda i: families.chen_interian(families.seeded_rng("ci2qbf-warm", i), 4, 10, 15),
        100,
    ),
    # strip against every sigma dominates; needs all 2^6 universal assignments
    "equality": Workload(
        _fixed(families.equality(6)), expand.FALSE, _fixed(families.equality(3)), 2.5
    ),
    # two iterations, then a large certificate: RUP replay dominates
    "qparity": Workload(
        _fixed(families.qparity(48)), expand.FALSE, _fixed(families.qparity(8)), 4
    ),
}

# Counts that must repeat exactly for one instance, traced or not.
DETERMINISTIC = ("verdict", "iterations", "resets", "propagations", "axioms", "trace_len")


class Instance:
    def __init__(self, blocks, clauses, expect):
        self.blocks = blocks
        self.clauses = clauses
        self.expect = expect
        self.text = families.to_qdimacs(blocks, clauses)


def renamed(make, i, expect, *seed):
    rng = families.seeded_rng(*seed, i)
    return Instance(*families.rename(rng, *make(i)), expect)


def make_pool(workload, name, seed, size):
    return [renamed(workload.base, i, workload.expect, name, seed) for i in range(size)]


def solve_instance(inst, on_iteration=None, kernel="auto", certify=True):
    """One pass over the solve-then-check path; gates outside the timing.

    Returns a dict of timings and counts; verdict UNKNOWN or an exception
    marks the instance failed.  Gate failures raise GateFailure, and so
    does a FALSE verdict whose certificate cannot be extracted or read
    back: the certificate round trip is the only check of FALSE on
    ci2qbf.
    """
    clock = time.perf_counter
    config = CONFIG if kernel == "auto" else expand.SolveConfig(
        time_limit=TIME_LIMIT_S, kernel=kernel
    )
    t0 = clock()
    q, _ = qdimacs.parse(inst.text)
    result = expand.solve(q, config, on_iteration=on_iteration)
    t1 = clock()
    check = cert = None
    if result.verdict == expand.FALSE and certify:
        try:
            cert = proof.parse_certificate(
                proof.format_certificate(proof.extract_certificate(result.state))
            )
            check = proof.check_certificate(q, cert)
        except (proof.CertificateError, proof.CertificateUnavailable) as e:
            raise gates.GateFailure("no valid certificate for FALSE: %s" % e)
    t2 = clock()

    gates.check_parse(q, inst.blocks, inst.clauses)
    if inst.expect is not None and result.verdict not in (inst.expect, expand.UNKNOWN):
        raise gates.GateFailure("verdict %s, expected %s" % (result.verdict, inst.expect))
    if result.verdict == expand.TRUE:
        gates.check_witness(
            inst.blocks, inst.clauses, [s.literals() for s in result.witness]
        )
    if check is not None and not check.ok:
        raise gates.GateFailure("certificate rejected: %s" % check.reason)

    state = result.state
    fa, ea = state.forall_abs, state.exists_abs
    return {
        "verdict": result.verdict,
        "verdict_s": t1 - t0,
        "certify_s": t2 - t1 if check is not None else None,
        "iterations": result.iterations,
        "resets": state.resets,
        "propagations": fa.solver.propagations + ea.solver.propagations,
        "new_sigmas": sum(r["new_sigmas"] for r in result.stats),
        "new_alphas": sum(r["new_alphas"] for r in result.stats),
        "interned": len(fa.table) + len(ea.table),
        "sat_vars": fa.solver.num_vars + ea.solver.num_vars,
        "sat_clauses": fa.solver.num_clauses + ea.solver.num_clauses,
        "axioms": len(cert.axioms) if cert else 0,
        "trace_len": len(cert.trace) if cert else 0,
    }


def attempt(inst, **kw):
    """solve_instance, with a program exception turned into a failed run."""
    try:
        return solve_instance(inst, **kw)
    except gates.GateFailure:
        raise
    except Exception:
        traceback.print_exc()
        return None


def failed(run):
    return run is None or run["verdict"] == expand.UNKNOWN


def run_pass(pool):
    """Solve every instance once, in order."""
    return [(idx, attempt(inst)) for idx, inst in enumerate(pool)]


def run_passes(setup):
    """PASSES passes, each over the pool a fresh setup() returns.

    Each instance keeps the least of its timings over the passes.  Load
    from other processes on the host comes in spells of tens of seconds
    and slows one CPU more than another, so the passes lie seconds apart
    and take turns on the CPUs the process may use; few instances then
    see a spell in every pass.  The counts must repeat in every pass.
    Returns the pool and the runs.
    """
    cpus = sorted(os.sched_getaffinity(0))
    runs = None
    try:
        for k in range(PASSES):
            os.sched_setaffinity(0, {cpus[k % len(cpus)]})
            pool = setup()
            this = run_pass(pool)
            if runs is None:
                runs = this
                continue
            for pos, (idx, again) in enumerate(this):
                best = runs[pos][1]
                if failed(best):
                    continue
                if failed(again):
                    runs[pos] = (idx, again)
                    continue
                same_counts(best, again, "instance %d run twice" % idx)
                for key in ("verdict_s", "certify_s"):
                    if best[key] is not None:
                        best[key] = min(best[key], again[key])
    finally:
        os.sched_setaffinity(0, cpus)
    return pool, runs


def same_counts(a, b, what):
    for key in DETERMINISTIC:
        if a[key] != b[key]:
            raise gates.GateFailure(
                "%s: %s differs (%r != %r)" % (what, key, a[key], b[key])
            )


class Setup:
    """Generates and renders the pool, then warms up on small members.

    Called before every pass, and each call sets up REPEATS times: load
    from other processes on the host moves a single set-up by up to a
    factor of two.  setup_s is the imports, timed once as run.py loads,
    plus the median of all repeats.
    """

    REPEATS = 3

    def __init__(self, workload, name, seed, seconds):
        self.workload = workload
        self.name = name
        self.seed = seed
        self.size = max(1, math.ceil(seconds / PASSES * workload.rate))
        self.times = []

    def __call__(self):
        for _ in range(self.REPEATS - 1):
            self.once()
        return self.once()

    def once(self):
        w = self.workload
        t0 = time.perf_counter()
        pool = make_pool(w, self.name, self.seed, self.size)
        for i in range(4):
            warm = renamed(w.warm, i, w.expect, self.name, "warm", self.seed)
            if failed(solve_instance(warm)):
                raise gates.GateFailure("warm-up instance %d undecided" % i)
        self.times.append(time.perf_counter() - t0)
        return pool

    def seconds(self):
        return IMPORT_S + statistics.median(self.times)


def check_kernels(pool, runs):
    """With the compiled kernel active, the pure one must agree exactly."""
    if not sat.COMPILED:
        return "skipped (compiled kernel not built, pure kernel measured)"
    for idx, run in runs:
        if run is None:
            continue
        other = solve_instance(pool[idx], kernel="pure", certify=False)
        for key in ("verdict", "iterations", "propagations"):
            if other[key] != run[key]:
                raise gates.GateFailure(
                    "instance %d: pure kernel %s %r, compiled %r"
                    % (idx, key, other[key], run[key])
                )
    return "pure and compiled kernels agree on %d instances" % len(runs)


def tail(values):
    """Highest value with at least ten samples beyond it: (value, rank)."""
    if len(values) < 11:
        return None, None
    rank = len(values) - 10
    return sorted(values)[rank - 1], rank


def end_to_end(runs, setup_s):
    ok = [r for _, r in runs if not failed(r)]
    program_s = sum(r["verdict_s"] + (r["certify_s"] or 0.0) for _, r in runs if r)
    verdict_times = [r["verdict_s"] for r in ok]
    certify_times = [r["certify_s"] for r in ok if r["certify_s"] is not None]
    tail_s, rank = tail(verdict_times)
    metrics = {
        "setup_s": setup_s,
        "instances_per_s": len(ok) / program_s if program_s else 0.0,
        "verdict_s.p50": statistics.median(verdict_times) if ok else None,
        "verdict_s.tail": tail_s,
        "certify_s.p50": statistics.median(certify_times) if certify_times else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    verdicts = {}
    for r in ok:
        verdicts[r["verdict"]] = verdicts.get(r["verdict"], 0) + 1
    print("instances %d, verdicts %s, failed_ratio %.4f, propagations %d" % (
        len(runs), verdicts, (len(runs) - len(ok)) / len(runs),
        sum(r["propagations"] for r in ok)))
    if rank:
        print("verdict_s.tail is rank %d of %d samples (%.1fth percentile)" % (
            rank, len(verdict_times), 100.0 * rank / len(verdict_times)))
    return {k: v for k, v in metrics.items() if v is not None}


def traced(pool, name, seed):
    """Untraced pass, the same instances traced, then untraced again.

    trace.overhead divides the traced time by the lesser of each
    instance's two untraced times, taken on either side of the traced
    pass, so that a slow spell on the host during one untraced pass does
    not read as an overhead below 1.  Counts must agree in all passes.
    """
    plain = run_pass(pool)
    todo = [(idx, r) for idx, r in plain if r is not None]
    if not todo:
        raise gates.GateFailure("no instance finished without an exception")
    tracer = tracing.Tracer()
    runs = []
    with tracer.installed():
        for j, (idx, _) in enumerate(todo):
            tracer.instance = j
            runs.append(solve_instance(pool[idx], on_iteration=tracer.on_iteration))
    after = [solve_instance(pool[idx]) for idx, _ in todo]
    again = tracing.Tracer()
    with again.installed():
        again.instance = 0
        rerun = solve_instance(pool[todo[0][0]], on_iteration=again.on_iteration)
    for (idx, before), run, later in zip(todo, runs, after):
        same_counts(before, run, "instance %d traced against untraced" % idx)
        same_counts(before, later, "instance %d untraced twice" % idx)
    same_counts(runs[0], rerun, "instance %d traced twice" % todo[0][0])
    strips = tracing.strip_calls_by_instance(tracer.spans).get(0, 0)
    strips_again = tracing.strip_calls_by_instance(again.spans).get(0, 0)
    if strips != strips_again:
        raise gates.GateFailure("strip calls differ between two traced runs")

    def program_s(r):
        return r["verdict_s"] + (r["certify_s"] or 0.0)

    untraced_s = sum(min(program_s(a), program_s(b)) for (_, a), b in zip(todo, after))
    metrics = tracing.layer_metrics(tracer, runs)
    metrics["trace.overhead"] = sum(program_s(r) for r in runs) / untraced_s
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "spans-%s-%d.tsv.gz" % (name, seed))
    tracer.write(path)
    print("traced %d instances, %d spans written to %s" % (
        len(runs), len(tracer.spans), os.path.relpath(path, ROOT)))
    return plain, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    units = declared_units()
    print("workload %s, seed %d, kernel %s" % (args.workload, args.seed, sat.kernel_name()))
    try:
        setup = Setup(workload, args.workload, args.seed, args.seconds)
        if args.trace:
            pool = setup()
            runs, metrics = traced(pool, args.workload, args.seed)
            largest = max((k for k in metrics if units[k] == "s"), key=metrics.get)
            print("largest self time: %s %.3f s" % (largest, metrics[largest]))
        else:
            pool, runs = run_passes(setup)
            metrics = end_to_end(runs, setup.seconds())
        print("kernel agreement: %s" % check_kernels(pool, runs))
    except gates.GateFailure as e:
        print("expbench: gate failed: %s" % e, file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": True,
        "attempted": len(runs),
        "failed": sum(1 for _, r in runs if failed(r)),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
