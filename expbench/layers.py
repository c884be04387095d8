"""Which end-to-end metric each per-layer metric should move, and on
which workload it shows.

Later changes cite these names: a change to one layer states beforehand
which per-layer metric it moves and checks that the end-to-end metric
named here moves with it, on the workload named here and on no other.
Names, units and directions are declared in BENCHMARK.json.

Not measured: the reset policy of expand.solve.  No workload runs the 64
iterations that the default reset period needs (Equality n=7, the
smallest member that does, takes seconds per instance), so reset time,
reset count and stall escapes would read 0 on every workload.
"""

_STRIP = ("instances_per_s verdict_s.p50", "equality; little on ci2qbf; not qparity")
_LOOP = ("instances_per_s peak_rss_mb", "equality and ci2qbf; not qparity")
_SEARCH = ("verdict_s.p50 verdict_s.tail instances_per_s", "ci2qbf")
_SIZE = ("verdict_s.p50 instances_per_s", "ci2qbf")
_PROOF = ("certify_s.p50", "qparity; not ci2qbf or equality")

# per-layer metric -> (end-to-end metrics it should move, workloads it shows on)
MAP = {
    "qdimacs.parse_s": (
        "verdict_s.p50", "all, under 0.2% of wall on each; no workload stresses parsing"),
    "annotate.strip_sigma_s": _STRIP,
    "annotate.strip_alpha_s": _STRIP,
    "annotate.strip_calls": _STRIP,
    "annotate.strip_novel_ratio": _STRIP,
    "annotate.instantiate_s": _STRIP,
    "annotate.negate_s": _STRIP,
    "annotate.interned": _STRIP,
    "expand.loop_self_s": _LOOP,
    "expand.assumptions_s": ("instances_per_s peak_rss_mb", "ci2qbf and equality; not qparity"),
    "expand.add_group_s": _LOOP,
    "expand.iterations": _LOOP,
    "expand.iter_ms.p50": _LOOP,
    "expand.iter_growth": ("instances_per_s peak_rss_mb", "equality; not qparity"),
    "sat.forall_solve_s": _SEARCH,
    "sat.exists_solve_s": _SEARCH,
    "sat.trace_solve_s": ("certify_s.p50", "qparity"),
    "sat.add_clause_s": _SIZE,
    "sat.forall_calls": _SIZE,
    "sat.assumptions_per_call": _SIZE,
    "sat.propagations": _SEARCH,
    "sat.conflicts": _SEARCH,
    "sat.decisions": _SEARCH,
    "sat.props_per_s": (_SEARCH[0], "ci2qbf; certify_s.p50 on qparity"),
    "sat.vars": _SIZE,
    "sat.clauses": _SIZE,
    "proof.extract_s": _PROOF,
    "proof.check_s": _PROOF,
    "proof.rup_s": _PROOF,
    "proof.rup_calls": _PROOF,
    "proof.io_s": _PROOF,
    "proof.axioms": _PROOF,
    "proof.trace_len": _PROOF,
    "trace.overhead": ("none: traced over untraced time", "all"),
}
