"""Span tracing installed from outside the solver.

Tracer.installed() replaces public functions of qexpand's modules and
classes with pass-through wrappers and restores the originals on exit.
expand and proof reach every wrapped function through a module or class
attribute, so the wrappers see every call.  Each call records one span:
name, start, end, parent span, instance id, and for SAT solves the
assumption count and the kernel counter deltas.  Spans stay in memory;
layer_metrics() reduces them to self times and counts.
"""

import contextlib
import gzip
import statistics
import time

from qexpand import annotate, expand, proof, qdimacs, sat

NAME, START, END, PARENT, INSTANCE, EXTRA = range(6)


def _strip_name(args, kwargs):
    table = args[2] if len(args) > 2 else kwargs["table"]
    # a universal table's model yields existential candidates (sigmas)
    return "annotate.strip_sigma" if table.kind == "universal" else "annotate.strip_alpha"


# (owner, attribute, span name or callable picking it from the arguments)
TARGETS = [
    (qdimacs, "parse", "qdimacs.parse"),
    (annotate, "instantiate", "annotate.instantiate"),
    (annotate, "negate_instantiate", "annotate.negate_instantiate"),
    (annotate, "strip", _strip_name),
    (expand, "solve", "expand.solve"),
    (expand.ForallAbstraction, "add_group", "expand.ForallAbstraction.add_group"),
    (expand.ForallAbstraction, "assumptions", "expand.ForallAbstraction.assumptions"),
    (expand.ForallAbstraction, "solve", "expand.ForallAbstraction.solve"),
    (expand.ForallAbstraction, "drop_all_groups", "expand.ForallAbstraction.drop_all_groups"),
    (expand.ExistsAbstraction, "add_negation", "expand.ExistsAbstraction.add_negation"),
    (expand.ExistsAbstraction, "solve", "expand.ExistsAbstraction.solve"),
    (sat.Solver, "add_clause", "sat.Solver.add_clause"),
    (proof, "extract_certificate", "proof.extract_certificate"),
    (proof, "format_certificate", "proof.format_certificate"),
    (proof, "parse_certificate", "proof.parse_certificate"),
    (proof, "check_certificate", "proof.check_certificate"),
    (proof, "rup_check", "proof.rup_check"),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.instance = None
        self.iteration_ends = []  # (instance, time) per on_iteration call

    def on_iteration(self, state):
        self.iteration_ends.append((self.instance, time.perf_counter()))

    def _wrap(self, fn, name):
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            span = [span_name, 0.0, 0.0, stack[-1] if stack else -1, tracer.instance, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        return wrapper

    def _wrap_solve(self, fn):
        """Span wrapper that also records assumptions and counter deltas."""
        spans = self.spans
        inner = self._wrap(fn, "sat.Solver.solve")

        def solve(solver, assumptions=(), *args, **kwargs):
            assumptions = list(assumptions)
            before = (solver.propagations, solver.conflicts, solver.decisions)
            pos = len(spans)  # inner appends this call's span here
            try:
                return inner(solver, assumptions, *args, **kwargs)
            finally:
                spans[pos][EXTRA] = (
                    len(assumptions),
                    solver.propagations - before[0],
                    solver.conflicts - before[1],
                    solver.decisions - before[2],
                )

        return solve

    @contextlib.contextmanager
    def installed(self):
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in TARGETS]
        saved.append((sat.Solver, "solve", sat.Solver.__dict__["solve"]))
        try:
            for owner, attr, name in TARGETS:
                setattr(owner, attr, self._wrap(owner.__dict__[attr], name))
            sat.Solver.solve = self._wrap_solve(sat.Solver.__dict__["solve"])
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def write(self, path):
        """Write every span as one tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("name\tstart\tend\tparent\tinstance\textra\n")
            for s in self.spans:
                f.write("%s\t%.9f\t%.9f\t%d\t%s\t%s\n" % tuple(s))


def self_times(spans):
    """Per span: duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def _growth(durations):
    """Median time of the last tenth of iterations over the first tenth."""
    k = max(1, len(durations) // 10)
    return statistics.median(durations[-k:]) / statistics.median(durations[:k])


def layer_metrics(tracer, runs):
    """Per-layer metrics of one traced pass.

    runs: per instance, the dict run.solve_instance returned.  Counts
    that the spans cannot see come from each run's result.state.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    total = {}
    count = {}
    sat_self = {"forall": 0.0, "exists": 0.0, "trace": 0.0}
    solve_kind = {
        "expand.ForallAbstraction.solve": "forall",
        "expand.ExistsAbstraction.solve": "exists",
        "proof.extract_certificate": "trace",
    }
    forall_calls = 0
    forall_assumptions = 0
    props = conflicts = decisions = 0
    solve_bounds = {}
    for s, own in zip(spans, selfs):
        name = s[NAME]
        total[name] = total.get(name, 0.0) + own
        count[name] = count.get(name, 0) + 1
        if name == "sat.Solver.solve":
            kind = solve_kind[spans[s[PARENT]][NAME]]
            sat_self[kind] += own
            n_assumptions, p, c, d = s[EXTRA]
            props += p
            conflicts += c
            decisions += d
            if kind == "forall":
                forall_calls += 1
                forall_assumptions += n_assumptions
        elif name == "expand.solve":
            solve_bounds[s[INSTANCE]] = (s[START], s[END])

    ends = {}
    for inst, t in tracer.iteration_ends:
        ends.setdefault(inst, []).append(t)
    durations = []
    growth = []
    for inst, (start, end) in solve_bounds.items():
        marks = [start] + ends.get(inst, []) + [end]
        d = [b - a for a, b in zip(marks, marks[1:])]
        durations += d
        growth.append(_growth(d))

    def t(name):
        return total.get(name, 0.0)

    strip_calls = count.get("annotate.strip_sigma", 0) + count.get("annotate.strip_alpha", 0)
    novel = sum(r["new_sigmas"] + r["new_alphas"] for r in runs)
    solve_s = sum(sat_self.values())
    return {
        "qdimacs.parse_s": t("qdimacs.parse"),
        "annotate.strip_sigma_s": t("annotate.strip_sigma"),
        "annotate.strip_alpha_s": t("annotate.strip_alpha"),
        "annotate.strip_calls": strip_calls,
        "annotate.strip_novel_ratio": novel / strip_calls if strip_calls else 0.0,
        "annotate.instantiate_s": t("annotate.instantiate"),
        "annotate.negate_s": t("annotate.negate_instantiate"),
        "annotate.interned": sum(r["interned"] for r in runs),
        "expand.loop_self_s": t("expand.solve"),
        "expand.assumptions_s": t("expand.ForallAbstraction.assumptions"),
        "expand.add_group_s": t("expand.ForallAbstraction.add_group"),
        "expand.iterations": sum(r["iterations"] for r in runs),
        "expand.iter_ms.p50": 1000.0 * statistics.median(durations),
        "expand.iter_growth": statistics.median(growth),
        "sat.forall_solve_s": sat_self["forall"],
        "sat.exists_solve_s": sat_self["exists"],
        "sat.trace_solve_s": sat_self["trace"],
        "sat.add_clause_s": t("sat.Solver.add_clause"),
        "sat.forall_calls": forall_calls,
        "sat.assumptions_per_call": forall_assumptions / forall_calls if forall_calls else 0.0,
        "sat.propagations": props,
        "sat.conflicts": conflicts,
        "sat.decisions": decisions,
        "sat.props_per_s": props / solve_s if solve_s else 0.0,
        "sat.vars": sum(r["sat_vars"] for r in runs),
        "sat.clauses": sum(r["sat_clauses"] for r in runs),
        "proof.extract_s": t("proof.extract_certificate"),
        "proof.check_s": t("proof.check_certificate"),
        "proof.rup_s": t("proof.rup_check"),
        "proof.rup_calls": count.get("proof.rup_check", 0),
        "proof.io_s": t("proof.format_certificate") + t("proof.parse_certificate"),
        "proof.axioms": sum(r["axioms"] for r in runs),
        "proof.trace_len": sum(r["trace_len"] for r in runs),
    }


def strip_calls_by_instance(spans):
    calls = {}
    for s in spans:
        if s[NAME].startswith("annotate.strip_"):
            calls[s[INSTANCE]] = calls.get(s[INSTANCE], 0) + 1
    return calls
