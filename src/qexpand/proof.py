"""Clausal certificates for false formulas.

A false verdict rests on an unsatisfiable conjunction of annotated
instantiation clauses.  The certificate records them as axioms (matrix
index, instantiating universal assignment, clause over integer ids) and
a clause trace ending in the empty clause, each step with its hints:
the ids of the earlier clauses that derive it by unit propagation, in
order.  Ids are 1-based, axioms 1..A in order, then the trace steps.
An axiom's matrix clause and assignment fix the annotated variable
behind each of its literals, so the axioms name every id.  Checking
recomputes each axiom from the formula alone and checks each step
against its hints alone, so a certificate is evidence independent of
the solver that produced it.

Extraction reads it off the run's forall solver, the one started at the
last reset (or at the run's start), UNSAT with no assumptions.  That
solver holds each distinct instantiated clause as it was added, and
names the exact core of its final conflict (sat.Solver.proof_core):
the add_clause calls and the proof trace steps that conflict rests on.
The axioms are the core's clauses, in the order they were added, with
the solver's own ids; the trace is the core's steps in trace order,
then ().  The hints are the solver's own (sat.Solver.proof_hints): for
a step, the reasons of the level-0 literals it needs in trail order,
then the clauses its conflict analysis resolved in trail order, then
its conflict clause; for (), the level-0 reasons the final conflict
needs, then that conflict's clause.  Each is unit or, the last, false
under the step's negation (the _cdcl_py docstring has the argument).

The checker does not rely on that argument.  rup_check is LRAT's rule
(Cruz-Filipe, Heule, Hunt, Kaufmann and Schneider-Kamp, CADE 2017),
strictly: the step's negation goes into a value map of its own, and
each hint in turn must name an earlier clause that the map leaves
unit, whose literal is then set, or false, which proves the step and
must be the last hint.  Anything else rejects the step, so no step
needs a clause its hints do not name, and checking costs what the
hints name, however many clauses came before.
"""

from dataclasses import dataclass

from . import annotate


class CertificateUnavailable(Exception):
    """No certificate can be produced for this run."""


class CertificateError(Exception):
    """A certificate file or object is malformed."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else "%s (line %d)" % (message, line))
        self.line = line


@dataclass
class Certificate:
    axioms: list  # (matrix index, alpha literals, clause over annotated ids) triples
    trace: list  # derived abstraction clauses, last one empty
    hints: list  # per trace clause, the ids of the clauses deriving it


@dataclass
class CheckResult:
    ok: bool
    reason: str = ""


def extract_certificate(state):
    """The certificate of a finished false run; see the module doc."""
    if state.verdict != "FALSE":
        raise CertificateUnavailable("only false verdicts have certificates")
    if not state.core:
        raise CertificateUnavailable("run recorded no clause core")
    spelled = {}  # alpha bytes -> literals; a core shares few alphas
    axioms = []
    for lits, idx, alpha in state.core:
        alpha_lits = spelled.get(alpha.values)
        if alpha_lits is None:
            alpha_lits = spelled[alpha.values] = alpha.literals()
        axioms.append((idx, alpha_lits, lits))
    solver = state.forall_abs.solver
    steps = solver.proof_trace()
    trace = [steps[t] for t in state.core_steps]
    trace.append(())
    return Certificate(axioms, trace, solver.proof_hints())


def rup_check(clauses, derived, hints):
    """None when hints derive derived from clauses, else why not.

    Hint h names clauses[h - 1], and must be at most len(clauses).  The
    negation of derived is assigned in a value map of this call alone,
    the set of false literals; each hint must be unit under it, and its
    literal is then assigned, or false, which derives the step and must
    be the last hint.  A literal repeated in a clause counts once.
    """
    false = set(derived)
    n = len(clauses)
    last = len(hints) - 1
    for i, h in enumerate(hints):
        if not 0 < h <= n:
            return "hint %d names no earlier clause" % h
        unit = 0
        for l in clauses[h - 1]:
            if l in false:
                continue
            if -l in false or unit and unit != l:
                return "hint %d is neither unit nor false" % h
            unit = l
        if not unit:
            return None if i == last else "hint %d is false before the last hint" % h
        false.add(-unit)
    return "hints end without a conflict"


def check_certificate(q, cert):
    """Validate a certificate against a formula; returns a CheckResult.

    Every axiom is recomputed from the matrix under its assignment, and
    its lits must match the recomputed literals one for one, sign for
    sign, in the order the matrix clause lists them.  That position
    names each id as an annotated variable; the first axiom to use an id
    names it, and every later use must give the same name.  No literal
    may be 0.  Every trace clause in turn must then pass rup_check
    against its hints and the axioms and trace clauses before it, and
    the trace must end in the empty clause.
    """
    from .formula import Assignment

    universals = set(q.universals)
    by_alpha = {}
    names = {}  # id -> (original var, annotation bytes)
    for pos, (idx, alpha_lits, lits) in enumerate(cert.axioms):
        where = "axiom %d" % pos
        if 0 in lits:
            return CheckResult(False, "%s: literal 0" % where)
        if not 0 <= idx < len(q.matrix):
            return CheckResult(False, "%s: matrix index out of range" % where)
        seen = {l if l > 0 else -l for l in alpha_lits}
        if seen != universals or len(alpha_lits) != len(universals):
            return CheckResult(
                False, "%s: assignment must cover the universal variables" % where
            )
        key = tuple(sorted(alpha_lits))
        if key not in by_alpha:
            alpha = Assignment.from_pairs(q, [(abs(l), l > 0) for l in alpha_lits])
            by_alpha[key] = dict(annotate._instantiate_core(q, alpha))
        produced = by_alpha[key].get(idx)
        if produced is None:
            return CheckResult(
                False, "%s: clause is satisfied by the assignment" % where
            )
        if len(lits) != len(produced):
            return CheckResult(False, "%s: instantiation mismatch" % where)
        for l, (v, prefix, _) in zip(lits, produced):
            name = (-v if v < 0 else v, prefix)
            if (l > 0) != (v > 0) or names.setdefault(-l if l < 0 else l, name) != name:
                return CheckResult(False, "%s: instantiation mismatch" % where)
    if not cert.trace:
        return CheckResult(False, "trace is empty")
    if len(cert.hints) != len(cert.trace):
        return CheckResult(False, "trace and hints differ in length")
    clauses = [lits for _, _, lits in cert.axioms]
    for pos, (derived, hints) in enumerate(zip(cert.trace, cert.hints)):
        if 0 in derived:
            return CheckResult(False, "trace clause %d: literal 0" % pos)
        why = rup_check(clauses, derived, hints)
        if why is not None:
            return CheckResult(
                False, "trace clause %d is not derivable by its hints: %s" % (pos, why)
            )
        clauses.append(derived)
    if cert.trace[-1] != ():
        return CheckResult(False, "trace does not end in the empty clause")
    return CheckResult(True)


def format_certificate(cert):
    """Render a certificate in its line-oriented text form."""
    out = []
    add = out.append
    last = None  # axioms of one alpha share its tuple: spell it once
    for idx, alpha_lits, lits in cert.axioms:
        if alpha_lits is not last:
            last, alpha = alpha_lits, " ".join(map(str, (*alpha_lits, 0)))
        add("a %d %s %s" % (idx, alpha, " ".join(map(str, (*lits, 0)))))
    out += [
        "r " + " ".join(map(str, (*lits, 0, *hints, 0)))
        for lits, hints in zip(cert.trace, cert.hints)
    ]
    return "\n".join(out) + "\n"


def parse_certificate(text):
    """Parse the text form back into a Certificate.

    A trace line holds a clause and its hint ids, each group ending in
    0.  Ids count the axiom lines 1..A, then the trace lines, so every
    axiom line comes first and a hint id must name an earlier line.
    """
    axioms = []
    trace = []
    hints = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens:
            continue
        kind = tokens[0]
        if kind == "a":
            if trace:
                raise CertificateError("axiom line after a trace line", lineno)
            try:
                nums = list(map(int, tokens[1:]))
            except ValueError:
                raise CertificateError("malformed axiom line", lineno)
            if len(nums) < 3:
                raise CertificateError(
                    "axiom line needs an index and two terminated groups", lineno
                )
            idx, rest = nums[0], nums[1:]
            if rest.count(0) != 2 or rest[-1] != 0:
                raise CertificateError(
                    "axiom line needs an index and two terminated groups", lineno
                )
            cut = rest.index(0)
            axioms.append((idx, tuple(rest[:cut]), tuple(rest[cut + 1 : -1])))
        elif kind == "r":
            try:
                nums = list(map(int, tokens[1:]))
            except ValueError:
                raise CertificateError("malformed trace line", lineno)
            if nums.count(0) != 2 or nums[-1] != 0:
                raise CertificateError(
                    "trace line needs a clause and its hints, each ending in 0", lineno
                )
            cut = nums.index(0)
            ids = tuple(nums[cut + 1 : -1])
            if ids and not 0 < min(ids) <= max(ids) <= len(axioms) + len(trace):
                if min(ids) < 1:
                    raise CertificateError("hint ids must be positive", lineno)
                raise CertificateError("hint id %d names no earlier line" % max(ids), lineno)
            trace.append(tuple(nums[:cut]))
            hints.append(ids)
        elif not kind.startswith("c"):
            raise CertificateError("unknown line kind %r" % kind, lineno)
    if not axioms and not trace:
        raise CertificateError("certificate has no content")
    return Certificate(axioms, trace, hints)


def write_certificate_file(cert, path):
    with open(path, "w") as f:
        f.write(format_certificate(cert))


def read_certificate_file(path):
    with open(path) as f:
        return parse_certificate(f.read())
