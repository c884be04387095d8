"""Clausal certificates for false formulas.

A false verdict rests on an unsatisfiable conjunction of annotated
instantiation clauses.  The certificate records those clauses as axioms
(matrix index plus the instantiating universal assignment), a
dictionary naming every annotated variable, and a clause trace whose
every step must follow by reverse unit propagation, ending in the empty
clause.  Checking recomputes each axiom from the formula alone and
replays the trace with a standalone propagator, so a certificate is
evidence independent of the solver that produced it.
"""

import re
from dataclasses import dataclass

from . import annotate, sat

_SPELLING = bytes.maketrans(b"\1\2", b"10")
_SPELLED = re.compile(r"-|[01]+")


class CertificateUnavailable(Exception):
    """No certificate can be produced for this run."""


class CertificateError(Exception):
    """A certificate file or object is malformed."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else "%s (line %d)" % (message, line))
        self.line = line


@dataclass
class Certificate:
    dictionary: dict  # abstraction id -> (original var, spelled annotation)
    axioms: list  # (matrix index, alpha literals, abstraction clause) triples
    trace: list  # derived abstraction clauses, last one empty


@dataclass
class CheckResult:
    ok: bool
    reason: str = ""


def spell(prefix):
    """Text form of an annotation: the assigned values, first predecessor
    first, as 1 (true) and 0 (false); "-" when none is assigned."""
    return prefix.translate(_SPELLING, b"\0").decode("ascii") or "-"


def extract_certificate(state):
    """Build a certificate from a finished false run.

    The failed instantiation clauses are re-solved on a fresh
    trace-recording solver; refused for true or unknown runs.  That
    solver sees the core's ids renumbered 1..k in increasing order, so
    it holds no variable the core does not use, and ties between
    equally active variables still go to the smaller original id.
    """
    if state.verdict != "FALSE":
        raise CertificateUnavailable("only false verdicts have certificates")
    if not state.core:
        raise CertificateUnavailable("run recorded no failed clause core")
    used = sorted({-l if l < 0 else l for lits, _, _ in state.core for l in lits})
    dense = {aid: i for i, aid in enumerate(used, 1)}
    solver = sat.Solver(record_trace=True)
    axioms = []
    for lits, idx, alpha in state.core:
        solver.add_clause([dense[l] if l > 0 else -dense[-l] for l in lits])
        axioms.append((idx, alpha.literals(), lits))
    out = solver.solve()
    if out.status != sat.UNSAT:
        raise CertificateError("failed clause core is satisfiable")
    trace = [
        tuple(used[l - 1] if l > 0 else -used[-l - 1] for l in lits)
        for lits in solver.proof_trace()
    ]
    if not trace or trace[-1] != ():
        raise CertificateError("solver trace does not end in the empty clause")
    reverse = state.forall_abs.table.reverse
    dictionary = {}
    for aid in used:
        pair = reverse.get(aid)
        if pair is None:
            raise CertificateError("abstraction id %d has no annotation" % aid)
        dictionary[aid] = (pair[0], spell(pair[1]))
    return Certificate(dictionary, axioms, trace)


def rup_check(clauses, derived):
    """True when negating derived and unit-propagating over clauses conflicts."""
    assign = {}
    for l in derived:
        v = -l if l < 0 else l
        want = l < 0
        if assign.get(v, want) != want:
            return True
        assign[v] = want
    changed = True
    while changed:
        changed = False
        for c in clauses:
            unit = None
            unknown = 0
            satisfied = False
            for l in c:
                v = -l if l < 0 else l
                val = assign.get(v)
                if val is None:
                    unknown += 1
                    unit = l
                    if unknown > 1:
                        break
                elif val == (l > 0):
                    satisfied = True
                    break
            if satisfied or unknown > 1:
                continue
            if unknown == 0:
                return True
            v = -unit if unit < 0 else unit
            assign[v] = unit > 0
            changed = True
    return False


def check_certificate(q, cert):
    """Validate a certificate against a formula; returns a CheckResult.

    Every axiom is recomputed from the matrix and compared through the
    dictionary, every trace clause is replayed by reverse unit
    propagation, and the trace must end in the empty clause.
    """
    from .formula import Assignment

    universals = set(q.universals)
    by_alpha = {}
    for pos, (idx, alpha_lits, lits) in enumerate(cert.axioms):
        where = "axiom %d" % pos
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
        want = set()
        for l, prefix in produced:
            want.add((l > 0, -l if l < 0 else l, spell(prefix)))
        got = set()
        for l in lits:
            aid = -l if l < 0 else l
            pair = cert.dictionary.get(aid)
            if pair is None:
                return CheckResult(False, "%s: id %d not in dictionary" % (where, aid))
            got.add((l > 0, pair[0], pair[1]))
        if want != got:
            return CheckResult(False, "%s: instantiation mismatch" % where)
    clauses = [lits for _, _, lits in cert.axioms]
    if not cert.trace:
        return CheckResult(False, "trace is empty")
    for pos, derived in enumerate(cert.trace):
        if not rup_check(clauses, derived):
            return CheckResult(
                False, "trace clause %d is not propagation derivable" % pos
            )
        clauses.append(derived)
    if cert.trace[-1] != ():
        return CheckResult(False, "trace does not end in the empty clause")
    return CheckResult(True)


def format_certificate(cert):
    """Render a certificate in its line-oriented text form."""
    out = []
    for aid in sorted(cert.dictionary):
        var, text = cert.dictionary[aid]
        out.append("d %d %d %s" % (aid, var, text))
    for idx, alpha_lits, lits in cert.axioms:
        out.append(
            "a %d %s0 %s0"
            % (
                idx,
                "".join("%d " % l for l in alpha_lits),
                "".join("%d " % l for l in lits),
            )
        )
    for lits in cert.trace:
        out.append("r %s0" % "".join("%d " % l for l in lits))
    return "\n".join(out) + "\n"


def parse_certificate(text):
    """Parse the text form back into a Certificate."""
    dictionary = {}
    axioms = []
    trace = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind == "d":
            if len(tokens) != 4:
                raise CertificateError("dictionary line needs id, var, bits", lineno)
            try:
                aid = int(tokens[1])
                var = int(tokens[2])
            except ValueError:
                raise CertificateError("malformed dictionary line", lineno)
            if not _SPELLED.fullmatch(tokens[3]):
                raise CertificateError("malformed dictionary line", lineno)
            if aid in dictionary:
                raise CertificateError("duplicate dictionary id %d" % aid, lineno)
            dictionary[aid] = (var, tokens[3])
        elif kind == "a":
            try:
                nums = [int(t) for t in tokens[1:]]
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
                nums = [int(t) for t in tokens[1:]]
            except ValueError:
                raise CertificateError("malformed trace line", lineno)
            if not nums or nums[-1] != 0 or 0 in nums[:-1]:
                raise CertificateError("trace line must end in 0", lineno)
            trace.append(tuple(nums[:-1]))
        else:
            raise CertificateError("unknown line kind %r" % kind, lineno)
    if not axioms and not trace:
        raise CertificateError("certificate has no content")
    return Certificate(dictionary, axioms, trace)


def write_certificate_file(cert, path):
    with open(path, "w") as f:
        f.write(format_certificate(cert))


def read_certificate_file(path):
    with open(path) as f:
        return parse_certificate(f.read())
