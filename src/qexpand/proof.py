"""Clausal certificates for false formulas.

A false verdict rests on an unsatisfiable conjunction of annotated
instantiation clauses.  The certificate records them as axioms (matrix
index, instantiating universal assignment, clause over integer ids) and
a clause trace whose every step must follow by reverse unit
propagation, ending in the empty clause.  An axiom's matrix clause and
assignment fix the annotated variable behind each of its literals, so
the axioms name every id.  Checking recomputes each axiom from the
formula alone and replays the trace on a standalone propagator, so a
certificate is evidence independent of the solver that produced it.

Extraction reads it off the run's forall solver, the one started at the
last reset (or at the run's start), UNSAT with no assumptions.  That
solver holds each distinct instantiated clause as it was added, and
names the exact core of its final conflict (sat.Solver.proof_core):
the add_clause calls and the proof trace steps that conflict rests on.
The axioms are the core's clauses, in the order they were added, with
the solver's own ids; the trace is the core's steps in trace order,
then ().  Each step follows by unit propagation from the axioms and the
steps before it, and the last, (), from all of them: every learned
clause records the clauses its conflict analysis resolved and the
level-0 variables it dropped, every level-0 literal has a reason
clause, and the core is what one walk back from the final conflict
reaches through them (the _cdcl_py docstring has the argument).  The
checker does not rely on that argument: it replays every step.

The replay loads the axioms once into a ClauseDatabase: units and their
consequences sit on a level-0 trail that is never undone, clauses that
level 0 satisfies are dropped, and every other clause is watched on two
literals that level 0 leaves free.  A trace step assigns its negation
above the level-0 trail, propagates through the watch lists of the
literals that became false, undoes back to level 0 and is then added as
a clause.  Ids come from a parsed file, so the database codes each
literal densely the first time it sees it, and values and watch lists
are lists indexed by code: storage grows with the distinct literals and
never with the largest id.
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
    steps = state.forall_abs.solver.proof_trace()
    trace = [steps[t] for t in state.core_steps]
    trace.append(())
    return Certificate(axioms, trace)


class ClauseDatabase:
    """The clauses of one replay, over a level-0 trail that is never undone.

    Each literal is coded the first time the database sees it, through
    one dict: the i-th variable seen gets 2i for its positive and 2i+1
    for its negative literal, so c ^ 1 negates code c.  value and
    watches are indexed by code, and the trail and clauses hold codes.

    add() drops a clause that level 0 already satisfies (a tautology
    included) and the literals level 0 makes false; what is left is a
    unit, which extends the level-0 trail and is propagated, or two or
    more free literals, of which the first two are watched.  Once level
    0 is contradictory, conflict is true and every clause follows.
    """

    def __init__(self, clauses):
        self.code = {}  # literal -> code, both signs of every variable seen
        self.value = []  # code -> True, False or None (unassigned)
        self.watches = []  # code -> clauses watching it; c[0], c[1] are c's watches
        self.trail = []  # codes of true literals in assignment order
        self.conflict = False
        for c in clauses:
            self.add(c)

    def codes(self, lits):
        """The codes of the sequence lits, coding the literals not yet seen."""
        code = self.code
        try:
            return list(map(code.__getitem__, lits))
        except KeyError:
            pass
        for l in lits:
            if l not in code:
                c = len(self.value)
                code[l], code[-l] = (c, c + 1) if l > 0 else (c + 1, c)
                self.value += (None, None)
                self.watches += ([], [])
        return list(map(code.__getitem__, lits))

    def add(self, clause):
        if self.conflict:
            return
        value = self.value
        free = {}  # the free codes in first-seen order, each once
        for c in self.codes(clause):
            v = value[c]
            if v:
                return
            if v is None:
                if c ^ 1 in free:
                    return  # a tautology
                free[c] = None
        free = list(free)
        if len(free) > 1:
            watches = self.watches
            watches[free[0]].append(free)
            watches[free[1]].append(free)
        elif free:
            unit = free[0]
            value[unit] = True
            value[unit ^ 1] = False
            self.trail.append(unit)
            self.conflict = self.propagate(len(self.trail) - 1)
        else:
            self.conflict = True

    def propagate(self, head):
        """Propagate the trail from position head; True on a conflict."""
        trail = self.trail
        value = self.value
        watches = self.watches
        while head < len(trail):
            false = trail[head] ^ 1
            head += 1
            ws = watches[false]
            if not ws:
                continue
            kept = []
            keep = kept.append
            for i, c in enumerate(ws):
                other = c[0]
                if other == false:
                    other = c[0] = c[1]
                    c[1] = false
                if value[other]:
                    keep(c)
                    continue
                for k in range(2, len(c)):
                    l = c[k]
                    if value[l] is not False:
                        c[1] = l
                        c[k] = false
                        watches[l].append(c)
                        break
                else:
                    keep(c)
                    if value[other] is False:  # every literal is false
                        kept += ws[i + 1 :]
                        watches[false] = kept
                        return True
                    value[other] = True
                    value[other ^ 1] = False
                    trail.append(other)
            watches[false] = kept
        return False


def rup_check(db, derived):
    """True when negating derived and unit-propagating over db conflicts.

    db is a ClauseDatabase.  The negation and what it propagates are
    assigned above db's level-0 trail and undone before returning, so db
    is left as it was, but for codes given to literals it had not seen.
    """
    if db.conflict:
        return True
    value = db.value
    trail = db.trail
    base = len(trail)
    try:
        for c in db.codes(derived):
            v = value[c]
            if v:
                return True
            if v is None:
                value[c] = False
                value[c ^ 1] = True
                trail.append(c ^ 1)
        return db.propagate(base)
    finally:
        for c in trail[base:]:
            value[c] = value[c ^ 1] = None
        del trail[base:]


def check_certificate(q, cert):
    """Validate a certificate against a formula; returns a CheckResult.

    Every axiom is recomputed from the matrix under its assignment, and
    its lits must match the recomputed literals one for one, sign for
    sign, in the order the matrix clause lists them.  That position
    names each id as an annotated variable; the first axiom to use an id
    names it, and every later use must give the same name.  No literal
    may be 0.  The axioms are then loaded once into a ClauseDatabase,
    every trace clause in turn must pass rup_check against it before it
    is added, and the trace must end in the empty clause.
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
        for l, (v, prefix) in zip(lits, produced):
            name = (-v if v < 0 else v, prefix)
            if (l > 0) != (v > 0) or names.setdefault(-l if l < 0 else l, name) != name:
                return CheckResult(False, "%s: instantiation mismatch" % where)
    if not cert.trace:
        return CheckResult(False, "trace is empty")
    db = ClauseDatabase(lits for _, _, lits in cert.axioms)
    for pos, derived in enumerate(cert.trace):
        if 0 in derived:
            return CheckResult(False, "trace clause %d: literal 0" % pos)
        if not rup_check(db, derived):
            return CheckResult(
                False, "trace clause %d is not propagation derivable" % pos
            )
        db.add(derived)
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
    out += ["r " + " ".join(map(str, (*lits, 0))) for lits in cert.trace]
    return "\n".join(out) + "\n"


def parse_certificate(text):
    """Parse the text form back into a Certificate."""
    axioms = []
    trace = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("c"):
            continue
        kind = tokens[0]
        if kind == "a":
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
            if nums.count(0) != 1 or nums.pop() != 0:
                raise CertificateError("trace line must end in 0", lineno)
            trace.append(tuple(nums))
        else:
            raise CertificateError("unknown line kind %r" % kind, lineno)
    if not axioms and not trace:
        raise CertificateError("certificate has no content")
    return Certificate(axioms, trace)


def write_certificate_file(cert, path):
    with open(path, "w") as f:
        f.write(format_certificate(cert))


def read_certificate_file(path):
    with open(path) as f:
        return parse_certificate(f.read())
