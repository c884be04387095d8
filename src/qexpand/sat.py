"""SAT backends: the bundled incremental CDCL kernel and an external adapter.

The bundled kernel exists twice, as a C extension (qexpand._cdcl, built
from _cdcl.c when a C compiler is present at install time) and as pure
Python (qexpand._cdcl_py).  The compiled one is picked when importable;
pass kernel="pure" (CLI: --kernel pure) to use the fallback anyway.
Both implement the same search step for step, so switching kernels
never changes models, verdicts, or recorded traces.
"""

import os
import subprocess
import tempfile
import time
from dataclasses import dataclass, field

from . import _cdcl_py as _pure

try:
    from . import _cdcl as _default  # type: ignore[attr-defined]

    COMPILED = True
except ImportError:
    _default = _pure
    COMPILED = False

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"

_STATUS = {1: SAT, -1: UNSAT, 0: UNKNOWN}


class ResourceLimit(Exception):
    """Backend refused to grow (variable or clause limit exceeded)."""


class TraceUnavailable(Exception):
    """No proof trace: tracing disabled or last solve not UNSAT."""


class SpawnFailure(Exception):
    """External solver process could not be started."""


class ProtocolViolation(Exception):
    """External solver output did not follow the DIMACS conventions."""


def kernel_name():
    return "compiled" if COMPILED else "pure"


def _checked_literals(lits):
    """lits as a list, or ValueError unless every one is a nonzero int."""
    lits = list(lits)
    if any(not isinstance(l, int) or l == 0 for l in lits):
        raise ValueError("literals must be nonzero ints")
    return lits


@dataclass
class SolveOutcome:
    status: str
    model: list = None  # index by variable id; None when not SAT
    failed_assumptions: list = field(default_factory=list)


class Solver:
    """Incremental SAT handle.

    Single-owner object: one loop drives one handle, no locking.  The
    model list returned in outcomes is shared with the kernel; treat it
    as read-only.
    """

    def __init__(self, record_trace=False, kernel="auto"):
        if kernel == "auto":
            mod = _default
        elif kernel == "pure":
            mod = _pure
        elif kernel == "compiled":
            if not COMPILED:
                raise ResourceLimit("compiled kernel not available")
            mod = _default
        else:
            raise ValueError("kernel must be auto, pure, or compiled")
        self._k = mod.Kernel(record_trace)
        self.record_trace = record_trace
        self.solve_calls = 0

    @property
    def num_vars(self):
        return self._k.nvars

    @property
    def num_clauses(self):
        return self._k.num_clauses

    @property
    def conflicts(self):
        return self._k.conflicts

    @property
    def propagations(self):
        return self._k.propagations

    @property
    def decisions(self):
        return self._k.decisions

    @property
    def restarts(self):
        return self._k.restarts

    def ensure_vars(self, n):
        self._k.ensure_vars(n)

    def add_clause(self, lits):
        self._k.add_clause(_checked_literals(lits))

    def solve(self, assumptions=(), conflict_budget=None, deadline=None):
        """Solve under assumptions; budgets turn the result into UNKNOWN.

        deadline is an absolute time.monotonic() value.
        """
        assumptions = _checked_literals(assumptions)
        r = self._k.solve(
            assumptions,
            -1 if conflict_budget is None else conflict_budget,
            -1.0 if deadline is None else deadline,
        )
        self.solve_calls += 1
        status = _STATUS[r]
        return SolveOutcome(
            status=status,
            model=self._k.model if status == SAT else None,
            failed_assumptions=list(self._k.failed) if status == UNSAT else [],
        )

    def proof_trace(self):
        """Learned clauses in derivation order; ends with () after a
        top-level (assumption-free) UNSAT result."""
        if not self.record_trace:
            raise TraceUnavailable("tracing was not enabled")
        if self._k.last_status != -1:
            raise TraceUnavailable("last solve was not unsat")
        return self._k.get_trace()


def _write_dimacs(f, clauses, num_vars, assumptions):
    f.write("p cnf %d %d\n" % (num_vars, len(clauses) + len(assumptions)))
    for c in clauses:
        f.write(" ".join([str(l) for l in c] + ["0"]) + "\n")
    for a in assumptions:
        f.write("%d 0\n" % a)


def external_solve(path, clauses, num_vars=0, assumptions=(), timeout=None):
    """One-shot run of an external DIMACS solver binary.

    The solver must print `s SATISFIABLE` with `v` model lines, or
    `s UNSATISFIABLE`, and exit 10/20 accordingly.  Assumptions are
    appended as unit clauses, so a failed-assumption set cannot be
    narrowed: callers get the full assumption list back on UNSAT.
    """
    assumptions = _checked_literals(assumptions)
    nv = num_vars
    for c in clauses:
        for l in c:
            nv = max(nv, abs(l))
    for a in assumptions:
        nv = max(nv, abs(a))
    fd, fname = tempfile.mkstemp(suffix=".cnf", prefix="qexpand_")
    try:
        with os.fdopen(fd, "w") as f:
            _write_dimacs(f, clauses, nv, assumptions)
        try:
            proc = subprocess.run(
                [path, fname],
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                timeout=timeout,
                text=True,
            )
        except subprocess.TimeoutExpired:
            return SolveOutcome(status=UNKNOWN)
        except OSError as e:
            raise SpawnFailure("cannot run %r: %s" % (path, e)) from None
    finally:
        try:
            os.unlink(fname)
        except OSError:
            pass
    status = None
    model_lits = []
    for line in proc.stdout.splitlines():
        line = line.strip()
        if line.startswith("s "):
            word = line[2:].strip()
            if word == "SATISFIABLE":
                status = SAT
            elif word == "UNSATISFIABLE":
                status = UNSAT
            elif word == "UNKNOWN":
                status = UNKNOWN
            else:
                raise ProtocolViolation("bad status line %r" % line)
        elif line.startswith("v ") or line == "v":
            try:
                model_lits.extend(int(t) for t in line[1:].split())
            except ValueError:
                raise ProtocolViolation("bad model line %r" % line) from None
    if status is None:
        if proc.returncode == 10:
            status = SAT
        elif proc.returncode == 20:
            status = UNSAT
        else:
            raise ProtocolViolation(
                "no status line and exit code %d" % proc.returncode
            )
    if status == SAT:
        if not model_lits:
            raise ProtocolViolation("SATISFIABLE but no model lines")
        model = [False] * (nv + 1)
        model[0] = None
        for l in model_lits:
            if l == 0:
                continue
            if abs(l) > nv:
                raise ProtocolViolation("model literal %d out of range" % l)
            model[abs(l)] = l > 0
        return SolveOutcome(status=SAT, model=model)
    if status == UNSAT:
        return SolveOutcome(status=UNSAT, failed_assumptions=list(assumptions))
    return SolveOutcome(status=UNKNOWN)


class ExternalSolver:
    """Solver-shaped wrapper that re-runs an external binary per call."""

    def __init__(self, path):
        self.path = path
        self._clauses = []
        self._nv = 0
        self.solve_calls = 0
        self.conflicts = 0
        self.propagations = 0
        self.decisions = 0
        self.restarts = 0
        self.record_trace = False

    @property
    def num_vars(self):
        return self._nv

    @property
    def num_clauses(self):
        return len(self._clauses)

    def ensure_vars(self, n):
        self._nv = max(self._nv, n)

    def add_clause(self, lits):
        lits = _checked_literals(lits)
        for l in lits:
            self._nv = max(self._nv, abs(l))
        self._clauses.append(lits)

    def solve(self, assumptions=(), conflict_budget=None, deadline=None):
        timeout = None
        if deadline is not None:
            timeout = max(0.01, deadline - time.monotonic())
        out = external_solve(
            self.path, self._clauses, self._nv, list(assumptions), timeout
        )
        self.solve_calls += 1
        return out

    def proof_trace(self):
        raise TraceUnavailable("external backend records no trace")
