"""The incremental CDCL SAT solver behind both abstractions.

Its kernel exists twice, as a C extension (qexpand._cdcl, built
from _cdcl.c when a C compiler is present at install time) and as pure
Python (qexpand._cdcl_py).  The compiled one is picked when importable;
pass kernel="pure" (CLI: --kernel pure) to use the fallback anyway.
Both implement the same search step for step, so switching kernels
never changes models, verdicts, or the proof traces and cores both
always record.

The kernels check literals themselves: add_clause raises
ValueError("literals must be nonzero ints") on a zero or non-int
literal before it changes any state, also on a solver already UNSAT.

A solve takes no assumptions; a literal to hold is added as a unit
clause.  A SAT answer keeps its trail: the model's assignments stay on
it, and the next solve propagates, learns, restarts and branches on
from there.  UNSAT, UNKNOWN and a raised error cancel to level 0.
add_clause simplifies against level-0 values only, so a literal that a
kept decision made true never drops a clause.  A clause the trail
leaves two literals non-false in is watched on them.  A clause it
leaves one literal free in, every other one false, is implied on top
of the kept trail: that literal is set at the current level, and every
backtrack sets it again while the clause's false literals stay.  Any
other clause, a unit included, cancels to level 0 first.

After an UNSAT answer, proof_core() names the exact core:
the add_clause calls and proof trace steps the final conflict rests on,
read back from what each clause records (see the _cdcl_py docstring).
proof_hints() names, for each of those steps and then for the final
conflict, the core clauses that derive it by unit propagation, in the
order a checker must use them: the level-0 reasons it needs in trail
order, then the clauses its conflict analysis resolved in trail order,
then the conflict clause.  Under the step's negation each is unit or,
the last, false; the _cdcl_py docstring says why.
"""

from dataclasses import dataclass

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
    """The requested kernel is not available."""


class TraceUnavailable(Exception):
    """No proof trace: the last solve was not UNSAT."""


def kernel_name():
    return "compiled" if COMPILED else "pure"


@dataclass
class SolveOutcome:
    status: str
    model: list = None  # index by variable id; None when not SAT


class Solver:
    """Incremental SAT handle.

    Single-owner object: one loop drives one handle, no locking.  The
    model list returned in outcomes is shared with the kernel; treat it
    as read-only.  Each SAT answer builds a new list, and no later call
    changes one already returned, so a caller may keep a model to
    compare with the next.
    """

    def __init__(self, kernel="auto"):
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
        self._k = mod.Kernel()

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
        self._k.add_clause(lits)

    def solve(self, assumptions=(), deadline=None):
        """Solve the clauses added so far.  assumptions must be empty: it
        keeps the positional slot of callers that pass [], and anything
        in it raises ValueError before any state changes.  deadline is
        an absolute time.monotonic() value, checked every 64 conflicts; a
        solve found past it returns UNKNOWN.  There is no conflict
        budget."""
        if tuple(assumptions):
            raise ValueError("solve takes no assumptions; add unit clauses")
        status = _STATUS[self._k.solve(-1.0 if deadline is None else deadline)]
        return SolveOutcome(status=status, model=self._k.model if status == SAT else None)

    def proof_trace(self):
        """Learned clauses in derivation order; ends with () after an
        UNSAT result."""
        if self._k.last_status != -1:
            raise TraceUnavailable("last solve was not unsat")
        return self._k.get_trace()

    def proof_core(self):
        """(ordinals, positions), both ascending: the add_clause calls,
        counted from 0, and the proof_trace() steps that the final
        conflict rests on.  Those clauses alone are unsatisfiable, and
        each of those steps follows from them and the steps before it by
        unit propagation.  Only after an UNSAT answer."""
        if self._k.last_status != -1:
            raise TraceUnavailable("no conflict at level 0")
        return self._k.get_core()

    def proof_hints(self):
        """One tuple of ids per proof_core() step, in trace order, then
        one for the final conflict, ().  Id i <= A is the i-th of the A
        core add_clause calls, A + j the j-th core step.  Only after an
        UNSAT answer."""
        if self._k.last_status != -1:
            raise TraceUnavailable("no conflict at level 0")
        return self._k.get_hints()
