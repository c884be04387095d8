"""Expansion-based QBF solving without recursion.

Two propositional abstractions are refined against each other until one
of them collapses.  The all side conjoins the matrix instantiated under
every collected universal assignment (set alphas); unsatisfiability
there proves the formula false.  The counter side conjoins the negation
of the matrix instantiated under every collected existential candidate
(set sigmas); unsatisfiability there proves the formula true.  Models
of one side are stripped of annotations to grow the other side, both
sets only ever grow between resets, and each is bounded by its full
assignment space, which bounds the number of iterations.

Each abstraction owns its clause selectors, drawn from its intern
table's id space (annotate.InternTable.fresh) and kept in its own
selector map (clause -> selector); the table itself only names
annotated variables.  The counter side's selector d for a clause C
means "C is false": add_negation records d only in the step that adds
its implications d -> not-l for every l in C, so a recorded selector
always constrains its clause, and each sigma adds the clause of the
selectors of its distinct instantiated clauses.

The all side attaches an activation selector to every distinct
instantiated clause and solves under assumptions, so resetting alphas
deactivates clauses by dropping them from the live set instead of
rebuilding the solver.  A reset replaces the alphas with the strips of
the latest counter model, which lifts the bound on the iteration count.
The selectors are non-decision variables of the all side's solver
(sat.Solver.set_decision): a live selector is set by its assumption,
and a dropped one is never branched on, so a forall solve does not
decide every dropped selector again.  That is sound because each
selector occurs only negatively, in its own clause: resolution keeps
it negative in every learned clause, so leaving it unassigned (read as
False) satisfies every clause it is in.

The assumptions of a forall solve are the live selectors in ascending
order.  Selector ids grow in the order clauses are first added, so the
list is in first-added order: a clause that a reset drops and a later
alpha brings back takes its old place, not a place at the end, and the
list depends on which clauses are live, not on the order in which the
current alphas produced them.

A strip reads its source only below annotate.strip_cut, the head of
the last block of the side it assigns, so each refinement step strips
once per distinct prefix there and hands the result to every source
that shares it; every (source, strip) pair is still formed and checked.

Every iteration still adds to both sides, reset or not, so a stall
(a refinement step that finds nothing new) is a bug and raises
InvariantViolation.  Every forall solve runs under alphas that include
strip(m_e, sigma) for every sigma in S, m_e the latest counter model:
without a reset those strips were added, with one they are the whole
fresh set.  Likewise S holds strip(m_f, alpha) for every alpha in A,
m_f the latest forall model.  Suppose every strip of the newest model
were already known (for a counter model: already among the alphas the
last forall solve ran under).  Alternate from any sigma in S:
alpha = strip(m_e, sigma), then sigma = strip(m_f, alpha), and so on.
A block's values depend only on the other side's values earlier in the
prefix, so each round fixes one more block: the chain settles on alpha
in A and sigma in S with sigma = strip(m_f, alpha) and
alpha = strip(m_e, sigma), that is, each universal read from m_e and
each existential from m_f under the annotation of the other side's
values chosen so far.  Then alpha and sigma together satisfy the
matrix (m_f satisfies the instantiation under alpha) and falsify it
(m_e falsifies a clause of the instantiation under sigma), a
contradiction.
"""

import time
from dataclasses import dataclass

from . import annotate, sat
from .formula import FORALL, Assignment

TRUE = "TRUE"
FALSE = "FALSE"
UNKNOWN = "UNKNOWN"

RESET_MEMORY_THRESHOLD = 2_000_000  # live literals forcing a reset


class InvariantViolation(Exception):
    """A run broke an internal invariant; always a bug, never an input error."""


@dataclass
class SolveConfig:
    # Iterations between alpha resets.  0 turns periodic resets off; more
    # than RESET_MEMORY_THRESHOLD live literals still force one.
    reset_period: int = 64
    verify_invariants: bool = False
    max_iterations: int = 0  # 0 = unlimited
    time_limit: float = None  # seconds, cooperative
    kernel: str = "auto"  # SAT kernel: auto | pure | compiled


class AssignmentSet:
    """Insertion-ordered set of assignments."""

    def __init__(self):
        self._by_key = {}

    def add(self, a):
        k = a.key()
        if k in self._by_key:
            return False
        self._by_key[k] = a
        return True

    def has_key(self, k):
        return k in self._by_key

    def __contains__(self, a):
        return a.key() in self._by_key

    def __len__(self):
        return len(self._by_key)

    def __iter__(self):
        return iter(self._by_key.values())


class ForallAbstraction:
    """Conjunction of instantiations, clause-shared and selector-guarded."""

    def __init__(self, q, solver):
        self.q = q
        self.solver = solver
        self.table = annotate.InternTable("universal")
        self.selector = {}  # clause lits -> selector
        self.origin = {}  # selector -> (clause lits, matrix index, alpha)
        self.live = set()  # selectors of the clauses the current alphas produce
        self.live_literals = 0

    @property
    def live_clauses(self):
        return len(self.live)

    def add_group(self, alpha):
        """Instantiate under alpha and activate the produced clauses."""
        for idx, key in annotate.instantiate(self.q, alpha, self.table):
            sel = self.selector.get(key)
            if sel is None:
                sel = self.selector[key] = self.table.fresh()
                self.origin[sel] = (key, idx, alpha)
                self.solver.add_clause((-sel,) + key)
                self.solver.set_decision(sel, False)
            if sel not in self.live:
                self.live.add(sel)
                self.live_literals += len(key)

    def drop_all_groups(self):
        self.live = set()
        self.live_literals = 0

    def assumptions(self):
        return sorted(self.live)

    def solve(self, deadline=None):
        return self.solver.solve(assumptions=self.assumptions(), deadline=deadline)


class ExistsAbstraction:
    """Conjunction of negated instantiations via clause selectors."""

    def __init__(self, q, solver):
        self.q = q
        self.solver = solver
        self.table = annotate.InternTable("existential")
        self.selector = {}  # clause lits -> selector implying the clause false

    def add_negation(self, sigma):
        """Assert that some clause of the instantiation under sigma is
        false: one selector per distinct clause, shared across sigmas."""
        clauses = annotate.negate_instantiate(self.q, sigma, self.table)
        if clauses is None:
            return
        sels = []
        for key in clauses:
            sel = self.selector.get(key)
            if sel is None:
                sel = self.selector[key] = self.table.fresh()
                for l in key:
                    self.solver.add_clause((-sel, -l))
            sels.append(sel)
        self.solver.add_clause(sels)

    def solve(self, deadline=None):
        return self.solver.solve(deadline=deadline)


class ExpansionState:
    """Everything a run accumulates; handed to hooks and certificate code."""

    def __init__(self, q, config):
        self.q = q
        self.config = config
        self.alphas = AssignmentSet()
        self.sigmas = AssignmentSet()
        self.forall_abs = ForallAbstraction(q, sat.Solver(kernel=config.kernel))
        self.exists_abs = ExistsAbstraction(q, sat.Solver(kernel=config.kernel))
        self.iteration = 0
        self.verdict = None
        self.stats = []
        self.core = None  # (clause lits, matrix index, alpha) triples on FALSE
        self.resets = 0
        self.deadline = None
        self._wit_s_for_a = {}  # alpha key -> satisfying sigma key
        self._wit_a_for_s = {}  # sigma key -> falsifying alpha key


@dataclass
class CompletionReport:
    checked_pairs: int
    violations: list  # (direction, alpha, sigma|None) tuples


@dataclass
class SolveResult:
    verdict: str
    iterations: int
    stats: list
    witness: list  # candidate set on TRUE, empty otherwise
    state: ExpansionState


def _combined_eval(q, a, b):
    """Truth of the matrix under the union of two assignments."""
    av = a.values
    bv = b.values
    pos = q.positions
    for c in q.matrix:
        sat_c = False
        for l in c:
            p = pos[-l if l < 0 else l]
            if (av[p] or bv[p]) == (1 if l > 0 else 2):
                sat_c = True
                break
        if not sat_c:
            return False
    return True


def _strip_all(q, model, sources, table):
    """(source, strip of model against it) for every source, in order;
    sources that agree below annotate.strip_cut share one strip call."""
    cut = annotate.strip_cut(q, table)
    memo = {}
    out = []
    for source in sources:
        prefix = source.values[:cut]
        cand = memo.get(prefix)
        if cand is None:
            cand = memo[prefix] = annotate.strip(model, source, table)
        out.append((source, cand))
    return out


def initial_alphas(q):
    """Seed assignments for the universal set: one per universal block,
    that block all-False and every other universal True; the empty
    assignment when there are no universals."""
    U = q.universals
    if not U:
        return [Assignment.from_pairs(q, {})]
    out = []
    for b in q.blocks:
        if b.quantifier != FORALL:
            continue
        mine = set(b.variables)
        out.append(Assignment.from_pairs(q, [(v, v not in mine) for v in U]))
    return out


def check_completion(state, s_side=True, a_side=True):
    """Report violations of the mutual-coverage invariants.

    s_side: every collected universal assignment is satisfied by some
    candidate (holds right after candidate extraction).  a_side: every
    candidate is falsified by some universal assignment (holds right
    after universal extraction or a reset).
    """
    q = state.q
    checked = 0
    violations = []
    if s_side:
        for alpha in state.alphas:
            ak = alpha.key()
            wit = state._wit_s_for_a.get(ak)
            if wit is not None and state.sigmas.has_key(wit):
                continue
            found = None
            for sigma in state.sigmas:
                checked += 1
                if _combined_eval(q, alpha, sigma):
                    found = sigma.key()
                    break
            if found is None:
                violations.append(("s-completes-a", alpha, None))
            else:
                state._wit_s_for_a[ak] = found
    if a_side:
        for sigma in state.sigmas:
            sk = sigma.key()
            wit = state._wit_a_for_s.get(sk)
            if wit is not None and state.alphas.has_key(wit):
                continue
            found = None
            for alpha in state.alphas:
                checked += 1
                if not _combined_eval(q, alpha, sigma):
                    found = alpha.key()
                    break
            if found is None:
                violations.append(("a-completes-s", sigma, None))
            else:
                state._wit_a_for_s[sk] = found
    return CompletionReport(checked, violations)


def _verify_completion(state, s_side, a_side):
    report = check_completion(state, s_side=s_side, a_side=a_side)
    if report.violations:
        direction = report.violations[0][0]
        raise InvariantViolation(
            "completion violated (%s) at iteration %d"
            % (direction, state.iteration)
        )


def _stalled(state, side):
    raise InvariantViolation(
        "no new %s at iteration %d (%d resets so far)"
        % (side, state.iteration, state.resets)
    )


def solve(q, config=None, on_iteration=None):
    """Decide a prenex CNF formula; returns a SolveResult.

    on_iteration(state), when given, observes the run after every
    iteration that reaches no verdict; it must return None.
    """
    cfg = config or SolveConfig()
    if cfg.reset_period < 0:
        raise ValueError("reset_period must not be negative")
    if cfg.max_iterations < 0:
        raise ValueError("max_iterations must not be negative")
    if cfg.time_limit is not None and not cfg.time_limit >= 0:
        raise ValueError("time_limit must not be negative or NaN")
    state = ExpansionState(q, cfg)
    if cfg.time_limit is not None:
        state.deadline = time.monotonic() + cfg.time_limit
    for alpha in initial_alphas(q):
        if state.alphas.add(alpha):
            state.forall_abs.add_group(alpha)

    def out_of_time():
        return state.deadline is not None and time.monotonic() > state.deadline

    def finish(verdict):
        state.verdict = verdict
        witness = list(state.sigmas) if verdict == TRUE else []
        return SolveResult(verdict, state.iteration, state.stats, witness, state)

    while True:
        if cfg.max_iterations and state.iteration >= cfg.max_iterations:
            return finish(UNKNOWN)
        if out_of_time():
            return finish(UNKNOWN)
        state.iteration += 1
        rec = {
            "iteration": state.iteration,
            "forall_status": "-",
            "exists_status": "-",
            "new_sigmas": 0,
            "new_alphas": 0,
            "reset": False,
        }
        state.stats.append(rec)
        fa = state.forall_abs
        ea = state.exists_abs

        t0 = time.perf_counter()
        out_f = fa.solve(deadline=state.deadline)
        rec["forall_time"] = time.perf_counter() - t0
        rec["forall_status"] = out_f.status
        if out_f.status == sat.UNKNOWN:
            _finish_rec(rec, state)
            return finish(UNKNOWN)
        if out_f.status == sat.UNSAT:
            state.core = [fa.origin[s] for s in out_f.failed_assumptions]
            _finish_rec(rec, state)
            return finish(FALSE)

        t0 = time.perf_counter()
        strips = _strip_all(state.q, out_f.model, state.alphas, fa.table)
        rec["strip_time"] = time.perf_counter() - t0
        if cfg.verify_invariants:
            for alpha, cand in strips:
                if not _combined_eval(state.q, alpha, cand):
                    raise InvariantViolation(
                        "extracted candidate does not satisfy its source"
                    )
        new_s = 0
        for _, cand in strips:
            if state.sigmas.add(cand):
                ea.add_negation(cand)
                new_s += 1
        rec["new_sigmas"] = new_s
        if new_s == 0:
            _stalled(state, "sigma")
        if cfg.verify_invariants:
            _verify_completion(state, s_side=True, a_side=False)

        if out_of_time():
            _finish_rec(rec, state)
            return finish(UNKNOWN)
        t0 = time.perf_counter()
        out_e = ea.solve(deadline=state.deadline)
        rec["exists_time"] = time.perf_counter() - t0
        rec["exists_status"] = out_e.status
        if out_e.status == sat.UNKNOWN:
            _finish_rec(rec, state)
            return finish(UNKNOWN)
        if out_e.status == sat.UNSAT:
            _finish_rec(rec, state)
            return finish(TRUE)

        t0 = time.perf_counter()
        strips_a = _strip_all(state.q, out_e.model, state.sigmas, ea.table)
        rec["strip_time"] += time.perf_counter() - t0
        if cfg.verify_invariants:
            for sigma, cand in strips_a:
                if _combined_eval(state.q, cand, sigma):
                    raise InvariantViolation(
                        "extracted universal does not falsify its source"
                    )
        do_reset = cfg.reset_period and state.iteration % cfg.reset_period == 0
        do_reset = do_reset or fa.live_literals > RESET_MEMORY_THRESHOLD
        before = state.alphas
        if do_reset:
            state.alphas = AssignmentSet()
            fa.drop_all_groups()
            state.resets += 1
            rec["reset"] = True
        new_a = 0
        for _, cand in strips_a:
            novel = cand not in before
            if state.alphas.add(cand):
                fa.add_group(cand)
                new_a += novel
        rec["new_alphas"] = new_a
        if new_a == 0:
            _stalled(state, "alpha")
        if cfg.verify_invariants:
            _verify_completion(state, s_side=False, a_side=True)

        _finish_rec(rec, state)
        if on_iteration is not None and on_iteration(state) is not None:
            raise ValueError("on_iteration must return None")


def _finish_rec(rec, state):
    fa = state.forall_abs
    ea = state.exists_abs
    rec["size_a"] = len(state.alphas)
    rec["size_s"] = len(state.sigmas)
    rec["live_clauses"] = fa.live_clauses
    rec["live_literals"] = fa.live_literals
    rec["forall_conflicts"] = fa.solver.conflicts
    rec["forall_decisions"] = fa.solver.decisions
    rec["forall_propagations"] = fa.solver.propagations
    rec["exists_conflicts"] = ea.solver.conflicts
    rec["exists_decisions"] = ea.solver.decisions
    rec["exists_propagations"] = ea.solver.propagations
    rec["exists_clauses"] = ea.solver.num_clauses
    return rec
