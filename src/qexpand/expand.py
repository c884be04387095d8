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

The all side attaches an activation selector to every distinct
instantiated clause and solves under assumptions, so resetting alphas
deactivates clause groups by reference count instead of rebuilding the
solver.  A reset replaces the alphas with the strips of the latest
counter model, which lifts the bound on the iteration count.

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
contradiction.  Clauses an iteration hook injects must follow from the
matrix for this to hold.
"""

import time
from dataclasses import dataclass

from . import annotate, sat
from .formula import FORALL, Assignment

TRUE = "TRUE"
FALSE = "FALSE"
UNKNOWN = "UNKNOWN"

INIT_MODES = ("per-block", "random", "all-false", "all-true")

RESET_MEMORY_THRESHOLD = 2_000_000  # live literals forcing a reset


class InvariantViolation(Exception):
    """A run broke an internal invariant; always a bug, never an input error."""


@dataclass
class SolveConfig:
    init_mode: str = "per-block"
    seed: int = 0
    reset_period: int = 64  # iterations between alpha resets; 0 disables
    verify_invariants: bool = False
    max_iterations: int = 0  # 0 = unlimited
    time_limit: float = None  # seconds, cooperative
    backend: str = "bundled"  # bundled | external:<path to solver binary>
    kernel: str = "auto"  # bundled kernel: auto | pure | compiled


class AssignmentSet:
    """Insertion-ordered set of assignments."""

    def __init__(self):
        self.items = []
        self._index = {}

    def add(self, a):
        k = a.key()
        if k in self._index:
            return False
        self._index[k] = len(self.items)
        self.items.append(a)
        return True

    def __contains__(self, a):
        return a.key() in self._index

    def __len__(self):
        return len(self.items)

    def __iter__(self):
        return iter(self.items)


class ForallAbstraction:
    """Conjunction of instantiations, clause-shared and selector-guarded."""

    def __init__(self, q, solver):
        self.q = q
        self.solver = solver
        self.table = annotate.InternTable("universal")
        self.info = {}  # clause lits -> (selector, matrix index, alpha)
        self.by_selector = {}
        self.refcount = {}
        self.groups = []  # clause-key list per active alpha
        self.live_clauses = 0
        self.live_literals = 0

    def add_group(self, alpha):
        """Instantiate under alpha and activate the produced clauses."""
        res = annotate.instantiate(self.q, alpha, self.table)
        group = []
        seen = set()
        for pc in res.clauses:
            key = pc.lits
            if key in seen:
                continue
            seen.add(key)
            group.append(key)
            if key not in self.info:
                sel = self.table.fresh()
                self.info[key] = (sel, pc.matrix_index, alpha)
                self.by_selector[sel] = key
                self.refcount[key] = 0
                self.solver.add_clause((-sel,) + key)
            if self.refcount[key] == 0:
                self.live_clauses += 1
                self.live_literals += len(key)
            self.refcount[key] += 1
        self.groups.append(group)

    def drop_all_groups(self):
        for group in self.groups:
            for key in group:
                self.refcount[key] -= 1
                if self.refcount[key] == 0:
                    self.live_clauses -= 1
                    self.live_literals -= len(key)
        self.groups = []

    def assumptions(self):
        return [
            info[0] for key, info in self.info.items() if self.refcount[key] > 0
        ]

    def solve(self, deadline=None):
        return self.solver.solve(assumptions=self.assumptions(), deadline=deadline)


class ExistsAbstraction:
    """Conjunction of negated instantiations via clause selectors."""

    def __init__(self, q, solver):
        self.q = q
        self.solver = solver
        self.table = annotate.InternTable("existential")
        self.tautologies = 0

    def add_negation(self, sigma):
        r = annotate.negate_instantiate(self.q, sigma, self.table)
        if r.tautology:
            self.tautologies += 1
            return
        for imp in r.new_implications:
            self.solver.add_clause(imp)
        self.solver.add_clause(r.selector_clause)

    def solve(self, deadline=None):
        return self.solver.solve(deadline=deadline)


class ExpansionState:
    """Everything a run accumulates; handed to hooks and certificate code."""

    def __init__(self, q, config):
        self.q = q
        self.work_q = q  # grows when a hook injects clauses
        self.config = config
        self.alphas = AssignmentSet()
        self.sigmas = AssignmentSet()
        backend = config.backend
        if backend == "bundled":
            fs = sat.Solver(seed=config.seed, kernel=config.kernel)
            es = sat.Solver(seed=config.seed, kernel=config.kernel)
        elif backend.startswith("external:"):
            path = backend.split(":", 1)[1]
            fs = sat.ExternalSolver(path)
            es = sat.ExternalSolver(path)
        else:
            raise ValueError("backend must be bundled or external:<path>")
        self.forall_abs = ForallAbstraction(q, fs)
        self.exists_abs = ExistsAbstraction(q, es)
        self.iteration = 0
        self.verdict = None
        self.stats = []
        self.core = None  # (clause lits, matrix index, alpha) triples on FALSE
        self.injected_clauses = 0
        self.resets = 0
        self.deadline = None
        self._wit_s_for_a = {}  # alpha key -> satisfying sigma key
        self._wit_a_for_s = {}  # sigma key -> falsifying alpha key

    def inject_clauses(self, clauses):
        """Append hook-provided clauses (over original variables) to the
        working matrix; they shape future instantiations only."""
        blocks = [(b.quantifier, list(b.variables)) for b in self.work_q.blocks]
        matrix = list(self.work_q.matrix) + [list(c) for c in clauses]
        new_q = type(self.work_q)(blocks, matrix)
        self.work_q = new_q
        self.forall_abs.q = new_q
        self.exists_abs.q = new_q
        self.injected_clauses += len(clauses)


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
    av = a._by_id
    bv = b._by_id
    for c in q.matrix:
        sat_c = False
        for l in c:
            v = -l if l < 0 else l
            val = av[v]
            if val is None:
                val = bv[v]
            if val == (l > 0):
                sat_c = True
                break
        if not sat_c:
            return False
    return True


def initial_alphas(q, config):
    """Seed assignments for the universal set.

    per-block: one assignment per universal block, that block all-False
    and every other universal True.  random: a single seeded coin-flip
    assignment.  all-false / all-true: the corresponding constant one.
    """
    U = q.universals
    if not U:
        return [Assignment.from_pairs(q, {})]
    mode = config.init_mode
    if mode == "per-block":
        out = []
        for b in q.blocks:
            if b.quantifier != FORALL:
                continue
            mine = set(b.variables)
            out.append(
                Assignment.from_pairs(q, [(v, v not in mine) for v in U])
            )
        return out
    if mode == "all-false":
        return [Assignment.from_pairs(q, [(v, False) for v in U])]
    if mode == "all-true":
        return [Assignment.from_pairs(q, [(v, True) for v in U])]
    if mode == "random":
        import random as _random

        rng = _random.Random(config.seed)
        return [Assignment.from_pairs(q, [(v, rng.random() < 0.5) for v in U])]
    raise ValueError("init_mode must be one of %s" % (INIT_MODES,))


def check_completion(state, s_side=True, a_side=True):
    """Report violations of the mutual-coverage invariants.

    s_side: every collected universal assignment is satisfied by some
    candidate (holds right after candidate extraction).  a_side: every
    candidate is falsified by some universal assignment (holds right
    after universal extraction or a reset).
    """
    q = state.work_q
    checked = 0
    violations = []
    if s_side:
        for alpha in state.alphas:
            ak = alpha.key()
            wit = state._wit_s_for_a.get(ak)
            if wit is not None and wit in state.sigmas._index:
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
            if wit is not None and wit in state.alphas._index:
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
    """Decide a prenex CNF formula; returns a SolveResult."""
    cfg = config or SolveConfig()
    if cfg.init_mode not in INIT_MODES:
        raise ValueError("init_mode must be one of %s" % (INIT_MODES,))
    state = ExpansionState(q, cfg)
    if cfg.time_limit is not None:
        state.deadline = time.monotonic() + cfg.time_limit
    for alpha in initial_alphas(q, cfg):
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
            state.core = [
                (fa.by_selector[s],) + fa.info[fa.by_selector[s]][1:]
                for s in out_f.failed_assumptions
            ]
            _finish_rec(rec, state)
            return finish(FALSE)

        strips = [
            (alpha, annotate.strip(out_f.model, alpha, fa.table))
            for alpha in state.alphas
        ]
        if cfg.verify_invariants:
            for alpha, cand in strips:
                if not _combined_eval(state.work_q, alpha, cand):
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

        strips_a = [
            (sigma, annotate.strip(out_e.model, sigma, ea.table))
            for sigma in state.sigmas
        ]
        if cfg.verify_invariants:
            for sigma, cand in strips_a:
                if _combined_eval(state.work_q, cand, sigma):
                    raise InvariantViolation(
                        "extracted universal does not falsify its source"
                    )
        do_reset = cfg.reset_period and state.iteration % cfg.reset_period == 0
        do_reset = do_reset or fa.live_literals > RESET_MEMORY_THRESHOLD
        new_a = 0
        if do_reset:
            fresh = AssignmentSet()
            for _, cand in strips_a:
                if fresh.add(cand) and cand not in state.alphas:
                    new_a += 1
            fa.drop_all_groups()
            state.alphas = fresh
            for alpha in fresh:
                fa.add_group(alpha)
            state.resets += 1
            rec["reset"] = True
        else:
            for _, cand in strips_a:
                if state.alphas.add(cand):
                    fa.add_group(cand)
                    new_a += 1
        rec["new_alphas"] = new_a
        if new_a == 0:
            _stalled(state, "alpha")
        if cfg.verify_invariants:
            _verify_completion(state, s_side=False, a_side=True)

        _finish_rec(rec, state)
        hook = on_iteration
        if hook is not None:
            extra = hook(state)
            if extra:
                state.inject_clauses(list(extra))


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
