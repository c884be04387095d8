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

The counter side owns clause selectors, drawn from its intern table's
id space (annotate.InternTable.fresh) and kept in its selector map
(clause -> selector); the table itself only names annotated variables.
Its selector d for a clause C means "C is false": add_negation records
d only in the step that adds its implications d -> not-l for every l in
C, so a recorded selector always constrains its clause, and each sigma
adds the clause of the selectors of its distinct instantiated clauses.

The all side adds each distinct instantiated clause once, as it is, and
solves with no assumptions.  ForallAbstraction.origin maps each clause,
in add_clause order, to its matrix index and the alpha that first
produced it.  On UNSAT the solver names the exact core
(sat.Solver.proof_core): the add_clause calls, by ordinal, and the
proof trace steps that its final conflict rests on.  Through origin the
ordinals are the core's clauses, which the certificate takes as axioms.
A reset replaces the alphas with the strips of the latest counter
model, which lifts the bound on the iteration count, and starts the all
side over with a new solver and intern table: the dropped clauses,
their annotated variables and everything learned from them leave the
search and free their memory.  So the forall_conflicts,
forall_decisions and forall_propagations of an iteration's stats count
the current solver and restart after a reset.

Between resets the all side only grows, and each forall solve goes on
from the trail of the last model (sat.Solver keeps it after SAT).  A
new alpha's clauses mostly hold fresh copies of existentials; one that
the trail leaves a single literal free in is implied on top of the
kept trail rather than sending the solver back to level 0.

A strip reads its source only below annotate.strip_cut, the head of
the last block of the side it assigns, and through that prefix the
block copies it names, so sources that share a prefix share one strip.
Each abstraction keeps a StripState: its sources' prefixes, numbered
by first source, which copies each prefix reads, and the model it
stripped last.  A refinement step strips the new model only against
the dirty prefixes: those first seen since the side's last strip, and
those reading a copy that holds an id whose value the strip reads
differently in the new model than in the last model of the same
solver.  annotate.InternTable.owner names each id's copy.  An id past
the old model's end was read as False, so it counts as changed when it
is True in the new one.  Every other prefix is clean: it strips exactly
as it did last time, and that strip went into the target set then.
Between resets S and A only grow, so a clean prefix can add nothing,
and skipping it changes neither set.  A reset is the exception.  It
empties A, so on a reset iteration the counter side strips every
prefix.  The forall side starts over with its new table, so all its
prefixes are new.  Dirty prefixes are stripped in first-source order,
so new candidates enter S and A in the order a strip against every
source would add them.

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

The same pairs witness completion.  With verify_invariants each step
also strips its clean prefixes, once each, and checks the pair of every
alpha (sigma) with its strip: the strip satisfies its alpha (falsifies
its sigma) and is in S (A) once inserted.  Then every alpha is
satisfied by a named sigma, and every sigma falsified by a named alpha,
with no search, and a dirty prefix taken for clean fails the check.
check_completion searches instead: it is the full scan for any state.
"""

import time
from dataclasses import dataclass
from itertools import chain, compress, islice
from operator import ne

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

    def __contains__(self, a):
        return a.key() in self._by_key

    def __len__(self):
        return len(self._by_key)

    def __iter__(self):
        return iter(self._by_key.values())


class StripState:
    """What the strips of one abstraction's models read.

    A source's prefix is source.values[:cut]; its strip reads that and,
    through the prefix's cuts at annotate.strip_heads, the block copies
    under those annotations.  Prefixes are numbered in the order of
    their first source, which stands for all sources sharing it.  The
    last head is the cut, so the copy there is the prefix's own and
    index names its one reader.  readers maps each shorter annotation to
    the numbers of the prefixes that read its copy.  Prefixes numbered
    from stripped on came after the last strip, whose model is model.
    """

    def __init__(self, q, table):
        self.table = table
        self.cut = annotate.strip_cut(q, table)
        self.shared = annotate.strip_heads(q, table)[:-1]  # heads below the cut
        self.index = {}  # prefix -> number
        self.sources = []  # number -> first source with that prefix
        self.readers = {}  # annotation shorter than cut -> numbers reading it
        self.stripped = 0
        self.model = None

    def add(self, source):
        """Note a source the abstraction was instantiated under."""
        prefix = source.values[: self.cut]
        if prefix not in self.index:
            n = self.index[prefix] = len(self.sources)
            self.sources.append(source)
            for h in self.shared:
                self.readers.setdefault(prefix[:h], []).append(n)

    def strip(self, model, every=False):
        """{number: strip of model} for each dirty prefix (every prefix
        if every is set), in number order."""
        if every or self.model is None:
            todo = range(len(self.sources))
        else:
            todo = sorted(self._dirty(model))
        sources = self.sources
        table = self.table
        out = {n: annotate.strip(model, sources[n], table) for n in todo}
        self.model = model
        self.stripped = len(sources)
        return out

    def _dirty(self, model):
        """Numbers of the prefixes new since the last strip or reading a
        copy with an id whose read value differs from the last model's.
        The walk stops once every prefix is dirty.  A lone prefix needs
        no diff: were it clean, the step would add nothing, a stall."""
        known = len(self.sources)
        dirty = set(range(self.stripped, known))
        if len(dirty) == known or known == 1:
            return set(range(known))
        old = self.model
        n = len(old)
        changed = chain(
            compress(range(n), map(ne, old, model)),
            compress(range(n, len(model)), islice(model, n, None)),
        )
        index = self.index
        readers = self.readers
        for annotation in set(map(self.table.owner.__getitem__, changed)):
            if annotation in index:
                dirty.add(index[annotation])
            else:
                dirty.update(readers.get(annotation, ()))  # none for fresh ids
            if len(dirty) == known:
                break
        return dirty

    def pairs(self, model, sources, strips):
        """(source, strip of model) for every source, reading strips, a
        result of strip(model), and stripping each prefix it skipped."""
        strips = dict(strips)
        for n, source in enumerate(self.sources):
            if n not in strips:
                strips[n] = annotate.strip(model, source, self.table)
        index = self.index
        cut = self.cut
        return [(s, strips[index[s.values[:cut]]]) for s in sources]


class ForallAbstraction:
    """Conjunction of instantiations, clause-shared, in a solver of its
    own since the last reset."""

    def __init__(self, q, kernel):
        self.q = q
        self.kernel = kernel
        self.drop_all_groups()

    @property
    def live_clauses(self):
        return len(self.origin)

    def add_group(self, alpha):
        """Instantiate under alpha and add the clauses not yet added."""
        self.strips.add(alpha)
        for idx, key in annotate.instantiate(self.q, alpha, self.table):
            if key not in self.origin:
                self.origin[key] = (idx, alpha)
                self.solver.add_clause(key)
                self.live_literals += len(key)

    def drop_all_groups(self):
        """Start over with a new solver and intern table."""
        self.solver = sat.Solver(kernel=self.kernel)
        self.table = annotate.InternTable("universal")
        self.strips = StripState(self.q, self.table)
        # clause lits -> (matrix index, alpha), in add_clause order
        self.origin = {}
        self.live_literals = 0

    def assumptions(self):
        # a forall solve assumes nothing; kept because expbench/tracing.py
        # wraps this method by name
        return ()

    def solve(self, deadline=None):
        return self.solver.solve(deadline=deadline)


class ExistsAbstraction:
    """Conjunction of negated instantiations via clause selectors."""

    def __init__(self, q, solver):
        self.q = q
        self.solver = solver
        self.table = annotate.InternTable("existential")
        self.strips = StripState(q, self.table)
        self.selector = {}  # clause lits -> selector implying the clause false

    def add_negation(self, sigma):
        """Assert that some clause of the instantiation under sigma is
        false: one selector per distinct clause, shared across sigmas."""
        self.strips.add(sigma)
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
        self.forall_abs = ForallAbstraction(q, config.kernel)
        self.exists_abs = ExistsAbstraction(q, sat.Solver(kernel=config.kernel))
        self.iteration = 0
        self.verdict = None
        self.stats = []
        self.core = None  # (clause lits, matrix index, alpha) triples on FALSE
        self.core_steps = None  # the forall proof trace positions they need
        self.resets = 0
        self.deadline = None


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
    for c in q.coded_matrix:
        for _, p, t, _ in c:
            if (av[p] or bv[p]) == t:
                break
        else:
            return False
    return True


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
    """Report violations of the mutual-coverage invariants by a full scan.

    s_side: every collected universal assignment is satisfied by some
    candidate (holds right after candidate extraction).  a_side: every
    candidate is falsified by some universal assignment (holds right
    after universal extraction or a reset).
    """
    sides = []
    if s_side:
        sides.append(("s-completes-a", state.alphas, state.sigmas, True))
    if a_side:
        sides.append(("a-completes-s", state.sigmas, state.alphas, False))
    checked = 0
    violations = []
    for direction, sources, others, want in sides:
        for source in sources:
            for other in others:
                checked += 1
                if _combined_eval(state.q, source, other) == want:
                    break
            else:
                violations.append((direction, source, None))
    return CompletionReport(checked, violations)


def _verify_pairs(state, pairs, target, s_side):
    """Check the (source, strip) pairs of one refinement step: each strip
    satisfies its alpha (s_side) or falsifies its sigma, and is in the
    target set, so it witnesses completion for its source."""
    for source, cand in pairs:
        if _combined_eval(state.q, source, cand) != s_side:
            raise InvariantViolation(
                "extracted candidate does not satisfy its source"
                if s_side
                else "extracted universal does not falsify its source"
            )
        if cand not in target:
            raise InvariantViolation(
                "completion violated (%s) at iteration %d"
                % ("s-completes-a" if s_side else "a-completes-s", state.iteration)
            )


def _stalled(state, side):
    raise InvariantViolation(
        "no new %s at iteration %d (%d resets so far)"
        % (side, state.iteration, state.resets)
    )


def _expired(state):
    return state.deadline is not None and time.monotonic() > state.deadline


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

    while True:
        at_limit = cfg.max_iterations and state.iteration >= cfg.max_iterations
        if at_limit or _expired(state):
            verdict = UNKNOWN
            break
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
        verdict = _iterate(state, rec)
        _finish_rec(rec, state)
        if verdict is not None:
            break
        if on_iteration is not None and on_iteration(state) is not None:
            raise ValueError("on_iteration must return None")
    state.verdict = verdict
    witness = list(state.sigmas) if verdict == TRUE else []
    return SolveResult(verdict, state.iteration, state.stats, witness, state)


def _iterate(state, rec):
    """One refinement round, recorded in rec: the verdict it reaches, or
    None when both sides grew."""
    cfg = state.config
    fa = state.forall_abs
    ea = state.exists_abs

    t0 = time.perf_counter()
    out_f = fa.solve(deadline=state.deadline)
    rec["forall_time"] = time.perf_counter() - t0
    rec["forall_status"] = out_f.status
    if out_f.status == sat.UNKNOWN:
        return UNKNOWN
    if out_f.status == sat.UNSAT:
        ordinals, state.core_steps = fa.solver.proof_core()
        added = list(fa.origin.items())
        state.core = [(key, idx, alpha) for key, (idx, alpha) in map(added.__getitem__, ordinals)]
        return FALSE

    t0 = time.perf_counter()
    strips = fa.strips.strip(out_f.model)
    rec["strip_time"] = time.perf_counter() - t0
    new_s = 0
    for cand in strips.values():
        if state.sigmas.add(cand):
            ea.add_negation(cand)
            new_s += 1
    rec["new_sigmas"] = new_s
    if cfg.verify_invariants:
        pairs = fa.strips.pairs(out_f.model, state.alphas, strips)
        _verify_pairs(state, pairs, state.sigmas, s_side=True)
    if new_s == 0:
        _stalled(state, "sigma")

    if _expired(state):
        return UNKNOWN
    t0 = time.perf_counter()
    out_e = ea.solve(deadline=state.deadline)
    rec["exists_time"] = time.perf_counter() - t0
    rec["exists_status"] = out_e.status
    if out_e.status == sat.UNKNOWN:
        return UNKNOWN
    if out_e.status == sat.UNSAT:
        return TRUE

    do_reset = cfg.reset_period and state.iteration % cfg.reset_period == 0
    do_reset = do_reset or fa.live_literals > RESET_MEMORY_THRESHOLD
    t0 = time.perf_counter()
    # a reset empties A, so every strip must go in again
    strips_a = ea.strips.strip(out_e.model, every=do_reset)
    rec["strip_time"] += time.perf_counter() - t0
    before = state.alphas
    if do_reset:
        state.alphas = AssignmentSet()
        fa.drop_all_groups()
        state.resets += 1
        rec["reset"] = True
    new_a = 0
    for cand in strips_a.values():
        novel = cand not in before
        if state.alphas.add(cand):
            fa.add_group(cand)
            new_a += novel
    rec["new_alphas"] = new_a
    if cfg.verify_invariants:
        pairs = ea.strips.pairs(out_e.model, state.sigmas, strips_a)
        _verify_pairs(state, pairs, state.alphas, s_side=False)
    if new_a == 0:
        _stalled(state, "alpha")
    return None


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
