"""Incremental CDCL SAT kernel, pure Python edition.

Two-watched-literal propagation, first-UIP learning, VSIDS branching,
geometric restarts and fixed default phase False.  A solve takes no
assumptions: it propagates, learns, restarts and branches on from the
trail the last SAT answer kept.  qexpand._cdcl, built from _cdcl.c, is
the compiled twin; the two must produce identical models, counters,
proof traces and cores.  Both keep one order contract: each pick is the
maximum of (activity, -index) over the unassigned variables.  That is
a strict total order, so any exact priority queue picks alike.

Variables are 1-based ints.  Internally a literal is encoded as
2*v (positive) or 2*v+1 (negative); clause references are indices
into the clause list.  Every kernel records its proof trace: each
learned clause in order, and () once UNSAT at level 0.  Learned clauses
are never deleted: instances here live for one expansion run, and
keeping every one keeps the trace checkable by plain unit propagation.
get_trace shares one int per distinct literal.

Every clause has a record, units and the empty clause included (stored,
never watched), so every level-0 literal has a reason clause.  _tag[ci]
is the clause's add_clause ordinal, the number of add_clause calls
before it that raised no error, or ~p for the learned clause at trace
position p.  _deps[ci] holds what it rests on, clause indices as they
are and level-0 variables v as -v: for an added clause the variables
whose level-0 value dropped one of its literals, for a learned clause
the clauses its analysis resolved and the level-0 variables it dropped.
_final is the clause of the conflict at level 0, or the added clause
that level 0 left empty.  get_core walks back from it once, marking
each clause and variable the first time it is reached: a clause brings
its deps, a level-0 variable its reason clause and that clause's other
variables.  The ordinals and trace positions reached are the core.  The
added clauses reached are unsatisfiable alone, and each learned clause
reached follows by unit propagation from them and the learned clauses
reached before it: its analysis resolved only clauses reached, and the
level-0 literals it dropped follow from their reasons, also reached.
That is the argument of LRAT hints (Cruz-Filipe, Heule, Hunt, Kaufmann
and Schneider-Kamp, CADE 2017), read back from the final conflict.

The order queue is a heapq list of (-activity, v) entries; _queued[v]
is set while v is in the queue.  A bump pushes a fresh entry for a
queued variable and leaves the old one stale.  Activities only grow
between rebuilds, so a stale entry never sorts before its variable's
fresh one: it pops once the variable has left the queue, and a pick
skips it.  The list is rebuilt with heapify at an activity rescale, which shrinks
every key, and once it passes 2*nvars + 64 entries.

A SAT answer keeps its trail, and the next solve goes on from it.
Every other exit of solve, a raised exception included, leaves level
0.  add_clause simplifies against level-0 values only: a literal true
by a kept decision must not drop the clause as satisfied.
Above level 0 it moves the first two literals that the trail leaves
non-false to the watch positions.  A watched pair that is non-false
when added keeps the watch invariant on every trail below.  A clause
with one such literal c[0] and two or more literals is lazy, in the
spirit of chronological backtracking (Nadel and Ryvchin, SAT 2018): it
is watched on c[0] and on c[1], its false literal of the highest level
f, and c[0] is implied at the current level with the clause as reason.
A c[0] already true at a level of at most f makes an ordinary watched
clause; one true above f is lazy too.  Any other clause (a unit, or
one false under the trail) cancels to level 0 and is added as at level
0.  The lazy invariant: while a clause is in _lazy, c[0] is true and
every other literal keeps the value it had when the clause was added.
Every backtrack re-checks _lazy before anything else is assigned, all
clauses first and then the implications: a clause whose c[1] was
undone is ordinary again, both watches non-false; every other one
implies c[0] again at the new level.  Those literals wait on the trail
for propagation like any other.  Implied above the level its reason
needs, a literal still comes after its reason's other literals on the
trail, which is all conflict analysis needs.  But the learned clause of
such a literal can assert its negation at a backjump level where the
lazy clause implies it again: that clause is then false, a conflict
at the backjump level, analysed at once.  add_clause drops the literals
false at level 0, so f >= 1 and a cancel to level 0 empties _lazy.

add_clause raises ValueError on a zero or non-int literal before it
changes any state, also once the solver is UNSAT.  A solve has no
conflict budget; it ends UNKNOWN only when found past its deadline, a
time.monotonic() value checked every 64 conflicts.
"""

import time
from heapq import heapify, heappop, heappush

SAT = 1
UNSAT = -1
UNKNOWN = 0

_RESCALE_LIMIT = 1e100
_RESCALE = 1e-100
_ACT_BUMP_DECAY = 1.0 / 0.95
_BAD_LITERAL = "literals must be nonzero ints"


def _intern(l):
    return (l << 1) if l > 0 else ((-l) << 1 | 1)


def _extern(p):
    return -(p >> 1) if p & 1 else (p >> 1)


class Kernel:
    def __init__(self):
        self.nvars = 0
        self.ok = True
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0
        self.num_clauses = 0
        self.model = []
        self.last_status = UNKNOWN
        self._assigns = [0]  # 0 undef, 1 true, 2 false; index 0 unused
        self._level = [0]
        self._reason = [-1]
        self._act = [0.0]
        self._seen = bytearray(1)
        self._queued = bytearray(1)
        self._queue = []  # heapq of (-activity, v), stale entries included
        self._watches = [[], []]
        self._clauses = []
        self._trail = []
        self._trail_lim = []
        self._qhead = 0
        self._var_inc = 1.0
        self._trace = []  # learned clauses as internal literal lists
        self._tag = []  # per clause: add_clause ordinal, or ~trace position
        self._deps = []  # per clause: clause indices and -var of level-0 vars
        self._lazy = []  # indices of lazy clauses; see the module doc
        self._added = 0  # add_clause calls so far, the next ordinal
        self._final = -1  # the clause of the conflict at level 0

    # -- variables ----------------------------------------------------

    def ensure_vars(self, n):
        # a new entry sorts after every queued one: append keeps the heap
        while self.nvars < n:
            self.nvars += 1
            self._assigns.append(0)
            self._level.append(0)
            self._reason.append(-1)
            self._act.append(0.0)
            self._seen.append(0)
            self._queued.append(1)
            self._watches.append([])
            self._watches.append([])
            self._queue.append((-0.0, self.nvars))

    def _value(self, p):
        va = self._assigns[p >> 1]
        if va == 0:
            return 0
        return 3 - va if p & 1 else va

    # -- order queue (max-activity, ties to the smaller index) --------

    def _bound_queue(self):
        if len(self._queue) > 2 * self.nvars + 64:
            self._rebuild_queue()

    def _rebuild_queue(self):
        act = self._act
        queued = self._queued
        self._queue = [(-act[v], v) for v in range(1, self.nvars + 1) if queued[v]]
        heapify(self._queue)

    def _bump(self, v):
        act = self._act
        act[v] += self._var_inc
        if act[v] > _RESCALE_LIMIT:
            for i in range(1, self.nvars + 1):
                act[i] *= _RESCALE
            self._var_inc *= _RESCALE
            self._rebuild_queue()
        elif self._queued[v]:
            heappush(self._queue, (-act[v], v))
            self._bound_queue()

    # -- clauses ------------------------------------------------------

    def add_clause(self, lits):
        if not isinstance(lits, (list, tuple)):
            lits = list(lits)
        mx = 0
        for l in lits:
            if not isinstance(l, int) or l == 0:
                raise ValueError(_BAD_LITERAL)
            a = l if l > 0 else -l
            if a > mx:
                mx = a
        ordinal = self._added
        self._added += 1
        if not self.ok:
            return
        if mx > self.nvars:
            self.ensure_vars(mx)
        out = []
        have = set()
        zeros = []  # level-0 variables that drop a false literal
        level = self._level
        for l in lits:
            p = _intern(l)
            v = self._value(p)
            if v and level[p >> 1] == 0:
                if v == 1:
                    return  # satisfied at top level
                zeros.append(-(p >> 1))
                continue
            if p ^ 1 in have:
                return  # tautology
            if p not in have:
                have.add(p)
                out.append(p)
        self.num_clauses += 1
        ci = len(self._clauses)
        self._clauses.append(out)
        self._tag.append(ordinal)
        self._deps.append(tuple(zeros))  # most are the shared ()
        if self._trail_lim:
            # watch two literals the kept trail leaves non-false, if any
            j = 0
            for i, p in enumerate(out):
                if self._value(p) != 2:
                    out[j], out[i] = p, out[j]
                    j += 1
                    if j == 2:
                        break
            if j == 1 and len(out) > 1:
                self._add_lazy(ci)
                return
            if j < 2:
                self._cancel_until(0)
        if not out:
            self.ok = False
            self._final = ci
            self._trace.append([])
        elif len(out) == 1:
            self._enqueue(out[0], ci)
        else:
            self._watches[out[0]].append(ci)
            self._watches[out[1]].append(ci)

    def _add_lazy(self, ci):
        # c[0] is the one literal the trail leaves non-false; watch it with
        # the false literal of the highest level and imply it here
        c = self._clauses[ci]
        level = self._level
        hi = 1
        for i in range(2, len(c)):
            if level[c[i] >> 1] > level[c[hi] >> 1]:
                hi = i
        c[1], c[hi] = c[hi], c[1]
        self._watches[c[0]].append(ci)
        self._watches[c[1]].append(ci)
        v = c[0] >> 1
        if not self._assigns[v]:
            self._lazy.append(ci)
            self._enqueue(c[0], ci)
        elif level[v] > level[c[1] >> 1]:
            self._lazy.append(ci)  # true, but above the false watch

    # -- trail --------------------------------------------------------

    def _enqueue(self, p, reason):
        v = p >> 1
        self._assigns[v] = 2 if p & 1 else 1
        self._level[v] = len(self._trail_lim)
        self._reason[v] = reason
        self._trail.append(p)

    def _cancel_until(self, lvl):
        if len(self._trail_lim) <= lvl:
            return
        trail = self._trail
        limit = self._trail_lim[lvl]
        assigns = self._assigns
        queued = self._queued
        act = self._act
        queue = self._queue
        for p in trail[limit:]:
            v = p >> 1
            assigns[v] = 0
            if not queued[v]:
                queued[v] = 1
                heappush(queue, (-act[v], v))
        del trail[limit:]
        del self._trail_lim[lvl:]
        self._qhead = limit
        if self._lazy:
            self._recheck_lazy()
        self._bound_queue()

    def _recheck_lazy(self):
        # right after a backtrack, before anything else is assigned: a lazy
        # clause whose false watch was undone is an ordinary one again, any
        # other implies its literal again at the new level.  All are sorted
        # first: a literal implied again could set an undone watch false.
        assigns = self._assigns
        clauses = self._clauses
        self._lazy = keep = [ci for ci in self._lazy if assigns[clauses[ci][1] >> 1]]
        for ci in keep:
            p = clauses[ci][0]
            if not assigns[p >> 1]:
                self._enqueue(p, ci)

    def _propagate(self):
        trail = self._trail
        clauses = self._clauses
        watches = self._watches
        assigns = self._assigns
        level = self._level
        reason = self._reason
        lvl = len(self._trail_lim)
        while self._qhead < len(trail):
            pt = trail[self._qhead]
            self._qhead += 1
            self.propagations += 1
            fp = pt ^ 1  # literal that just became false
            ws = watches[fp]
            i = j = 0
            n = len(ws)
            while i < n:
                ci = ws[i]
                i += 1
                c = clauses[ci]
                if c[0] == fp:
                    c[0] = c[1]
                    c[1] = fp
                first = c[0]
                va = assigns[first >> 1]
                fv = 0 if va == 0 else (3 - va if first & 1 else va)
                if fv == 1:
                    ws[j] = ci
                    j += 1
                    continue
                found = False
                for k in range(2, len(c)):
                    q = c[k]
                    va = assigns[q >> 1]
                    if va == 0 or (3 - va if q & 1 else va) != 2:
                        c[1] = q
                        c[k] = fp
                        watches[q].append(ci)
                        found = True
                        break
                if found:
                    continue
                ws[j] = ci
                j += 1
                if fv == 2:
                    while i < n:
                        ws[j] = ws[i]
                        j += 1
                        i += 1
                    del ws[j:]
                    self._qhead = len(trail)
                    return ci
                v = first >> 1
                assigns[v] = 2 if first & 1 else 1
                level[v] = lvl
                reason[v] = ci
                trail.append(first)
            del ws[j:]
        return -1

    # -- learning -----------------------------------------------------

    def _analyze(self, confl):
        learnt = [0]
        deps = []  # the clauses resolved, then -v for each level-0 v dropped
        trail = self._trail
        level = self._level
        seen = self._seen
        to_clear = []
        cur = len(self._trail_lim)
        pathc = 0
        p = -1
        idx = len(trail) - 1
        while True:
            deps.append(confl)
            c = self._clauses[confl]
            for k in range(0 if p == -1 else 1, len(c)):
                q = c[k]
                v = q >> 1
                if not seen[v]:
                    seen[v] = 1
                    to_clear.append(v)
                    if level[v] == 0:
                        deps.append(-v)
                        continue
                    self._bump(v)
                    if level[v] >= cur:
                        pathc += 1
                    else:
                        learnt.append(q)
            while not seen[trail[idx] >> 1]:
                idx -= 1
            p = trail[idx]
            v = p >> 1
            seen[v] = 0
            pathc -= 1
            idx -= 1
            if pathc <= 0:
                break
            confl = self._reason[v]
        learnt[0] = p ^ 1
        if len(learnt) == 1:
            bt = 0
        else:
            mi = 1
            for i in range(2, len(learnt)):
                if level[learnt[i] >> 1] > level[learnt[mi] >> 1]:
                    mi = i
            learnt[1], learnt[mi] = learnt[mi], learnt[1]
            bt = level[learnt[1] >> 1]
        for v in to_clear:
            seen[v] = 0
        return learnt, bt, deps

    def _handle_conflict(self, confl):
        """Learn from confl and backjump; return the learned clause when a
        lazy clause implied its asserting literal false again, else -1."""
        learnt, bt, deps = self._analyze(confl)
        self._cancel_until(bt)
        ci = len(self._clauses)
        self._clauses.append(learnt)
        self._tag.append(~len(self._trace))
        self._deps.append(deps)
        self._trace.append(learnt[:])  # propagation reorders the stored clause
        self._var_inc *= _ACT_BUMP_DECAY
        if len(learnt) > 1:
            self._watches[learnt[0]].append(ci)
            self._watches[learnt[1]].append(ci)
        if self._value(learnt[0]) == 2:
            return ci
        self._enqueue(learnt[0], ci)
        return -1

    # -- branching ----------------------------------------------------

    def _pick_branch(self):
        queue = self._queue
        queued = self._queued
        while queue:
            v = heappop(queue)[1]
            if not queued[v]:
                continue  # stale: v left the queue after a bump
            queued[v] = 0
            if self._assigns[v] == 0:
                return v
        return 0

    # -- main ---------------------------------------------------------

    def solve(self, deadline=-1.0):
        self.model = []
        if not self.ok:
            self.last_status = UNSAT
            return UNSAT
        try:
            return self._search(deadline)
        except BaseException:
            self._cancel_until(0)  # the next solve starts at level 0
            self.last_status = UNKNOWN
            raise

    def _search(self, deadline):
        assigns = self._assigns
        level = self._level
        reason = self._reason
        trail = self._trail
        trail_lim = self._trail_lim
        restart_limit = 100
        since_restart = 0
        conflicts_here = 0
        confl = -1
        while True:
            if confl < 0:
                confl = self._propagate()
            if confl >= 0:
                self.conflicts += 1
                conflicts_here += 1
                since_restart += 1
                if not trail_lim:
                    self.ok = False
                    self._final = confl
                    self._trace.append([])
                    self.last_status = UNSAT
                    return UNSAT
                confl = self._handle_conflict(confl)
                if (
                    deadline > 0.0
                    and conflicts_here & 63 == 0
                    and time.monotonic() > deadline
                ):
                    self._cancel_until(0)
                    self.last_status = UNKNOWN
                    return UNKNOWN
                continue
            if since_restart >= restart_limit:
                restart_limit = restart_limit * 3 // 2
                since_restart = 0
                self.restarts += 1
                self._cancel_until(0)
                continue
            v = self._pick_branch()
            if v == 0:
                self.model = [None] + [
                    assigns[i] == 1 for i in range(1, self.nvars + 1)
                ]
                self.last_status = SAT
                return SAT
            self.decisions += 1
            trail_lim.append(len(trail))
            assigns[v] = 2  # default phase: False
            level[v] = len(trail_lim)
            reason[v] = -1
            trail.append((v << 1) | 1)

    def get_core(self):
        """(ordinals, positions) once the solver is UNSAT at level 0: the
        add_clause ordinals and trace positions the final conflict rests
        on, each ascending; see the module doc."""
        clauses = self._clauses
        deps = self._deps
        reason = self._reason
        tag = self._tag
        marked = set()  # clause indices, and -v for level-0 variables
        stack = [self._final] + [-(p >> 1) for p in clauses[self._final]]
        ordinals = []
        positions = []
        while stack:
            x = stack.pop()
            if x in marked:
                continue
            marked.add(x)
            if x >= 0:
                t = tag[x]
                if t >= 0:
                    ordinals.append(t)
                else:
                    positions.append(~t)
                stack += deps[x]
            else:
                r = reason[-x]
                if r < 0:
                    raise RuntimeError("level-0 literal without a reason")
                stack.append(r)
                stack += [-(q >> 1) for q in clauses[r]]
        ordinals.sort()
        positions.sort()
        return ordinals, positions

    def get_trace(self):
        ext = {q: _extern(q) for q in set().union(*self._trace)}.__getitem__
        # through a list: a tuple grown from map alone raised the peak RSS
        # of a certify run on qparity n=48 by about 0.15 MB
        return [tuple(list(map(ext, c))) for c in self._trace]
