"""Reference RUP checkers that the hinted checker is tested against.

proof.rup_check checks a trace step against the clauses its hints name.
These check a step against every clause before it, by reverse unit
propagation with no hints: replay_rup_check over a ClauseDatabase with
two watched literals per clause (the approach of DRAT-trim: Heule, Hunt
and Wetzler, FMCAD 2013), and reference_rup_check by rescanning every
clause until nothing changes.  A step the hints derive must pass both.
"""


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


def replay_rup_check(db, derived):
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


def reference_rup_check(clauses, derived):
    """True when negating derived and rescanning every clause until
    nothing changes conflicts.  It counts a repeated literal twice, so
    a clause such as (x, x) never becomes unit here."""
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


def reference_hints(clauses, derived):
    """Hints for derived found by the fixpoint scan: the 1-based ids of
    the clauses that became unit, in the order they did, then the first
    one found false.  Without a conflict the list ends with no false
    clause, so a hinted checker must reject it."""
    assign = {}
    for l in derived:
        assign[-l if l < 0 else l] = l < 0
    hints = []
    changed = True
    while changed:
        changed = False
        for i, c in enumerate(clauses, start=1):
            free = {l for l in c if assign.get(-l if l < 0 else l) is None}
            if any(assign.get(-l if l < 0 else l) == (l > 0) for l in c) or len(free) > 1:
                continue
            hints.append(i)
            if not free:
                return hints
            (unit,) = free
            assign[-unit if unit < 0 else unit] = unit > 0
            changed = True
    return hints
