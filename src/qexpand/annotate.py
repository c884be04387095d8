"""Instantiation with annotated variables.

Instantiating a matrix under an assignment evaluates the assigned
variables away and renames every surviving variable x to an annotated
copy: the annotation is the values the assignment gives to the
variables that precede x in prefix order.  Two occurrences of x under
equal annotations are the same propositional variable; an InternTable
maps (variable, annotation) pairs to solver ids, bijectively and stably
for the lifetime of one abstraction.

An annotation is the assignment's own bytes before x's block,
a.values[:head] with head the prefix position of the block's first
variable, so no second encoding is built.  Every assignment these
functions take covers exactly one side of the prefix (_check_domain),
and x is on the other side, so x's block is unassigned and the bytes
before it carry exactly the predecessors' values; the positions left
unassigned in them are the same for every assignment of that side.
The key stops at the block head rather than at x itself so that all
variables of a block share one slice per instantiation: a slice per
variable would hold a separate copy in every interned key.

This layer only instantiates, names and strips: an InternTable names
annotated variables and nothing else.  How an abstraction encodes its
clauses (activation or negation selectors) is the abstraction's own
business, kept in expand.
"""

from .formula import EXISTS, FORALL, Assignment


class WrongDomain(Exception):
    """Assignment does not cover exactly the table's variable kind."""


class InternTable:
    """Annotated-variable ids for one abstraction.

    kind names the variables the instantiating assignments cover:
    "universal" for the all-instantiations side, "existential" for the
    negated side.  forward is the only map: (var, annotation) -> id.
    fresh() draws an id no annotated variable has, from the same dense
    id space, for the abstraction's own selectors.
    """

    def __init__(self, kind):
        if kind not in ("universal", "existential"):
            raise ValueError("kind must be universal or existential")
        self.kind = kind
        self.forward = {}  # (var, bytes before var's block) -> id
        self._next = 1

    def intern(self, var, prefix):
        key = (var, prefix)
        i = self.forward.get(key)
        if i is None:
            i = self.forward[key] = self._next
            self._next += 1
        return i

    def fresh(self):
        i = self._next
        self._next += 1
        return i

    def __len__(self):
        return len(self.forward)


def _instantiate_core(q, a):
    """Clauses of the matrix instantiated under a.

    Yields (matrix index, lits) for every clause not satisfied by a;
    lits are (signed original var, annotation) pairs, the annotation
    being a.values cut at the head of the var's block, one slice per
    block.  Works for any partial assignment; domain policing happens
    in the public wrappers.
    """
    values = a.values
    pos = q.positions
    heads = q.block_heads
    cuts = {}  # block head -> values[:head]
    out = []
    for idx, c in enumerate(q.matrix):
        lits = []
        sat = False
        for l in c:
            p = pos[-l if l < 0 else l]
            code = values[p]
            if not code:
                h = heads[p]
                prefix = cuts.get(h)
                if prefix is None:
                    prefix = cuts[h] = values[:h]
                lits.append((l, prefix))
            elif code == (1 if l > 0 else 2):
                sat = True
                break
        if not sat:
            out.append((idx, tuple(lits)))
    return out


def _intern_lits(table, lits):
    """Signed intern ids of (signed var, annotation) pairs."""
    return tuple(
        table.intern(-l if l < 0 else l, prefix) * (1 if l > 0 else -1)
        for l, prefix in lits
    )


def _check_domain(q, a, table):
    want = q.universals if table.kind == "universal" else q.existentials
    if a.count() != len(want) or not a.is_full_over(want):
        raise WrongDomain(
            "assignment must cover exactly the %s variables" % table.kind
        )


def instantiate(q, a, table):
    """Instantiate the matrix under a full assignment of the table's kind.

    Returns (matrix index, interned lits) for every clause a does not
    satisfy, in matrix order; a clause a falsifies comes out with no
    lits.  Lits are signed intern ids, so equal annotated clauses from
    different assignments come out equal and callers can share rather
    than re-add them.
    """
    _check_domain(q, a, table)
    return [(idx, _intern_lits(table, lits)) for idx, lits in _instantiate_core(q, a)]


def negate_instantiate(q, s, table):
    """The clauses whose negation the counter abstraction adds for s.

    None when s falsifies a clause: the instantiation is false, its
    negation says nothing, and nothing is interned.  Otherwise the
    distinct interned clauses of the instantiation in first-occurrence
    order, () when s satisfies every clause, so that the negation is
    unsatisfiable.
    """
    _check_domain(q, s, table)
    core = _instantiate_core(q, s)
    if any(not lits for _, lits in core):
        return None
    return tuple(dict.fromkeys(_intern_lits(table, lits) for _, lits in core))


def strip_cut(q, table):
    """Prefix position below which strip reads its source: the head of
    the last block of the kind table's models assign, 0 without one."""
    want = EXISTS if table.kind == "universal" else FORALL
    cut = head = 0
    for b in q.blocks:
        if b.quantifier == want:
            cut = head
        head += len(b.variables)
    return cut


def strip(model, source, table):
    """Read a model of an abstraction back as an assignment.

    source is the instantiating assignment whose annotations shaped the
    abstraction's variables; the result assigns every variable of the
    opposite kind, defaulting to False where the model never saw the
    annotated copy.  Only source.values[:strip_cut(q, table)] is read,
    so sources that agree there strip to equal assignments.
    """
    q = source.qbf
    want = EXISTS if table.kind == "universal" else FORALL
    forward = table.forward
    n = len(model)
    values = bytearray(q.num_vars)
    head = 0
    for b in q.blocks:
        if b.quantifier == want:
            prefix = source.values[:head]
            for p, v in enumerate(b.variables, head):
                aid = forward.get((v, prefix))
                values[p] = 1 if aid is not None and aid < n and model[aid] else 2
        head += len(b.variables)
    return Assignment(q, values)
