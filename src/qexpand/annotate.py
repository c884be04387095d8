"""Instantiation with annotated variables.

Instantiating a matrix under an assignment evaluates the assigned
variables away and renames every surviving variable x to an annotated
copy: the annotation is the values the assignment gives to the
variables that precede x in prefix order.  Two occurrences of x under
equal annotations are the same propositional variable; an InternTable
maps annotated variables to solver ids, bijectively and stably for the
lifetime of one abstraction.

An annotation is the assignment's own bytes before x's block,
a.values[:head] with head the prefix position of the block's first
variable, so no second encoding is built.  Every assignment these
functions take covers exactly one side of the prefix (_check_domain),
and x is on the other side, so x's block is unassigned and the bytes
before it carry exactly the predecessors' values; the positions left
unassigned in them are the same for every assignment of that side.
The key stops at the block head rather than at x itself, so all
variables of a block share one annotation: together they form a block
copy, which the table keeps as one entry.  instantiate and
negate_instantiate look each block copy up once per call, and strip
reads a whole copy with one lookup.

This layer only instantiates, names and strips: an InternTable names
annotated variables and nothing else.  How an abstraction encodes its
clauses (the counter side's negation selectors) is the abstraction's own
business, kept in expand.
"""

from .formula import EXISTS, FORALL, Assignment


class WrongDomain(Exception):
    """Assignment does not cover exactly the table's variable kind."""


class InternTable:
    """Annotated-variable ids for one abstraction.

    kind names the variables the instantiating assignments cover:
    "universal" for the all-instantiations side, "existential" for the
    negated side.  copies is the only map: a block copy's annotation ->
    the ids of that block's variables in prefix order, 0 until named.
    The annotation alone is the key, since its length is the block's
    head.  A variable is named at its first use, clause by clause and
    literal by literal, so ids come in the order a per-variable table
    would hand them out.  That order is what the solver's search reads
    (its order queue breaks activity ties by the smaller id), so naming
    whole copies at once, or in another order, would change the search.
    fresh() draws an id no annotated variable has, from the same dense
    id space, for the abstraction's own selectors.

    owner maps ids back: owner[i] is the annotation of the block copy
    that holds id i, None for a fresh() id and for the unused id 0, so
    len(owner) is the next id.  A model's changed ids name, through it,
    the copies whose strip reads changed.
    """

    def __init__(self, kind):
        if kind not in ("universal", "existential"):
            raise ValueError("kind must be universal or existential")
        self.kind = kind
        self.copies = {}  # bytes before a block -> its variables' ids, 0 unnamed
        self.owner = [None]  # id -> annotation of its copy, None if fresh
        self._next = 1
        self._fresh = 0

    def fresh(self):
        i = self._next
        self._next += 1
        self._fresh += 1
        self.owner.append(None)
        return i

    def __len__(self):
        return self._next - 1 - self._fresh


def _instantiate_core(q, a):
    """Clauses of the matrix instantiated under a.

    Yields (matrix index, lits) for every clause not satisfied by a;
    lits are (signed original var, annotation, offset) triples, the
    annotation being a.values cut at the head of the var's block, one
    slice per block, and the offset the var's place in its block.
    Works for any partial assignment; domain policing happens in the
    public wrappers.
    """
    values = a.values
    heads = q.block_heads
    cuts = {}  # block head -> values[:head]
    out = []
    for idx, c in enumerate(q.coded_matrix):
        lits = []
        for l, p, t, o in c:
            code = values[p]
            if not code:
                h = heads[p]
                prefix = cuts.get(h)
                if prefix is None:
                    prefix = cuts[h] = values[:h]
                lits.append((l, prefix, o))
            elif code == t:
                break
        else:
            out.append((idx, tuple(lits)))
    return out


def _name(q, table, core):
    """(matrix index, signed ids) for each clause of core, naming each
    annotated variable at its first use: one copies lookup per block
    copy in this call, then one list index per literal."""
    copies = table.copies
    owner = table.owner
    rows = {}  # annotation -> its copy's ids, for this call
    nxt = table._next
    out = []
    for idx, lits in core:
        ids = []
        for l, prefix, o in lits:
            row = rows.get(prefix)
            if row is None:
                row = copies.get(prefix)
                if row is None:
                    row = copies[prefix] = [0] * q.block_heads.count(len(prefix))
                rows[prefix] = row
            i = row[o]
            if not i:
                i = row[o] = nxt
                nxt += 1
                owner.append(prefix)
            ids.append(i if l > 0 else -i)
        out.append((idx, tuple(ids)))
    table._next = nxt
    return out


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
    return _name(q, table, _instantiate_core(q, a))


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
    return tuple(dict.fromkeys(ids for _, ids in _name(q, table, core)))


def strip_heads(q, table):
    """Heads of the blocks whose copies strip reads, in prefix order:
    the blocks of the kind table's models assign."""
    want = EXISTS if table.kind == "universal" else FORALL
    heads = []
    head = 0
    for b in q.blocks:
        if b.quantifier == want:
            heads.append(head)
        head += len(b.variables)
    return heads


def strip_cut(q, table):
    """Prefix position below which strip reads its source: the head of
    the last block of the kind table's models assign, 0 without one."""
    heads = strip_heads(q, table)
    return heads[-1] if heads else 0


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
    copies = table.copies
    n = len(model)  # ids named since the model was taken are past it
    values = bytearray(q.num_vars)
    head = 0
    for b in q.blocks:
        k = len(b.variables)
        if b.quantifier == want:
            row = copies.get(source.values[:head])
            if row is None:
                values[head : head + k] = b"\2" * k
            else:
                for p, i in enumerate(row, head):
                    values[p] = 1 if 0 < i < n and model[i] else 2
        head += k
    return Assignment(q, values)
