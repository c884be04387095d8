"""Prenex CNF formulas and partial assignments over their prefix.

Literals are nonzero ints in the QDIMACS convention: v is the positive
literal of variable v, -v the negative one.  Clauses are sorted,
duplicate-free tuples of literals; the empty tuple is the empty clause.
Tautological clauses are dropped when a formula is built.

Variable ids may be sparse.  A Qbf maps each id to its 0-based position
in prefix order once, when it is built, and everything sized by the
variables is sized by that count, never by the largest id.  Blocks,
matrix, literals and certificates keep the input's own ids.

An Assignment holds one byte per prefix position: 0 for unassigned, 1
for true, 2 for false.  The solving loop builds assignments and looks
them up in sets far more often than it does anything else with them,
so the bytes value is the whole assignment and also its hashable dedup
key: one allocation per assignment, and no second form to keep in step.
"""

from dataclasses import dataclass

FORALL = "a"
EXISTS = "e"

_CODES = b"\0\1\2"  # unassigned, true, false


@dataclass(frozen=True)
class Block:
    quantifier: str
    variables: tuple


def canonical_clause(lits):
    """Sort literals by variable id (negative first) and drop duplicates."""
    return tuple(sorted(set(lits), key=lambda l: (abs(l), l > 0)))


def is_tautology(clause):
    s = set(clause)
    return any(-l in s for l in s)


class Qbf:
    """A prenex CNF formula.

    blocks: iterable of (quantifier, variable-id list) pairs, outermost
    first; adjacent blocks with the same quantifier are legal.  clauses:
    iterable of literal lists.  Clause order is preserved (certificates
    index into it); tautologies are dropped and counted in
    dropped_tautologies.  positions maps every variable id to its
    prefix position, the index of its byte in an Assignment.
    block_heads maps every prefix position to the position of the first
    variable of its block, where annotations cut an assignment's bytes.
    coded_matrix is the matrix with each literal l as (l, p, t, o): p
    its variable's prefix position, t the value code that satisfies it
    (1 for l > 0, 2 otherwise) and o = p - block_heads[p], the
    variable's offset in its block; the loops that read assignments
    against the matrix take these from it rather than map every literal
    again.
    """

    def __init__(self, blocks, clauses):
        blk = []
        positions = {}
        kinds = []
        heads = []
        for bi, (quant, vids) in enumerate(blocks):
            if quant not in (FORALL, EXISTS):
                raise ValueError("bad quantifier %r" % (quant,))
            if not vids:
                raise ValueError("empty quantifier block %d" % bi)
            vids = tuple(vids)
            head = len(kinds)
            for v in vids:
                if not isinstance(v, int) or v <= 0:
                    raise ValueError("bad variable id %r" % (v,))
                if v in positions:
                    raise ValueError("variable %d quantified twice" % v)
                positions[v] = len(kinds)
                kinds.append(quant)
                heads.append(head)
            blk.append(Block(quant, vids))
        matrix = []
        dropped = 0
        for c in clauses:
            cc = canonical_clause(c)
            for l in cc:
                if abs(l) not in positions:
                    raise ValueError("clause uses unquantified variable %d" % abs(l))
            if is_tautology(cc):
                dropped += 1
                continue
            matrix.append(cc)
        order = tuple(positions)
        self.blocks = tuple(blk)
        self.matrix = tuple(matrix)
        self.positions = positions
        self.block_heads = tuple(heads)
        codes = {}  # literal -> its coded form, shared by its occurrences
        coded = []
        for c in matrix:
            lits = []
            for l in c:
                code = codes.get(l)
                if code is None:
                    p = positions[-l if l < 0 else l]
                    code = codes[l] = (l, p, 1 if l > 0 else 2, p - heads[p])
                lits.append(code)
            coded.append(tuple(lits))
        self.coded_matrix = tuple(coded)
        self.prefix_order = order
        self.dropped_tautologies = dropped
        self._kinds = "".join(kinds)  # quantifier of each prefix position
        self.universals = tuple(v for v, k in zip(order, kinds) if k == FORALL)
        self.existentials = tuple(v for v, k in zip(order, kinds) if k == EXISTS)
        self.max_id = max(order) if order else 0

    @property
    def num_vars(self):
        return len(self.prefix_order)

    @property
    def num_clauses(self):
        return len(self.matrix)

    def is_universal(self, vid):
        return self._kinds[self.positions[vid]] == FORALL

    def position(self, vid):
        return self.positions[vid]

    def __eq__(self, other):
        if not isinstance(other, Qbf):
            return NotImplemented
        return self.blocks == other.blocks and sorted(self.matrix) == sorted(other.matrix)

    __hash__ = None

    def __repr__(self):
        shape = " ".join("%s%d" % (b.quantifier, len(b.variables)) for b in self.blocks)
        return "<Qbf [%s] %d clauses>" % (shape, len(self.matrix))


class Assignment:
    """Partial assignment over a formula's variables.

    values is a bytes value with one code per prefix position of qbf:
    0 unassigned, 1 true, 2 false.  It is immutable and doubles as
    key(), so instances can be shared freely and deduplicated without a
    copy.
    """

    __slots__ = ("qbf", "values")

    def __init__(self, qbf, values):
        if not isinstance(values, (bytes, bytearray)):
            raise TypeError("values must be bytes, one code per prefix position")
        if len(values) != qbf.num_vars:
            raise ValueError("expected %d values" % qbf.num_vars)
        if values.translate(None, _CODES):
            raise ValueError("value codes must be 0, 1 or 2")
        self.qbf = qbf
        self.values = bytes(values)

    @classmethod
    def from_pairs(cls, qbf, pairs):
        if isinstance(pairs, dict):
            pairs = pairs.items()
        vals = bytearray(qbf.num_vars)
        positions = qbf.positions
        for vid, val in pairs:
            vals[positions[vid]] = 1 if val else 2
        return cls(qbf, vals)

    def value(self, vid):
        """True, False, or None when vid is unassigned."""
        code = self.values[self.qbf.positions[vid]]
        return None if code == 0 else code == 1

    def count(self):
        return len(self.values) - self.values.count(0)

    def is_full_over(self, var_ids):
        values = self.values
        positions = self.qbf.positions
        return all(values[positions[v]] for v in var_ids)

    def key(self):
        """The values themselves, usable as a dict key for dedup."""
        return self.values

    def literals(self):
        """Assigned variables as signed literals in prefix order."""
        return tuple(
            v if code == 1 else -v
            for v, code in zip(self.qbf.prefix_order, self.values)
            if code
        )

    def as_dict(self):
        return {abs(l): l > 0 for l in self.literals()}

    def __eq__(self, other):
        if not isinstance(other, Assignment):
            return NotImplemented
        return self.qbf is other.qbf and self.values == other.values

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        parts = ["%d=%s" % (abs(l), "T" if l > 0 else "F") for l in self.literals()]
        return "{%s}" % " ".join(parts)
