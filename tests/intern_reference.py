"""Per-variable interning, the reference that block copies are tested against.

annotate.InternTable names block copies: one entry per (block,
annotation), holding the ids of the block's variables.  ReferenceTable
is the table it replaced, one entry per (variable, annotation), and the
reference_* functions are instantiate, negate_instantiate and strip run
through it.  Both must hand out the same ids in the same order, since
the solver's search reads them.  names() reads a block-copy table back
as the per-variable map.
"""

from qexpand.annotate import _check_domain, _instantiate_core
from qexpand.formula import EXISTS, FORALL, Assignment


class ReferenceTable:
    """forward: (var, bytes before var's block) -> id."""

    def __init__(self, kind):
        self.kind = kind
        self.forward = {}
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


def _intern_lits(table, lits):
    """Signed intern ids of (signed var, annotation, offset) triples."""
    return tuple(
        table.intern(-l if l < 0 else l, prefix) * (1 if l > 0 else -1)
        for l, prefix, _ in lits
    )


def reference_instantiate(q, a, table):
    _check_domain(q, a, table)
    return [(idx, _intern_lits(table, lits)) for idx, lits in _instantiate_core(q, a)]


def reference_negate_instantiate(q, s, table):
    _check_domain(q, s, table)
    core = _instantiate_core(q, s)
    if any(not lits for _, lits in core):
        return None
    return tuple(dict.fromkeys(_intern_lits(table, lits) for _, lits in core))


def reference_strip(model, source, table):
    q = source.qbf
    want = EXISTS if table.kind == "universal" else FORALL
    n = len(model)
    values = bytearray(q.num_vars)
    head = 0
    for b in q.blocks:
        if b.quantifier == want:
            prefix = source.values[:head]
            for p, v in enumerate(b.variables, head):
                aid = table.forward.get((v, prefix))
                values[p] = 1 if aid is not None and aid < n and model[aid] else 2
        head += len(b.variables)
    return Assignment(q, values)


def names(q, table):
    """(var, annotation) -> id for every annotated variable an
    annotate.InternTable has named."""
    out = {}
    for prefix, ids in table.copies.items():
        block = q.prefix_order[len(prefix) : len(prefix) + len(ids)]
        out.update(((v, prefix), i) for v, i in zip(block, ids) if i)
    return out
