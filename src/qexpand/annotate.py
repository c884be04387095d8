"""Instantiation with annotated variables.

Instantiating a matrix under an assignment evaluates the assigned
variables away and renames every surviving variable x to an annotated
copy: the annotation is the sequence of values the assignment gives to
its variables that precede x in prefix order (unassigned predecessors
contribute nothing, so variables in the first block stay bare when the
assignment starts later in the prefix).  Two occurrences of x under
equal annotations are the same propositional variable; an InternTable
maps (variable, annotation) pairs to dense solver ids, bijectively and
stably for the lifetime of one abstraction.

Annotations are packed little-endian into an int: bit i is the value
of the i-th assigned predecessor.  Their string form spells the bits
first-predecessor first ("10" for value-true-then-false), "-" when no
predecessor is assigned.
"""

from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple

from .formula import Assignment


class WrongDomain(Exception):
    """Assignment does not cover exactly the table's variable kind."""


class Annotation(NamedTuple):
    bits: int
    length: int

    def to_str(self):
        if self.length == 0:
            return "-"
        return "".join(
            "1" if self.bits >> i & 1 else "0" for i in range(self.length)
        )

    @classmethod
    def from_str(cls, s):
        if s == "-":
            return cls(0, 0)
        if not s or any(ch not in "01" for ch in s):
            raise ValueError("bad annotation %r" % s)
        bits = 0
        for i, ch in enumerate(s):
            if ch == "1":
                bits |= 1 << i
        return cls(bits, len(s))


EMPTY_ANN = Annotation(0, 0)


class InternTable:
    """Annotated-variable ids for one abstraction.

    kind names the variables the instantiating assignments cover:
    "universal" for the all-instantiations side, "existential" for the
    negated side.  Selector ids for activation/negation encodings are
    drawn from the same dense id space via fresh().  clause_selector
    deduplicates negated clauses per table, never across tables.
    """

    def __init__(self, kind):
        if kind not in ("universal", "existential"):
            raise ValueError("kind must be universal or existential")
        self.kind = kind
        self.forward = {}  # (var, Annotation) -> id
        self.reverse = {}  # id -> (var, Annotation)
        self.clause_selector = {}  # produced clause -> selector id
        self._next = 1

    def intern(self, var, ann):
        key = (var, ann)
        i = self.forward.get(key)
        if i is None:
            i = self._next
            self._next += 1
            self.forward[key] = i
            self.reverse[i] = key
        return i

    def fresh(self):
        i = self._next
        self._next += 1
        return i

    def __len__(self):
        return len(self.forward)


def _ann_context(a):
    """Packed values and positions of a's assigned variables."""
    positions = []
    bits = 0
    for i, code in enumerate(a.values):
        if code:
            if code == 1:
                bits |= 1 << len(positions)
            positions.append(i)
    return positions, bits


def _ann_at(positions, bits, pos):
    k = bisect_left(positions, pos)
    return Annotation(bits & ((1 << k) - 1), k)


def _instantiate_core(q, a):
    """Clauses of the matrix instantiated under a.

    Yields (matrix index, lits) for every clause not satisfied by a;
    lits are (signed original var, Annotation) pairs.  Works for any
    partial assignment; domain policing happens in the public wrappers.
    """
    positions, bits = _ann_context(a)
    values = a.values
    pos = q.positions
    out = []
    for idx, c in enumerate(q.matrix):
        lits = []
        sat = False
        for l in c:
            p = pos[-l if l < 0 else l]
            code = values[p]
            if not code:
                lits.append((l, _ann_at(positions, bits, p)))
            elif code == (1 if l > 0 else 2):
                sat = True
                break
        if not sat:
            out.append((idx, tuple(lits)))
    return out


def _check_domain(q, a, table):
    want = q.universals if table.kind == "universal" else q.existentials
    if a.count() != len(want) or not a.is_full_over(want):
        raise WrongDomain(
            "assignment must cover exactly the %s variables" % table.kind
        )


class ProducedClause(NamedTuple):
    lits: tuple  # signed intern ids
    matrix_index: int


@dataclass
class InstantiationResult:
    clauses: list  # ProducedClause, in matrix order
    empty_clause: bool  # some clause reduced to the empty clause


def instantiate(q, a, table):
    """Instantiate the matrix under a full assignment of the table's kind.

    Produced clauses are over interned ids, so equal annotated clauses
    from different assignments come out equal and callers can share
    rather than re-add them.
    """
    _check_domain(q, a, table)
    produced = []
    empty = False
    for idx, lits in _instantiate_core(q, a):
        ilits = tuple(
            table.intern(-l if l < 0 else l, ann) * (1 if l > 0 else -1)
            for l, ann in lits
        )
        if not ilits:
            empty = True
        produced.append(ProducedClause(ilits, idx))
    return InstantiationResult(produced, empty)


@dataclass
class NegationResult:
    tautology: bool  # instantiation was falsified, its negation says nothing
    selector_clause: tuple  # one selector per distinct clause; empty = no escape
    new_implications: list  # (selector -> literal false) binary clauses


def negate_instantiate(q, s, table):
    """Encode the negation of an instantiation for the counter abstraction.

    Each distinct produced clause C gets a selector d with one-directional
    implications d -> not-l for every l in C; the returned selector clause
    (d1 | ... | dk) asserts that some clause of the instantiation is
    falsified.  Selectors are shared when different assignments produce
    the same clause.  An empty selector clause means the instantiation
    was already true, so its negation is unsatisfiable.
    """
    _check_domain(q, s, table)
    sels = []
    seen_here = set()
    impls = []
    for idx, lits in _instantiate_core(q, s):
        if not lits:
            return NegationResult(True, (), [])
        ilits = tuple(
            table.intern(-l if l < 0 else l, ann) * (1 if l > 0 else -1)
            for l, ann in lits
        )
        if ilits in seen_here:
            continue
        seen_here.add(ilits)
        d = table.clause_selector.get(ilits)
        if d is None:
            d = table.fresh()
            table.clause_selector[ilits] = d
            for il in ilits:
                impls.append((-d, -il))
        sels.append(d)
    return NegationResult(False, tuple(sels), impls)


def strip(model, source, table):
    """Read a model of an abstraction back as an assignment.

    source is the instantiating assignment whose annotations shaped the
    abstraction's variables; the result assigns every variable of the
    opposite kind, defaulting to False where the model never saw the
    annotated copy.
    """
    q = source.qbf
    targets = q.existentials if table.kind == "universal" else q.universals
    positions, bits = _ann_context(source)
    pos = q.positions
    forward = table.forward
    n = len(model)
    values = bytearray(q.num_vars)
    for v in targets:
        p = pos[v]
        aid = forward.get((v, _ann_at(positions, bits, p)))
        values[p] = 1 if aid is not None and aid < n and model[aid] else 2
    return Assignment(q, values)
