"""Brute-force ground truths and random instance generators.

Everything here is test equipment: slow, simple, and independent of the
expansion loop so disagreements point at real bugs.  decide_semantic
walks the prefix by substitution; decide_full_expansion conjoins every
universal instantiation and asks the SAT backend once; truth_mask packs
whole truth tables into ints, bit j giving the value under the
assignment spelled by j's bits.
"""

import random

from . import annotate, sat
from .formula import EXISTS, FORALL, Assignment, Qbf


class TooLarge(Exception):
    """Instance exceeds the oracle's brute-force budget."""


_pattern_cache = {}


def _pattern(i, n):
    """2^n-bit mask of the assignments where variable number i is true."""
    key = (i, n)
    m = _pattern_cache.get(key)
    if m is None:
        size = 1 << n
        m = ((1 << (1 << i)) - 1) << (1 << i)
        width = 1 << (i + 1)
        while width < size:
            m |= m << width
            width <<= 1
        _pattern_cache[key] = m
    return m


def truth_mask(clauses, var_order):
    """Truth table of a clause conjunction over var_order, as an int.

    Bit j is 1 iff the clause set is satisfied when var_order[i] takes
    the value of bit i of j.  Literals outside var_order are rejected.
    """
    n = len(var_order)
    size = 1 << n
    full = (1 << size) - 1
    pos = {v: i for i, v in enumerate(var_order)}
    mask = full
    for c in clauses:
        cm = 0
        for l in c:
            i = pos.get(-l if l < 0 else l)
            if i is None:
                raise ValueError("literal %d outside the variable order" % l)
            p = _pattern(i, n)
            cm |= p if l > 0 else p ^ full
        mask &= cm
        if not mask:
            break
    return mask


def clauses_equivalent(left, right, var_order):
    """True iff two clause sets have identical truth tables."""
    return truth_mask(left, var_order) == truth_mask(right, var_order)


def cnf_satisfiable(clauses, num_vars, max_vars=24):
    """Exhaustive SAT check by truth table."""
    if num_vars > max_vars:
        raise TooLarge("%d variables" % num_vars)
    return truth_mask(clauses, list(range(1, num_vars + 1))) != 0


def decide_semantic(q, max_vars=22):
    """Ground-truth QBF decision by recursive substitution."""
    if q.num_vars > max_vars:
        raise TooLarge("%d variables" % q.num_vars)
    if any(not c for c in q.matrix):
        return False
    order = [(vid, q.is_universal(vid)) for vid in q.prefix_order]

    def rec(i, clauses):
        if not clauses:
            return True
        vid, is_u = order[i]
        for val in (False, True):
            reduced = []
            empty = False
            for c in clauses:
                kept = []
                satisfied = False
                for l in c:
                    if l == vid or l == -vid:
                        if (l > 0) == val:
                            satisfied = True
                            break
                    else:
                        kept.append(l)
                if satisfied:
                    continue
                if not kept:
                    empty = True
                    break
                reduced.append(kept)
            sub = False if empty else rec(i + 1, reduced)
            if is_u and not sub:
                return False
            if not is_u and sub:
                return True
        return is_u

    return rec(0, list(q.matrix))


def decide_full_expansion(q, max_universals=12):
    """QBF decision via the full expansion over all universal assignments.

    Conjoins the instantiation of the matrix under every full universal
    assignment and gives the result to the SAT backend: satisfiable
    means true.  Exercises the same instantiation code the solver uses,
    so it cross-checks against decide_semantic in tests rather than
    standing alone.
    """
    U = q.universals
    if len(U) > max_universals:
        raise TooLarge("%d universal variables" % len(U))
    table = annotate.InternTable("universal")
    s = sat.Solver()
    added = set()
    for bits in range(1 << len(U)):
        a = Assignment.from_pairs(
            q, [(v, bool(bits >> i & 1)) for i, v in enumerate(U)]
        )
        for _, lits in annotate.instantiate(q, a, table):
            if not lits:
                return False
            if lits not in added:
                added.add(lits)
                s.add_clause(lits)
    return s.solve().status == sat.SAT


def random_pcnf(
    seed,
    min_blocks=2,
    max_blocks=5,
    max_vars=14,
    max_clauses=48,
    max_width=4,
):
    """Deterministic random prenex CNF instance for the given seed.

    Guarantees: block count within bounds, every variable occurs in the
    matrix, clause width capped, clause/variable counts capped.
    """
    rng = random.Random(seed)
    nb = rng.randint(min_blocks, max_blocks)
    nv = rng.randint(max(nb, 3), max_vars)
    ids = list(range(1, nv + 1))
    cuts = sorted(rng.sample(range(1, nv), nb - 1)) if nb > 1 else []
    kind = rng.choice([FORALL, EXISTS])
    blocks = []
    lo = 0
    for hi in cuts + [nv]:
        blocks.append((kind, ids[lo:hi]))
        kind = EXISTS if kind == FORALL else FORALL
        lo = hi
    perm = ids[:]
    rng.shuffle(perm)
    clauses = []
    i = 0
    while i < nv:
        take = min(rng.randint(2, max_width), nv - i)
        clauses.append([v if rng.random() < 0.5 else -v for v in perm[i : i + take]])
        i += take
    extras = rng.randint(0, min(max_clauses - len(clauses), 3 * nv // 2))
    widths = [2, 3, 3, 3, 4, 4, 4, 4]
    for _ in range(extras):
        k = min(rng.choice(widths), nv)
        vs = rng.sample(ids, k)
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return Qbf(blocks, clauses)


def random_cnf(seed, max_vars=20, max_clauses=90):
    """Deterministic random CNF: (clauses, num_vars)."""
    rng = random.Random(seed)
    nv = rng.randint(1, max_vars)
    m = rng.randint(1, min(max_clauses, max(3, 9 * nv // 2)))
    clauses = []
    for _ in range(m):
        k = rng.randint(1, min(4, nv))
        vs = rng.sample(range(1, nv + 1), k)
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return clauses, nv


def random_partial_assignment(q, rng, density=0.5):
    """Random partial assignment over all variables of q."""
    vals = bytearray(q.num_vars)
    for i in range(q.num_vars):
        if rng.random() < density:
            vals[i] = 1 if rng.random() < 0.5 else 2
    return Assignment(q, vals)
