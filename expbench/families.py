"""Seeded QBF families for the expansion benchmark.

A generated instance is plain data: a prefix as (quantifier, variable
list) pairs, outermost first, and a matrix as literal lists.  Nothing
here imports qexpand, so the verdicts the benchmark expects do not rest
on the code under test.

- Chen-Interian random 2QBF (Chen & Interian, IJCAI 2005): a forall
  block then an exists block, every clause with a fixed number of
  universal and existential literals on distinct variables.
- Equality (Beyersdorff, Blinkhorn & Hinde, ITCS 2018): false for every
  n; the universal player copies x into u, forcing every t.
- QParity (Beyersdorff, Chew & Janota, STACS 2015): false for every n;
  z picks the parity of x that the t-chain is forced to contradict.

rename() permutes variable ids, flips polarities and shuffles clause
order, literal order and the order inside each block.  None of these
changes the truth value of a closed prenex formula.
"""

import random

FORALL = "a"
EXISTS = "e"


def chen_interian(rng, n_forall, n_exists, n_clauses, k_forall=1, k_exists=2):
    """Random 2QBF: forall 1..n_forall, exists the next n_exists ids."""
    universals = list(range(1, n_forall + 1))
    existentials = list(range(n_forall + 1, n_forall + n_exists + 1))
    clauses = []
    for _ in range(n_clauses):
        vs = rng.sample(universals, k_forall) + rng.sample(existentials, k_exists)
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return [(FORALL, universals), (EXISTS, existentials)], clauses


def equality(n):
    """Exists x1..xn forall u1..un exists t1..tn; 2n + 1 clauses."""
    xs = list(range(1, n + 1))
    us = list(range(n + 1, 2 * n + 1))
    ts = list(range(2 * n + 1, 3 * n + 1))
    clauses = [[-t for t in ts]]
    for x, u, t in zip(xs, us, ts):
        clauses.append([x, u, t])
        clauses.append([-x, -u, t])
    return [(EXISTS, xs), (FORALL, us), (EXISTS, ts)], clauses


def qparity(n):
    """Exists x1..xn forall z exists t1..tn; t_i is the parity of x1..xi
    and the last two clauses demand t_n != z.  4n clauses."""
    xs = list(range(1, n + 1))
    z = n + 1
    ts = list(range(n + 2, 2 * n + 2))
    clauses = [[-xs[0], ts[0]], [xs[0], -ts[0]]]
    for i in range(1, n):
        p, x, t = ts[i - 1], xs[i], ts[i]
        clauses += [[p, x, -t], [-p, -x, -t], [p, -x, t], [-p, x, t]]
    clauses += [[z, ts[-1]], [-z, -ts[-1]]]
    return [(EXISTS, xs), (FORALL, [z]), (EXISTS, ts)], clauses


def rename(rng, blocks, clauses):
    """Verdict-preserving renaming: new ids, flipped signs, shuffled order."""
    ids = [v for _, vs in blocks for v in vs]
    perm = ids[:]
    rng.shuffle(perm)
    new_id = dict(zip(ids, perm))
    sign = {v: rng.choice((1, -1)) for v in ids}

    def lit(l):
        v = abs(l)
        return new_id[v] * sign[v] * (1 if l > 0 else -1)

    new_blocks = []
    for quant, vs in blocks:
        nv = [new_id[v] for v in vs]
        rng.shuffle(nv)
        new_blocks.append((quant, nv))
    new_clauses = []
    for c in clauses:
        nc = [lit(l) for l in c]
        rng.shuffle(nc)
        new_clauses.append(nc)
    rng.shuffle(new_clauses)
    return new_blocks, new_clauses


def to_qdimacs(blocks, clauses):
    """QDIMACS text for a generated instance."""
    max_id = max(v for _, vs in blocks for v in vs)
    lines = ["p cnf %d %d" % (max_id, len(clauses))]
    for quant, vs in blocks:
        lines.append("%s %s 0" % (quant, " ".join(map(str, vs))))
    for c in clauses:
        lines.append("%s 0" % " ".join(map(str, c)))
    return "\n".join(lines) + "\n"


def seeded_rng(*parts):
    """Generator seeded from its parts, identical in every process."""
    return random.Random("/".join(map(str, parts)))
