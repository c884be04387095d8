"""Verdict gates that do not rest on the code under test.

Each gate compares qexpand's output with the generated instance, using
only the benchmark's own arithmetic.  A failed gate raises GateFailure;
the benchmark then exits non-zero without printing numbers.
"""

from families import EXISTS, FORALL


class GateFailure(Exception):
    """qexpand produced a wrong formula, verdict, witness or certificate."""


def check_parse(q, blocks, clauses):
    """The parsed formula has the generated prefix and the same clauses."""
    got_blocks = [(b.quantifier, list(b.variables)) for b in q.blocks]
    if got_blocks != [(quant, list(vs)) for quant, vs in blocks]:
        raise GateFailure("parsed prefix differs from the generated one")
    want = sorted(tuple(sorted(set(c))) for c in clauses)
    got = sorted(tuple(sorted(c)) for c in q.matrix)
    if want != got:
        raise GateFailure("parsed matrix differs from the generated one")


def check_witness(blocks, clauses, sigmas):
    """A TRUE verdict on a forall-exists formula: every universal
    assignment, joined with some sigma, satisfies the matrix.

    sigmas are literal tuples over the existential block.  Universal
    assignments are the bits of an index below 2^|U|; a truth table over
    them is an int whose bit j says whether assignment j is covered.
    """
    if [quant for quant, _ in blocks] != [FORALL, EXISTS]:
        raise GateFailure("witness gate needs a forall-exists prefix")
    universals, existentials = blocks[0][1], set(blocks[1][1])
    upos = {v: i for i, v in enumerate(universals)}
    size = 1 << len(universals)
    full = (1 << size) - 1
    true_where = []
    for i in range(len(universals)):
        pattern = 0
        for j in range(size):
            if j >> i & 1:
                pattern |= 1 << j
        true_where.append(pattern)
    covered = 0
    for sigma in sigmas:
        value = {abs(l): l > 0 for l in sigma}
        if set(value) != existentials or len(sigma) != len(existentials):
            raise GateFailure("witness sigma does not assign exactly the existentials")
        mask = full
        for c in clauses:
            clause_mask = 0
            for l in c:
                v = abs(l)
                if v in upos:
                    p = true_where[upos[v]]
                    clause_mask |= p if l > 0 else full ^ p
                elif value[v] == (l > 0):
                    clause_mask = full
                    break
            mask &= clause_mask
            if not mask:
                break
        covered |= mask
        if covered == full:
            return
    missing = next(j for j in range(size) if not covered >> j & 1)
    raise GateFailure(
        "no witness sigma satisfies the matrix under universal assignment %s"
        % [v if missing >> i & 1 else -v for i, v in enumerate(universals)]
    )
