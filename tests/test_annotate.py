import random

import pytest

from qexpand import annotate, oracle, sat
from qexpand.annotate import (
    InternTable,
    WrongDomain,
    _instantiate_core,
    instantiate,
    negate_instantiate,
    strip,
    strip_cut,
)
from qexpand.formula import EXISTS, FORALL, Assignment, Qbf
from qexpand.proof import spell


def annotation_of(a, vid):
    """Annotation the unassigned variable vid receives under a."""
    q = a.qbf
    probe = Qbf([(b.quantifier, b.variables) for b in q.blocks], [[vid]])
    [(_, [(_, prefix)])] = _instantiate_core(probe, Assignment(probe, a.values))
    return prefix


def apply_assignment(a, clauses):
    """Simplify a clause set under a partial assignment.

    The reference that instantiation is checked against: satisfied
    clauses are dropped, falsified literals removed.  An empty clause in
    the result means the set is falsified; an empty result means it is
    satisfied.
    """
    out = []
    for c in clauses:
        reduced = []
        sat = False
        for l in c:
            val = a.value(abs(l))
            if val is None:
                reduced.append(l)
            elif val == (l > 0):
                sat = True
                break
        if not sat:
            out.append(tuple(reduced))
    return out


def unstrip_check(q, s):
    """Instantiate under s, then erase annotations.

    Returns plain clauses over the original variables; up to
    equivalence this matches applying s to the matrix directly, which
    is what makes stripping sound.
    """
    return [
        tuple(l for l, _ in lits) for _, lits in _instantiate_core(q, s)
    ]


def q4():
    # forall 1 exists 2 forall 3 exists 4
    return Qbf(
        [(FORALL, [1]), (EXISTS, [2]), (FORALL, [3]), (EXISTS, [4])],
        [[2, 1, 4], [-2, -1, 4], [-4, 3]],
    )


def test_apply_empty_clause_and_satisfied():
    q = Qbf([(EXISTS, [1, 2])], [[1, 2]])
    a = Assignment.from_pairs(q, {1: False, 2: False})
    assert apply_assignment(a, q.matrix) == [()]
    b = Assignment.from_pairs(q, {1: True})
    assert apply_assignment(b, q.matrix) == []


def test_annotation_packing():
    assert spell(b"") == "-"
    assert spell(b"\0\0") == "-"
    assert spell(b"\1\0\2") == "10"
    assert spell(b"\2\1") == "01"
    assert spell(b"\1\2\0\1") == "101"


def test_annotation_of():
    q = q4()
    assert q.block_heads == (0, 1, 2, 3)
    sigma = Assignment.from_pairs(q, {1: True, 3: False})
    assert annotation_of(sigma, 2) == b"\1"
    assert annotation_of(sigma, 4) == b"\1\0\2"
    assert spell(annotation_of(sigma, 4)) == "10"
    tau = Assignment.from_pairs(q, {2: False, 4: False})
    assert annotation_of(tau, 1) == b""
    assert annotation_of(tau, 3) == b"\0\2"
    assert spell(annotation_of(tau, 3)) == "0"
    # one slice per block: every variable of a block gets the same object
    q2 = Qbf([(FORALL, [1, 2]), (EXISTS, [3, 4, 5])], [[1, 3, 4], [-2, 4, 5]])
    assert q2.block_heads == (0, 0, 2, 2, 2)
    a = Assignment.from_pairs(q2, {1: False, 2: True})
    prefixes = [prefix for _, lits in _instantiate_core(q2, a) for _, prefix in lits]
    assert prefixes == [b"\2\1"] * 4
    assert all(prefix is prefixes[0] for prefix in prefixes)


def test_instantiate_universal_side():
    q = q4()
    table = InternTable("universal")
    sigma = Assignment.from_pairs(q, {1: True, 3: False})
    res = instantiate(q, sigma, table)
    assert not res.empty_clause
    assert [(pc.lits, pc.matrix_index) for pc in res.clauses] == [
        ((-1, 2), 1),
        ((-2,), 2),
    ]
    assert table.reverse[1] == (2, b"\1")
    assert table.reverse[2] == (4, b"\1\0\2")
    # same assignment again: the same clauses over the same ids
    res2 = instantiate(q, sigma, table)
    assert res2.clauses == res.clauses
    assert len(table) == 2


def test_instantiate_existential_side():
    q = q4()
    table = InternTable("existential")
    tau = Assignment.from_pairs(q, {2: False, 4: False})
    res = instantiate(q, tau, table)
    assert [(pc.lits, pc.matrix_index) for pc in res.clauses] == [((1,), 0)]
    # variable 1 sits in the first block: bare annotation
    assert table.reverse[1] == (1, b"")


def test_instantiate_shares_across_assignments():
    q = q4()
    table = InternTable("universal")
    instantiate(q, Assignment.from_pairs(q, {1: True, 3: False}), table)
    res = instantiate(q, Assignment.from_pairs(q, {1: False, 3: True}), table)
    assert [(pc.lits, pc.matrix_index) for pc in res.clauses] == [
        ((3, 4), 0),
    ]
    assert table.reverse[3] == (2, b"\2")
    assert table.reverse[4] == (4, b"\2\0\1")


def test_instantiate_empty_clause():
    q = Qbf([(FORALL, [1]), (EXISTS, [2])], [[1, 2], [1, -2], [-1]])
    table = InternTable("universal")
    res = instantiate(q, Assignment.from_pairs(q, {1: True}), table)
    assert res.empty_clause
    assert ((), 2) in [tuple(pc) for pc in res.clauses]


def test_unstrip_matches_restriction():
    q = q4()
    sigma = Assignment.from_pairs(q, {1: True, 3: False})
    assert unstrip_check(q, sigma) == [(-2, 4), (-4,)]
    assert unstrip_check(q, sigma) == apply_assignment(sigma, q.matrix)
    tau = Assignment.from_pairs(q, {2: False, 4: False})
    assert unstrip_check(q, tau) == [(1,)]


def test_strip_defaults_and_values():
    q = q4()
    table = InternTable("universal")
    sigma = Assignment.from_pairs(q, {1: True, 3: False})
    instantiate(q, sigma, table)
    model = [None, False, False]  # ids 1=(2,"1") 2=(4,"10")
    got = strip(model, sigma, table)
    assert got.as_dict() == {2: False, 4: False}
    model = [None, True, True]
    assert strip(model, sigma, table).as_dict() == {2: True, 4: True}
    # unseen annotated copies default to False
    other = Assignment.from_pairs(q, {1: False, 3: False})
    assert strip([None, True, True], other, table).as_dict() == {2: False, 4: False}


@pytest.mark.parametrize("kind", ["universal", "existential"])
def test_strip_reads_source_only_below_cut(kind):
    # forall 1 exists 2 forall 3 exists 4: the last block of the other side
    assert strip_cut(q4(), InternTable(kind)) == (3 if kind == "universal" else 2)
    rng = random.Random(53)
    grow = instantiate if kind == "universal" else negate_instantiate
    for seed in range(150):
        q = oracle.random_pcnf(seed)
        side = q.universals if kind == "universal" else q.existentials
        table = InternTable(kind)
        sources = [
            Assignment.from_pairs(q, [(v, rng.random() < 0.5) for v in side])
            for _ in range(4)
        ]
        for a in sources:
            grow(q, a, table)
        cut = strip_cut(q, table)
        model = [None] + [rng.random() < 0.5 for _ in range(max(table.reverse, default=0))]
        for a in sources:
            want = strip(model, a, table).values
            for _ in range(4):
                tail = bytes(rng.randrange(3) for _ in range(q.num_vars - cut))
                other = Assignment(q, a.values[:cut] + tail)
                assert strip(model, other, table).values == want


def test_negate_instantiate():
    q = q4()
    table = InternTable("existential")
    tau = Assignment.from_pairs(q, {2: False, 4: False})
    r1 = negate_instantiate(q, tau, table)
    assert not r1.tautology
    assert r1.selector_clause == (2,)
    assert r1.new_implications == [(-2, -1)]
    tau2 = Assignment.from_pairs(q, {2: True, 4: False})
    r2 = negate_instantiate(q, tau2, table)
    assert r2.selector_clause == (3,)
    assert r2.new_implications == [(-3, 1)]
    # both negated instantiations together are unsatisfiable: the two
    # candidate assignments cover every universal choice
    s = sat.Solver()
    for r in (r1, r2):
        for imp in r.new_implications:
            s.add_clause(imp)
        s.add_clause(r.selector_clause)
    assert s.solve().status == sat.UNSAT


def test_negate_instantiate_shares_selectors():
    q = Qbf([(EXISTS, [1]), (FORALL, [2]), (EXISTS, [3])], [[1, 2, 3]])
    table = InternTable("existential")
    r1 = negate_instantiate(q, Assignment.from_pairs(q, {1: False, 3: False}), table)
    r2 = negate_instantiate(q, Assignment.from_pairs(q, {1: False, 3: False}), table)
    assert r1.selector_clause == r2.selector_clause
    assert r2.new_implications == []


def test_negate_instantiate_tautology():
    q = Qbf([(EXISTS, [1])], [[1]])
    table = InternTable("existential")
    r = negate_instantiate(q, Assignment.from_pairs(q, {1: False}), table)
    assert r.tautology
    r2 = negate_instantiate(q, Assignment.from_pairs(q, {1: True}), table)
    assert not r2.tautology and r2.selector_clause == ()


def test_wrong_domain():
    q = q4()
    with pytest.raises(WrongDomain):
        instantiate(q, Assignment.from_pairs(q, {1: True}), InternTable("universal"))
    with pytest.raises(WrongDomain):
        instantiate(
            q, Assignment.from_pairs(q, {2: True, 4: False}), InternTable("universal")
        )
    with pytest.raises(WrongDomain):
        negate_instantiate(
            q,
            Assignment.from_pairs(q, {1: True, 3: True}),
            InternTable("existential"),
        )
    with pytest.raises(WrongDomain):
        instantiate(
            q,
            Assignment.from_pairs(q, {1: True, 2: True, 3: True, 4: True}),
            InternTable("universal"),
        )


def test_intern_table_bijective_random():
    rng = random.Random(51)
    for seed in range(40):
        q = oracle.random_pcnf(seed, max_vars=10)
        table = InternTable("universal")
        for _ in range(6):
            a = Assignment.from_pairs(
                q, [(v, rng.random() < 0.5) for v in q.universals]
            )
            res = instantiate(q, a, table)
            for pc in res.clauses:
                for il in pc.lits:
                    v, prefix = table.reverse[abs(il)]
                    assert table.forward[(v, prefix)] == abs(il)
                    assert not q.is_universal(v)
                    # the annotation spells a's value of every universal before v
                    want = "".join(
                        "1" if a.value(u) else "0"
                        for u in q.universals
                        if q.position(u) < q.position(v)
                    )
                    assert spell(prefix) == (want or "-")
        assert sorted(table.reverse) == list(range(1, len(table) + 1))


def test_unstrip_equivalence_random():
    rng = random.Random(52)
    for seed in range(120):
        q = oracle.random_pcnf(seed, min_blocks=2, max_blocks=4, max_vars=8)
        s = oracle.random_partial_assignment(q, rng)
        erased = unstrip_check(q, s)
        restricted = apply_assignment(s, q.matrix)
        assert oracle.clauses_equivalent(erased, restricted, list(q.prefix_order))
