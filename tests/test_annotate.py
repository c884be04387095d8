import random

import pytest

from qexpand import annotate, oracle, sat
from qexpand.annotate import (
    EMPTY_ANN,
    Annotation,
    InternTable,
    WrongDomain,
    _ann_at,
    _ann_context,
    _instantiate_core,
    instantiate,
    negate_instantiate,
    strip,
)
from qexpand.formula import EXISTS, FORALL, Assignment, Qbf


def annotation_of(a, vid):
    """Annotation variable vid receives under instantiation by a."""
    positions, bits = _ann_context(a)
    return _ann_at(positions, bits, a.qbf.position(vid))


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
    assert Annotation(0, 0).to_str() == "-"
    assert Annotation(1, 2).to_str() == "10"
    assert Annotation(2, 2).to_str() == "01"
    assert Annotation(5, 3).to_str() == "101"
    for s in ("-", "0", "1", "10", "0110"):
        assert Annotation.from_str(s).to_str() == s
    with pytest.raises(ValueError):
        Annotation.from_str("1x0")
    with pytest.raises(ValueError):
        Annotation.from_str("")


def test_annotation_of():
    q = q4()
    sigma = Assignment.from_pairs(q, {1: True, 3: False})
    assert annotation_of(sigma, 2) == Annotation(1, 1)
    assert annotation_of(sigma, 4) == Annotation(1, 2)
    tau = Assignment.from_pairs(q, {2: False, 4: False})
    assert annotation_of(tau, 1) == EMPTY_ANN
    assert annotation_of(tau, 3) == Annotation(0, 1)


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
    assert table.reverse[1] == (2, Annotation(1, 1))
    assert table.reverse[2] == (4, Annotation(1, 2))
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
    assert table.reverse[1] == (1, EMPTY_ANN)


def test_instantiate_shares_across_assignments():
    q = q4()
    table = InternTable("universal")
    instantiate(q, Assignment.from_pairs(q, {1: True, 3: False}), table)
    res = instantiate(q, Assignment.from_pairs(q, {1: False, 3: True}), table)
    assert [(pc.lits, pc.matrix_index) for pc in res.clauses] == [
        ((3, 4), 0),
    ]
    assert table.reverse[3] == (2, Annotation(0, 1))
    assert table.reverse[4] == (4, Annotation(2, 2))


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
                    v, ann = table.reverse[abs(il)]
                    assert table.forward[(v, ann)] == abs(il)
                    assert not q.is_universal(v)
                    # annotation length: one bit per universal before v
                    before = sum(
                        1 for u in q.universals if q.position(u) < q.position(v)
                    )
                    assert ann.length == before
        assert sorted(table.reverse) == list(range(1, len(table) + 1))


def test_unstrip_equivalence_random():
    rng = random.Random(52)
    for seed in range(120):
        q = oracle.random_pcnf(seed, min_blocks=2, max_blocks=4, max_vars=8)
        s = oracle.random_partial_assignment(q, rng)
        erased = unstrip_check(q, s)
        restricted = apply_assignment(s, q.matrix)
        assert oracle.clauses_equivalent(erased, restricted, list(q.prefix_order))
