import pytest

from qexpand.formula import EXISTS, FORALL, Assignment, Qbf, canonical_clause


def q4():
    # forall 1 exists 2 forall 3 exists 4
    return Qbf(
        [(FORALL, [1]), (EXISTS, [2]), (FORALL, [3]), (EXISTS, [4])],
        [[2, 1, 4], [-2, -1, 4], [-4, 3]],
    )


def test_canonical_clause():
    assert canonical_clause([4, -2, 4, 1]) == (1, -2, 4)
    assert canonical_clause([-1, 1]) == (-1, 1)
    assert canonical_clause([]) == ()


def test_qbf_basics():
    q = q4()
    assert q.num_vars == 4
    assert q.universals == (1, 3)
    assert q.existentials == (2, 4)
    assert q.matrix == ((1, 2, 4), (-1, -2, 4), (3, -4))
    assert q.is_universal(1) and not q.is_universal(2)
    assert q.position(3) == 2


def test_qbf_drops_tautologies():
    q = Qbf([(EXISTS, [1, 2])], [[1, -1, 2], [1, 2]])
    assert q.matrix == ((1, 2),)
    assert q.dropped_tautologies == 1


def test_qbf_validation():
    with pytest.raises(ValueError):
        Qbf([(FORALL, [])], [])
    with pytest.raises(ValueError):
        Qbf([(FORALL, [1]), (EXISTS, [1])], [])
    with pytest.raises(ValueError):
        Qbf([(FORALL, [1])], [[2]])
    with pytest.raises(ValueError):
        Qbf([("x", [1])], [])


def test_assignment_misc():
    q = q4()
    a = Assignment.from_pairs(q, {3: False, 2: True})
    assert a.literals() == (2, -3)
    assert a.count() == 2
    assert a.is_full_over([2, 3])
    assert not a.is_full_over([1, 2])
    assert a.value(3) is False and a.value(1) is None
    assert a == Assignment.from_pairs(q, {2: True, 3: False})
    assert a.key() == bytes([0, 1, 2, 0])
    assert a.key() is a.values
    assert Assignment(q, bytearray([0, 1, 2, 0])).values == a.values
    with pytest.raises(TypeError):
        Assignment(q, (None, True, False, None))
    with pytest.raises(ValueError):
        Assignment(q, bytes([0, 1, 2]))
    with pytest.raises(ValueError):
        Assignment(q, bytes([0, 1, 3, 0]))
