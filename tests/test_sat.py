import hashlib
import importlib
import itertools
import os
import random
import shlex
import shutil
import subprocess
import sysconfig
import time

import pytest

from qexpand import _cdcl_py, cli, expand, oracle, proof, sat
from qexpand.formula import EXISTS, FORALL, Qbf
from qexpand.sat import (
    SAT,
    UNKNOWN,
    UNSAT,
    Solver,
    TraceUnavailable,
)

KERNELS = ["pure"] + (["compiled"] if sat.COMPILED else [])


@pytest.fixture(params=KERNELS)
def kernel(request):
    return request.param


def brute_sat(clauses, nv):
    for bits in itertools.product([False, True], repeat=nv):
        if all(any(bits[abs(l) - 1] == (l > 0) for l in c) for c in clauses):
            return True
    return not clauses


def random_cnf(rng, max_vars=8, max_clauses=26):
    nv = rng.randint(1, max_vars)
    m = rng.randint(1, max_clauses)
    clauses = []
    for _ in range(m):
        k = rng.randint(1, min(3, nv))
        vs = rng.sample(range(1, nv + 1), k)
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return clauses, nv


def test_unit_propagation(kernel):
    s = Solver(kernel=kernel)
    s.add_clause([1, 2])
    s.add_clause([-1])
    out = s.solve()
    assert out.status == SAT
    assert out.model[1] is False and out.model[2] is True


def test_empty_clause(kernel):
    s = Solver(kernel=kernel)
    s.add_clause([1])
    s.add_clause([])
    out = s.solve()
    assert out.status == UNSAT
    assert out.failed_assumptions == []


def test_taut_and_duplicate_clause(kernel):
    s = Solver(kernel=kernel)
    s.add_clause([1, -1])
    s.add_clause([2, 2, -3])
    s.add_clause([2, -3])
    out = s.solve()
    assert out.status == SAT


def test_default_phase_is_false(kernel):
    s = Solver(kernel=kernel)
    s.add_clause([1, 2, 3])
    out = s.solve()
    # fixed phase False: decisions walk variables negatively, so the
    # clause is satisfied by propagation only where forced
    assert out.status == SAT
    assert sum(1 for v in (1, 2, 3) if out.model[v]) == 1


def test_brute_force_agreement(kernel):
    rng = random.Random(101)
    for _ in range(300):
        clauses, nv = random_cnf(rng)
        s = Solver(kernel=kernel)
        s.ensure_vars(nv)
        for c in clauses:
            s.add_clause(c)
        out = s.solve()
        expect = brute_sat(clauses, nv)
        assert out.status == (SAT if expect else UNSAT)
        if expect:
            for c in clauses:
                assert any(out.model[abs(l)] == (l > 0) for l in c)


def test_incremental_adds(kernel):
    s = Solver(kernel=kernel)
    s.add_clause([1, 2])
    assert s.solve().status == SAT
    s.add_clause([-1])
    assert s.solve().status == SAT
    s.add_clause([-2])
    assert s.solve().status == UNSAT
    assert s.solve().status == UNSAT  # stays unsat


def test_assumptions(kernel):
    s = Solver(kernel=kernel)
    s.add_clause([-1, 2])
    s.add_clause([-2, 3])
    out = s.solve(assumptions=[1, -3])
    assert out.status == UNSAT
    failed = out.failed_assumptions
    assert set(failed) <= {1, -3} and failed
    # re-solving with only the failed subset is still UNSAT
    assert s.solve(assumptions=failed).status == UNSAT
    # and the instance is untouched
    assert s.solve(assumptions=[1]).status == SAT
    assert s.solve().status == SAT
    for bad in ([0], [1, 0], [1.0]):
        with pytest.raises(ValueError):
            s.solve(assumptions=bad)


def test_contradictory_assumptions(kernel):
    s = Solver(kernel=kernel)
    s.add_clause([1, 2])
    out = s.solve(assumptions=[3, -3])
    assert out.status == UNSAT
    assert set(out.failed_assumptions) == {3, -3}


def test_failed_assumptions_random(kernel):
    rng = random.Random(102)
    for _ in range(120):
        clauses, nv = random_cnf(rng, max_vars=7, max_clauses=18)
        s = Solver(kernel=kernel)
        s.ensure_vars(nv)
        for c in clauses:
            s.add_clause(c)
        k = rng.randint(1, nv)
        vs = rng.sample(range(1, nv + 1), k)
        asum = [v if rng.random() < 0.5 else -v for v in vs]
        out = s.solve(assumptions=asum)
        if out.status == UNSAT:
            failed = out.failed_assumptions
            assert set(failed) <= set(asum)
            assert not brute_sat(clauses + [[l] for l in failed], nv)
        else:
            for l in asum:
                assert out.model[abs(l)] == (l > 0)


def test_non_decision_variable(kernel):
    # 1 occurs only negatively.  As a decision variable it is decided
    # first (ties go to the smaller index); as a non-decision one it is
    # never decided and, left unassigned, reads False.
    counts = []
    for decide in (True, False):
        s = Solver(kernel=kernel)
        s.add_clause([-1, 2, -3])
        s.set_decision(1, decide)
        out = s.solve()
        assert out.status == SAT and out.model[1] is False
        counts.append(s.decisions)
    assert counts == [3, 2]
    # an assumption still sets it, and marking it again restores branching
    out = s.solve(assumptions=[1])
    assert out.status == SAT and out.model[1] is True
    s.set_decision(1, True)
    before = s.decisions
    s.solve()
    assert s.decisions - before == 3


def test_non_decision_models_random(kernel):
    # variables that occur only negatively may be left unassigned, and
    # the model that reads them False still satisfies every clause
    rng = random.Random(105)
    for _ in range(300):
        clauses, nv = random_cnf(rng)
        neg = rng.sample(range(1, nv + 1), rng.randint(1, nv))
        clauses = [[-abs(l) if abs(l) in neg else l for l in c] for c in clauses]
        s = Solver(kernel=kernel)
        s.ensure_vars(nv)
        for v in neg:
            s.set_decision(v, False)
        for c in clauses:
            s.add_clause(c)
        out = s.solve()
        assert out.status == (SAT if brute_sat(clauses, nv) else UNSAT)
        if out.status == SAT:
            for c in clauses:
                assert any(out.model[abs(l)] == (l > 0) for l in c)


def test_kept_decision_does_not_satisfy_a_new_clause(kernel):
    # the first solve decides 1 and 2 False and keeps its trail; -1 is
    # true there only by a decision, not at level 0
    s = Solver(kernel=kernel)
    s.ensure_vars(2)
    assert s.solve().model[1:] == [False, False]
    s.add_clause([-1, 2])
    out = s.solve([1])
    assert out.status == SAT and out.model[1:] == [True, True]
    # a clause the kept trail leaves two literals free in is watched on
    # them, and the next solve goes on from the kept trail: 3 is decided
    # False, so 4 follows
    s.add_clause([-1, 3, 4])
    out = s.solve([1, 2])
    assert out.status == SAT and out.model[1:] == [True, True, False, True]


def test_kept_level_0_trail_finds_the_conflict(kernel):
    # the trail kept after the first solve is level 0 alone; the units
    # added next propagate into a conflict there, which is the answer
    s = Solver(kernel=kernel)
    s.add_clause([1])
    assert s.solve().status == SAT
    for c in ([-2, 3], [-3, -1], [-1, 2]):
        s.add_clause(c)
    assert s.solve().status == UNSAT
    assert s.proof_trace()[-1] == ()


def test_kept_trail_interleaving_random(kernel):
    # clauses arrive between solves whose assumption lists extend, shrink
    # or replace the last one; some variables are negative-only and
    # non-decision, as selectors are
    rng = random.Random(106)
    extended_sat = 0
    for _ in range(150):
        pool, nv = random_cnf(rng, max_vars=8, max_clauses=30)
        neg = rng.sample(range(1, nv + 1), rng.randint(0, nv // 2))
        pool = [[-abs(l) if abs(l) in neg else l for l in c] for c in pool]
        s = Solver(kernel=kernel)
        s.ensure_vars(nv)
        for v in neg:
            s.set_decision(v, False)
        added = []
        asum = []
        status = None
        while pool:
            for _ in range(rng.randint(0, 4)):
                if pool:
                    added.append(pool.pop())
                    s.add_clause(added[-1])
            move = rng.choice(["extend", "extend", "shrink", "replace"])
            if move == "replace":
                asum = []
            elif move == "shrink":
                asum = asum[: rng.randint(0, len(asum))]
            fresh = [v for v in range(1, nv + 1) if v not in {abs(l) for l in asum}]
            for v in rng.sample(fresh, rng.randint(0, min(2, len(fresh)))):
                asum.append(v if rng.random() < 0.5 else -v)
            extended_sat += move == "extend" and status == SAT
            out = s.solve(asum)
            status = out.status
            if out.status == SAT:
                for c in added:
                    assert any(out.model[abs(l)] == (l > 0) for l in c)
                for l in asum:
                    assert out.model[abs(l)] == (l > 0)
            else:
                assert out.status == UNSAT
                assert not brute_sat(added + [[l] for l in asum], nv)
                failed = out.failed_assumptions
                assert set(failed) <= set(asum)
                assert not brute_sat(added + [[l] for l in failed], nv)
                if not s._k.ok:
                    break
    assert extended_sat > 150


def test_fast_path_conflict_is_learned(kernel):
    # 1 and 2 are kept False by decisions; assuming the fresh selector 3
    # on top of them propagates 4 into a conflict with 1, which is
    # counted and learned as (-3, 1); that clause makes 3 false under the
    # free decision 1 False, so the solve cancels the free decisions and
    # assumes 3 again
    s = Solver(kernel=kernel)
    s.ensure_vars(2)
    assert s.solve().model[1:] == [False, False]
    s.set_decision(3, False)
    clauses = [[-3, 4], [-3, -4, 1]]
    for c in clauses:
        s.add_clause(c)
    out = s.solve([3])
    assert out.status == SAT and s.conflicts == 1
    for c in clauses:
        assert any(out.model[abs(l)] == (l > 0) for l in c)
    assert out.model[3] is True
    s.add_clause([-1])
    out = s.solve([3])
    assert out.status == UNSAT and out.failed_assumptions == [3]
    assert s.proof_trace()[0] == (-3, 1)


def test_fast_path_backjump_reopens_an_assumption(kernel):
    # 2 is a non-decision selector that the second solve assumes on top
    # of the free decision 1 False, at level 2.  The third solve decides
    # 3 False, learns (3, 1) and backjumps to level 1, which undoes 2;
    # the walk goes on from below the free decision and assumes 2 again
    s = Solver(kernel=kernel)
    s.set_decision(2, False)
    assert s.solve().model[1:] == [False, False]
    assert s.solve([2]).model[1:] == [False, True]
    clauses = [[3, 4], [3, -4, 1]]
    for c in clauses:
        s.add_clause(c)
    out = s.solve([2])
    assert out.status == SAT and s.conflicts == 1
    assert out.model[2] is True
    for c in clauses:
        assert any(out.model[abs(l)] == (l > 0) for l in c)


def test_fast_path_learns_a_kept_assumption_false(kernel):
    # 1 is kept as an assumption at level 1; the clauses over fresh 2-4
    # first learn (2, -1), which backjumps below the free decision 2
    # False, then (-1), which backjumps to level 0 and fails the
    # assumption
    s = Solver(kernel=kernel)
    s.ensure_vars(1)
    assert s.solve([1]).status == SAT
    clauses = [[-1, -2, 3], [-1, -2, -3], [-1, 2, 4], [-1, 2, -4]]
    for c in clauses:
        s.add_clause(c)
    out = s.solve([1])
    assert out.status == UNSAT and s.conflicts == 2
    failed = out.failed_assumptions
    assert failed == [1] and not brute_sat(clauses + [[l] for l in failed], 4)
    out = s.solve()
    assert out.status == SAT and out.model[1] is False


def test_fast_solve_that_restarts_answers_as_fresh(kernel):
    # pigeonhole(7) under a selector that extends the kept assumption
    # list: the solve restarts, and answers as a fresh solver does
    steps = pigeonhole_after_sat_steps()
    s = Solver(kernel=kernel)
    fresh = Solver(kernel=kernel)
    for clauses, assumptions, _, marks in steps[:2]:
        for h in (s, fresh):
            for v, flag in marks:
                h.set_decision(v, flag)
            for c in clauses:
                h.add_clause(c)
        restarts, conflicts = s.restarts, s.conflicts
        out = s.solve(assumptions)
    assert s.restarts > restarts and s.conflicts - conflicts >= 100
    want = fresh.solve(assumptions)
    assert out.status == want.status == UNSAT
    assert out.failed_assumptions == want.failed_assumptions == [100]


def test_true_assumption_opens_no_level(kernel):
    # 2 is true by 1, so it opens no level: level 1 holds 1 and level 2
    # the non-decision selector 3, which propagates 6.  Deciding 4 False
    # conflicts and learns (4, -1), which backjumps to level 1 and undoes
    # 3; the walk goes on from position 1, where 2 is true and 3 is opened
    # again.  Then -4, false by (4, -1) and 1 above the free decision 5
    # False, cancels to level 2 and is found false there: UNSAT
    s = Solver(kernel=kernel)
    s.set_decision(3, False)
    clauses = [[-1, 2], [-3, 6], [-1, 4, 5], [-1, 4, -5]]
    for c in clauses:
        s.add_clause(c)
    out = s.solve([1, 2, 3])
    assert out.status == SAT and s.conflicts == 1
    assert_answer(out, clauses, [1, 2, 3])
    out = s.solve([1, 2, 3, -4])
    assert out.status == UNSAT and sorted(out.failed_assumptions) == [-4, 1]
    assert_answer(out, clauses, [1, 2, 3, -4])


def test_fallback_keeps_assumption_levels(kernel):
    # the first solve assumes 1 with no free variable; the second opens 2
    # at level 2 and decides 3 False at level 3; the third opens the
    # non-decision selector 4 at level 4.  The fourth opens 6, which makes
    # 5 false with 3 False: the walk cancels to level 2, keeping 1 and 2,
    # and goes on from position 2, opening 4, 6 and 5 again
    s = Solver(kernel=kernel)
    s.ensure_vars(1)
    assert s.solve([1]).status == SAT
    for v in (4, 5, 6):
        s.set_decision(v, False)
    assert s.solve([1, 2]).model[1:4] == [True, True, False]
    assert s.solve([1, 2, 4]).status == SAT
    clauses = [[3, -5, -6]]
    s.add_clause(clauses[0])
    assumptions = [1, 2, 4, 6, 5]
    out = s.solve(assumptions)
    assert out.status == SAT and s.conflicts == 0
    assert_answer(out, clauses, assumptions)
    # no free decision is left, so -3 is found false for good
    out = s.solve(assumptions + [-3])
    assert out.status == UNSAT and sorted(out.failed_assumptions) == [-3, 5, 6]
    assert_answer(out, clauses, assumptions + [-3])


def test_set_decision_rejects_bad_ids(kernel):
    s = Solver(kernel=kernel)
    for bad in (0, -1, 1.0, "1", None):
        with pytest.raises(ValueError):
            s.set_decision(bad, False)
    assert s.num_vars == 0


BAD_LITERALS = ([0], [1.0], ["1"], [None], [1, 0])


def kernel_handle(kernel, direct):
    """A kernel object itself (direct) or a sat.Solver over one; returns
    (handle, kernel object)."""
    if not direct:
        s = Solver(kernel=kernel)
        return s, s._k
    mod = _cdcl_py if kernel == "pure" else importlib.import_module("qexpand._cdcl")
    k = mod.Kernel()
    return k, k


@pytest.mark.parametrize("direct", [True, False], ids=["kernel", "solver"])
def test_bad_literals_rejected(kernel, direct):
    # the kernels check literals themselves, before any state changes,
    # also once the solver is UNSAT; sat.Solver hands them straight on
    for setup in ([], [[1, 2]], [[1], [-1]]):  # fresh, SAT, UNSAT
        h, k = kernel_handle(kernel, direct)
        for c in setup:
            h.add_clause(c)
        if setup:
            h.solve()
        before = (k.nvars, k.num_clauses, k.last_status, k.model, k.failed)
        for bad in BAD_LITERALS:
            with pytest.raises(ValueError, match="^literals must be nonzero ints$"):
                h.add_clause(bad)
            with pytest.raises(ValueError, match="^literals must be nonzero ints$"):
                h.solve(assumptions=bad)
            assert (k.nvars, k.num_clauses, k.last_status, k.model, k.failed) == before


@pytest.mark.parametrize("direct", [True, False], ids=["kernel", "solver"])
def test_generator_clause_added_whole(kernel, direct):
    h, k = kernel_handle(kernel, direct)
    h.add_clause(l for l in (1, 2))
    h.solve(assumptions=(l for l in (-1,)))
    assert (k.nvars, k.num_clauses, k.last_status) == (2, 1, 1)
    assert k.model[2] is True
    h.solve(assumptions=(l for l in (-1, -2)))
    assert k.last_status == -1 and sorted(k.failed) == [-2, -1]


def test_determinism(kernel):
    rng = random.Random(103)
    clauses, nv = random_cnf(rng, max_vars=8, max_clauses=20)
    runs = []
    for _ in range(2):
        s = Solver(kernel=kernel)
        s.ensure_vars(nv)
        for c in clauses:
            s.add_clause(c)
        out = s.solve()
        runs.append((out.status, out.model, s.conflicts, s.decisions, s.propagations))
    assert runs[0] == runs[1]


def pigeonhole(n):
    """n pigeons into n - 1 holes: unsatisfiable, many conflicts."""
    holes = range(1, n)

    def var(p, h):
        return (p - 1) * (n - 1) + h

    clauses = [[var(p, h) for h in holes] for p in range(1, n + 1)]
    for h in holes:
        for p1 in range(1, n + 1):
            for p2 in range(p1 + 1, n + 1):
                clauses.append([-var(p1, h), -var(p2, h)])
    return clauses


def observe(kernel, nv, steps):
    """Play steps on a fresh solver over nv variables; return all a
    caller can see.

    Each step is (clauses to add, then solve(assumptions, deadline),
    after set_decision(var, flag) for each pair in marks).  A step whose
    add_clause or solve raises ValueError is seen as its message.
    """
    s = Solver(kernel=kernel)
    s.ensure_vars(nv)
    seen = []
    for clauses, assumptions, deadline, marks in steps:
        for v, flag in marks:
            s.set_decision(v, flag)
        try:
            for c in clauses:
                s.add_clause(c)
            o = s.solve(assumptions, deadline=deadline)
        except ValueError as e:
            seen.append(("ValueError", str(e), s.num_vars, s.num_clauses))
            continue
        try:
            trace = s.proof_trace()
        except TraceUnavailable:
            trace = None
        seen.append(
            (o.status, o.model and list(o.model), o.failed_assumptions, trace,
             s.num_vars, s.num_clauses, s.conflicts, s.decisions,
             s.propagations, s.restarts)
        )
    return seen


def random_steps(rng, clauses, nv):
    """Split clauses over up to four solves, each under random assumptions
    and sometimes a deadline already past.  Half the time a solve's
    assumptions extend the last solve's, so a kept trail is continued.
    Some clauses get a repeated or a complementary literal."""
    clauses = [c + [rng.choice([1, -1]) * rng.choice(c)] if rng.random() < 0.2 else c
               for c in clauses]
    cuts = sorted(rng.randint(0, len(clauses)) for _ in range(rng.randint(0, 3)))
    steps = []
    assumptions = []
    for lo, hi in zip([0] + cuts, cuts + [len(clauses)]):
        if rng.random() < 0.5:
            used = {abs(l) for l in assumptions}
            vs = [v for v in range(1, nv + 1) if v not in used]
            vs = rng.sample(vs, rng.randint(0, min(2, len(vs))))
            assumptions = assumptions + [v if rng.random() < 0.5 else -v for v in vs]
        else:
            vs = rng.sample(range(1, nv + 1), rng.randint(0, nv))
            assumptions = [v if rng.random() < 0.5 else -v for v in vs]
        deadline = rng.choice([None, None, time.monotonic() - 1.0])
        steps.append((clauses[lo:hi], assumptions, deadline, ()))
    return steps


def guarded_pigeonhole_steps():
    """Nine copies of pigeonhole(7), each guarded by its own selector,
    which is marked non-decision and then assumed: about 5,000
    conflicts, past the activity rescale."""
    php = pigeonhole(7)
    return [
        ([c + [-sel] for c in php], [sel], None, [(sel, False)])
        for sel in range(100, 109)
    ]


def guarded_group_steps(rng, nv=9, assumed=3):
    """Clause groups added between solves whose assumptions extend, as
    the forall abstraction adds them, over a random 3-CNF on nv
    variables.  The first solve takes half the clauses under up to
    assumed literals; with few, free decisions sit below the selectors.
    Each later group copies every clause with most variables renamed to
    fresh ones, so it can conflict with the kept trail; it is guarded by
    a fresh non-decision selector that the solve assumes, or now and
    then added plain.  A backjump into the free decisions then undoes a
    selector that an earlier solve assumed on top of them."""
    clauses = [
        [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, nv + 1), 3)]
        for _ in range(25)
    ]
    vs = rng.sample(range(1, nv + 1), rng.randint(0, assumed))
    assumptions = [v if rng.random() < 0.5 else -v for v in vs]
    steps = [(clauses[: len(clauses) // 2], assumptions, None, ())]
    top = nv
    for _ in range(rng.randint(1, 6)):
        fresh = {}
        for v in rng.sample(range(1, nv + 1), nv * 7 // 10):
            top += 1
            fresh[v] = top
        group = [[fresh.get(abs(l), abs(l)) * (1 if l > 0 else -1) for l in c] for c in clauses]
        marks = ()
        if rng.random() < 0.8:
            top += 1
            group = [c + [-top] for c in group]
            assumptions = assumptions + [top]
            marks = [(top, False)]
        steps.append((group, assumptions, None, marks))
    return steps


def pigeonhole_after_sat_steps():
    """A SAT answer on a few clauses under an assumption, then
    pigeonhole(7) on fresh variables under a new selector that extends
    the kept assumption list: the solve restarts after 100 conflicts,
    and the walk assumes 4 again."""
    php = [[l + 10 if l > 0 else l - 10 for l in c] for c in pigeonhole(7)]
    return [
        ([[1, 2, -3], [-1, 4], [3, -4, 5]], [4], None, ()),
        ([c + [-100] for c in php], [4, 100], None, [(100, False)]),
        ([], [], None, ()),
    ]


@pytest.fixture
def kept_trail_cases(monkeypatch):
    """Count, on the pure kernel, what solves that go on from a kept trail
    meet before they restart: conflicts that keep the free decisions
    ("keep", bt >= _free_level), backjumps below the lowest free decision
    ("below"), false new assumptions over free decisions ("fallback")
    and restarts ("restart")."""
    counts = {"keep": 0, "below": 0, "fallback": 0, "restart": 0}
    # on_kept: the running solve went on from a kept trail; restarts: its
    # count when the solve began; conflict: no propagation since the last
    # conflict, so a cancel now is the backjump or the deadline's
    state = {"on_kept": False, "restarts": 0, "conflict": False}
    kernel = _cdcl_py.Kernel
    solve, handle = kernel.solve, kernel._handle_conflict
    cancel, propagate = kernel._cancel_until, kernel._propagate

    def counted_solve(k, assumptions=(), deadline=-1.0):
        assumptions = list(assumptions)
        kept = k._kept
        state["on_kept"] = (
            kept is not None
            and len(assumptions) >= len(kept)
            and all(isinstance(l, int) and _cdcl_py._intern(l) == p
                    for l, p in zip(assumptions, kept))
        )
        state["restarts"] = k.restarts
        try:
            return solve(k, assumptions, deadline)
        finally:
            if state["on_kept"] and k.restarts > state["restarts"]:
                counts["restart"] += 1
            state["on_kept"] = False

    def on_kept(k):
        return state["on_kept"] and k.restarts == state["restarts"]

    def counted_handle(k, confl):
        free = k._free_level
        state["conflict"] = True
        bt, falsified = handle(k, confl)
        if on_kept(k) and free != _cdcl_py._NO_FREE:
            counts["keep" if bt >= free else "below"] += 1
        return bt, falsified

    def counted_cancel(k, lvl):
        free = k._free_level
        if on_kept(k) and not state["conflict"] and free != _cdcl_py._NO_FREE:
            assert lvl == free - 1
            counts["fallback"] += 1
        cancel(k, lvl)

    def counted_propagate(k):
        state["conflict"] = False
        return propagate(k)

    monkeypatch.setattr(kernel, "solve", counted_solve)
    monkeypatch.setattr(kernel, "_handle_conflict", counted_handle)
    monkeypatch.setattr(kernel, "_cancel_until", counted_cancel)
    monkeypatch.setattr(kernel, "_propagate", counted_propagate)
    return counts


def search_sat(clauses):
    """Decide clauses by splitting on literals with unit propagation: an
    exhaustive search that shares no code with the kernels."""
    clauses = [set(c) for c in clauses]
    while True:
        if any(not c for c in clauses):
            return False
        unit = next((c for c in clauses if len(c) == 1), None)
        if unit is None:
            break
        (l,) = unit
        clauses = [c - {-l} for c in clauses if l not in c]
    if not clauses:
        return True
    l = next(iter(clauses[0]))
    return search_sat(clauses + [{l}]) or search_sat(clauses + [{-l}])


def assert_answer(out, clauses, assumptions):
    """A SAT model satisfies clauses and assumptions; an UNSAT is
    confirmed by search, and so are its failed assumptions."""
    if out.status == SAT:
        for c in clauses:
            assert any(out.model[abs(l)] == (l > 0) for l in c)
        for l in assumptions:
            assert out.model[abs(l)] == (l > 0)
    else:
        assert out.status == UNSAT
        assert not search_sat(clauses + [[l] for l in assumptions])
        failed = out.failed_assumptions
        assert set(failed) <= set(assumptions)
        assert not search_sat(clauses + [[l] for l in failed])


def test_guarded_groups_answer_right(kernel, kept_trail_cases):
    # every answer of solves that go on from a kept trail, checked
    # against the clauses added so far; the last sequence restarts
    rng = random.Random(107)
    sequences = [guarded_group_steps(rng) for _ in range(150)]
    for steps in sequences + [pigeonhole_after_sat_steps()]:
        s = Solver(kernel=kernel)
        s.ensure_vars(9)
        added = []
        for clauses, assumptions, _, marks in steps:
            for v, flag in marks:
                s.set_decision(v, flag)
            for c in clauses:
                s.add_clause(c)
            added += clauses
            out = s.solve(assumptions)
            assert_answer(out, added, assumptions)
            if out.status == UNSAT:
                break
    if kernel == "pure":
        assert all(kept_trail_cases.values()), kept_trail_cases


@pytest.mark.skipif(not sat.COMPILED, reason="compiled kernel not built")
def test_pure_and_compiled_agree(kept_trail_cases):
    rng = random.Random(104)
    cases = []
    for _ in range(150):
        clauses, nv = random_cnf(rng, max_vars=9, max_clauses=30)
        cases.append((nv, [(clauses, [], None, ())]))
        cases.append((nv, random_steps(rng, clauses, nv)))
        # some variables made negative-only and marked non-decision
        neg = rng.sample(range(1, nv + 1), rng.randint(1, nv))
        clauses = [[-abs(l) if abs(l) in neg else l for l in c] for c in clauses]
        steps = random_steps(rng, clauses, nv)
        steps[0] = steps[0][:3] + ([(v, False) for v in neg],)
        cases.append((nv, steps))
        # clause groups added between solves whose assumptions extend:
        # conflicts on the kept trail that keep or undo its free decisions
        cases.append((9, guarded_group_steps(rng, assumed=rng.choice([3, 9]))))
    # a past deadline (checked every 64 conflicts), then solving on to
    # the end, and clauses added after an UNKNOWN; then nine guarded
    # copies of a pigeonhole formula, each solved under its own selector:
    # restarts, long failed-assumption walks, and about 5,000 conflicts,
    # past the activity rescale (1e100); once more with the selectors
    # non-decision, as the forall abstraction marks them, and one marked
    # back before the last solve
    php = pigeonhole(7)
    past = time.monotonic() - 1.0
    cases.append((42, [(php, [], past, ()), ([], [1], None, ())]))
    cases.append((42, [(php, [-1, 2], past, ()), ([[1, 2]], [], None, ())]))
    marked = guarded_pigeonhole_steps()
    cases.append((42, [step[:3] + ((),) for step in marked]))
    cases.append((42, marked + [([], [], None, [(104, True)])]))
    # a solve on a kept trail that restarts
    cases.append((5, pigeonhole_after_sat_steps()))
    # a zero assumption is rejected, and the solver still answers after it
    cases.append((3, [([[1, 2]], [0], None, ()), ([[-1]], [], None, ())]))
    # a bad clause and a bad assumption after an UNSAT step are rejected too
    cases.append(
        (3, [([[1], [-1]], [], None, ()), ([[2, 0]], [], None, ()),
             ([], [2, None], None, ()), ([[2]], [3], None, ())])
    )
    statuses = set()
    for nv, steps in cases:
        pure = observe("pure", nv, steps)
        assert observe("compiled", nv, steps) == pure
        statuses.update(seen[0] for seen in pure)
    assert statuses == {SAT, UNSAT, UNKNOWN, "ValueError"}
    assert all(kept_trail_cases.values()), kept_trail_cases


def growing_batches(rng):
    """Batches of 3-clauses over a growing variable pool, as the forall
    abstraction adds instantiations with fresh copies: each clause has
    a variable new in its batch, so a batch added on a kept trail holds
    clauses that the trail leaves one literal free in.  The pool grows
    slower than the clauses, so most sequences end UNSAT."""
    nv = rng.randint(5, 10)
    out = []
    for _ in range(40):
        fresh = list(range(nv + 1, nv + 1 + rng.randint(1, 3)))
        nv += len(fresh)
        batch = []
        for _ in range(rng.randint(3, 14)):
            vs = set(rng.sample(range(1, nv + 1), 2)) | {rng.choice(fresh)}
            while len(vs) < 3:
                vs.add(rng.randint(1, nv))
            batch.append([v if rng.random() < 0.5 else -v for v in vs])
        out.append(batch)
    return out


def split_batches(rng, clauses):
    """clauses shuffled and cut into up to 13 batches."""
    clauses = list(clauses)
    rng.shuffle(clauses)
    cuts = sorted(rng.sample(range(1, len(clauses)), min(len(clauses) - 1, rng.randint(1, 12))))
    return [clauses[lo:hi] for lo, hi in zip([0] + cuts, cuts + [len(clauses)])]


def core_cases():
    """Clause batches to add between solves: growing pools, random
    3-CNF past the threshold, and pigeonhole(5-7)."""
    rng = random.Random(108)
    cases = [growing_batches(rng) for _ in range(120)]
    for _ in range(60):
        nv = rng.randint(8, 20)
        cnf = [[v if rng.random() < 0.5 else -v for v in rng.sample(range(1, nv + 1), 3)]
               for _ in range(int(nv * rng.uniform(4.5, 7)))]
        cases.append(split_batches(rng, cnf))
    cases += [split_batches(rng, pigeonhole(n)) for n in (5, 6, 7)]
    return cases


def solve_batches(kernel, batches):
    """Add each batch and solve after it, up to the first UNSAT; return
    the clauses added, the proof trace, and proof_core() (None when the
    last answer is SAT)."""
    s = Solver(kernel=kernel)
    added = []
    for batch in batches:
        for c in batch:
            s.add_clause(c)
        added += batch
        out = s.solve()
        if out.status == UNSAT:
            return added, s.proof_trace(), s.proof_core()
        assert_answer(out, added, [])
    return added, s._k.get_trace(), None


def assert_reasons_hold(k):
    """On a pure kernel: every literal on the trail with a reason comes
    after every other literal of that clause, all false; every lazy
    clause has c[0] true and c[1] false."""
    where = {p >> 1: i for i, p in enumerate(k._trail)}
    for i, p in enumerate(k._trail):
        r = k._reason[p >> 1]
        if r >= 0:
            others = [q for q in k._clauses[r] if q != p]
            assert len(others) == len(k._clauses[r]) - 1
            assert all(k._value(q) == 2 and where[q >> 1] < i for q in others)
    for ci in k._lazy:
        c = k._clauses[ci]
        assert k._value(c[0]) == 1 and k._value(c[1]) == 2


@pytest.fixture
def lazy_cases(monkeypatch):
    """Count, on the pure kernel, the lazy clauses add_clause makes that
    imply their literal ("imply"), the literals implied again after a
    backtrack ("reimply"), the lazy clauses dropped once their false
    watch was undone ("drop"), and learned clauses found false after
    the backjump because a lazy clause implied their literal again
    ("falsified").  After each of the first two the reasons must hold."""
    counts = {"imply": 0, "reimply": 0, "drop": 0, "falsified": 0}
    kernel = _cdcl_py.Kernel
    add_lazy, recheck, handle = kernel._add_lazy, kernel._recheck_lazy, kernel._handle_conflict

    def counted_add_lazy(k, ci):
        implied = len(k._trail)
        add_lazy(k, ci)
        counts["imply"] += len(k._trail) - implied
        assert_reasons_hold(k)

    def counted_recheck(k):
        lazy, implied = len(k._lazy), len(k._trail)
        recheck(k)
        counts["drop"] += lazy - len(k._lazy)
        counts["reimply"] += len(k._trail) - implied
        assert_reasons_hold(k)

    def counted_handle(k, confl):
        bt, falsified = handle(k, confl)
        counts["falsified"] += falsified >= 0
        return bt, falsified

    monkeypatch.setattr(kernel, "_add_lazy", counted_add_lazy)
    monkeypatch.setattr(kernel, "_recheck_lazy", counted_recheck)
    monkeypatch.setattr(kernel, "_handle_conflict", counted_handle)
    return counts


def test_core_is_exact(kernel, lazy_cases):
    # the clauses the core names are unsatisfiable alone, and its steps
    # replay on them alone; every learned clause, core or not, follows
    # from the clauses added before it and the steps before it
    unsat = 0
    for batches in core_cases():
        added, trace, core = solve_batches(kernel, batches)
        db = proof.ClauseDatabase(added)
        for step in trace:
            assert proof.rup_check(db, step)
            db.add(step)
        if core is None:
            continue
        unsat += 1
        ordinals, positions = core
        assert ordinals == sorted(set(ordinals)) and positions == sorted(set(positions))
        axioms = [added[i] for i in ordinals]
        fresh = Solver()
        for c in axioms:
            fresh.add_clause(c)
        assert fresh.solve().status == UNSAT
        db = proof.ClauseDatabase(axioms)
        for t in positions:
            assert proof.rup_check(db, trace[t])
            db.add(trace[t])
        assert trace[-1] == () and proof.rup_check(db, ())
    assert unsat > 120
    if kernel == "pure":
        assert all(lazy_cases.values()), lazy_cases


@pytest.mark.skipif(not sat.COMPILED, reason="compiled kernel not built")
def test_pure_and_compiled_cores_agree():
    for batches in core_cases():
        assert solve_batches("compiled", batches) == solve_batches("pure", batches)


def test_core_names_add_clause_calls(kernel):
    # ordinals count every add_clause call, the dropped ones too: (1, -1)
    # is a tautology, (3) is satisfied at level 0 by the unit before it
    s = Solver(kernel=kernel)
    for c in ([1, -1], [3], [3, 2], [-2, 4], [-4, -3], [2, 5], [-5, 6]):
        s.add_clause(c)
    assert s.solve().status == SAT
    s.add_clause([-6])  # 2 is False at level 0, so 5 and 6 are True there
    assert s.solve().status == UNSAT
    assert s.proof_core() == ([1, 3, 4, 5, 6, 7], [])


def test_core_unavailable(kernel):
    s = Solver(kernel=kernel)
    s.add_clause([1, 2])
    s.solve()
    with pytest.raises(TraceUnavailable):
        s.proof_core()
    # failed assumptions are no conflict at level 0
    assert s.solve([-1, -2]).status == UNSAT
    with pytest.raises(TraceUnavailable):
        s.proof_core()


def equality(n):
    """Exists x, forall u, exists t with x = u: false for every n."""
    xs = list(range(1, n + 1))
    us = list(range(n + 1, 2 * n + 1))
    ts = list(range(2 * n + 1, 3 * n + 1))
    clauses = [[-t for t in ts]]
    for x, u, t in zip(xs, us, ts):
        clauses += [[x, u, t], [-x, -u, t]]
    return Qbf([(EXISTS, xs), (FORALL, us), (EXISTS, ts)], clauses)


# sha256 over cli.json_stats_lines, one line per iteration and run, by
# reset period: of oracle.random_pcnf seeds 0-199 at periods 0 and 1,
# and of Equality n=7 at the default period 64, where it resets 5 times
# (no random_pcnf run reaches 64 iterations); and over repr(observe) on
# the guarded pigeonhole copies and one last solve with no selector.
PINNED_STATS = {
    0: "d288817f53d1190f553f3cf11dd25ee9ac5052253cf9747b614b873577258aaa",
    1: "bca4358d410960f777a486f09bf9fc30facf39dee8a9654ee45cee30349b2ea9",
    64: "5f9cdda53a6cc630919016d6f895b2b045093bb050a37d60ec9b020d23a77ccd",
}
PINNED_PIGEONHOLE = "4daaa383c92981e59d833c7ba286fb920ef849d328a537088d577676b3174f2c"


@pytest.mark.parametrize("period", [0, 1, 64])
def test_search_is_pinned(kernel, period):
    # without a C compiler nothing else would notice a changed search
    if period == 64:
        formulas = [equality(7)]
    else:
        formulas = map(oracle.random_pcnf, range(200))
    h = hashlib.sha256()
    for q in formulas:
        result = expand.solve(q, expand.SolveConfig(reset_period=period, kernel=kernel))
        for line in cli.json_stats_lines(result):
            h.update(line.encode() + b"\n")
    assert h.hexdigest() == PINNED_STATS[period]


def test_pure_kernel_order_contract(monkeypatch):
    """Each pick is the maximum of (activity, -index) over the unassigned
    decision variables, and stale entries never leave the order queue
    longer than 2 * nvars + 64 after a solve."""
    pick = _cdcl_py.Kernel._pick_branch
    solve = _cdcl_py.Kernel.solve
    picks = []
    rescaled = []

    def checked_pick(k):
        free = [v for v in range(1, k.nvars + 1) if k._assigns[v] == 0 and k._decision[v]]
        want = max(free, key=lambda v: (k._act[v], -v), default=0)
        v = pick(k)
        assert v == want
        picks.append(v)
        return v

    def checked_solve(k, *args, **kwargs):
        out = solve(k, *args, **kwargs)
        assert len(k._queue) <= 2 * k.nvars + 64
        # without a rescale var_inc is at least DECAY ** (conflicts - 1)
        rescaled.append(k._var_inc < _cdcl_py._ACT_BUMP_DECAY ** (k.conflicts - 1))
        return out

    monkeypatch.setattr(_cdcl_py.Kernel, "_pick_branch", checked_pick)
    monkeypatch.setattr(_cdcl_py.Kernel, "solve", checked_solve)
    # then a solve with no selector assumed picks every variable in turn
    seen = observe("pure", 42, guarded_pigeonhole_steps() + [([], [], None, ())])
    assert [step[0] for step in seen] == [UNSAT] * 9 + [SAT]
    assert picks and rescaled[-1]
    assert hashlib.sha256(repr(seen).encode()).hexdigest() == PINNED_PIGEONHOLE


def test_pure_kernel_rescale_reorders_queue():
    # right after a rescale a variable is bumped past one that was above
    # it; entries keyed by the old activities would still put it second
    k = _cdcl_py.Kernel()
    k.ensure_vars(3)
    k._bump(3)
    k._var_inc = 0.6e100
    k._bump(2)
    k._bump(2)  # past 1e100: every activity scales by 1e-100
    assert k._var_inc < 1.0
    for _ in range(3):
        k._bump(3)
    assert [k._pick_branch() for _ in range(4)] == [3, 2, 1, 0]


def test_c_kernel_compiles_without_warnings(tmp_path):
    source = os.path.join(os.path.dirname(sat.__file__), "_cdcl.c")
    cc = shlex.split(os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc")
    if not shutil.which(cc[0]):
        pytest.skip("no C compiler: %s" % cc[0])
    include = sysconfig.get_paths()["include"]
    if not os.path.exists(os.path.join(include, "Python.h")):
        pytest.skip("no Python.h in %s" % include)
    proc = subprocess.run(
        cc
        + ["-O2", "-Wall", "-Wextra", "-Wpedantic", "-std=c99", "-Werror"]
        + ["-I", include, "-c", source, "-o", str(tmp_path / "_cdcl.o")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_conflict_budget_unknown(kernel):
    # the only budget is the deadline, checked every 64 conflicts
    s = Solver(kernel=kernel)
    for c in pigeonhole(7):
        s.add_clause(c)
    out = s.solve(deadline=time.monotonic() - 1.0)
    assert out.status == UNKNOWN
    assert s.conflicts == 64


def test_trace_recording(kernel):
    s = Solver(kernel=kernel)
    for c in ([1, 2], [1, -2], [-1, 2], [-1, -2]):
        s.add_clause(c)
    out = s.solve()
    assert out.status == UNSAT
    trace = s.proof_trace()
    assert trace[-1] == ()
    assert all(isinstance(c, tuple) for c in trace)


def test_trace_unavailable(kernel):
    s = Solver(kernel=kernel)
    s.add_clause([1])
    s.solve()
    with pytest.raises(TraceUnavailable):
        s.proof_trace()


def test_instance_independence(kernel):
    a = Solver(kernel=kernel)
    b = Solver(kernel=kernel)
    a.add_clause([1])
    b.add_clause([-1])
    assert a.solve().status == SAT
    assert b.solve().status == SAT
    assert a.solve(assumptions=[-1]).status == UNSAT
    assert b.solve(assumptions=[-1]).status == SAT


def test_stats_accumulate(kernel):
    s = Solver(kernel=kernel)
    s.add_clause([1, 2])
    s.solve()
    s.solve(assumptions=[-1])
    assert s.num_vars == 2
    assert s.num_clauses == 1
    assert s.propagations > 0
