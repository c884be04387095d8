import random

import pytest

from qexpand import annotate, expand, oracle
from qexpand.expand import (
    FALSE,
    TRUE,
    UNKNOWN,
    ExpansionState,
    InvariantViolation,
    SolveConfig,
    check_completion,
    initial_alphas,
    solve,
)
from qexpand.formula import EXISTS, FORALL, Assignment, Qbf


def alternating_true_qbf():
    return Qbf(
        [(FORALL, [1]), (EXISTS, [2]), (FORALL, [3]), (EXISTS, [4])],
        [[2, 1, 4], [-2, -1, 4], [-4, 3]],
    )


def switch_false_qbf():
    return Qbf(
        [(FORALL, [1]), (EXISTS, [2]), (FORALL, [3]), (EXISTS, [4, 5])],
        [
            [-5, 1],
            [-5, 3],
            [-5, -2],
            [-5, -4],
            [5, -1],
            [5, 2],
            [5, -3, 4],
            [5, 3, -4],
        ],
    )


def xor_true_qbf():
    # exists x must track not-u, so both candidate values are needed
    return Qbf([(FORALL, [1]), (EXISTS, [2])], [[1, 2], [-1, -2]])


def verdict_of(value):
    return TRUE if value else FALSE


def test_true_example():
    r = solve(alternating_true_qbf())
    assert r.verdict == TRUE
    assert r.iterations >= 1
    assert len(r.witness) == len(r.state.sigmas)
    assert r.state.verdict == TRUE


def test_false_example():
    r = solve(switch_false_qbf())
    assert r.verdict == FALSE
    assert r.witness == []
    assert r.state.core
    for lits, idx, alpha in r.state.core:
        assert 0 <= idx < len(r.state.q.matrix)
        assert alpha in r.state.alphas


def test_empty_matrix_is_true():
    q = Qbf([(FORALL, [1]), (EXISTS, [2])], [])
    r = solve(q)
    assert r.verdict == TRUE
    assert r.iterations == 1


def test_empty_clause_is_false():
    q = Qbf([(FORALL, [1]), (EXISTS, [2])], [[1, 2], []])
    r = solve(q)
    assert r.verdict == FALSE
    assert r.iterations == 1
    assert any(lits == () for lits, idx, alpha in r.state.core)


def test_no_universals():
    assert solve(Qbf([(EXISTS, [1, 2])], [[1, 2], [-1]])).verdict == TRUE
    assert solve(Qbf([(EXISTS, [1])], [[1], [-1]])).verdict == FALSE


def test_no_existentials():
    r = solve(Qbf([(FORALL, [1])], [[1]]))
    assert r.verdict == FALSE
    r = solve(Qbf([(FORALL, [1, 2])], [[1, -1, 2]]))
    assert r.verdict == TRUE


def test_initial_alphas_per_block():
    q = alternating_true_qbf()
    out = initial_alphas(q, SolveConfig())
    assert len(out) == 2
    assert out[0].as_dict() == {1: False, 3: True}
    assert out[1].as_dict() == {1: True, 3: False}


def test_initial_alphas_modes():
    q = alternating_true_qbf()
    out = initial_alphas(q, SolveConfig(init_mode="all-false"))
    assert [a.as_dict() for a in out] == [{1: False, 3: False}]
    out = initial_alphas(q, SolveConfig(init_mode="all-true"))
    assert [a.as_dict() for a in out] == [{1: True, 3: True}]
    out = initial_alphas(q, SolveConfig(init_mode="random", seed=5))
    assert len(out) == 1
    assert sorted(out[0].as_dict()) == [1, 3]
    again = initial_alphas(q, SolveConfig(init_mode="random", seed=5))
    assert out[0] == again[0]
    no_u = Qbf([(EXISTS, [1])], [[1]])
    out = initial_alphas(no_u, SolveConfig())
    assert len(out) == 1 and out[0].count() == 0
    with pytest.raises(ValueError):
        initial_alphas(q, SolveConfig(init_mode="bogus"))
    with pytest.raises(ValueError):
        solve(q, SolveConfig(init_mode="bogus"))


def test_xor_needs_two_iterations():
    r = solve(xor_true_qbf(), SolveConfig(verify_invariants=True))
    assert r.verdict == TRUE
    assert r.iterations == 2
    assert len(r.state.sigmas) == 2
    assert len(r.state.alphas) == 2


def test_unknown_on_max_iterations():
    r = solve(xor_true_qbf(), SolveConfig(max_iterations=1))
    assert r.verdict == UNKNOWN
    assert r.iterations == 1


def test_unknown_on_time_limit():
    r = solve(xor_true_qbf(), SolveConfig(time_limit=0.0))
    assert r.verdict == UNKNOWN
    assert r.iterations == 0


def test_verdicts_match_oracle():
    for seed in range(200):
        q = oracle.random_pcnf(seed)
        want = verdict_of(oracle.decide_semantic(q))
        r = solve(q, SolveConfig(reset_period=0, verify_invariants=True))
        assert r.verdict == want, "seed %d" % seed
        assert r.state.resets == 0
        for rec in r.stats[:-1]:
            assert rec["new_sigmas"] >= 1
            assert rec["new_alphas"] >= 1


def test_iteration_bound_without_resets():
    for seed in range(120):
        q = oracle.random_pcnf(seed)
        r = solve(q, SolveConfig(reset_period=0))
        nu = len(q.universals)
        ne = len(q.existentials)
        assert r.iterations <= min(2 ** nu, 2 ** ne) + 1


def test_reset_verdicts_match():
    resets = 0
    for period in (1, 2):
        for seed in range(80):
            q = oracle.random_pcnf(seed)
            base = solve(q, SolveConfig(reset_period=0)).verdict
            r = solve(
                q, SolveConfig(reset_period=period, verify_invariants=True)
            )
            assert r.verdict == base, "seed %d period %d" % (seed, period)
            resets += r.state.resets
            for rec in r.stats[:-1]:
                assert rec["new_sigmas"] >= 1
                # a reset iteration counts distinct strips missing from
                # the alphas it replaces, so it grows too
                assert 1 <= rec["new_alphas"] <= rec["size_a"]
    assert resets > 0


def test_memory_threshold_triggers_reset(monkeypatch):
    monkeypatch.setattr(expand, "RESET_MEMORY_THRESHOLD", 0)
    q = xor_true_qbf()
    r = solve(q, SolveConfig(reset_period=0))
    assert r.verdict == TRUE
    assert r.state.resets >= 1


def test_stats_shape():
    r = solve(alternating_true_qbf(), SolveConfig(reset_period=0))
    assert len(r.stats) == r.iterations
    for rec in r.stats:
        for key in (
            "iteration",
            "forall_status",
            "exists_status",
            "new_sigmas",
            "new_alphas",
            "size_a",
            "size_s",
            "reset",
            "live_clauses",
            "live_literals",
            "forall_conflicts",
            "exists_conflicts",
            "forall_time",
        ):
            assert key in rec, key
    assert r.stats[-1]["exists_status"] == "unsat"
    sizes = [rec["size_s"] for rec in r.stats]
    assert sizes == sorted(sizes)


def test_deterministic_runs():
    def strip_times(stats):
        return [
            {k: v for k, v in rec.items() if not k.endswith("_time")}
            for rec in stats
        ]

    for seed in (3, 17, 40):
        q = oracle.random_pcnf(seed)
        r1 = solve(q, SolveConfig())
        r2 = solve(q, SolveConfig())
        assert r1.verdict == r2.verdict
        assert strip_times(r1.stats) == strip_times(r2.stats)


def test_hook_receives_state_and_injects():
    q = alternating_true_qbf()
    seen = []

    def hook(state):
        seen.append(state.iteration)
        if state.iteration == 1:
            return [[3, -3, 1]]
        return None

    r = solve(q, SolveConfig(), on_iteration=hook)
    assert r.verdict == TRUE
    assert seen == list(range(1, r.iterations + 1))[: len(seen)]
    # tautology is dropped at construction, so nothing was really added
    assert r.state.injected_clauses == 1


def test_hook_injected_clause_shapes_instantiations():
    q = xor_true_qbf()

    def hook(state):
        if state.iteration == 1:
            return [[1, 2]]
        return None

    r = solve(q, SolveConfig(), on_iteration=hook)
    assert r.verdict == TRUE
    assert r.state.injected_clauses == 1
    assert len(r.state.work_q.matrix) == 3
    assert len(r.state.q.matrix) == 2


def test_hook_clauses_keep_verdicts():
    # adding a model-preserving clause must never flip the answer
    for seed in range(40):
        q = oracle.random_pcnf(seed)
        base = solve(q, SolveConfig(reset_period=0)).verdict
        first = q.matrix[0]

        def hook(state, extra=first):
            if state.iteration == 1 and len(extra) > 1:
                return [list(extra) + []]
            return None

        r = solve(q, SolveConfig(reset_period=0), on_iteration=hook)
        assert r.verdict == base, "seed %d" % seed


def test_check_completion_reports_violation():
    q = xor_true_qbf()
    state = ExpansionState(q, SolveConfig())
    state.alphas.add(Assignment.from_pairs(q, {1: False}))
    state.sigmas.add(Assignment.from_pairs(q, {2: False}))
    report = check_completion(state, s_side=True, a_side=False)
    assert report.violations == [
        ("s-completes-a", state.alphas.items[0], None)
    ]
    report = check_completion(state, s_side=False, a_side=True)
    assert report.violations == []
    state.sigmas.add(Assignment.from_pairs(q, {2: True}))
    report = check_completion(state, s_side=True, a_side=False)
    assert report.violations == []


def test_check_completion_clean_after_true_run():
    r = solve(alternating_true_qbf(), SolveConfig(reset_period=0))
    report = check_completion(r.state, s_side=True, a_side=False)
    assert report.violations == []


def test_stall_without_resets_is_a_bug(monkeypatch):
    # every sigma strip reads {2: False}, so some refinement step must
    # find nothing new; that is a bug whether or not a reset came first
    q = xor_true_qbf()
    real_strip = annotate.strip
    pinned = Assignment.from_pairs(q, {2: False})

    def pinned_strip(model, source, table):
        if table.kind == "universal":
            return pinned
        return real_strip(model, source, table)

    monkeypatch.setattr(annotate, "strip", pinned_strip)
    states = []
    with pytest.raises(InvariantViolation):
        solve(q, SolveConfig(init_mode="all-false", reset_period=0))
    # all-true seeds {1: True}; iteration 1 adds {1: False} and resets
    # onto it, iteration 2's forall model wants {2: True} and is refused
    with pytest.raises(InvariantViolation):
        solve(
            q,
            SolveConfig(init_mode="all-true", reset_period=1),
            on_iteration=states.append,
        )
    assert [st.resets for st in states] == [1]


def test_backend_validation():
    with pytest.raises(ValueError):
        solve(xor_true_qbf(), SolveConfig(backend="minisat"))


def test_external_backend(tmp_path):
    stub = tmp_path / "stub_solver.py"
    stub.write_text(
        "#!/usr/bin/env python3\n"
        "import sys\n"
        "sys.path.insert(0, %r)\n"
        "from qexpand import _cdcl_py\n"
        "text = open(sys.argv[1]).read()\n"
        "lits = []\n"
        "clauses = []\n"
        "nv = 0\n"
        "for line in text.splitlines():\n"
        "    t = line.split()\n"
        "    if not t or t[0] in ('c', 'p'):\n"
        "        if t and t[0] == 'p':\n"
        "            nv = int(t[2])\n"
        "        continue\n"
        "    for x in map(int, t):\n"
        "        if x == 0:\n"
        "            clauses.append(tuple(lits))\n"
        "            lits = []\n"
        "        else:\n"
        "            lits.append(x)\n"
        "k = _cdcl_py.Kernel()\n"
        "k.ensure_vars(nv)\n"
        "for c in clauses:\n"
        "    k.add_clause(c)\n"
        "st = k.solve()\n"
        "if st == _cdcl_py.SAT:\n"
        "    print('s SATISFIABLE')\n"
        "    print('v ' + ' '.join(\n"
        "        str(v if k.model[v] else -v) for v in range(1, nv + 1)\n"
        "    ) + ' 0')\n"
        "    sys.exit(10)\n"
        "print('s UNSATISFIABLE')\n"
        "sys.exit(20)\n"
        % str(_src_dir())
    )
    stub.chmod(0o755)
    cfg = SolveConfig(backend="external:%s" % stub)
    assert solve(alternating_true_qbf(), cfg).verdict == TRUE
    r = solve(switch_false_qbf(), cfg)
    assert r.verdict == FALSE
    assert r.state.core  # every active clause lands in the core
    for seed in range(10):
        q = oracle.random_pcnf(seed)
        want = solve(q, SolveConfig(reset_period=0)).verdict
        assert solve(q, SolveConfig(backend=cfg.backend)).verdict == want


def _src_dir():
    import qexpand

    return qexpand.__path__[0].rsplit("/qexpand", 1)[0]
