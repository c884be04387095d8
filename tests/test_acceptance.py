"""End-to-end acceptance suite; every test prints one pass/fail line.

The random base suite (1000 seeded instances) is solved once with
invariant verification on and shared by the criteria that re-examine
its runs from different angles.
"""

import random
import subprocess
import sys
import time

import pytest

from qexpand import annotate, cli, expand, oracle, proof, qdimacs
from qexpand.expand import FALSE, TRUE, SolveConfig
from qexpand.formula import EXISTS, FORALL, Qbf

SUITE_SIZE = 1000


@pytest.fixture(scope="module")
def suite():
    runs = []
    t0 = time.perf_counter()
    for seed in range(SUITE_SIZE):
        q = oracle.random_pcnf(seed)
        want = TRUE if oracle.decide_semantic(q) else FALSE
        r = expand.solve(q, SolveConfig(reset_period=0, verify_invariants=True))
        runs.append((seed, q, want, r))
    return runs, time.perf_counter() - t0


def test_01_oracle_agreement(suite, acceptance):
    runs, elapsed = suite
    bad = [seed for seed, q, want, r in runs if r.verdict != want]
    ok = not bad and elapsed < 300.0
    acceptance(
        ok,
        "[ 1] oracle agreement: %d/%d random verdicts match exhaustive semantics in %.1fs"
        % (len(runs) - len(bad), len(runs), elapsed),
    )
    assert not bad
    assert elapsed < 300.0


def alternation_true_qbf():
    # inner choice can always track the sign of the outer universal
    return Qbf(
        [(FORALL, [1]), (EXISTS, [2]), (FORALL, [3]), (EXISTS, [4])],
        [[1, 2, 4], [-1, -2, 4], [3, -4]],
    )


def branch_switch_target(a, x, b, y):
    # one branch per value of a; no single x works for both values of b
    return (a and b and not x and not y) or (not a and x and (b == y))


def branch_switch_flat_qbf():
    # the target distributed into clauses over the original variables
    return Qbf(
        [(FORALL, [1]), (EXISTS, [2]), (FORALL, [3]), (EXISTS, [4])],
        [
            [1, 2],
            [1, -3, 4],
            [1, 3, -4],
            [-1, 3],
            [2, 3],
            [3, -4],
            [-1, -2],
            [-2, -3, 4],
            [-2, 3, -4],
            [-1, -4],
            [2, -4],
        ],
    )


def branch_switch_switched_qbf():
    # the target encoded with an innermost selector variable 5
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


def test_02_handcrafted_verdicts(acceptance):
    q_true = alternation_true_qbf()
    q_flat = branch_switch_flat_qbf()
    q_switched = branch_switch_switched_qbf()

    target = 0
    for j in range(16):
        if branch_switch_target(j & 1, j >> 1 & 1, j >> 2 & 1, j >> 3 & 1):
            target |= 1 << j
    flat_ok = oracle.truth_mask(q_flat.matrix, [1, 2, 3, 4]) == target

    switched = 0
    m5 = oracle.truth_mask(q_switched.matrix, [1, 2, 3, 4, 5])
    for j in range(16):
        if m5 >> j & 1 or m5 >> (j | 16) & 1:
            switched |= 1 << j
    switched_ok = switched == target

    oracles_ok = (
        oracle.decide_semantic(q_true)
        and not oracle.decide_semantic(q_flat)
        and not oracle.decide_semantic(q_switched)
    )
    v_true = expand.solve(q_true).verdict
    v_flat = expand.solve(q_flat).verdict
    v_switched = expand.solve(q_switched).verdict
    ok = (
        flat_ok
        and switched_ok
        and oracles_ok
        and v_true == TRUE
        and v_flat == FALSE
        and v_switched == FALSE
    )
    acceptance(
        ok,
        "[ 2] handcrafted formulas: alternation TRUE, branch switch FALSE in "
        "both encodings (encodings oracle-checked)",
    )
    assert flat_ok and switched_ok and oracles_ok
    assert (v_true, v_flat, v_switched) == (TRUE, FALSE, FALSE)


def test_03_growth_every_iteration(suite, acceptance):
    runs, _ = suite
    checked = 0
    violations = 0
    for seed, q, want, r in runs:
        assert r.state.resets == 0
        for rec in r.stats[:-1]:
            checked += 1
            if rec["new_sigmas"] < 1 or rec["new_alphas"] < 1:
                violations += 1
    ok = violations == 0 and checked > 0
    acceptance(
        ok,
        "[ 3] growth: both sets grew in %d/%d non-terminal iterations (no resets)"
        % (checked - violations, checked),
    )
    assert violations == 0


def test_04_completion_invariants(suite, acceptance):
    # per-iteration checks already ran inside solve (verify_invariants);
    # re-check the side that was updated last on every final state
    runs, _ = suite
    pairs = 0
    violations = 0
    for seed, q, want, r in runs:
        rep = expand.check_completion(
            r.state, s_side=r.verdict == TRUE, a_side=r.verdict == FALSE
        )
        pairs += rep.checked_pairs
        violations += len(rep.violations)
    ok = violations == 0
    acceptance(
        ok,
        "[ 4] completion: 0 violations in-run and in %d final-state coverage checks"
        % pairs,
    )
    assert violations == 0


def _force_value(mask, n, pos, val):
    # truth table with variable number pos fixed to val on both halves
    full = (1 << (1 << n)) - 1
    p = oracle._pattern(pos, n)
    step = 1 << pos
    if val:
        half = mask & p
        return half | (half >> step)
    half = mask & (p ^ full)
    return half | (half << step)


def test_05_instantiation_matches_substitution(acceptance):
    total = 10000
    bad = 0
    for i in range(total):
        q = oracle.random_pcnf(70000 + i, max_vars=8)
        rng = random.Random(70000 + i)
        density = rng.choice((0.0, 0.3, 0.5, 0.8, 1.0))
        a = oracle.random_partial_assignment(q, rng, density)
        order = list(q.prefix_order)
        n = len(order)
        want = oracle.truth_mask(q.matrix, order)
        for pos, v in enumerate(order):
            val = a.value(v)
            if val is not None:
                want = _force_value(want, n, pos, val)
        stripped = [
            [lit for lit, _ann in lits]
            for _idx, lits in annotate._instantiate_core(q, a)
        ]
        if oracle.truth_mask(stripped, order) != want:
            bad += 1
    ok = bad == 0
    acceptance(
        ok,
        "[ 5] instantiate+strip: %d/%d truth tables equal direct substitution"
        % (total - bad, total),
    )
    assert bad == 0


def test_06_iteration_bound(suite, acceptance):
    runs, _ = suite
    worst = 0
    over = 0
    for seed, q, want, r in runs:
        bound = min(2 ** len(q.universals), 2 ** len(q.existentials)) + 1
        worst = max(worst, r.iterations)
        if r.iterations > bound:
            over += 1
    ok = over == 0
    acceptance(
        ok,
        "[ 6] iteration bound: iterations <= min(2^|U|, 2^|E|)+1 on %d/%d runs (max seen %d)"
        % (len(runs) - over, len(runs), worst),
    )
    assert over == 0


def test_07_reset_safety(suite, acceptance):
    runs, _ = suite
    mismatches = 0
    did_reset = 0
    for period in (1, 2, 8):
        for seed, q, want, r in runs:
            rp = expand.solve(q, SolveConfig(reset_period=period))
            if rp.verdict != r.verdict:
                mismatches += 1
            if rp.state.resets:
                did_reset += 1
    ok = mismatches == 0 and did_reset > 0
    acceptance(
        ok,
        "[ 7] reset safety: verdicts identical for reset periods 1, 2, 8 "
        "(%d runs, %d with resets)" % (3 * len(runs), did_reset),
    )
    assert mismatches == 0
    assert did_reset > 0


def _mutate_axiom_literal(q, cert, rng):
    axioms = list(cert.axioms)
    with_lits = [i for i, ax in enumerate(axioms) if ax[2]]
    if with_lits:
        i = rng.choice(with_lits)
        idx, alpha, lits = axioms[i]
        j = rng.randrange(len(lits))
        lits = lits[:j] + (-lits[j],) + lits[j + 1 :]
        axioms[i] = (idx, alpha, lits)
    else:
        # flipping a variable absent from the clause would leave the
        # certificate valid, so flip one the clause actually tests
        i = rng.randrange(len(axioms))
        idx, alpha, lits = axioms[i]
        occurring = {abs(l) for l in q.matrix[idx]}
        spots = [j for j, al in enumerate(alpha) if abs(al) in occurring]
        j = rng.choice(spots)
        alpha = alpha[:j] + (-alpha[j],) + alpha[j + 1 :]
        axioms[i] = (idx, alpha, lits)
    return proof.Certificate(axioms, list(cert.trace))


def _inject_underivable_clause(cert):
    clauses = [lits for _, _, lits in cert.axioms] + list(cert.trace)
    fresh = max((abs(l) for lits in clauses for l in lits), default=0) + 1
    trace = [(fresh,)] + list(cert.trace)
    return proof.Certificate(list(cert.axioms), trace)


def test_08_certificates(suite, acceptance, tmp_path):
    runs, _ = suite
    false_runs = [(seed, q, r) for seed, q, want, r in runs if r.verdict == FALSE]
    certs = []
    invalid = 0
    for seed, q, r in false_runs:
        cert = proof.extract_certificate(r.state)
        res = proof.check_certificate(q, cert)
        if not res.ok:
            invalid += 1
        certs.append((q, cert))

    # one pass through the command line as well
    qfile = tmp_path / "branch_switch.qdimacs"
    cfile = tmp_path / "branch_switch.cert"
    qdimacs.write_file(branch_switch_switched_qbf(), str(qfile))
    cli_ok = (
        cli.main(["solve", str(qfile), "--cert", str(cfile), "--quiet"]) == 20
        and cli.main(["check", str(qfile), str(cfile), "--quiet"]) == 0
    )

    rng = random.Random(8)
    rejected = 0
    for q, cert in certs[:50]:
        if not proof.check_certificate(q, _mutate_axiom_literal(q, cert, rng)).ok:
            rejected += 1

    # a clause insertion is only refutable when unit propagation alone
    # does not already close the axioms, so hunt for such certificates
    eligible = []
    seed = SUITE_SIZE
    while len(eligible) < 50 and seed < 60000:
        q = oracle.random_pcnf(seed)
        r = expand.solve(q, SolveConfig(reset_period=0))
        if r.verdict == FALSE:
            cert = proof.extract_certificate(r.state)
            if not proof.rup_check(proof.ClauseDatabase(ax[2] for ax in cert.axioms), ()):
                eligible.append((q, cert))
        seed += 1
    assert len(eligible) == 50
    for q, cert in eligible:
        assert proof.check_certificate(q, cert).ok
        if not proof.check_certificate(q, _inject_underivable_clause(cert)).ok:
            rejected += 1

    ok = invalid == 0 and rejected == 100 and cli_ok and len(certs) > 0
    acceptance(
        ok,
        "[ 8] certificates: %d/%d false runs certified, %d/100 tampered variants rejected"
        % (len(certs) - invalid, len(certs), rejected),
    )
    assert invalid == 0
    assert rejected == 100
    assert cli_ok


EDGE_FILES = [
    ("free variable", "p cnf 3 2\na 1 0\ne 2 0\n1 2 3 0\n-3 -1 0\n"),
    ("oversized header", "p cnf 9 1\ne 1 2 0\n1 -2 0\n"),
    ("clause count mismatch", "p cnf 2 5\ne 1 2 0\n1 0\n-1 2 0\n"),
    ("crlf", "p cnf 2 2\r\na 1 0\r\ne 2 0\r\n1 2 0\r\n-1 -2 0\r\n"),
    ("cr only", "p cnf 1 1\re 1 0\r1 0\r"),
    ("comments", "c top\np cnf 2 1\nc mid\na 1 0\nc deep\ne 2 0\n1 -2 0\nc tail\n"),
    ("clause spans lines", "p cnf 3 1\ne 1 2 3 0\n1\n-2\n3 0\n"),
    ("clauses share a line", "p cnf 2 3\ne 1 2 0\n1 0 -1 2 0 -2 0\n"),
    ("empty matrix", "p cnf 2 0\na 1 0\ne 2 0\n"),
    ("empty clause", "p cnf 1 2\ne 1 0\n1 0\n0\n"),
    ("alternating blocks", "p cnf 4 2\ne 1 0\na 2 0\ne 3 4 0\n1 2 -3 0\n-1 -2 4 0\n"),
    ("single block", "p cnf 3 2\ne 1 2 3 0\n1 2 0\n-2 -3 0\n"),
    ("no prefix", "p cnf 2 2\n1 2 0\n-1 -2 0\n"),
    ("blank lines", "p cnf 2 1\n\ne 1 2 0\n\n\n1 2 0\n\n"),
    ("stray spacing", "p  cnf  2  1\ne  1   2 0\n  1\t-2  0\n"),
    ("no final newline", "p cnf 1 1\ne 1 0\n-1 0"),
    ("tautology", "p cnf 2 2\ne 1 2 0\n1 -1 0\n1 2 0\n"),
    ("duplicate literal", "p cnf 2 1\ne 1 2 0\n1 1 -2 0\n"),
    ("empty quantifier line", "p cnf 2 1\na 0\ne 1 2 0\n1 2 0\n"),
    ("comment without space", "c\nchello\np cnf 1 1\ne 1 0\n1 0\n"),
]


def _shape(q):
    return (
        [(b.quantifier, tuple(b.variables)) for b in q.blocks],
        list(q.matrix),
    )


def test_09_format_round_trip(suite, acceptance):
    runs, _ = suite
    bad = 0
    for seed, q, want, r in runs:
        q2, _diag = qdimacs.parse(qdimacs.write(q))
        if _shape(q2) != _shape(q):
            bad += 1
    edge_bad = 0
    for name, text in EDGE_FILES:
        q1, d1 = qdimacs.parse(text)
        q2, d2 = qdimacs.parse(qdimacs.write(q1))
        if _shape(q2) != _shape(q1):
            edge_bad += 1
    ok = bad == 0 and edge_bad == 0
    acceptance(
        ok,
        "[ 9] format round-trip: identity on %d/%d random instances and %d/%d edge files"
        % (
            len(runs) - bad,
            len(runs),
            len(EDGE_FILES) - edge_bad,
            len(EDGE_FILES),
        ),
    )
    assert bad == 0 and edge_bad == 0
    # spot-check the diagnostics the edge files are meant to trigger
    q, d = qdimacs.parse(EDGE_FILES[0][1])
    assert d.free_vars == (3,)
    assert q.blocks[0].quantifier == EXISTS
    _, d = qdimacs.parse(EDGE_FILES[2][1])
    assert any("declares" in w for w in d.warnings)
    q, d = qdimacs.parse(EDGE_FILES[16][1])
    assert d.dropped_tautologies == 1 and len(q.matrix) == 1


def test_10_cli_determinism(suite, acceptance, tmp_path):
    qfile = tmp_path / "instance.qdimacs"
    qdimacs.write_file(branch_switch_switched_qbf(), str(qfile))
    cmd = [
        sys.executable,
        "-m",
        "qexpand.cli",
        "solve",
        str(qfile),
        "--stats",
        "json",
    ]
    r1 = subprocess.run(cmd, capture_output=True)
    r2 = subprocess.run(cmd, capture_output=True)
    ok = (
        r1.returncode == 20
        and r2.returncode == 20
        and r1.stdout == r2.stdout
        and len(r1.stdout) > 0
        and b"_time" not in r1.stdout
        and r1.stdout.rstrip().endswith(b"s cnf 0")
    )
    acceptance(
        ok, "[10] determinism: two repeated solver runs produced byte-identical output"
    )
    assert ok


def test_11_backend_against_enumeration(suite, acceptance):
    from qexpand import sat

    total = 2000
    bad = 0
    for seed in range(total):
        clauses, nv = oracle.random_cnf(seed)
        order = list(range(1, nv + 1))
        full = (1 << (1 << nv)) - 1
        mask = oracle.truth_mask(clauses, order)

        s = sat.Solver()
        for c in clauses:
            s.add_clause(c)
        s.ensure_vars(nv)
        if (s.solve().status == sat.SAT) != (mask != 0):
            bad += 1
            continue

        # the random literals go on as unit clauses, on the kept trail of
        # the first answer; an UNSAT core must be unsatisfiable alone
        rng = random.Random(9000 + seed)
        vs = rng.sample(order, min(rng.randint(1, 4), nv))
        units = [[v if rng.random() < 0.5 else -v] for v in vs]
        am = mask
        for (l,) in units:
            # variable v sits at truth-table position v-1
            p = oracle._pattern(abs(l) - 1, nv)
            am &= p if l > 0 else p ^ full
            s.add_clause([l])
        out = s.solve()
        if (out.status == sat.SAT) != (am != 0):
            bad += 1
            continue
        if out.status == sat.UNSAT:
            ordinals, _ = s.proof_core()
            added = clauses + units
            if oracle.truth_mask([added[i] for i in ordinals], order) != 0:
                bad += 1
    ok = bad == 0
    acceptance(
        ok,
        "[11] backend: %d/%d CNF verdicts match enumeration, with units added, cores re-verified"
        % (total - bad, total),
    )
    assert bad == 0
