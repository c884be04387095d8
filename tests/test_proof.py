import pytest

from qexpand import oracle, proof
from qexpand.expand import FALSE, SolveConfig, solve
from qexpand.formula import EXISTS, FORALL, Qbf
from qexpand.proof import (
    Certificate,
    CertificateError,
    CertificateUnavailable,
    check_certificate,
    extract_certificate,
    format_certificate,
    parse_certificate,
    read_certificate_file,
    rup_check,
    write_certificate_file,
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


def false_cert(q=None, config=None):
    q = q or switch_false_qbf()
    r = solve(q, config or SolveConfig())
    assert r.verdict == FALSE
    return q, extract_certificate(r.state)


def test_rup_check_basic():
    clauses = [(1, 2), (-1, 2), (-2, 3)]
    assert rup_check(clauses, (2,))
    assert rup_check(clauses + [(-2,), (2,)], ())
    assert rup_check(clauses, (3,))
    assert not rup_check(clauses, (1,))
    assert not rup_check(clauses, ())
    assert rup_check([()], ())
    # negated clause already contradicts itself
    assert rup_check([], (1, -1))


def test_extract_and_check():
    q, cert = false_cert()
    assert cert.trace[-1] == ()
    assert cert.axioms
    for idx, alpha_lits, lits in cert.axioms:
        assert 0 <= idx < len(q.matrix)
        assert {abs(l) for l in alpha_lits} == {1, 3}
    res = check_certificate(q, cert)
    assert res.ok, res.reason


def test_text_roundtrip():
    q, cert = false_cert()
    text = format_certificate(cert)
    back = parse_certificate(text)
    assert back == cert
    assert check_certificate(q, back).ok


EQUALITY_2_CERTIFICATE = """\
d 1 5 00
d 2 6 00
d 3 1 -
d 4 2 -
d 8 5 01
d 9 6 01
d 13 5 10
d 14 6 10
d 18 5 11
d 19 6 11
a 4 3 4 0 -4 19 0
a 2 3 4 0 -3 18 0
a 0 3 4 0 -18 -19 0
a 3 3 -4 0 4 14 0
a 2 3 -4 0 -3 13 0
a 0 3 -4 0 -13 -14 0
a 4 -3 4 0 -4 9 0
a 1 -3 4 0 3 8 0
a 0 -3 4 0 -8 -9 0
a 3 -3 -4 0 4 2 0
a 1 -3 -4 0 3 1 0
a 0 -3 -4 0 -1 -2 0
r -3 0
r 0
"""


def test_certificate_text_is_pinned():
    # Equality n=2: exists x1 x2, forall y3 y4, exists z5 z6 with
    # (x1 = y3) -> z5, (x2 = y4) -> z6 and not (z5 and z6); false,
    # since y can copy x.
    # A consistent but reversed annotation spelling would still round
    # trip and check, so the text itself is pinned.
    q = Qbf(
        [(EXISTS, [1, 2]), (FORALL, [3, 4]), (EXISTS, [5, 6])],
        [[-5, -6], [1, 3, 5], [-1, -3, 5], [2, 4, 6], [-2, -4, 6]],
    )
    r = solve(q, SolveConfig(kernel="pure"))
    assert (r.verdict, r.iterations) == (FALSE, 4)
    cert = extract_certificate(r.state)
    assert format_certificate(cert) == EQUALITY_2_CERTIFICATE
    back = parse_certificate(EQUALITY_2_CERTIFICATE)
    assert back == cert
    assert check_certificate(q, back).ok


def test_file_roundtrip(tmp_path):
    q, cert = false_cert()
    path = tmp_path / "out.cert"
    write_certificate_file(cert, path)
    assert check_certificate(q, read_certificate_file(path)).ok


def test_unavailable_on_true():
    q = Qbf([(EXISTS, [1])], [[1]])
    r = solve(q)
    with pytest.raises(CertificateUnavailable):
        extract_certificate(r.state)


def test_unavailable_on_unknown():
    q = Qbf([(FORALL, [1]), (EXISTS, [2])], [[1, 2], [-1, -2]])
    r = solve(q, SolveConfig(max_iterations=1))
    with pytest.raises(CertificateUnavailable):
        extract_certificate(r.state)


def test_empty_clause_certificate():
    q = Qbf([(FORALL, [1]), (EXISTS, [2])], [[1, 2], []])
    q2, cert = false_cert(q)
    assert any(lits == () for _, _, lits in cert.axioms)
    assert check_certificate(q, cert).ok


def test_no_existentials_certificate():
    q = Qbf([(FORALL, [1])], [[1]])
    _, cert = false_cert(q)
    assert check_certificate(q, cert).ok


def test_tampered_axiom_literal_rejected():
    q, cert = false_cert()
    idx, alpha_lits, lits = cert.axioms[0]
    if not lits:
        idx, alpha_lits, lits = cert.axioms[1]
    bad = Certificate(
        cert.dictionary,
        [(idx, alpha_lits, (-lits[0],) + lits[1:])] + cert.axioms[1:],
        cert.trace,
    )
    res = check_certificate(q, bad)
    assert not res.ok and "mismatch" in res.reason


def test_tampered_matrix_index_rejected():
    q, cert = false_cert()
    idx, alpha_lits, lits = cert.axioms[0]
    bad_idx = (idx + 1) % len(q.matrix)
    bad = Certificate(
        cert.dictionary,
        [(bad_idx, alpha_lits, lits)] + cert.axioms[1:],
        cert.trace,
    )
    assert not check_certificate(q, bad).ok
    out_of_range = Certificate(
        cert.dictionary,
        [(len(q.matrix), alpha_lits, lits)] + cert.axioms[1:],
        cert.trace,
    )
    res = check_certificate(q, out_of_range)
    assert not res.ok and "index" in res.reason


def test_tampered_alpha_rejected():
    q, cert = false_cert()
    idx, alpha_lits, lits = cert.axioms[0]
    flipped = (-alpha_lits[0],) + alpha_lits[1:]
    bad = Certificate(
        cert.dictionary, [(idx, flipped, lits)] + cert.axioms[1:], cert.trace
    )
    assert not check_certificate(q, bad).ok
    partial = Certificate(
        cert.dictionary, [(idx, alpha_lits[:1], lits)] + cert.axioms[1:], cert.trace
    )
    res = check_certificate(q, partial)
    assert not res.ok and "universal" in res.reason


def test_tampered_dictionary_rejected():
    q, cert = false_cert()
    aid, (var, text) = next(
        (a, p) for a, p in cert.dictionary.items() if p[1] != "-"
    )
    twisted = dict(cert.dictionary)
    twisted[aid] = (var, ("1" if text[0] == "0" else "0") + text[1:])
    res = check_certificate(q, Certificate(twisted, cert.axioms, cert.trace))
    assert not res.ok and "mismatch" in res.reason
    missing = dict(cert.dictionary)
    del missing[aid]
    res = check_certificate(q, Certificate(missing, cert.axioms, cert.trace))
    assert not res.ok and "dictionary" in res.reason


def test_non_rup_insert_rejected():
    # axioms (x under u=F) and (not-x under u=T) are consistent as
    # plain clauses, so neither a fresh unit nor the empty clause follows
    q = Qbf([(FORALL, [1]), (EXISTS, [2])], [[1, 2], [-1, -2]])
    dictionary = {1: (2, "0"), 2: (2, "1")}
    axioms = [(0, (-1,), (1,)), (1, (1,), (-2,))]
    res = check_certificate(q, Certificate(dictionary, axioms, [(), ()]))
    assert not res.ok and "derivable" in res.reason
    res = check_certificate(q, Certificate(dictionary, axioms, [(2,), ()]))
    assert not res.ok and "derivable" in res.reason


def test_truncated_trace_rejected():
    q, cert = false_cert()
    res = check_certificate(q, Certificate(cert.dictionary, cert.axioms, cert.trace[:-1]))
    assert not res.ok
    res = check_certificate(q, Certificate(cert.dictionary, cert.axioms, []))
    assert not res.ok and "empty" in res.reason


def test_parse_errors():
    with pytest.raises(CertificateError):
        parse_certificate("x 1 2 0\n")
    with pytest.raises(CertificateError):
        parse_certificate("d 1 2\n")
    with pytest.raises(CertificateError):
        parse_certificate("d 1 2 102\n")
    with pytest.raises(CertificateError):
        parse_certificate("d 1 2 0-1\n")
    with pytest.raises(CertificateError):
        parse_certificate("a 0 1 0 2\n")
    with pytest.raises(CertificateError):
        parse_certificate("r 1 2\n")
    with pytest.raises(CertificateError):
        parse_certificate("c just a comment\n")
    err = None
    try:
        parse_certificate("d 1 2 -\nr bad 0\n")
    except CertificateError as e:
        err = e
    assert err is not None and err.line == 2


def test_random_false_instances_certify():
    done = 0
    for seed in range(150):
        q = oracle.random_pcnf(seed)
        r = solve(q, SolveConfig(reset_period=0))
        if r.verdict != FALSE:
            continue
        cert = extract_certificate(r.state)
        res = check_certificate(q, cert)
        assert res.ok, "seed %d: %s" % (seed, res.reason)
        assert parse_certificate(format_certificate(cert)) == cert
        done += 1
    assert done >= 40


def test_trace_solver_holds_only_core_ids(monkeypatch):
    # the core's ids are renumbered 1..k, so the trace solver has no
    # variable that no core clause mentions
    runs = [solve(oracle.random_pcnf(seed), SolveConfig(reset_period=0)) for seed in range(60)]
    made = []
    real = proof.sat.Solver

    def recording(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(proof.sat, "Solver", recording)
    done = 0
    for r in runs:
        if r.verdict == FALSE:
            cert = extract_certificate(r.state)
            assert made[-1].num_vars == len(cert.dictionary)
            done += 1
    assert done >= 15


def test_certify_after_resets():
    done = 0
    for seed in range(60):
        q = oracle.random_pcnf(seed)
        r = solve(q, SolveConfig(reset_period=1))
        if r.verdict != FALSE:
            continue
        res = check_certificate(q, extract_certificate(r.state))
        assert res.ok, "seed %d: %s" % (seed, res.reason)
        done += 1
    assert done >= 15
