"""Command line front end.

Verdicts use solution lines in the common prenex-CNF output style
(s cnf 1 true, s cnf 0 false, s cnf -1 unknown) and the paired exit
codes 10, 20 and 0; usage or input errors exit 1.  Progress output
consists of comment lines starting with 'c'.  Machine-readable
statistics are emitted as json lines carrying only deterministic
counters, so two runs of the same command produce identical streams.
"""

import argparse
import json
import sys

from . import __version__, expand, oracle, proof, qdimacs, sat

EXIT_TRUE = 10
EXIT_FALSE = 20
EXIT_UNKNOWN = 0
EXIT_ERROR = 1

VERDICT_LINES = {
    expand.TRUE: "s cnf 1",
    expand.FALSE: "s cnf 0",
    expand.UNKNOWN: "s cnf -1",
}

VERDICT_CODES = {
    expand.TRUE: EXIT_TRUE,
    expand.FALSE: EXIT_FALSE,
    expand.UNKNOWN: EXIT_UNKNOWN,
}


def json_stats_lines(result):
    """Deterministic json lines for a finished run, one per iteration."""
    out = []
    for rec in result.stats:
        clean = {
            k: v for k, v in rec.items() if not k.endswith("_time")
        }
        out.append(json.dumps(clean, sort_keys=True, separators=(",", ":")))
    state = result.state
    summary = {
        "verdict": result.verdict,
        "iterations": result.iterations,
        "resets": state.resets,
        "alphas": len(state.alphas),
        "sigmas": len(state.sigmas),
    }
    out.append(json.dumps(summary, sort_keys=True, separators=(",", ":")))
    return out


def human_stats_lines(result):
    out = []
    for rec in result.stats:
        out.append(
            "c iter=%d forall=%s exists=%s new_s=%d new_a=%d |A|=%d |S|=%d"
            " reset=%d live=%d/%d time=%.3f+%.3f"
            % (
                rec["iteration"],
                rec["forall_status"],
                rec["exists_status"],
                rec["new_sigmas"],
                rec["new_alphas"],
                rec["size_a"],
                rec["size_s"],
                1 if rec["reset"] else 0,
                rec["live_clauses"],
                rec["live_literals"],
                rec.get("forall_time", 0.0),
                rec.get("exists_time", 0.0),
            )
        )
    state = result.state
    out.append(
        "c done verdict=%s iterations=%d resets=%d"
        % (result.verdict, result.iterations, state.resets)
    )
    return out


def _config_from_args(args):
    return expand.SolveConfig(
        init_mode=args.init_mode,
        seed=args.seed,
        reset_period=args.reset_period,
        verify_invariants=args.verify_invariants,
        max_iterations=args.max_iterations,
        time_limit=args.timeout,
        backend=args.backend,
        kernel=args.kernel,
    )


def _load(path, quiet, out):
    q, diag = qdimacs.parse_file(path)
    if not quiet:
        for w in diag.warnings:
            print("c warning: %s" % w, file=out)
    return q


def cmd_solve(args, out):
    q = _load(args.file, args.quiet, out)
    result = expand.solve(q, _config_from_args(args))
    if args.stats_file:
        with open(args.stats_file, "w") as f:
            for line in json_stats_lines(result):
                f.write(line + "\n")
    if not args.quiet:
        if args.stats == "json" and not args.stats_file:
            for line in json_stats_lines(result):
                print(line, file=out)
        elif args.stats == "human":
            for line in human_stats_lines(result):
                print(line, file=out)
    if args.cert:
        if result.verdict == expand.FALSE:
            cert = proof.extract_certificate(result.state)
            proof.write_certificate_file(cert, args.cert)
            if not args.quiet:
                print("c certificate written to %s" % args.cert, file=out)
        elif not args.quiet:
            print("c no certificate: verdict is %s" % result.verdict, file=out)
    print(VERDICT_LINES[result.verdict], file=out)
    return VERDICT_CODES[result.verdict]


def cmd_check(args, out):
    q = _load(args.file, args.quiet, out)
    cert = proof.read_certificate_file(args.cert)
    res = proof.check_certificate(q, cert)
    if res.ok:
        print("c certificate valid", file=out)
        return 0
    print("c certificate invalid: %s" % res.reason, file=out)
    return EXIT_ERROR


def cmd_fuzz(args, out):
    failures = 0
    certified = 0
    for i in range(args.count):
        seed = args.seed + i
        q = oracle.random_pcnf(seed)
        cfg = expand.SolveConfig(
            reset_period=args.reset_period, verify_invariants=True
        )
        try:
            r = expand.solve(q, cfg)
        except expand.InvariantViolation as e:
            print("c seed %d: invariant violation: %s" % (seed, e), file=out)
            failures += 1
            continue
        want = expand.TRUE if oracle.decide_semantic(q) else expand.FALSE
        if r.verdict != want:
            print(
                "c seed %d: got %s, oracle says %s" % (seed, r.verdict, want),
                file=out,
            )
            failures += 1
            continue
        if r.verdict == expand.FALSE and args.certify:
            res = proof.check_certificate(
                q, proof.extract_certificate(r.state)
            )
            if not res.ok:
                print("c seed %d: bad certificate: %s" % (seed, res.reason), file=out)
                failures += 1
                continue
            certified += 1
    line = "c fuzz %s: %d instances" % (
        "failed" if failures else "ok",
        args.count,
    )
    if args.certify:
        line += ", %d certificates checked" % certified
    print(line, file=out)
    return EXIT_ERROR if failures else 0


def cmd_oracle(args, out):
    q = _load(args.file, args.quiet, out)
    try:
        if args.method == "semantic":
            value = oracle.decide_semantic(q)
        else:
            value = oracle.decide_full_expansion(q)
    except oracle.TooLarge as e:
        print("c error: %s" % e, file=sys.stderr)
        return EXIT_ERROR
    verdict = expand.TRUE if value else expand.FALSE
    print(VERDICT_LINES[verdict], file=out)
    return VERDICT_CODES[verdict]


def build_parser():
    p = argparse.ArgumentParser(
        prog="qexpand",
        description="expansion-based QBF solver over incremental SAT",
    )
    p.add_argument("--version", action="version", version="qexpand %s" % __version__)
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="decide a QDIMACS file")
    ps.add_argument("file")
    ps.add_argument("--stats", choices=("human", "json", "none"), default="human")
    ps.add_argument("--stats-file", help="write json stats lines to this path")
    ps.add_argument("--cert", help="write a certificate here when false")
    ps.add_argument("--timeout", type=float, default=None, help="seconds")
    ps.add_argument("--max-iterations", type=int, default=0)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--reset-period", type=int, default=64)
    ps.add_argument("--init-mode", choices=expand.INIT_MODES, default="per-block")
    ps.add_argument("--verify-invariants", action="store_true")
    ps.add_argument(
        "--backend",
        default="bundled",
        help="bundled or external:<path to a DIMACS solver>",
    )
    ps.add_argument("--kernel", choices=("auto", "pure", "compiled"), default="auto")
    ps.add_argument("--quiet", action="store_true", help="verdict line only")
    ps.set_defaults(func=cmd_solve)

    pc = sub.add_parser("check", help="validate a certificate against a file")
    pc.add_argument("file")
    pc.add_argument("cert")
    pc.add_argument("--quiet", action="store_true")
    pc.set_defaults(func=cmd_check)

    pf = sub.add_parser("fuzz", help="run random instances against the oracle")
    pf.add_argument("--count", type=int, default=100)
    pf.add_argument("--seed", type=int, default=0, help="first seed")
    pf.add_argument("--reset-period", type=int, default=64)
    pf.add_argument("--certify", action="store_true", help="check certificates too")
    pf.set_defaults(func=cmd_fuzz)

    po = sub.add_parser("oracle", help="decide a small file by enumeration")
    po.add_argument("file")
    po.add_argument("--method", choices=("semantic", "expansion"), default="semantic")
    po.add_argument("--quiet", action="store_true")
    po.set_defaults(func=cmd_oracle)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except FileNotFoundError as e:
        print("c error: %s" % e, file=sys.stderr)
        return EXIT_ERROR
    except qdimacs.ParseError as e:
        print("c error: %s" % e, file=sys.stderr)
        return EXIT_ERROR
    except proof.CertificateError as e:
        print("c error: %s" % e, file=sys.stderr)
        return EXIT_ERROR
    except proof.CertificateUnavailable as e:
        print("c error: %s" % e, file=sys.stderr)
        return EXIT_ERROR
    except (sat.SpawnFailure, sat.ProtocolViolation, sat.ResourceLimit) as e:
        print("c error: %s" % e, file=sys.stderr)
        return EXIT_ERROR
    except ValueError as e:
        print("c error: %s" % e, file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
