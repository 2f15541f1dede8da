"""Command line: SNF runs, the cohomology pipeline, cocycle reduction,
and the level-arithmetic predictions, over the stable file formats: text
matrices and reports, binary transcripts.

Reports are plain "key: value" lines.  Exit codes: 0 success, 1 failed
table check, 2 usage, 3 parse, 4 shape, 5 not-a-complex, 6 not-a-cocycle,
7 internal assertion.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from importlib import resources

from .cohomo import (ComplexSlice, NotACocycleError, NotAComplexError,
                     compute_h5, load_workspace, reduce_cocycle)
from .gfp import FieldSpec, is_prime
from .predict import (check_table, dim_jacobi_cusp3, dim_paramodular3,
                      estimates, load_betti_csv, p3_size)
from .reduce import SnfOptions, snf
from .sparse import MatrixFormatError, ShapeError, read_matrix, write_matrix
from .transcript import TranscriptError

EXIT_CHECK_FAILED = 1
EXIT_PARSE = 3
EXIT_SHAPE = 4
EXIT_NOT_A_COMPLEX = 5
EXIT_NOT_A_COCYCLE = 6
EXIT_INTERNAL = 7

CONVENTIONAL_PRIME = 12379


def _emit(key, value) -> None:
    print("%s: %s" % (key, value))


def _spec_arg(args) -> FieldSpec | None:
    return FieldSpec(args.prime) if args.prime is not None else None


def cmd_snf(args) -> int:
    a = read_matrix(args.matrix, _spec_arg(args))
    opts = SnfOptions(
        emit_p=args.emit_p,
        emit_q=args.emit_q,
        tau=args.tau,
        workdir=args.workdir,
    )
    # made once the options pass, so a refused run leaves no empty dir
    workdir = opts.workdir = args.workdir or tempfile.mkdtemp(prefix="smithy-")
    nnz_in = a.nnz
    res = snf(a, opts)
    if args.fill_log:
        with open(args.fill_log, "w", newline="\n") as f:
            f.writelines("%d\n" % active for active in res.fill_log)
    write_matrix(a, os.path.join(workdir, "d.sms"))
    _emit("m", a.m)
    _emit("n", a.n)
    _emit("rank", res.rank)
    _emit("searchedPivots", res.searched)
    _emit("nnz", nnz_in)
    _emit("peakActive", max(res.fill_log))
    _emit("workdir", workdir)
    if res.p is not None:
        _emit("pTranscript", res.p.path)
    if res.q is not None:
        _emit("qTranscript", res.q.path)
    if res.hnf_stats is not None:
        _emit("diskEchelonAt", res.hnf_stats.pivot_index)
    return 0


def cmd_cohomology(args) -> int:
    spec = _spec_arg(args)
    d_top = read_matrix(args.d5, spec)
    d_bottom = read_matrix(args.d4, spec)
    for mat in (d_top, d_bottom):
        if mat.spec.p in (2, 3, 5):
            raise ValueError(
                "characteristic %d collides with the torsion primes of the "
                "cell structure; use p not in {2, 3, 5}" % mat.spec.p)
    slice_ = ComplexSlice(d_top, d_bottom)
    ws = compute_h5(slice_, args.workdir, tau=args.tau)
    _emit("n5", ws.n5)
    _emit("rho5", ws.rho5)
    _emit("rhoEta", ws.rho_eta)
    _emit("h5", ws.h5)
    _emit("h6", ws.h6)
    return 0


def cmd_reduce(args) -> int:
    """Reduce every column of an n5 x k file against one loaded workspace;
    with k > 1 the keys are c<column>.s<j>.  Nothing is printed unless
    every column reduces."""
    ws = load_workspace(args.workdir)
    vecs = read_matrix(args.cocycle, ws.basis.spec)
    if vecs.n < 1 or vecs.m != ws.n5:
        raise ShapeError(
            "cocycle file must have %d rows and at least one column, got %d x %d"
            % (ws.n5, vecs.m, vecs.n))
    coords = [reduce_cocycle(ws, vecs.dense_col(c)) for c in range(vecs.n)]
    for c, s in enumerate(coords):
        prefix = "c%d." % (c + 1) if vecs.n > 1 else ""
        for j, sj in enumerate(s):
            _emit("%ss%d" % (prefix, j + 1), sj)
    return 0


def cmd_predict(args) -> int:
    n6, n5, n4 = estimates(args.N)
    _emit("N", args.N)
    _emit("p3Size", p3_size(args.N))
    _emit("n6Est", n6)
    _emit("n5Est", n5)
    _emit("n4Est", n4)
    if is_prime(args.N):
        para = dim_paramodular3(args.N)
        grit = dim_jacobi_cusp3(args.N)
        _emit("dimP3", para)
        _emit("dimP3G", grit)
        _emit("dimP3nG", para - grit)
    return 0


def bundled_table_path() -> str:
    return str(resources.files("smithy").joinpath("data/betti_table.csv"))


def cmd_check_table(args) -> int:
    path = args.csv or bundled_table_path()
    results = check_table(load_betti_csv(path))
    ok = 0
    for row, predicted, matches in results:
        _emit("row%d" % row.N,
              "pass" if matches else "FAIL predicted %d recorded %d"
              % (predicted, row.h5))
        ok += matches
    _emit("result", "%d/%d pass" % (ok, len(results)))
    return 0 if ok == len(results) else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="smithy",
        description="Exact sparse Smith normal form over a prime field, "
                    "cochain cohomology, and level arithmetic.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--prime", type=int, default=None,
                       help="expected field characteristic; must match the "
                            "matrix headers (conventional modulus %d)"
                            % CONVENTIONAL_PRIME)
        p.add_argument("--tau", type=int, default=None,
                       help="active-nonzero threshold that triggers the "
                            "out-of-core echelon fallback")

    ps = sub.add_parser("snf", help="reduce one matrix to Smith form")
    ps.add_argument("matrix")
    common(ps)
    ps.add_argument("--workdir", default=None,
                    help="directory for outputs (default: a fresh temp dir)")
    ps.add_argument("--emit-p", action="store_true", help="record row ops")
    ps.add_argument("--emit-q", action="store_true", help="record column ops")
    ps.add_argument("--fill-log", default=None,
                    help="write active-region nonzero counts per pivot")
    ps.set_defaults(func=cmd_snf)

    pc = sub.add_parser("cohomology",
                        help="H^5 of the two-step complex d4, d5")
    pc.add_argument("d5", help="top differential, n6 x n5")
    pc.add_argument("d4", help="bottom differential, n5 x n4")
    common(pc)
    pc.add_argument("--workdir", required=True,
                    help="directory for the workspace that reduce reads")
    pc.set_defaults(func=cmd_cohomology)

    pr = sub.add_parser("reduce",
                        help="coefficients of cocycles modulo coboundaries")
    pr.add_argument("workdir", help="directory written by the cohomology run")
    pr.add_argument("cocycle", help="n5 x k cocycles, one per column, in the "
                                    "matrix format")
    pr.set_defaults(func=cmd_reduce)

    pp = sub.add_parser("predict", help="size estimates and dimension formulas")
    pp.add_argument("N", type=int, help="level, at least 2")
    pp.set_defaults(func=cmd_predict)

    pt = sub.add_parser("check-table",
                        help="verify the Betti consistency identity")
    pt.add_argument("csv", nargs="?", default=None,
                    help="rows as N,s2,s4_0,sl3,pnG,h5 (default: bundled)")
    pt.set_defaults(func=cmd_check_table)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MatrixFormatError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except TranscriptError as exc:
        print("transcript error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except ShapeError as exc:
        print("shape error: %s" % exc, file=sys.stderr)
        return EXIT_SHAPE
    except NotAComplexError as exc:
        print("not a complex: %s" % exc, file=sys.stderr)
        return EXIT_NOT_A_COMPLEX
    except NotACocycleError as exc:
        print("not a cocycle: %s" % exc, file=sys.stderr)
        return EXIT_NOT_A_COCYCLE
    except OSError as exc:
        print("io error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print("invalid input: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except (AssertionError, ArithmeticError) as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
