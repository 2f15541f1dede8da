"""Command line: SNF runs, the cohomology pipeline, cocycle reduction,
and the level-arithmetic predictions, over the stable text formats.

Reports are plain "key: value" lines.  Exit codes: 0 success, 1 failed
table check, 2 usage, 3 parse, 4 shape, 5 not-a-complex, 6 not-a-cocycle,
7 internal assertion.
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import resources

from .cohomo import (ComplexSlice, NotACocycleError, NotAComplexError,
                     compute_h5, load_workspace, reduce_cocycle)
from .gfp import FieldSpec
from .predict import (LevelArithmetic, check_table, dim_jacobi_cusp3,
                      dim_paramodular3, is_prime, load_betti_csv)
from .reduce import SnfOptions, snf
from .sparse import MatrixFormatError, ShapeError, read_matrix, write_matrix
from .transcript import TranscriptError

EXIT_CHECK_FAILED = 1
EXIT_PARSE = 3
EXIT_SHAPE = 4
EXIT_NOT_A_COMPLEX = 5
EXIT_NOT_A_COCYCLE = 6
EXIT_INTERNAL = 7

DEFAULT_PRIME = 12379


def _emit(key, value) -> None:
    print("%s: %s" % (key, value))


def _spec_arg(args) -> FieldSpec | None:
    return FieldSpec(args.prime) if args.prime is not None else None


def cmd_snf(args) -> int:
    a = read_matrix(args.matrix, _spec_arg(args))
    workdir = args.workdir
    opts = SnfOptions(
        emit_p=args.emit_p,
        emit_q=args.emit_q,
        tau=args.tau,
        normalize_pivots=args.normalize,
        fill_log_path=args.fill_log,
        workdir=workdir,
    )
    nnz_in = a.nnz
    res = snf(a, opts)
    write_matrix(a, os.path.join(res.workdir, "d.sms"))
    _emit("m", a.m)
    _emit("n", a.n)
    _emit("rank", res.rank)
    _emit("nnz", nnz_in)
    _emit("peakActive", max(res.fill_log))
    _emit("workdir", res.workdir)
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
    ws = compute_h5(slice_, args.workdir, tau=args.tau,
                    normalize_pivots=args.normalize)
    _emit("n5", ws.n5)
    _emit("rho5", ws.rho5)
    _emit("rhoEta", ws.rho_eta)
    _emit("h5", ws.h5)
    _emit("h6", ws.h6)
    return 0


def cmd_reduce(args) -> int:
    ws = load_workspace(args.workdir)
    vec = read_matrix(args.cocycle, ws.basis.spec)
    if vec.n != 1 or vec.m != ws.n5:
        raise ShapeError(
            "cocycle file must be a %d x 1 column, got %d x %d"
            % (ws.n5, vec.m, vec.n))
    s = reduce_cocycle(ws, vec.dense_col(0))
    for j, sj in enumerate(s):
        _emit("s%d" % (j + 1), sj)
    return 0


def cmd_predict(args) -> int:
    lv = LevelArithmetic.for_level(args.N)
    _emit("N", lv.N)
    _emit("p3Size", lv.p3_size)
    _emit("n6Est", lv.n6_est)
    _emit("n5Est", lv.n5_est)
    _emit("n4Est", lv.n4_est)
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

    def common(p, tau=True):
        p.add_argument("--prime", type=int, default=None,
                       help="expected field characteristic; must match the "
                            "matrix headers (conventional default %d)"
                            % DEFAULT_PRIME)
        if tau:
            p.add_argument("--tau", type=int, default=None,
                           help="active-nonzero threshold that triggers the "
                                "out-of-core echelon fallback")
        p.add_argument("--normalize", action="store_true",
                       help="scale every pivot to 1 (dilations recorded)")
        p.add_argument("--workdir", default=None,
                       help="directory for outputs (default: a fresh temp dir)")

    ps = sub.add_parser("snf", help="reduce one matrix to Smith form")
    ps.add_argument("matrix")
    common(ps)
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
    pc.set_defaults(func=cmd_cohomology)
    # cohomology requires a workdir for the later reduction steps
    pc.set_defaults(_needs_workdir=True)

    pr = sub.add_parser("reduce",
                        help="coefficients of a cocycle modulo coboundaries")
    pr.add_argument("workdir", help="directory written by the cohomology run")
    pr.add_argument("cocycle", help="n5 x 1 column in the matrix format")
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
    if getattr(args, "_needs_workdir", False) and not args.workdir:
        parser.error("cohomology requires --workdir")
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
