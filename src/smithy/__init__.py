"""Exact sparse linear algebra over small prime fields: Smith normal form
with streamed change-of-basis transcripts, cochain cohomology with explicit
cocycle bases, and the level arithmetic that predicts and cross-checks the
computations."""

from .gfp import FieldSpec
from .sparse import (MatrixFormatError, ShapeError, SparseMatrix, axpy,
                     read_matrix, write_matrix)
from .transcript import COL, ROW, ElementaryOp, Transcript, TranscriptError
from .reduce import HnfStats, SnfOptions, SnfResult, disk_hnf, snf
from .cohomo import (ComplexSlice, CohomologyWorkspace, NotACocycleError,
                     NotAComplexError, build_eta, compute_h5, hecke_matrix,
                     load_workspace, reduce_cocycle)
from .predict import (GAMMA, GAMMA_CONJ, BettiRow, ConjugatePair,
                      HeckePolynomial, LevelArithmetic, check_table,
                      dim_jacobi_cusp3, dim_level1_cusp, dim_paramodular3,
                      dim_paramodular3_nongritsenko, estimates, factorize,
                      hecke_poly_family, hecke_poly_gl4, hecke_poly_spin,
                      is_prime, kronecker, load_betti_csv, p3_size,
                      predict_h5)

__version__ = "0.1.0"

__all__ = [
    "FieldSpec",
    "MatrixFormatError", "ShapeError", "SparseMatrix", "axpy",
    "read_matrix", "write_matrix",
    "COL", "ROW", "ElementaryOp", "Transcript", "TranscriptError",
    "HnfStats", "SnfOptions", "SnfResult", "disk_hnf", "snf",
    "ComplexSlice", "CohomologyWorkspace", "NotACocycleError",
    "NotAComplexError", "build_eta", "compute_h5", "hecke_matrix",
    "load_workspace", "reduce_cocycle",
    "GAMMA", "GAMMA_CONJ", "BettiRow", "ConjugatePair", "HeckePolynomial",
    "LevelArithmetic", "check_table", "dim_jacobi_cusp3", "dim_level1_cusp",
    "dim_paramodular3", "dim_paramodular3_nongritsenko", "estimates",
    "factorize",
    "hecke_poly_family", "hecke_poly_gl4", "hecke_poly_spin", "is_prime",
    "kronecker", "load_betti_csv", "p3_size", "predict_h5",
    "__version__",
]
