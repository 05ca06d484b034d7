"""Dense Jordan-Wigner reference construction of the Fock operators.

Each a+_j is a dense 2^m x 2^m matrix with the Jordan-Wigner sign
(-1)^{#occupied modes below j}; a_j is its adjoint; the smeared and quadratic
operators are sums of scaled copies and dense products of these.  This is the
construction the package used before its bitmask builder, kept unchanged as
the oracle the builder is compared against at small m.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from fockbound.fock import FockOperator, FockSpace, _check_mode, _check_vector, _space
from fockbound.quadratics import _as_one_body, require_skew


@lru_cache(maxsize=None)
def _creation_matrix(m: int, j: int) -> np.ndarray:
    space = _space(m)
    bit = np.int64(1 << (j - 1))
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    cols = np.nonzero((space.masks & bit) == 0)[0]
    below = np.bitwise_count(space.masks[cols] & (bit - 1))
    signs = 1.0 - 2.0 * (below % 2)
    rows = space.index_of[space.masks[cols] | bit]
    mat[rows, cols] = signs
    mat.setflags(write=False)
    return mat


@lru_cache(maxsize=None)
def _annihilation_matrix(m: int, j: int) -> np.ndarray:
    mat = _creation_matrix(m, j).conj().T.copy()
    mat.setflags(write=False)
    return mat


def creation(space: FockSpace, j: int) -> FockOperator:
    _check_mode(space, j)
    return FockOperator(space, _creation_matrix(space.m, j), grading_shift=+1)


def annihilation(space: FockSpace, j: int) -> FockOperator:
    _check_mode(space, j)
    return FockOperator(space, _annihilation_matrix(space.m, j), grading_shift=-1)


def op_a(space: FockSpace, f) -> FockOperator:
    f = _check_vector(space, f)
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    for j in range(space.m):
        if f[j] != 0:
            mat += f[j] * _annihilation_matrix(space.m, j + 1)
    return FockOperator(space, mat, grading_shift=-1)


def op_adag(space: FockSpace, f) -> FockOperator:
    f = _check_vector(space, f)
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    for j in range(space.m):
        if f[j] != 0:
            mat += f[j] * _creation_matrix(space.m, j + 1)
    return FockOperator(space, mat, grading_shift=+1)


def d_gamma(space: FockSpace, B) -> FockOperator:
    B = _as_one_body(space, B, "B")
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    for k in range(space.m):
        acc = np.zeros_like(mat)
        for j in range(space.m):
            if B[k, j] != 0:
                acc += B[k, j] * _annihilation_matrix(space.m, j + 1)
        if acc.any():
            mat += _creation_matrix(space.m, k + 1) @ acc
    return FockOperator(space, mat, grading_shift=0)


def delta(space: FockSpace, A) -> FockOperator:
    A = require_skew(_as_one_body(space, A, "A"), "A")
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    for k in range(space.m):
        acc = np.zeros_like(mat)
        for j in range(space.m):
            if A[k, j] != 0:
                acc += A[k, j] * _annihilation_matrix(space.m, j + 1)
        if acc.any():
            mat += _annihilation_matrix(space.m, k + 1) @ acc
    return FockOperator(space, mat, grading_shift=-2)


def delta_plus(space: FockSpace, C) -> FockOperator:
    C = require_skew(_as_one_body(space, C, "C"), "C")
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    for k in range(space.m):
        acc = np.zeros_like(mat)
        for j in range(space.m):
            if C[k, j] != 0:
                acc += C[k, j] * _creation_matrix(space.m, j + 1)
        if acc.any():
            mat += _creation_matrix(space.m, k + 1) @ acc
    return FockOperator(space, mat, grading_shift=+2)
