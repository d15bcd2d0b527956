"""Subset-zeta transform and the anti-diagonal fast matrix-vector kernel.

The value matrices this package produces satisfy two quadrant identities at
every recursion level: the both-bits-clear quadrant is zero and the
both-bits-set quadrant is the sum of the two mixed quadrants.  Such a matrix
is fully determined by its secondary diagonal, and multiplying it by a vector
unrolls into two subset-zeta transforms around one element-wise product:

    out = zeta( diag * zeta(g) ),   g[a] = f[~a]

costing exactly k * 2^k additions plus 2^k multiplications for length 2^k.
The transforms run along the last axis, so a block of r diagonals multiplies
the same vector in one call, r times the work of one, and Python loops once
per block instead of once per diagonal.

Each zeta pass adds the lower half of every 2*bit-long run into its upper
half through a (runs, 2, bit) view, and numpy's inner loop walks the last
axis: bit doubles, or the runs when bit is 1.  For bit in {2, 4, 8} that
loop would be 2 to 8 doubles long, so these passes view the data as
complex128 pairs and put the runs axis innermost.  A complex add is two
double adds, so the values, the order of the adds and their count are the
same in both layouts.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .errors import LayoutError, LengthError, SizeError, StructureError


class OpCounter:
    """Scalar addition/multiplication tallies for kernel calls."""

    def __init__(self) -> None:
        self.adds = 0
        self.muls = 0


_counter: OpCounter | None = None


@contextmanager
def count_operations():
    """Context manager that tallies kernel adds/muls into the yielded counter.

    Updates are not synchronized; meant for single-threaded measurement runs.
    """
    global _counter
    previous = _counter
    _counter = counter = OpCounter()
    try:
        yield counter
    finally:
        _counter = previous


def _require_power_of_two(n: int) -> None:
    if n <= 0 or n & (n - 1):
        raise LengthError(f"length must be a power of two, got {n}")


def _zeta_inplace(v: np.ndarray) -> None:
    # along the last axis of a C-contiguous v: k passes, ascending bit
    # position, each doing v.size/2 additions; the (-1, 2, bit) view never
    # pairs entries of different rows, as every row's length is a multiple of
    # 2 * bit.  For bit in {2, 4, 8}, complex entry i holds doubles 2i and
    # 2i+1, so the pass pairs complex entries bit/2 apart; the transposed
    # halves with order="C" keep numpy from moving the short axis innermost.
    # Each pass is one np.add into the upper half's view (``+=`` on a view
    # would also write it back onto itself), and every view is of v itself:
    # on a copy the additions would be lost silently.
    if not v.flags.c_contiguous:
        raise LayoutError("the zeta transform needs a C-contiguous array")
    flat = v.reshape(-1)
    half = v.size >> 1
    bit = 1
    while bit < v.shape[-1]:
        if 2 <= bit <= 8:
            c = flat.view(np.complex128).reshape(-1, 2, bit >> 1)
            hi = c[:, 1].T
            np.add(hi, c[:, 0].T, out=hi, order="C")
        else:
            w = flat.reshape(-1, 2, bit)
            hi = w[:, 1]
            np.add(hi, w[:, 0], out=hi)
        if _counter is not None:
            _counter.adds += half
        bit <<= 1


def subset_zeta(v) -> np.ndarray:
    """Sum over bitwise subsets: out[x] = sum of v[x'] over x' subset of x."""
    v = np.array(v, dtype=np.float64, order="C")
    _require_power_of_two(v.size)
    _zeta_inplace(v.reshape(-1))
    return v


def diagonal_matvec(diag, f) -> np.ndarray:
    """M @ f where M is the structured matrix with secondary diagonal ``diag``.

    Unrolled form of the halving recursion r = [M2 v2, M2 v2 + M3 (v1+v2)]:
    the downward v1+v2 accumulations are one zeta pass over the complement-
    reindexed input, the upward r1+r2 accumulations are the second pass.
    ``diag`` is one diagonal of length 2^k, or an (r, 2^k) block of them;
    row i of a block's (r, 2^k) result is bit-identical to
    ``diagonal_matvec(diag[i], f)``, and the block costs r times the adds and
    muls of one.  Inputs are never mutated.
    """
    diag = np.asarray(diag, dtype=np.float64)
    if diag.ndim not in (1, 2):
        raise LengthError(f"expected one diagonal or a block of them, got shape {diag.shape}")
    n = diag.shape[-1]
    _require_power_of_two(n)
    f = np.asarray(f, dtype=np.float64).reshape(-1)
    if f.size != n:
        raise LengthError(f"diagonal has length {n} but vector has {f.size}")
    g = np.empty(diag.shape)
    g[...] = f[::-1]  # g[a] = f[~a], in every row
    _zeta_inplace(g)
    g *= diag
    if _counter is not None:
        _counter.muls += diag.size
    _zeta_inplace(g)
    return g


def matvec_recursive(M, v, check: bool = False, tol: float = 1e-9) -> np.ndarray:
    """Readable halving recursion for M @ v; the test oracle, not the hot path.

    With ``check`` set, raises StructureError wherever the quadrant identities
    fail beyond ``tol``.
    """
    M = np.asarray(M, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] != v.size:
        raise LengthError(f"shape mismatch: M {M.shape}, v {v.shape}")
    _require_power_of_two(v.size)
    return _matvec_recursive(M, v, check, tol)


def _matvec_recursive(M, v, check, tol):
    n = v.size
    if n == 1:
        return M[0, 0] * v
    h = n >> 1
    M2 = M[:h, h:]
    M3 = M[h:, :h]
    if check:
        if np.abs(M[:h, :h]).max() > tol:
            raise StructureError("zero quadrant holds nonzero entries")
        if np.abs(M[h:, h:] - (M2 + M3)).max() > tol:
            raise StructureError("sum quadrant does not equal the mixed quadrants")
    r1 = _matvec_recursive(M2, v[h:], check, tol)
    r2 = _matvec_recursive(M3, v[:h] + v[h:], check, tol)
    return np.concatenate([r1, r1 + r2])


def dense_from_diagonal(diag, max_k: int = 12) -> np.ndarray:
    """The unique dense completion of a secondary diagonal under the identities.

    Built by the quadrant recursion itself (zero block, two mixed blocks from
    the half-diagonals, sum block), deliberately sharing no code with the
    zeta-based kernel so the two can check each other.  Equivalent closed
    form: M[a][b] = sum of diag[a'] over a' subset of a with ~a' subset of b.
    """
    diag = np.asarray(diag, dtype=np.float64)
    n = diag.size
    _require_power_of_two(n)
    if n > (1 << max_k):
        raise SizeError(f"dense completion capped at 2^{max_k} rows, got {n}")
    M = np.zeros((n, n), dtype=np.float64)
    _fill_completion(M, diag)
    return M


def _fill_completion(block, diag):
    n = diag.size
    if n == 1:
        block[0, 0] = diag[0]
        return
    h = n >> 1
    _fill_completion(block[:h, h:], diag[:h])
    _fill_completion(block[h:, :h], diag[h:])
    np.add(block[:h, h:], block[h:, :h], out=block[h:, h:])
