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
axis: bit doubles, or the runs when bit is 1.  For bit in {2, ..., 16} that
loop would be 2 to 16 doubles long, so these passes view the data as
complex128 pairs and put the runs axis innermost.  A complex add is two
double adds, so the values, the order of the adds and their count are the
same in both layouts.

A block of at most one chunk, 2^16 doubles (512 KiB, a quarter of a 2 MiB
L2), is filled, multiplied and transformed as that one piece, on one set of
pass views, in the buffer of a :class:`Workspace`: the caller's, whose
buffer and views a run of many small blocks reuses while the block shape
stays the same, or a new one for a standalone call.  The vector may be a
stack of several, each filling its own group of rows of the block, so the
leaves that share a k share one call.  Every pass runs with numpy's ufunc
buffer cut to 64 elements: otherwise numpy copies both halves of the passes
with 16 <= bit < ~2,730 through its buffer, which makes them up to 3.5x
slower, and the cut takes one (8, 256) multiply's tracemalloc peak from
26,048 to 1,472 B.  The workspace sets the cut once in a context of its own,
as a scope per small block would cost more than the copies it saves.  A
longer block, or a level that builds its diagonal on request, goes through
its passes chunk by chunk under an ``np.errstate`` scope that restores the
caller's buffer size.  Rows longer than one chunk no longer fit in L2 with
their operands, so their passes go in cache-sized order: every pass with
bit < 2^16 on one chunk of a row, chunk after chunk, then the passes with
larger bits one column slice at a time: those passes pair the entries at
the same offset in every chunk of the block, so a slice of offsets, about
one chunk of entries, takes them all in L2.  A block of shorter rows goes
through its passes 2^16 doubles of whole rows at a time.
``diagonal_matvec`` fills each chunk from f, or multiplies it once by its
chunk of the diagonal (a view of a stored block, or a piece a generated
level builds), just before that chunk's low passes.  No low pass reaches
outside its chunk, so every entry still gets the same additions of the same
operands in the same order, and the bits and op counts are those of the
plain pass-by-pass order.
"""

from __future__ import annotations

import contextvars
import math
from contextlib import contextmanager

import numpy as np

from .errors import LayoutError, LengthError


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


# Every pass runs with numpy's ufunc buffer at _BUFSIZE elements; a block of
# at most _CHUNK doubles (512 KiB, a quarter of a 2 MiB L2) is one piece in a
# workspace, and a longer one takes its low passes chunk by chunk (see the
# module docstring).
_BUFSIZE = 64
_CHUNK = 1 << 16
# the passes with bit >= _CHUNK go over column slices at least this many
# doubles wide (see _high_pass_views)
_MIN_SLICE = 1 << 9


def _pass_views(flat: np.ndarray, lo: int, hi: int) -> tuple:
    # the upper and lower views of flat and the iteration order of each pass
    # lo <= bit < hi, and the adds of one pass.  For bit in 2..16, complex
    # entry i holds doubles 2i and 2i+1, so the pass pairs complex entries
    # bit/2 apart; the transposed halves with order="C" keep numpy from
    # moving the short axis innermost.  The (-1, 2, bit) views never pair
    # entries of different rows, as every row's length is a multiple of 2*bit.
    uppers, lowers, orders = [], [], []
    bit = lo
    while bit < hi:
        if 2 <= bit <= 16:
            w = flat.view(np.complex128).reshape(-1, 2, bit >> 1)
            uppers.append(w[:, 1].T)
            lowers.append(w[:, 0].T)
            orders.append("C")
        else:
            w = flat.reshape(-1, 2, bit)
            uppers.append(w[:, 1])
            lowers.append(w[:, 0])
            orders.append("K")
        bit <<= 1
    return uppers, lowers, orders, flat.size >> 1


def _high_pass_views(flat: np.ndarray, n: int) -> list:
    # the views of the passes with bit >= _CHUNK on the rows of flat, n
    # doubles long, one column slice at a time.  These passes pair entries a
    # multiple of _CHUNK apart, so at the same offset in their chunks: the
    # entries at one slice of offsets, in every chunk of the block, take all
    # of these passes while they stay in L2, then the next slice's entries
    # do, instead of the whole block streaming through once per pass.  A
    # slice is the widest power of two, down to _MIN_SLICE, that keeps its
    # entries within one chunk's size.  Each entry takes the same additions
    # in the same order as in a pass-by-pass run.
    width = _CHUNK
    while width > _MIN_SLICE and flat.size // _CHUNK * width > _CHUNK:
        width >>= 1
    adds = (flat.size >> 1) // (_CHUNK // width)  # of one pass on one slice
    slices = []
    for s in range(0, _CHUNK, width):
        uppers, lowers = [], []
        runs = 1  # the pass's bit, in chunks
        while runs * _CHUNK < n:
            w = flat.reshape(-1, 2, runs, _CHUNK)[..., s : s + width]
            uppers.append(w[:, 1])
            lowers.append(w[:, 0])
            runs <<= 1
        slices.append((uppers, lowers, ["K"] * len(uppers), adds))
    return slices


def _run(uppers, lowers, orders, adds: int) -> None:
    # each pass is one np.add into the upper half's view (``+=`` on a view
    # would also write it back onto itself)
    for h, l, order in zip(uppers, lowers, orders):
        np.add(h, l, out=h, order=order)
    if _counter is not None:
        _counter.adds += adds * len(uppers)


def _transforms(v: np.ndarray, prepares) -> None:
    # one zeta transform of the C-contiguous v along its last axis, n doubles,
    # per entry of prepares, in pieces of at most _CHUNK doubles that never
    # straddle two rows: part of a row when n > _CHUNK, else whole rows.
    # Each piece gets its passes with bit < _CHUNK in turn, then the passes
    # with bit >= _CHUNK run one column slice at a time (_high_pass_views):
    # each entry still takes the same additions in the same order, as no low
    # pass reaches outside its piece.  A prepare that is not None is called
    # as prepare(rows, cols) right before the low passes of piece
    # v2[rows, cols] of the (rows, n) view v2.  A piece's views are built as
    # it comes, so few view objects are alive at once.  Every view is of v
    # itself: on a copy the additions would be lost silently.
    n = v.shape[-1]
    flat = v.reshape(-1)
    v2 = flat.reshape(-1, n)
    if n > _CHUNK:
        pieces = [
            (slice(i, i + 1), slice(s, s + _CHUNK)) for i in range(len(v2)) for s in range(0, n, _CHUNK)
        ]
    else:
        step = _CHUNK // n
        pieces = [(slice(i, i + step), slice(None)) for i in range(0, len(v2), step)]
    low = min(n, _CHUNK)
    high = _high_pass_views(flat, n) if n > _CHUNK else ()
    # numpy's iterator would copy the mid passes' operands through its
    # buffer; errstate restores the setting (a contextvar) on the way out
    with np.errstate():
        np.setbufsize(_BUFSIZE)
        for prepare in prepares:
            for rows, cols in pieces:
                if prepare is not None:
                    prepare(rows, cols)
                _run(*_pass_views(v2[rows, cols].reshape(-1), 1, low))
            for views in high:
                _run(*views)


def _zeta_inplace(v: np.ndarray) -> None:
    # along the last axis of a C-contiguous v: k passes, ascending bit
    # position, each doing v.size/2 additions
    if not v.flags.c_contiguous:
        raise LayoutError("the zeta transform needs a C-contiguous array")
    _transforms(v, (None,))


def subset_zeta(v) -> np.ndarray:
    """Sum over bitwise subsets: out[x] = sum of v[x'] over x' subset of x."""
    v = np.array(v, dtype=np.float64, order="C")
    _require_power_of_two(v.size)
    _zeta_inplace(v.reshape(-1))
    return v


class Workspace:
    """A buffer for the kernel's blocks of one chunk or less, their pass views and buffer scope.

    A block of at most ``_CHUNK`` doubles is filled, multiplied and
    transformed in the head of ``flat``, which grows to the largest such block
    it is asked for.  The pass views of the last block shape are kept and
    reused while the calls keep that shape; another shape builds its own in
    their place.  The blocks run in ``context``, a copy of the caller's
    context in which numpy's ufunc buffer is cut to ``_BUFSIZE`` elements
    once for the workspace: entering it costs one C call, where an
    ``np.errstate`` scope per block would cost more than the buffer copies
    it saves, and the caller's own numpy calls keep its buffer size.
    """

    __slots__ = ("flat", "shape", "entry", "context")

    def __init__(self):
        self.flat = np.empty(0)
        self.shape = None
        self.entry = None  # the block of that shape and its pass views
        self.context = contextvars.copy_context()
        self.context.run(np.setbufsize, _BUFSIZE)

    def block(self, shape: tuple) -> tuple:
        if shape != self.shape:
            size = math.prod(shape)
            if size > self.flat.size:
                self.entry = None  # its views would keep the old buffer alive
                self.flat = np.empty(size)
            flat = self.flat[:size]
            self.shape, self.entry = shape, (flat.reshape(shape), _pass_views(flat, 1, shape[-1]))
        return self.entry


def _vectors(f, n: int) -> tuple:
    # f as a list of float64 vectors of n entries, and whether it was a stack
    # of them: a 2-D array, or a sequence of vectors, which is not copied into one
    stacked = isinstance(f, (list, tuple)) and len(f) > 0 and np.ndim(f[0]) == 1 or np.ndim(f) == 2
    vectors = [np.asarray(v, dtype=np.float64) for v in f] if stacked else [np.asarray(f, dtype=np.float64).reshape(-1)]
    for v in vectors:
        if v.ndim != 1 or v.size != n:
            raise LengthError(f"diagonal has length {n} but vector has shape {v.shape}")
    return vectors, stacked


def _multiply_small(g, views, vectors, diag) -> None:
    # one piece: each group of rows filled from its vector reversed, then the
    # passes of _transforms, the multiply and the passes again, on one set of views
    for part, v in zip(g, vectors):
        part[...] = v[::-1]
    _run(*views)
    np.multiply(g, diag, out=g)
    _run(*views)


def _multiply_large(part, v, d2) -> None:
    # part[a] = v[~a] in every row; each piece is filled, or multiplied by its
    # piece of the diagonal, right before its low passes, while it is in cache
    rev = v[::-1]

    def fill(rows, cols):
        part[rows, cols] = rev[cols]

    def scale(rows, cols):
        piece = part[rows, cols]
        np.multiply(piece, d2[rows, cols], out=piece)

    _transforms(part, (fill, scale))


def diagonal_matvec(diag, f, workspace: Workspace | None = None) -> np.ndarray:
    """M @ f where M is the structured matrix with secondary diagonal ``diag``.

    Unrolled form of the halving recursion r = [M2 v2, M2 v2 + M3 (v1+v2)]:
    the downward v1+v2 accumulations are one zeta pass over the complement-
    reindexed input, the upward r1+r2 accumulations are the second pass.
    ``diag`` is one diagonal of length 2^k, or an (r, 2^k) block of them:
    an array, or a level that builds its entries on request
    (``cubes._generated_level``), whose ``diag[rows, cols]`` is a new array;
    row i of a block's (r, 2^k) result is bit-identical to
    ``diagonal_matvec(diag[i], f)``, and the block costs r times the adds and
    muls of one.  ``f`` is one vector of 2^k entries, or a stack of L of
    them: an (L, 2^k) array, or a sequence of L vectors, which is not copied
    into one.  A stack's result is (L,) + ``diag.shape``, group i
    bit-identical to ``diagonal_matvec(diag, f[i])``, for L times the adds
    and muls.  Inputs are never mutated.  If ``diag`` is an array and the
    result holds at most ``_CHUNK`` doubles, the result is the block of
    ``workspace``, valid until the next call with it, or of a new
    :class:`Workspace` when none is given; any other result is a new array.
    Either way the bits are the same.
    """
    generated = hasattr(diag, "tables")  # a generated level is never whole
    diag = diag if generated else np.asarray(diag, dtype=np.float64)
    if len(diag.shape) not in (1, 2):
        raise LengthError(f"expected one diagonal or a block of them, got shape {diag.shape}")
    n = diag.shape[-1]
    _require_power_of_two(n)
    vectors, stacked = _vectors(f, n)
    shape = (len(vectors),) + diag.shape  # one group of rows per vector
    size = math.prod(shape)
    if _counter is not None:
        _counter.muls += size
    if size <= _CHUNK and not generated:
        # one piece, in a workspace's block
        workspace = Workspace() if workspace is None else workspace
        g, views = workspace.block(shape)
        workspace.context.run(_multiply_small, g, views, vectors, diag)
    else:
        g = np.empty(shape)
        d2 = diag if generated else diag.reshape(-1, n)
        for part, v in zip(g, vectors):
            _multiply_large(part.reshape(-1, n), v, d2)
    return g if stacked else g[0]
