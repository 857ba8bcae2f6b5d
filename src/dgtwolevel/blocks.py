"""Structured operators on 2x2 blocks per cell, numpy only.

Every operator of the two-level method is sparse in a fixed way once the
unknowns are grouped in pairs, one pair per cell:

* ``BlockTridiagonal``: symmetric, block tridiagonal over cells, with a
  wrap block closing the chain into a cycle (zero for Dirichlet meshes).
  Holds the fine operator and the Galerkin coarse operator.
* ``BlockDiagonal``: 2x2 blocks on the diagonal, optionally shifted by
  one unknown so that a block pairs the last unknown of a cell with the
  first of the next (the point smoother).
* ``CellStencil``: one fixed small stencil repeated over groups of
  cells (the transfers).

Each applies to a vector or to an ``(n, k)`` column stack with ``@`` in
O(n k) work.  A vector goes through the operator's bands, the few
nonzero diagonals of the matrix, stored as contiguous arrays on the
first vector apply (operators that only meet column stacks, or only
feed a factorization, never build them): an apply is one wrap-padded
copy of the vector, one product with all bands at once and a sum over
the bands.  A column stack goes through numpy's stacked 2x2 products,
whose per-block cost many columns amortize.  ``toarray()`` gives the
dense matrix, meant as a test oracle at desk scale.
``CyclicReduction`` factors a ``BlockTridiagonal`` once, by batched
Schur complements over chains of ``_CHUNK`` cells, and solves with it in
O(n) work per right-hand side.
"""

from functools import cached_property

import numpy as np

# Each reduction level keeps one cell in this many and eliminates the rest.
_CHUNK = 16
# Cyclic reduction stops at this many cells and inverts the rest densely.
_DENSE_CELLS = 64
_EPS = np.finfo(float).eps
# Below this row-sum ratio an operator is refined in every solve: each
# step shrinks the error by about eps / ratio.  Unrefined, a periodic A0
# at gamma = 1e8 left rho_dense 9.7e-11 off LFA (J = 64, delta0 = 10);
# with one step only, 1.9e-11 off at gamma = 1e12.
_REFINE_RATIO = 1e-8
_REFINE_STEPS = 2


def _as_blocks(x: np.ndarray, size: int) -> np.ndarray:
    """View a vector or column stack as ``(groups, size, columns)``."""
    return x.reshape(x.shape[0] // size, size, -1)


def _rotate(X: np.ndarray, shift: int) -> np.ndarray:
    """``X`` with its leading axis rotated up by ``shift`` (``np.roll(X,
    -shift, axis=0)`` at a fraction of its call cost)."""
    return np.concatenate((X[shift:], X[:shift]))


class _Bands:
    """A square matrix on a cycle of 2x2 blocks, applied to vectors by its
    diagonals.

    ``couplings[s][q]`` is the block in row block ``q`` and column block
    ``q + s``, modulo the block count.  Entry ``(a, b)`` of it lies on
    diagonal ``2 s + b - a`` of the matrix, and ``shift`` moves every
    block down and right by that many unknowns (the point smoother).  The
    product pads the vector with its wrap values, so couplings that land
    on the same entry (cycles of one or two blocks) add up.
    """

    def __init__(self, couplings: dict, shift: int = 0):
        self.first = 2 * min(couplings) - 1
        last = 2 * max(couplings) + 1
        cells = len(couplings[0])  # every operator has diagonal blocks
        bands = np.zeros((last - self.first + 1, cells, 2))
        for s, blocks in couplings.items():
            for a in (0, 1):
                for b in (0, 1):
                    bands[2 * s + b - a - self.first, :, a] = blocks[:, a, b]
        n = 2 * cells
        self.bands = bands.reshape(-1, n)
        if shift:
            self.bands = np.roll(self.bands, shift, axis=1)
        self.last = last
        # cycles shorter than the reach wrap more than once
        self._pad = np.arange(self.first, n + last) % n if n < max(-self.first, last) else None

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        n = self.bands.shape[1]
        if len(x) != n:
            raise ValueError(f"cannot apply a ({n}, {n}) operator to shape {np.shape(x)}")
        if self._pad is None:
            x = np.concatenate((x[n + self.first :], x, x[: self.last]))
        else:
            x = x[self._pad]
        # row k of the window is x[k : k + n]; rows add up in band order
        window = np.ndarray(self.bands.shape, x.dtype, x, strides=2 * x.strides)
        return (self.bands * window).sum(axis=0)


def _inverse_2x2(M: np.ndarray, tol: float = 0.0) -> tuple:
    """``(inverse, singular)`` for a stack ``(..., 2, 2)`` of real or
    complex blocks.

    Each block is divided by the power of two ``s`` just above ``m``, its
    largest absolute entry (at most ``2^1023``), which is exact; the
    inverse is ``adj(M/s) / (det(M/s) s)``.  So nothing overflows or
    underflows unless the inverse does, and wherever ``adj(M) / det(M)``
    stays in range the two agree bit for bit.  A block is ``singular``
    when ``det(M) = 0`` or ``|det(M)| < tol max(1, m)^2``; its inverse is
    then meaningless.
    """
    m = np.abs(M).max(axis=(-2, -1))
    s = np.ldexp(1.0, np.minimum(np.frexp(m)[1], 1023))
    (a, b), (c, d) = np.moveaxis(M / s[..., None, None], (-2, -1), (0, 1))
    det = a * d - b * c
    # the test divided by s^2, except where s < 1: no side overflows, and
    # it rounds as on det(M) itself
    shrink, size = np.minimum(s, 1.0) ** 2, np.maximum(m, 1.0) / np.maximum(s, 1.0)
    singular = (det == 0.0) | (np.abs(det) * shrink < tol * size**2)
    adjugate = np.stack((d, -b, -c, a), axis=-1).reshape(M.shape)
    with np.errstate(over="ignore"):  # det s is inf only where the inverse underflows
        return adjugate / (np.where(singular, 1.0, det) * s)[..., None, None], singular


def _shift_off_constants(M: np.ndarray) -> np.ndarray:
    """``M`` plus the all-ones matrix times its largest absolute entry over
    its size: invertible when ``M`` is symmetric and singular on the
    constants only, with the same solution for data of mean zero."""
    return M + np.abs(M).max() / M.shape[0]


def _cycle_toarray(diag: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Dense matrix of the block-tridiagonal cycle ``(diag, upper)``."""
    J = len(diag)
    dense = np.zeros((J, 2, J, 2))
    cells = np.arange(J)
    nxt = (cells + 1) % J
    dense[cells, :, cells, :] += diag
    # += on fancy indices does not accumulate repeated indices, so the
    # two couplings go in one at a time (they land in the same block
    # when J is 1 or 2)
    dense[cells, :, nxt, :] += upper
    dense[nxt, :, cells, :] += np.swapaxes(upper, 1, 2)
    return dense.reshape(2 * J, 2 * J)


class BlockTridiagonal:
    """Symmetric block-tridiagonal matrix over cells, with a wrap block.

    Row block ``j`` holds ``diag[j]`` on the diagonal, ``upper[j]`` in
    column block ``j + 1`` and ``upper[j - 1].T`` in column block
    ``j - 1``, indices taken modulo the number of cells: ``upper[-1]``
    couples the last cell to the first (periodic meshes) and is zero on
    Dirichlet meshes.  A vector is applied through the seven diagonals
    ``-3 .. 3`` of the matrix.
    """

    def __init__(self, diag: np.ndarray, upper: np.ndarray):
        diag = np.asarray(diag, dtype=float)
        upper = np.asarray(upper, dtype=float)
        if diag.ndim != 3 or diag.shape[1:] != (2, 2) or upper.shape != diag.shape:
            raise ValueError(
                f"need (J, 2, 2) diagonal and upper blocks, got {diag.shape} and {upper.shape}"
            )
        self.diag = diag
        self.upper = upper
        # lower[j] = upper[j - 1].T couples cell j to cell j - 1
        self._lower = _rotate(np.swapaxes(upper, 1, 2), -1)

    @cached_property
    def _bands(self) -> _Bands:
        return _Bands({-1: self._lower, 0: self.diag, 1: self.upper})

    @property
    def cells(self) -> int:
        return self.diag.shape[0]

    @property
    def shape(self) -> tuple:
        n = 2 * self.cells
        return (n, n)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        if x.ndim == 1:
            return self._bands @ x
        X = _as_blocks(x, 2)
        wrapped = np.concatenate((X[-1:], X, X[:1]))
        Y = self.diag @ X + self.upper @ wrapped[2:] + self._lower @ wrapped[:-2]
        return Y.reshape(x.shape)

    def toarray(self) -> np.ndarray:
        return _cycle_toarray(self.diag, self.upper)


class BlockDiagonal:
    """2x2 diagonal blocks, shifted by ``shift`` unknowns (0 or 1).

    Block ``j`` acts on unknowns ``(2j + shift, 2j + 1 + shift)``, taken
    modulo ``n``: with ``shift = 1`` the last block pairs the last
    unknown with the first.  A vector is applied through three diagonals,
    whose products add up in each row exactly as the written-out 2x2
    product does.
    """

    def __init__(self, blocks: np.ndarray, shift: int = 0):
        blocks = np.asarray(blocks, dtype=float)
        if blocks.ndim != 3 or blocks.shape[1:] != (2, 2):
            raise ValueError(f"need (J, 2, 2) blocks, got {blocks.shape}")
        if shift not in (0, 1):
            raise ValueError(f"shift must be 0 or 1, got {shift}")
        self.blocks = blocks
        self.shift = shift

    @cached_property
    def _bands(self) -> _Bands:
        return _Bands({0: self.blocks}, self.shift)

    @property
    def shape(self) -> tuple:
        n = 2 * self.blocks.shape[0]
        return (n, n)

    def inverse(self) -> "BlockDiagonal":
        """Every block inverted by ``_inverse_2x2``, which does not
        overflow where the inverse does not; raises
        ``numpy.linalg.LinAlgError`` when a block is exactly singular."""
        inverse, singular = _inverse_2x2(self.blocks)
        if singular.any():
            raise np.linalg.LinAlgError(f"singular block {int(np.flatnonzero(singular)[0])}")
        return BlockDiagonal(inverse, self.shift)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        if x.ndim == 1:
            return self._bands @ x
        if self.shift:
            x = _rotate(x, self.shift)
        Y = (self.blocks @ _as_blocks(x, 2)).reshape(x.shape)
        return _rotate(Y, -self.shift) if self.shift else Y

    def toarray(self) -> np.ndarray:
        J = self.blocks.shape[0]
        dense = np.zeros((J, 2, J, 2))
        dense[np.arange(J), :, np.arange(J), :] = self.blocks
        dense = dense.reshape(2 * J, 2 * J)
        return np.roll(dense, (self.shift, self.shift), axis=(0, 1))


class CellStencil:
    """Block-diagonal matrix repeating one ``(rows, cols)`` stencil
    ``groups`` times."""

    def __init__(self, stencil: np.ndarray, groups: int):
        self.stencil = np.asarray(stencil, dtype=float)
        self.groups = groups

    @property
    def shape(self) -> tuple:
        rows, cols = self.stencil.shape
        return (self.groups * rows, self.groups * cols)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        if x.shape[0] != self.shape[1]:
            raise ValueError(f"cannot apply a {self.shape} operator to shape {x.shape}")
        cols = self.stencil.shape[1]
        if x.ndim == 1:  # one plain matrix product, much cheaper than stacked
            return (x.reshape(-1, cols) @ self.stencil.T).reshape(-1)
        Y = self.stencil @ _as_blocks(x, cols)
        return Y.reshape((self.shape[0],) + x.shape[1:])

    def toarray(self) -> np.ndarray:
        rows, cols = self.stencil.shape
        dense = np.zeros((self.groups, rows, self.groups, cols))
        groups = np.arange(self.groups)
        dense[groups, :, groups, :] = self.stencil
        return dense.reshape(self.shape)


class _SchurLevel:
    """One level of the reduction: keep every ``_CHUNK``-th cell of a
    cycle and eliminate the cells between, in one batched step.

    The ``m`` cells are cut into ``c = ceil(m / _CHUNK)`` chunks of nearly
    equal length.  The first cell of chunk ``q`` is separator ``q``; the
    other cells form an interior chain that couples only to separators
    ``q`` and ``q + 1`` (modulo ``c``), through its first and its last
    cell.  The chains are padded with identity cells to one length ``w``
    and inverted as one ``(c, 2w, 2w)`` stack.  With ``A_II`` the chains,
    ``A_IS`` their couplings to the two separators of each chunk and
    ``W = A_II^{-1} A_IS``, the separators' Schur complement ``A_SS -
    A_IS^T W`` is again a block-tridiagonal cycle ``(diag, upper)``.

    Right-hand sides are ``(cells, 2, columns)`` arrays.  A padded
    position reads a copy of a real cell; it meets only zero couplings
    and is never written back.
    """

    def __init__(self, diag: np.ndarray, upper: np.ndarray):
        m = len(diag)
        c = -(-m // _CHUNK)
        starts = np.arange(c + 1) * m // c
        length = np.diff(starts) - 1  # interior cells per chunk, at least 1
        w = int(length.max())
        real = np.arange(w) < length[:, None]
        self.separators = starts[:-1]
        self.interior = np.minimum(starts[:-1, None] + 1 + np.arange(w), starts[1:, None] - 1)

        chains = np.zeros((c, w, 2, w, 2))
        q, i = np.nonzero(real)
        chains[q, i, :, i, :] = diag[self.interior[q, i]]
        q, i = np.nonzero(~real)
        chains[q, i, :, i, :] = np.eye(2)
        q, i = np.nonzero(real[:, 1:])
        link = upper[self.interior[q, i]]
        chains[q, i, :, i + 1, :] = link
        chains[q, i + 1, :, i, :] = np.swapaxes(link, 1, 2)
        inverse = np.linalg.inv(chains.reshape(c, 2 * w, 2 * w))
        del chains  # keeps the build's peak memory at two stacks of chains

        # A_IS: the first cell couples back to separator q, the last real
        # cell forward to separator q + 1
        coupling = np.zeros((c, w, 2, 4))
        coupling[:, 0, :, :2] = np.swapaxes(upper[starts[:-1]], 1, 2)
        coupling[np.arange(c), length - 1, :, 2:] = upper[starts[1:] - 1]
        coupling = coupling.reshape(c, 2 * w, 4)
        to_separators = np.swapaxes(coupling, 1, 2) @ inverse  # A_IS^T A_II^{-1}
        self.W = inverse @ coupling
        # one product gives A_II^{-1} b_I and A_IS^T A_II^{-1} b_I
        self.gain = np.concatenate((inverse, to_separators), axis=1)
        K = to_separators @ coupling
        self.diag = diag[starts[:-1]] - K[:, :2, :2] - np.roll(K[:, 2:, 2:], 1, axis=0)
        self.upper = -K[:, :2, 2:]
        # row of each cell in (interior positions, separators)
        self.place = np.empty(m, dtype=np.intp)
        self.place[self.interior[real]] = np.flatnonzero(real)
        self.place[starts[:-1]] = c * w + np.arange(c)

    def restrict(self, B: np.ndarray) -> tuple:
        """Separators' right-hand side, and ``A_II^{-1} b_I`` per chunk."""
        # np.take and concatenate cost a fraction of fancy indexing and
        # np.roll on these small arrays
        c, w = self.interior.shape
        Z = self.gain @ np.take(B, self.interior, axis=0).reshape(c, 2 * w, -1)
        y, h = Z[:, : 2 * w], Z[:, 2 * w :]
        from_previous = np.concatenate((h[-1:, 2:], h[:-1, 2:]))
        return np.take(B, self.separators, axis=0) - h[:, :2] - from_previous, y

    def expand(self, t: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Every cell's solution from the separators' ``t``:
        ``x_I = y - W [t_q; t_{q+1}]``."""
        c, k = len(t), t.shape[2]
        ends = np.concatenate((t, t[:1]))
        # chunk q reads the four unknowns of separators q and q + 1
        pairs = np.ndarray((c, 4, k), ends.dtype, ends, strides=ends.strides)
        x = (y - self.W @ pairs).reshape(-1, 2, k)
        return np.take(np.concatenate((x, t)), self.place, axis=0)


class CyclicReduction:
    """Factorization of a symmetric ``BlockTridiagonal`` for repeated solves.

    Each level keeps every ``_CHUNK``-th cell and eliminates the chains
    between them at once (``_SchurLevel``), until at most ``_DENSE_CELLS``
    cells remain; that remainder is inverted densely.  A solve is about a
    dozen batched numpy calls per level, the same for a vector and for an
    ``(n, k)`` column stack; it costs O(n k) work, and the factor holds
    O(n) numbers (a little over ``2 _CHUNK`` per unknown, mostly the
    chain inverses).

    The constant vector's treatment is read off ``op``, from ``ratio``,
    its largest row sum over its largest absolute row sum.  At ``ratio <=
    eps`` ``op`` is singular on the constants (periodic pure diffusion, or
    a reaction term lost to rounding against the penalty) and
    ``constant_kernel`` is set: right-hand sides and solutions are
    projected onto mean zero, the solution is the one a pseudo-inverse
    gives, and the remainder is made invertible by adding a multiple of
    the all-ones matrix (which leaves mean-zero solutions unchanged)
    instead of cutting small singular values.  The separators' Schur
    complement is singular on their constants again, and mean-zero data
    stays orthogonal to them, so the shift acts on that mode only.  Above
    eps but below ``_REFINE_RATIO`` (condition number about ``1 / ratio``
    or more: a periodic weak reaction) every solve adds ``refine_steps``
    steps of iterative refinement.
    """

    def __init__(self, op: BlockTridiagonal):
        # row sums from the blocks: op @ 1 would build the bands
        couplings = (op.diag, op.upper, op._lower)
        sums = np.abs(sum(couplings).sum(axis=2)).max()
        scale = sum(np.abs(c) for c in couplings).sum(axis=2).max()
        self.constant_kernel = bool(sums <= _EPS * scale)
        nearly_singular = not self.constant_kernel and sums < _REFINE_RATIO * scale
        self.refine_steps = _REFINE_STEPS if nearly_singular else 0
        self.op = op
        self.levels = []
        diag, upper = op.diag, op.upper
        while len(diag) > _DENSE_CELLS:
            level = _SchurLevel(diag, upper)
            self.levels.append(level)
            diag, upper = level.diag, level.upper
        remainder = _cycle_toarray(diag, upper)
        if self.constant_kernel:
            remainder = _shift_off_constants(remainder)
        self.remainder_inverse = np.linalg.inv(remainder)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """``op^{-1} b`` (the pseudo-inverse on a constant kernel) for a
        vector or every column of an ``(n, k)`` stack."""
        b = np.asarray(b, dtype=float)
        x = self._solve(b)
        for _ in range(self.refine_steps):
            x += self._solve(b - self.op @ x)
        return x

    def _solve(self, b: np.ndarray) -> np.ndarray:
        B = _as_blocks(b, 2)
        if self.constant_kernel:
            B = B - B.mean(axis=(0, 1))
        interiors = []
        for level in self.levels:
            B, y = level.restrict(B)
            interiors.append(y)
        X = (self.remainder_inverse @ B.reshape(len(self.remainder_inverse), -1)).reshape(B.shape)
        for level, y in zip(reversed(self.levels), reversed(interiors)):
            X = level.expand(X, y)
        if self.constant_kernel:
            X -= X.mean(axis=(0, 1))
        return X.reshape(b.shape)
