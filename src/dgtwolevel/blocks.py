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
nonzero diagonals of the matrix, stored as contiguous arrays when the
operator is built: an apply is one wrap-padded copy of the vector, one
product with all bands at once and a sum over the bands.  A column
stack goes through numpy's stacked 2x2 products, whose per-block cost
many columns amortize.  ``toarray()`` gives the dense matrix, meant as
a test oracle at desk scale.  ``CyclicReduction`` factors a
``BlockTridiagonal`` once and solves with it in O(n) work per
right-hand side.
"""

import numpy as np

# Cyclic reduction stops at this many cells and inverts the rest densely.
_DENSE_CELLS = 64


def _as_blocks(x: np.ndarray, size: int) -> np.ndarray:
    """View a vector or column stack as ``(groups, size, columns)``."""
    return x.reshape(x.shape[0] // size, size, -1)


def _cells(x: np.ndarray) -> np.ndarray:
    """A contiguous vector as one complex item per cell (its two unknowns),
    so that whole cells are picked or placed one 16-byte copy each."""
    return x.view(np.complex128)


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
        self._bands = _Bands({-1: self._lower, 0: diag, 1: upper})

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
        self._bands = _Bands({0: blocks}, shift)

    @property
    def shape(self) -> tuple:
        n = 2 * self.blocks.shape[0]
        return (n, n)

    def inverse(self) -> "BlockDiagonal":
        return BlockDiagonal(np.linalg.inv(self.blocks), self.shift)

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
        return np.kron(np.eye(self.groups), self.stencil)


class _Reduction:
    """One step of cyclic reduction: eliminate the odd cells of a cycle.

    Odd cells ``1, 3, ...`` (all but the last cell when the count is odd)
    have only kept neighbours, so their unknowns are eliminated in one
    batched step.  The kept cells ``0, 2, ...`` form a block-tridiagonal
    cycle ``(diag, upper)`` again; when the count is odd the last kept
    cell keeps its original wrap block to the first.  Odd cell ``2p + 1``
    sits between kept cells ``p`` and ``p + 1`` (modulo the kept count).

    A vector is reduced on the pairs ``(kept p, odd p)``, with a zero odd
    cell after the last kept one when the count is odd, so that both
    halves have the same cell count and each coupling between them is
    one band operator on a cycle.
    """

    def __init__(self, diag: np.ndarray, upper: np.ndarray):
        m = len(diag)
        self.cells = m
        self.odd = slice(1, m - m % 2, 2)
        to_odd = upper[0 : m - m % 2 : 2]  # kept cell p -> odd cell
        from_odd = upper[self.odd]  # odd cell -> kept cell p + 1
        self.odd_inverse = np.linalg.inv(diag[self.odd])
        self.to_odd_T = np.swapaxes(to_odd, 1, 2)
        self.from_odd = from_odd
        self.left_gain = to_odd @ self.odd_inverse
        self.right_gain = np.swapaxes(from_odd, 1, 2) @ self.odd_inverse

        pairs = m // 2
        self.diag = diag[0::2].copy()
        self.diag[:pairs] -= self.left_gain @ self.to_odd_T
        self._subtract_right(self.diag, self.right_gain @ from_odd)
        self.upper = np.zeros_like(self.diag)
        self.upper[:pairs] = -self.left_gain @ from_odd
        if m % 2:
            self.upper[-1] = upper[-1]

        def paired(blocks):  # one block per kept cell
            return np.concatenate((blocks, np.zeros((m % 2, 2, 2))))

        # kept p -= left_gain[p] odd[p] + right_gain[p - 1] odd[p - 1]
        self._restrict = _Bands(
            {-1: np.roll(paired(self.right_gain), 1, axis=0), 0: paired(self.left_gain)}
        )
        # odd p = odd_inverse[p] (odd[p] - to_odd_T[p] kept[p] - from_odd[p] kept[p + 1])
        self._couple = _Bands({0: paired(self.to_odd_T), 1: paired(self.from_odd)})
        self._odd_inverse = _Bands({0: paired(self.odd_inverse)})

    def _subtract_right(self, kept: np.ndarray, C: np.ndarray):
        """``kept[p + 1] -= C[p]`` for every odd cell ``2p + 1``."""
        kept[1:] -= C[: len(kept) - 1]
        if self.cells % 2 == 0:
            kept[0] -= C[-1]

    def restrict(self, B: np.ndarray) -> tuple:
        """Right-hand side of the reduced system, and the odd cells' part."""
        if B.ndim == 1:
            if self.cells % 2:
                B = np.concatenate((B, (0.0, 0.0)))
            cells = _cells(B)
            odd = cells[1::2].copy().view(float)
            return cells[0::2].copy().view(float) - self._restrict @ odd, odd
        odd = B[self.odd]
        kept = B[0::2].copy()
        kept[: len(odd)] -= self.left_gain @ odd
        self._subtract_right(kept, self.right_gain @ odd)
        return kept, odd

    def expand(self, kept: np.ndarray, odd: np.ndarray) -> np.ndarray:
        """Full solution from the kept cells' solution (back substitution)."""
        if kept.ndim == 1:
            X = np.empty(2 * len(kept))
            _cells(X)[0::2] = _cells(kept)
            _cells(X)[1::2] = _cells(self._odd_inverse @ (odd - self._couple @ kept))
            return X[: 2 * self.cells]
        n_odd = len(odd)
        X = np.empty((self.cells,) + kept.shape[1:])
        X[0::2] = kept
        X[self.odd] = self.odd_inverse @ (
            odd
            - self.to_odd_T @ kept[:n_odd]
            - self.from_odd @ _rotate(kept, 1)[:n_odd]
        )
        return X


class CyclicReduction:
    """Factorization of a symmetric ``BlockTridiagonal`` for repeated solves.

    Halves the cell count by cyclic reduction until at most
    ``_DENSE_CELLS`` cells remain, then inverts that remainder densely, so
    a solve costs O(n) work and no array grows with n squared.

    ``constant_kernel=True`` declares the operator singular on the
    constant vector (periodic pure diffusion): right-hand sides and
    solutions are projected onto mean zero, the solution is the one a
    pseudo-inverse gives, and the remainder is made invertible by adding
    a multiple of the all-ones matrix (which leaves mean-zero solutions
    unchanged) instead of cutting small singular values.
    """

    def __init__(self, op: BlockTridiagonal, constant_kernel: bool = False):
        self.constant_kernel = constant_kernel
        self.levels = []
        diag, upper = op.diag, op.upper
        while len(diag) > _DENSE_CELLS:
            level = _Reduction(diag, upper)
            self.levels.append(level)
            diag, upper = level.diag, level.upper
        remainder = _cycle_toarray(diag, upper)
        if constant_kernel:
            remainder += np.abs(remainder).max() / remainder.shape[0]
        self.remainder_inverse = np.linalg.inv(remainder)

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        if b.ndim == 1:  # flat, for the band products
            B, axes = np.ascontiguousarray(b), 0
        else:  # grouped by cell, for the stacked 2x2 products
            B, axes = _as_blocks(b, 2), (0, 1)
        if self.constant_kernel:
            B = B - B.mean(axis=axes)
        odd_parts = []
        for level in self.levels:
            B, odd = level.restrict(B)
            odd_parts.append(odd)
        X = (self.remainder_inverse @ B.reshape(len(self.remainder_inverse), -1)).reshape(B.shape)
        for level, odd in zip(reversed(self.levels), reversed(odd_parts)):
            X = level.expand(X, odd)
        if self.constant_kernel:
            X -= X.mean(axis=axes)
        return X.reshape(b.shape)
