"""Dense complex linear algebra over finite direct sums of matrix blocks.

A block algebra Mat(n1) + ... + Mat(nk) models a finite-dimensional operator
algebra in its block-diagonal representation. Elements are tuples of square
complex matrices, one per block, and are vectorized by concatenating the
row-major entries of the blocks in order. All operations are pure: inputs are
never mutated, and every element wraps read-only arrays so values can be
shared freely.
Input is copied and checked where it enters, in :meth:`BlockAlgebra.element`
and :func:`devectorize`. Elements built from perispec's own arrays go through
:meth:`BlockAlgebra._wrap`, which neither copies nor checks them again.
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import (
    AlgebraMismatch,
    ConvergenceFailure,
    DimensionMismatch,
    NotHermitian,
    PerispecError,
)

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "BlockAlgebra",
    "AlgebraElement",
    "max_norm",
    "element_norm",
    "vectorize",
    "devectorize",
    "adjoint",
    "hermitian_eig",
    "to_hermitian_basis",
    "from_hermitian_basis",
    "hermitian_basis_form",
    "general_eig",
    "null_space",
    "column_space",
    "scalar_multiple_of_identity",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used across the package.

    eq_tol bounds entrywise residuals, rank_tol is the relative singular
    value cutoff for rank decisions, psd_tol is the slack allowed below zero
    for eigenvalues of nominally positive semidefinite matrices.
    """

    eq_tol: float = 1e-9
    rank_tol: float = 1e-8
    psd_tol: float = 1e-9

    def __post_init__(self) -> None:
        for name in ("eq_tol", "rank_tol", "psd_tol"):
            value = getattr(self, name)
            if not 0.0 < value < np.inf:
                raise ValueError(
                    f"{name} must be finite and strictly positive, got {value!r}"
                )


DEFAULT_TOL = Tolerances()

# The change of basis T on the two entries (j, k), (k, j) of each pair, and
# its adjoint; see BlockAlgebra.hermitian_pairs.
_FROM_UNITS = np.sqrt(0.5) * np.array([[1.0, 1.0j], [1.0, -1.0j]])
_TO_UNITS = _FROM_UNITS.conj().T


def max_norm(m: np.ndarray) -> float:
    """Largest entry magnitude of an array; zero for empty arrays."""
    return float(np.abs(m).max()) if m.size else 0.0


def _frozen(a) -> np.ndarray:
    """``a``, which nothing else writes to, as a read-only C-contiguous
    complex128 array; copied only when its dtype or layout differs."""
    a = np.ascontiguousarray(a, dtype=np.complex128)
    a.setflags(write=False)
    return a


def _as_square_matrix(m) -> np.ndarray:
    a = np.array(m, dtype=np.complex128, order="C")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class BlockAlgebra:
    """Direct sum of full matrix blocks, identified by the block side lengths."""

    blocks: tuple[int, ...]

    def __post_init__(self) -> None:
        blocks = tuple(int(n) for n in self.blocks)
        if not blocks:
            raise ValueError("a block algebra needs at least one block")
        if any(n < 1 for n in blocks):
            raise ValueError(f"block sizes must be positive, got {blocks}")
        object.__setattr__(self, "blocks", blocks)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        """Start of each block in the vectorization, then the vectorization's
        length, so block k occupies offsets[k] : offsets[k + 1]."""
        offsets = [0]
        for n in self.blocks:
            offsets.append(offsets[-1] + n * n)
        return tuple(offsets)

    @property
    def dim(self) -> int:
        """Length of the coefficient vectorization: sum of squared block sizes."""
        return self.offsets[-1]

    @property
    def total_size(self) -> int:
        """Sum of the block side lengths."""
        return sum(self.blocks)

    def element(self, parts: Sequence) -> "AlgebraElement":
        """Wrap a checked copy of one square matrix per block as an element."""
        return AlgebraElement(self, tuple(_as_square_matrix(p) for p in parts))

    def _wrap(self, parts: Sequence[np.ndarray]) -> "AlgebraElement":
        """The element with parts that perispec computed itself, one finite
        square matrix per block: unchecked, and copied only by _frozen."""
        x = object.__new__(AlgebraElement)
        object.__setattr__(x, "algebra", self)
        object.__setattr__(x, "parts", tuple(map(_frozen, parts)))
        return x

    def identity(self) -> "AlgebraElement":
        return self._wrap([np.eye(n) for n in self.blocks])

    def scalar(self, c: complex) -> "AlgebraElement":
        return c * self.identity()

    def basis(self) -> Iterator["AlgebraElement"]:
        """Matrix-unit basis in vectorization order (blocks in order, row-major)."""
        for k in range(self.dim):
            v = np.zeros(self.dim)
            v[k] = 1.0
            yield devectorize(self, v)

    @cached_property
    def hermitian_pairs(self) -> np.ndarray:
        """Vectorization indices of the entries (j, k) and (k, j), j < k, of
        every block, as the two rows (upper, lower) of one array.

        They index the Hermitian basis too: the unit (E_jk + E_kj) / sqrt 2 sits
        at the upper index, i (E_jk - E_kj) / sqrt 2 at the lower one, and each
        diagonal unit E_jj at the index of its entry.
        """
        upper, lower = [], []
        for n, offset in zip(self.blocks, self.offsets):
            j, k = np.triu_indices(n, 1)
            upper.append(offset + j * n + k)
            lower.append(offset + k * n + j)
        pairs = np.stack((np.concatenate(upper), np.concatenate(lower)))
        pairs.setflags(write=False)
        return pairs


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """One square complex matrix per block of a :class:`BlockAlgebra`."""

    algebra: BlockAlgebra
    parts: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.parts) != len(self.algebra.blocks):
            raise AlgebraMismatch(
                f"expected {len(self.algebra.blocks)} blocks, got {len(self.parts)}"
            )
        for part, n in zip(self.parts, self.algebra.blocks):
            if part.shape != (n, n):
                raise AlgebraMismatch(
                    f"block of shape {part.shape} does not fit side length {n}"
                )

    def _check_same(self, other: "AlgebraElement") -> None:
        if self.algebra != other.algebra:
            raise AlgebraMismatch(
                f"elements of {self.algebra.blocks} and {other.algebra.blocks}"
            )

    def _combined(self, op, others: Sequence) -> "AlgebraElement":
        """The element with parts op(p, q) for the parts p of self and q of
        ``others``. A result that leaves the float range from finite operands
        raises ValueError, with no RuntimeWarning."""
        with np.errstate(over="ignore", invalid="ignore"):
            parts = [op(p, q) for p, q in zip(self.parts, others)]
        if not all(np.isfinite(p).all() for p in parts) and all(
            np.isfinite(p).all() for p in (*self.parts, *others)
        ):
            raise ValueError("element arithmetic overflows the float range")
        return self.algebra._wrap(parts)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_same(other)
        return self._combined(np.add, other.parts)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_same(other)
        return self._combined(np.subtract, other.parts)

    def __neg__(self) -> "AlgebraElement":
        return self.algebra._wrap([-p for p in self.parts])

    def __mul__(self, c: complex) -> "AlgebraElement":
        if not cmath.isfinite(c):
            raise ValueError(f"scalar factor must be finite, got {c!r}")
        return self._combined(lambda p, c: c * p, [c] * len(self.parts))

    __rmul__ = __mul__

    def __matmul__(self, other: "AlgebraElement") -> "AlgebraElement":
        """Blockwise matrix product."""
        self._check_same(other)
        return self._combined(np.matmul, other.parts)

    def trace(self) -> complex:
        return complex(sum(np.trace(p) for p in self.parts))


def element_norm(x: AlgebraElement) -> float:
    """Largest entry magnitude across all blocks."""
    return max(max_norm(p) for p in x.parts)


def vectorize(x: AlgebraElement) -> np.ndarray:
    """Concatenate the row-major entries of the blocks into one vector."""
    return np.concatenate([p.reshape(-1) for p in x.parts])


def devectorize(algebra: BlockAlgebra, v: np.ndarray) -> AlgebraElement:
    """Inverse of :func:`vectorize` for the given algebra."""
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    if v.size != algebra.dim:
        raise DimensionMismatch(f"vector of length {v.size} does not fit dim {algebra.dim}")
    return algebra.element(_devectorize(algebra, v).parts)


def _devectorize(algebra: BlockAlgebra, v: np.ndarray) -> AlgebraElement:
    """:func:`devectorize` through :meth:`BlockAlgebra._wrap`, for a vector
    that perispec computed itself."""
    o = algebra.offsets
    return algebra._wrap(
        [v[o[k] : o[k + 1]].reshape(n, n) for k, n in enumerate(algebra.blocks)]
    )


def adjoint(x: AlgebraElement) -> AlgebraElement:
    """Blockwise conjugate transpose."""
    return x.algebra._wrap([p.conj().T for p in x.parts])


def _mix_pairs(algebra: BlockAlgebra, a: np.ndarray, mix: np.ndarray) -> np.ndarray:
    """Copy of ``a`` with each pair of rows (upper, lower) of
    :attr:`BlockAlgebra.hermitian_pairs` replaced by ``mix`` applied to it."""
    out = np.array(a, dtype=np.complex128)
    rows = out[algebra.hermitian_pairs]
    out[algebra.hermitian_pairs] = (mix @ rows.reshape(2, -1)).reshape(rows.shape)
    return out


def to_hermitian_basis(algebra: BlockAlgebra, a: np.ndarray) -> np.ndarray:
    """Coordinates T* a in the Hermitian basis of ``algebra`` (see
    :attr:`BlockAlgebra.hermitian_pairs`) of a vectorization, or of each
    column of a matrix of them. T is unitary, and the coordinates of a
    Hermitian element are real."""
    return _mix_pairs(algebra, a, _TO_UNITS)


def from_hermitian_basis(algebra: BlockAlgebra, y: np.ndarray) -> np.ndarray:
    """Inverse of :func:`to_hermitian_basis`: the vectorization T y of
    Hermitian-basis coordinates, or of each column of a matrix of them. Real
    coordinates give exactly Hermitian elements."""
    return _mix_pairs(algebra, y, _FROM_UNITS)


def hermitian_basis_form(algebra: BlockAlgebra, m: np.ndarray) -> tuple[np.ndarray, float]:
    """The real part of T* m T, the matrix of the map m in the Hermitian
    basis, and the size of the imaginary part it drops, max |Im| over
    max(1, max |Re|).

    The map sends Hermitian elements to Hermitian elements exactly when
    T* m T is real. T acts on pairs of rows picked by index arrays, so the
    cost is O(d^2) and no d x d matrix of T is formed.
    """
    # T* m T is the adjoint of T* (T* m)*
    h = to_hermitian_basis(algebra, to_hermitian_basis(algebra, m).conj().T)
    real = np.ascontiguousarray(h.real.T)
    return real, max_norm(h.imag) / max(1.0, max_norm(real))


def _hermitian_defects(h: np.ndarray, tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """For each matrix of a stack (..., n, n): the largest entry of h - h*,
    and whether it exceeds ``eq_tol`` times max(1, the largest entry of h)."""
    adjoint = np.swapaxes(h, -1, -2).conj()
    defect = np.abs(np.subtract(h, adjoint, out=adjoint)).max(axis=(-2, -1), initial=0.0)
    scale = np.maximum(1.0, np.abs(h).max(axis=(-2, -1), initial=0.0))
    return defect, defect > tol.eq_tol * scale


def _checked_hermitian(h, tol: Tolerances) -> np.ndarray:
    """h as complex128, a square matrix or a stack (..., n, n) of them, each
    checked against its own scale."""
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise DimensionMismatch(f"expected square matrices, got shape {h.shape}")
    defect, failed = _hermitian_defects(h, tol)
    if failed.any():
        index = tuple(int(i) for i in np.argwhere(failed)[0])
        where = f"matrix {index} of the stack" if index else "matrix"
        raise NotHermitian(f"{where} deviates from Hermitian by {defect[index]:.3e}")
    return h


class _Rows:
    """The rows of a stack that are still being decided: where each one sits
    in the input, and the outcome of every settled row, shared by all the
    branches split off."""

    def __init__(self, index: np.ndarray, outcomes: list) -> None:
        self.index = index
        self.outcomes = outcomes

    def settle(self, checks: list) -> np.ndarray | None:
        """Settle every live row that fails one of ``checks``, pairs (failed,
        error) of a mask over the live rows and a function from a row to its
        error, with the error of the first check it fails; drop those rows.
        Returns the mask of the rows kept, for :func:`_kept`, or None when
        every row passes."""
        failed = functools.reduce(np.logical_or, [mask for mask, _ in checks])
        if not failed.any():
            return None
        for j in np.flatnonzero(failed):
            error = next(error for mask, error in checks if mask[j])
            self.outcomes[self.index[j]] = error(j)
        keep = ~failed
        self.index = self.index[keep]
        return keep

    def split(self, mask: np.ndarray) -> "_Rows":
        """The rows where ``mask``, handed on to a branch; the rest stay."""
        branch = _Rows(self.index[mask], self.outcomes)
        self.index = self.index[~mask]
        return branch

    def finish(self, outcome: Callable[[int], object]) -> None:
        """Settle every live row j with ``outcome(j)``."""
        for j, i in enumerate(self.index):
            self.outcomes[i] = outcome(j)


def _raised(outcome):
    """A row's outcome, raised when it is an error, as the one-row call
    raises it."""
    if isinstance(outcome, PerispecError):
        raise outcome
    return outcome


def _kept(keep: np.ndarray | None, *arrays):
    """Each per-row array, or list of them, cut to the rows of ``keep``;
    unchanged when ``keep`` is None."""
    if keep is None:
        return arrays
    return tuple(
        [s[keep] for s in a] if isinstance(a, list) else a[keep] for a in arrays
    )


def _lapack(routine, *args, **kwargs):
    """``routine(*args, **kwargs)``, a numpy.linalg call, with LAPACK's
    failure to converge raised as :class:`ConvergenceFailure`."""
    try:
        return routine(*args, **kwargs)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceFailure(str(exc)) from exc


def hermitian_eig(
    h: np.ndarray, tol: Tolerances = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, or of each matrix of a stack
    (..., n, n).

    Returns ascending real eigenvalues and a matrix whose columns are the
    matching orthonormal eigenvectors, stacked like the input. Each matrix of
    a stack comes out bit for bit as if decomposed alone. Raises
    :class:`DimensionMismatch` when the input is not square, and
    :class:`NotHermitian` when an input matrix deviates from its conjugate
    transpose beyond tolerance.
    """
    return _lapack(np.linalg.eigh, _checked_hermitian(h, tol))


def _lapack_input(m) -> np.ndarray:
    """Real input as float64, so that LAPACK runs its faster real solvers;
    any other input as complex128."""
    m = np.asarray(m)
    return m.astype(np.float64 if np.isrealobj(m) else np.complex128, copy=False)


def _general_square(m) -> np.ndarray:
    m = _lapack_input(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return m


def general_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of a general square matrix and a matrix whose columns are
    matching unit-norm right eigenvectors.

    Real input is decomposed by LAPACK's real solver: its complex eigenvalues
    come in exact conjugate pairs, with conjugate eigenvectors, and both
    results are real when every eigenvalue is. Any other input is decomposed
    as complex128. At a defective eigenvalue the columns for its repeated
    copies come out nearly parallel, so callers must check their rank before
    using them.
    """
    return _lapack(np.linalg.eig, _general_square(m))


def _rank(s: np.ndarray, tol: Tolerances, atol: float = 0.0) -> int:
    """How many of the descending singular values ``s`` count as nonzero:
    those above both ``rank_tol`` times the largest and the floor ``atol``."""
    smax = float(s[0]) if s.size else 0.0
    return int(np.sum(s > max(tol.rank_tol * smax, atol)))


def null_space(
    m: np.ndarray, tol: Tolerances = DEFAULT_TOL, atol: float = 0.0
) -> list[np.ndarray]:
    """Orthonormal basis of the kernel of ``m``.

    A singular value counts as zero when it is at most ``rank_tol`` times the
    largest singular value (so the zero matrix has a full kernel) or at most
    the absolute floor ``atol``. A real input has a real basis.
    """
    _, s, vh = _lapack(np.linalg.svd, _lapack_input(m))
    return [vh[i].conj() for i in range(_rank(s, tol, atol), vh.shape[0])]


def column_space(m: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the range of ``m``, as the columns of a matrix.

    A singular value counts as zero when it is at most ``rank_tol`` times the
    largest singular value, as in :func:`null_space`.
    """
    u, s, _ = _lapack(np.linalg.svd, _lapack_input(m), full_matrices=False)
    return u[:, : _rank(s, tol)]


def scalar_multiple_of_identity(
    x: AlgebraElement, tol: Tolerances = DEFAULT_TOL
) -> complex | None:
    """The scalar c with x = c 1, or None when x is not a scalar multiple."""
    c, residual = _scalar_fit(x)
    return c if residual <= tol.eq_tol * max(1.0, abs(c)) else None


def _scalar_fit(x: AlgebraElement) -> tuple[complex, float]:
    """c = trace(x) / size and the largest entry of x - c 1."""
    c = x.trace() / x.algebra.total_size
    return c, max(max_norm(p - c * np.eye(len(p))) for p in x.parts)
