"""Dense complex linear algebra over finite direct sums of matrix blocks.

A block algebra Mat(n1) + ... + Mat(nk) models a finite-dimensional operator
algebra in its block-diagonal representation. Elements are tuples of square
complex matrices, one per block, and are vectorized by concatenating the
row-major entries of the blocks in order. All operations are pure: inputs are
never mutated, and every element wraps read-only arrays so values can be
shared freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    AlgebraMismatch,
    ConvergenceFailure,
    DimensionMismatch,
    NotHermitian,
    SingularModulus,
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
    "hermitian_eigenvalues",
    "to_hermitian_basis",
    "from_hermitian_basis",
    "hermitian_basis_form",
    "general_eig",
    "null_space",
    "column_space",
    "polar_decomposition",
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

    @property
    def dim(self) -> int:
        """Length of the coefficient vectorization: sum of squared block sizes."""
        return sum(n * n for n in self.blocks)

    @property
    def total_size(self) -> int:
        """Sum of the block side lengths."""
        return sum(self.blocks)

    def element(self, parts: Sequence) -> "AlgebraElement":
        """Wrap one square matrix per block as an element of this algebra."""
        return AlgebraElement(self, tuple(_as_square_matrix(p) for p in parts))

    def identity(self) -> "AlgebraElement":
        return self.element([np.eye(n) for n in self.blocks])

    def scalar(self, c: complex) -> "AlgebraElement":
        return self.element([c * np.eye(n) for n in self.blocks])

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
        offset = 0
        for n in self.blocks:
            j, k = np.triu_indices(n, 1)
            upper.append(offset + j * n + k)
            lower.append(offset + k * n + j)
            offset += n * n
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

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_same(other)
        return self.algebra.element([p + q for p, q in zip(self.parts, other.parts)])

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_same(other)
        return self.algebra.element([p - q for p, q in zip(self.parts, other.parts)])

    def __neg__(self) -> "AlgebraElement":
        return self.algebra.element([-p for p in self.parts])

    def __mul__(self, c: complex) -> "AlgebraElement":
        return self.algebra.element([c * p for p in self.parts])

    __rmul__ = __mul__

    def __matmul__(self, other: "AlgebraElement") -> "AlgebraElement":
        """Blockwise matrix product."""
        self._check_same(other)
        return self.algebra.element([p @ q for p, q in zip(self.parts, other.parts)])

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
    parts = []
    offset = 0
    for n in algebra.blocks:
        parts.append(v[offset : offset + n * n].reshape(n, n))
        offset += n * n
    return algebra.element(parts)


def adjoint(x: AlgebraElement) -> AlgebraElement:
    """Blockwise conjugate transpose."""
    return x.algebra.element([p.conj().T for p in x.parts])


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


def _checked_hermitian(h, tol: Tolerances) -> np.ndarray:
    """h as complex128, a matrix or a stack (..., n, n) of them, each checked
    against its own scale."""
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim <= 2:
        defect = max_norm(h - h.conj().T)
        if defect > tol.eq_tol * max(1.0, max_norm(h)):
            raise NotHermitian(f"matrix deviates from Hermitian by {defect:.3e}")
        return h
    defect = np.abs(h - np.swapaxes(h, -1, -2).conj()).max(axis=(-2, -1), initial=0.0)
    scale = np.maximum(1.0, np.abs(h).max(axis=(-2, -1), initial=0.0))
    failed = np.argwhere(defect > tol.eq_tol * scale)
    if failed.size:
        index = tuple(int(i) for i in failed[0])
        raise NotHermitian(
            f"matrix {index} of the stack deviates from Hermitian by "
            f"{defect[index]:.3e}"
        )
    return h


def hermitian_eig(
    h: np.ndarray, tol: Tolerances = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, or of each matrix of a stack
    (..., n, n).

    Returns ascending real eigenvalues and a matrix whose columns are the
    matching orthonormal eigenvectors, stacked like the input. Each matrix of
    a stack comes out bit for bit as if decomposed alone. Raises
    :class:`NotHermitian` when an input matrix deviates from its conjugate
    transpose beyond tolerance.
    """
    h = _checked_hermitian(h, tol)
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceFailure(str(exc)) from exc
    return w, v


def hermitian_eigenvalues(h: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, or of each matrix of a
    stack, without the eigenvectors, which LAPACK computes several times
    faster at large sizes. The input is checked as in :func:`hermitian_eig`."""
    h = _checked_hermitian(h, tol)
    try:
        return np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceFailure(str(exc)) from exc


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
    m = _general_square(m)
    try:
        return np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceFailure(str(exc)) from exc


def null_space(
    m: np.ndarray, tol: Tolerances = DEFAULT_TOL, atol: float = 0.0
) -> list[np.ndarray]:
    """Orthonormal basis of the kernel of ``m``.

    A singular value counts as zero when it is at most ``rank_tol`` times the
    largest singular value (so the zero matrix has a full kernel) or at most
    the absolute floor ``atol``. A real input has a real basis.
    """
    m = _lapack_input(m)
    try:
        _, s, vh = np.linalg.svd(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceFailure(str(exc)) from exc
    smax = float(s[0]) if s.size else 0.0
    cutoff = max(tol.rank_tol * smax, atol)
    rank = int(np.sum(s > cutoff))
    return [vh[i].conj() for i in range(rank, vh.shape[0])]


def column_space(m: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the range of ``m``, as the columns of a matrix.

    A singular value counts as zero when it is at most ``rank_tol`` times the
    largest singular value, as in :func:`null_space`.
    """
    m = _lapack_input(m)
    try:
        u, s, _ = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceFailure(str(exc)) from exc
    smax = float(s[0]) if s.size else 0.0
    return u[:, : int(np.sum(s > tol.rank_tol * smax))]


def polar_decomposition(
    x: np.ndarray, tol: Tolerances = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Polar factors (u, p) with x = u p, u unitary and p positive definite.

    The modulus p is the square root of x* x computed spectrally; the input
    must have all singular values above ``rank_tol`` or
    :class:`SingularModulus` is raised.
    """
    x = np.asarray(x, dtype=np.complex128)
    z = x.conj().T @ x
    w, v = hermitian_eig(0.5 * (z + z.conj().T), tol)
    if w.size == 0 or w[0] <= tol.rank_tol:
        raise SingularModulus(
            f"smallest eigenvalue of x*x is {w[0] if w.size else 0.0:.3e}"
        )
    sqrt_w = np.sqrt(w)
    p = (v * sqrt_w) @ v.conj().T
    p = 0.5 * (p + p.conj().T)
    u = x @ (v * (1.0 / sqrt_w)) @ v.conj().T
    return u, p


def scalar_multiple_of_identity(
    x: AlgebraElement, tol: Tolerances = DEFAULT_TOL
) -> complex | None:
    """The scalar c with x = c 1, or None when x is not a scalar multiple."""
    c = x.trace() / x.algebra.total_size
    residual = element_norm(x - x.algebra.scalar(c))
    if residual > tol.eq_tol * max(1.0, abs(c)):
        return None
    return c
