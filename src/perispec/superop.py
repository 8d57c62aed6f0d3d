"""Superoperators on block algebras and their peripheral point spectra.

A linear map on a block algebra is stored as its matrix with respect to the
row-major vectorization of the blocks. The peripheral point spectrum collects
the eigenvalues of unit modulus together with orthonormal eigenspace bases;
closure checks probe the algebraic structure of those eigenspaces under the
adjoint, the symmetrized product, and products of eigenvalues.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    AlgebraElement,
    BlockAlgebra,
    Tolerances,
    _as_square_matrix,
    _devectorize,
    _frozen,
    _lapack,
    column_space,
    element_norm,
    from_hermitian_basis,
    general_eig,
    hermitian_basis_form,
    hermitian_eig,
    max_norm,
    null_space,
    scalar_multiple_of_identity,
    to_hermitian_basis,
    vectorize,
)
from .errors import (
    AlgebraMismatch,
    ConvergenceFailure,
    DimensionMismatch,
    NoPositiveFixedState,
)

__all__ = [
    "PERIPHERAL_TOL",
    "MERGE_TOL",
    "Superoperator",
    "SpectralPoint",
    "PointSpectrum",
    "InvariantState",
    "StarClosureReport",
    "JordanClosureReport",
    "GroupClosureReport",
    "ContinuousFamily",
    "apply",
    "unitality_check",
    "point_spectrum",
    "ergodicity_check",
    "invariant_state",
    "star_closure_check",
    "jordan_closure_check",
    "group_closure_report",
    "semigroup_law_check",
    "continuous_eigen_check",
]

# Default radius for treating an eigenvalue as peripheral and for merging
# numerically split copies of one eigenvalue: the fields of DEFAULT_TOL.
PERIPHERAL_TOL = DEFAULT_TOL.peripheral_tol
MERGE_TOL = DEFAULT_TOL.merge_tol


@dataclass(frozen=True, eq=False)
class Superoperator:
    """A linear map on a block algebra, as a matrix acting on vectorizations."""

    algebra: BlockAlgebra
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = _as_square_matrix(self.matrix)
        d = self.algebra.dim
        if m.shape != (d, d):
            raise DimensionMismatch(
                f"superoperator matrix of shape {m.shape} does not fit dim {d}"
            )
        object.__setattr__(self, "matrix", m)

    @classmethod
    def _wrap(cls, algebra: BlockAlgebra, matrix: np.ndarray) -> "Superoperator":
        """The map with a d x d finite matrix that perispec built or checked:
        unchecked, and copied only by :func:`~perispec.algebra._frozen`."""
        phi = object.__new__(cls)
        object.__setattr__(phi, "algebra", algebra)
        object.__setattr__(phi, "matrix", _frozen(matrix))
        return phi

    def __call__(self, x: AlgebraElement) -> AlgebraElement:
        return apply(self, x)

    @cached_property
    def hermitian_form(self) -> tuple[np.ndarray, float]:
        """The real part of the matrix in the Hermitian basis and the relative
        size of the imaginary part it drops, from
        :func:`~perispec.algebra.hermitian_basis_form`; made once per map."""
        return hermitian_basis_form(self.algebra, self.matrix)


@dataclass(frozen=True)
class SpectralPoint:
    """One peripheral eigenvalue with an orthonormal eigenspace basis."""

    value: complex
    basis: tuple[AlgebraElement, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class PointSpectrum:
    """Peripheral spectral points sorted by (real, imaginary) part.

    ``merge_tol`` is the radius the points were merged with, and the radius
    :meth:`find` and :func:`group_closure_report` look values up with.
    """

    points: tuple[SpectralPoint, ...]
    merge_tol: float = MERGE_TOL

    @property
    def values(self) -> tuple[complex, ...]:
        return tuple(p.value for p in self.points)

    @property
    def dimensions(self) -> tuple[int, ...]:
        return tuple(p.dimension for p in self.points)

    def find(self, value: complex) -> SpectralPoint | None:
        for point in self.points:
            if abs(point.value - value) <= self.merge_tol:
                return point
        return None

    @cached_property
    def _stacked(self) -> tuple[list[tuple[complex, int]], np.ndarray, np.ndarray]:
        """The labels, eigenvalues and vectorizations of
        :func:`_stacked_eigenvectors`, made once per spectrum and read-only."""
        labels = [(p.value, i) for p in self.points for i in range(p.dimension)]
        values = np.array([value for value, _ in labels], dtype=np.complex128)
        rows = np.array([vectorize(x) for p in self.points for x in p.basis], dtype=np.complex128)
        values.setflags(write=False)
        rows.setflags(write=False)
        return labels, values, rows


@dataclass(frozen=True)
class InvariantState:
    """Positive trace-one fixed point of the dual map."""

    rho: AlgebraElement
    faithful: bool


@dataclass(frozen=True)
class StarClosureReport:
    """Residuals of the adjoint of each eigenvector against the conjugate
    eigenvalue.

    ``labels`` are the (value, index) of every basis vector of the point
    spectrum in order, and ``residual`` holds one residual per label.
    """

    max_residual: float
    labels: list[tuple[complex, int]]
    residual: np.ndarray


@dataclass(frozen=True)
class JordanClosureReport:
    """Residuals of symmetrized products of eigenvectors against the product
    eigenvalue; products below tolerance are closed vacuously.

    ``residual`` and ``vanished`` are indexed by ordered pairs of the basis
    vectors named in ``labels``, as in :class:`StarClosureReport`. A
    vanished pair's residual is not computed and reads 0.0, so
    ``max_residual`` is the largest residual over the pairs whose product
    does not vanish. ``entries`` derives the tuples (value1, index1, value2,
    index2, residual, vanished) from them, in row-major order.
    """

    max_residual: float
    labels: list[tuple[complex, int]]
    residual: np.ndarray
    vanished: np.ndarray

    @property
    def vanished_count(self) -> int:
        return int(self.vanished.sum())

    @property
    def entries(self) -> tuple[tuple[complex, int, complex, int, float, bool], ...]:
        labels = self.labels
        return tuple(
            (*labels[a], *labels[b], r, v)
            for a, (r_row, v_row) in enumerate(
                zip(self.residual.tolist(), self.vanished.tolist())
            )
            for b, (r, v) in enumerate(zip(r_row, v_row))
        )


@dataclass(frozen=True)
class GroupClosureReport:
    """Whether the peripheral eigenvalues form a group under multiplication.

    ``values`` are the spectral values in the order of the point spectrum.
    Each pair [a, b] of ``missing_pairs`` indexes two of them whose product
    values[a] * values[b] is not among the spectral values within the
    closure radius; the pairs are in row-major order, as plain lists ready
    for JSON. ``missing`` derives the triples (lam, mu, lam * mu) from them.
    """

    is_group: bool
    has_identity: bool
    conjugation_closed: bool
    values: tuple[complex, ...]
    missing_pairs: list[list[int]]

    @property
    def missing(self) -> tuple[tuple[complex, complex, complex], ...]:
        v = self.values
        return tuple((v[a], v[b], v[a] * v[b]) for a, b in self.missing_pairs)


@dataclass(frozen=True)
class ContinuousFamily:
    """One-parameter family t -> superoperator on a fixed algebra.

    Families that do not start at the identity map, because they average part
    of the input independently of t, carry an explanatory note instead of
    being repaired.
    """

    algebra: BlockAlgebra
    builder: Callable[[float], Superoperator]
    zero_time_note: str | None = None


def apply(phi: Superoperator, x: AlgebraElement) -> AlgebraElement:
    if x.algebra != phi.algebra:
        raise AlgebraMismatch("element does not live in the superoperator's algebra")
    return _devectorize(phi.algebra, phi.matrix @ vectorize(x))


def unitality_check(phi: Superoperator, tol: Tolerances = DEFAULT_TOL) -> bool:
    one = phi.algebra.identity()
    return element_norm(apply(phi, one) - one) <= tol.eq_tol


def _sort_key(z: complex) -> tuple[float, float]:
    # Rounding keeps the (real, imaginary) order stable when eigenvalue noise
    # perturbs values that agree in their real part.
    return (round(z.real, 12), round(z.imag, 12))


def _cluster_values(
    values: Sequence[complex], radius: float
) -> list[tuple[complex, float, list[int]]]:
    """Greedy merge of complex values within ``radius``; returns (mean,
    spread, member indices into ``values``) per cluster sorted by the (real,
    imaginary) part of the mean.

    In (real, imaginary) order, each value joins the first cluster, in order
    of creation, whose mean lies within ``radius`` of it, or starts a new
    one. Every later value lies further right, up to the rounding of the sort
    key, so a cluster whose mean falls more than ``radius`` (plus slack for
    that rounding) left of the current value can take no more members and
    is swept out of the search. Means come from running sums.
    """
    clusters: list[list[int]] = []
    totals: list[complex] = []
    live = 0  # clusters before this index are swept out
    order = sorted(range(len(values)), key=lambda k: _sort_key(values[k]))
    for k in order:
        value = values[k]
        horizon = value.real - radius - 1e-9 * (1.0 + abs(value.real))
        while live < len(clusters) and (totals[live] / len(clusters[live])).real < horizon:
            live += 1
        for c in range(live, len(clusters)):
            if abs(value - totals[c] / len(clusters[c])) <= radius:
                break
        else:
            c = len(clusters)
            clusters.append([])
            totals.append(0)
        clusters[c].append(k)
        totals[c] += value
    merged = []
    for cluster, total in zip(clusters, totals):
        mean = total / len(cluster)
        merged.append((mean, max(abs(values[m] - mean) for m in cluster), cluster))
    return sorted(merged, key=lambda entry: _sort_key(entry[0]))


def _real_form(phi: Superoperator, tol: Tolerances) -> np.ndarray | None:
    """The map's matrix in the Hermitian basis, real, when the map preserves
    Hermiticity within ``eq_tol``; None otherwise."""
    real, defect = phi.hermitian_form
    return real if defect <= tol.eq_tol else None


def _row_drift(phi: Superoperator, rows: np.ndarray, values) -> np.ndarray:
    """Per row x of vectorizations, the largest entry of phi(x) - value * x;
    ``values`` holds one value per row or one for all rows."""
    drift = rows @ phi.matrix.T - np.reshape(values, (-1, 1)) * rows
    return np.abs(drift).max(axis=1)


# How far above 1 the inverse iteration of :func:`_fixed_space` shifts: far
# below MERGE_TOL, and a power of two, so that 1 + shift is exact.
_SHIFT = 2.0**-33

# The smallest dimension at which point_spectrum tries the spectral-gap
# certificate before the dense eigendecomposition. Below it the eig of a
# seeded channel was measured cheaper than the certificate's Gram
# eigenvalues and the inverse iteration it then ran (see CHANGES.md).
_CERTIFICATE_MIN_DIM = 36


@functools.lru_cache(maxsize=16)
def _extra_starts(d: int) -> np.ndarray:
    """The two extra starts of :func:`_fixed_space` in
    :func:`invariant_state` and the probe columns of
    :func:`_single_peripheral`: sin(j) and sin(2 j) for j = 1 .. d as
    columns, fixed and dense. Made once per d, read-only."""
    extra = np.sin(np.outer(np.arange(1, d + 1), (1.0, 2.0)))
    extra.setflags(write=False)
    return extra


def _identity_vector(algebra: BlockAlgebra) -> np.ndarray:
    """The vectorization of the identity, real. A multiple of the identity
    has the same coordinates in the Hermitian basis."""
    return np.concatenate([np.eye(n).reshape(-1) for n in algebra.blocks])


def _kernel_bound(a: np.ndarray, tol: Tolerances) -> float:
    """The largest singular value that a direction of the kernel of ``a`` -
    id may have: ``rank_tol`` times the largest column norm of a - id, a
    lower bound on its largest singular value. Column j has squared norm
    |a_j|^2 - 2 Re a_jj + 1, so no d x d temporary is formed."""
    squares = np.einsum("ij,ij->j", a.real, a.real)
    if np.iscomplexobj(a):
        squares += np.einsum("ij,ij->j", a.imag, a.imag)
    squares -= 2.0 * a.diagonal().real
    squares += 1.0
    return tol.rank_tol * math.sqrt(max(float(squares.max()), 0.0))


def _passes_kernel_rule(a: np.ndarray, unit: np.ndarray, bound: float) -> bool:
    """Whether the unit vector ``unit`` is a kernel direction of ``a`` - id by
    the rule of :func:`_fixed_space`, with ``bound`` from
    :func:`_kernel_bound`."""
    return float(np.linalg.norm(a @ unit - unit)) <= bound


def _fixed_space(a: np.ndarray, starts: np.ndarray, bound: float) -> np.ndarray:
    """Orthonormal columns spanning the kernel of ``a`` - id, found by
    inverse iteration from the columns of ``starts``.

    Two solves with (a - (1 + shift) id) turn the starts towards the
    eigenvectors of ``a`` at and near 1, and the left singular vectors of
    the result make them an orthonormal Q. A thin SVD of (a - id) Q keeps
    the directions of Q whose singular value is at most ``bound``, from
    :func:`_kernel_bound`. So by interlacing the kernel found is no larger
    than the one that :func:`~perispec.algebra.null_space` of a - id finds.
    Every decomposition is d x m for m starts, not d x d.
    """
    shifted = np.array(a)
    shifted.flat[:: len(a) + 1] -= 1.0 + _SHIFT
    y = _lapack(np.linalg.solve, shifted, _lapack(np.linalg.solve, shifted, starts))
    q = _lapack(np.linalg.svd, y, full_matrices=False)[0]
    _, s, vh = _lapack(np.linalg.svd, shifted @ q + _SHIFT * q, full_matrices=False)
    return q @ vh[s <= bound].conj().T


def _single_peripheral(
    a: np.ndarray, algebra: BlockAlgebra, tol: Tolerances
) -> tuple[complex, np.ndarray] | None:
    """The one peripheral eigenvalue of ``a`` and the normalized identity of
    ``algebra`` as its unit eigenvector, when a spectral-gap certificate
    allows only one peripheral eigenvalue and the identity spans the kernel
    of a - id; None otherwise.

    By Weyl's majorant theorem |l1 l2| <= s1 s2 for the two largest
    eigenvalue moduli and singular values, so s1 s2 < (1 - peripheral_tol)^2
    leaves at most one eigenvalue, counted with algebraic multiplicity, of
    modulus 1 - peripheral_tol or more. The singular values of ``a`` times
    two orthonormal columns bound s1 and s2 from below, so when their
    product already reaches that target the certificate is not tried: every
    isometry stops there at O(d^2) cost. Otherwise s1 and s2 come from the
    eigenvalues of a* a. When they certify, the kernel of a - id has at most
    one dimension, and on a unital map the identity passes the kernel rule
    and spans it. A map whose identity fails the rule is left to the dense
    eigendecomposition.
    """
    d = len(a)
    target = max(1.0 - tol.peripheral_tol, 0.0) ** 2
    extra = _extra_starts(d)
    probe = a @ extra
    g, h = probe.conj().T @ probe, extra.T @ extra
    # (s1 s2)^2 of a Q, for Q the orthonormalized extra starts (the QR
    # extra = Q R), is det(R^-* extra* a* a extra R^-1) = det g / det h
    if (g[0, 0] * g[1, 1]).real - abs(g[0, 1]) ** 2 >= target**2 * (
        h[0, 0] * h[1, 1] - h[0, 1] ** 2
    ):
        return None
    gram = a.T @ a if np.isrealobj(a) else a.conj().T @ a
    w = _lapack(np.linalg.eigvalsh, gram)
    # Each entry of the computed a* a is an inner product of length d, so the
    # product is off by at most about d u ||a||_F^2 in the 2-norm (u the unit
    # roundoff), and eigvalsh is backward stable, which by Weyl's perturbation
    # theorem moves each eigenvalue by at most a modest multiple of
    # u ||a* a||_2 <= u ||a||_F^2, d^2 u in the textbook worst case of the
    # tridiagonal reduction. 2 d^2 eps = 4 d^2 u covers both with room for
    # complex arithmetic.
    slack = 2.0 * d * d * np.finfo(np.float64).eps * float(np.trace(gram).real)
    top = np.maximum(w[-2:] + slack, 0.0)
    if math.sqrt(top[0] * top[1]) >= target:
        return None
    # The kernel rule keeps a unit x when |(a - id) x| <= e, e = bound. Two
    # singular values of a - id at most e would give a plane of unit x with
    # |(a - id) x| <= e, hence |a x| >= 1 - e, and by the minimax theorem
    # s1 s2 >= s2^2 >= (1 - e)^2, which the certificate excludes as long as
    # e <= peripheral_tol. So the kernel is at most one-dimensional, and on a
    # unital map the normalized identity u = 1 / |1| passes the rule. Its
    # Rayleigh quotient is then within e of 1, up to rounding: peripheral.
    bound = _kernel_bound(a, tol)
    one = _identity_vector(algebra) / math.sqrt(algebra.total_size)
    if bound > tol.peripheral_tol or not _passes_kernel_rule(a, one, bound):
        return None
    return complex(np.vdot(one, a @ one)), one


def point_spectrum(phi: Superoperator, tol: Tolerances = DEFAULT_TOL) -> PointSpectrum:
    """Peripheral eigenvalues of the map with orthonormal eigenspace bases.

    A map that preserves Hermiticity within ``eq_tol``, as every positive map
    does, is decomposed in the Hermitian basis, where its matrix is real:
    LAPACK's real solver is faster, and it returns the eigenvalues off the
    real axis in exact conjugate pairs. Only the peripheral eigenvectors are
    mapped back. Any other map is decomposed as a complex matrix.

    From dimension ``_CERTIFICATE_MIN_DIM`` on, the spectral-gap certificate
    of :func:`_single_peripheral` is tried first. When it proves that at
    most one eigenvalue can be peripheral and the identity is fixed, that
    value with the normalized identity, whose coordinates are the same in
    both bases, is the whole spectrum. Otherwise one dense
    eigendecomposition gives every eigenvalue and eigenvector.

    Eigenvalues within ``tol.peripheral_tol`` of the unit circle are kept
    and numerically split copies within ``tol.merge_tol`` of each other are
    merged. Each cluster's eigenvector columns are orthonormalized together
    and re-verified against the map's matrix with one residual check. When they
    lose rank or fail the check, as at a defective eigenvalue, the
    eigenspace is recomputed as the kernel of (matrix - lambda id) and
    verified the same way.
    """
    real = _real_form(phi, tol)
    a = phi.matrix if real is None else real
    found = None
    if len(a) >= _CERTIFICATE_MIN_DIM:
        found = _single_peripheral(a, phi.algebra, tol)
    if found is None:
        eigenvalues, eigenvectors = general_eig(a)
        keep = [k for k, v in enumerate(eigenvalues) if abs(abs(v) - 1.0) <= tol.peripheral_tol]
        peripheral = [complex(eigenvalues[k]) for k in keep]
        columns = eigenvectors[:, keep]
        if real is not None:
            columns = from_hermitian_basis(phi.algebra, columns)
    else:
        peripheral, columns = [found[0]], found[1][:, None]
    bound = max(tol.eq_tol, 10.0 * tol.rank_tol)
    points = []
    for value, spread, members in _cluster_values(peripheral, tol.merge_tol):
        basis = column_space(columns[:, members], tol)
        if basis.shape[1] < len(members) or _row_drift(phi, basis.T, value).max() > bound:
            # merged clusters need an absolute singular-value floor: each member
            # direction sits at distance |v - mean| <= spread from the kernel
            floor = spread + tol.rank_tol * max(1.0, spread)
            kernel = null_space(phi.matrix - value * np.eye(phi.algebra.dim), tol, atol=floor)
            if not kernel:
                raise ConvergenceFailure(
                    f"eigenvalue {value!r} reported but its eigenspace came back empty"
                )
            basis = np.column_stack(kernel)
            drift = _row_drift(phi, basis.T, value).max()
            if drift > bound:
                raise ConvergenceFailure(
                    f"eigenvector drift {drift:.3e} at eigenvalue {value!r}"
                )
        points.append(
            SpectralPoint(value, tuple(_devectorize(phi.algebra, v) for v in basis.T))
        )
    return PointSpectrum(tuple(points), tol.merge_tol)


def ergodicity_check(
    phi: Superoperator,
    tol: Tolerances = DEFAULT_TOL,
    spectrum: PointSpectrum | None = None,
) -> bool:
    """True when the fixed space is exactly the scalar multiples of the
    identity."""
    if spectrum is None:
        spectrum = point_spectrum(phi, tol)
    fixed = spectrum.find(1.0 + 0.0j)
    if fixed is None or fixed.dimension != 1:
        return False
    return scalar_multiple_of_identity(fixed.basis[0], tol) is not None


def invariant_state(
    phi: Superoperator,
    tol: Tolerances = DEFAULT_TOL,
    spectrum: PointSpectrum | None = None,
) -> InvariantState:
    """Positive trace-one fixed point of the dual map.

    The dual acts by the conjugate transpose of the matrix. Its fixed space
    has the dimension k of the spectrum's point at 1, which ``spectrum``
    gives, or :func:`point_spectrum` with ``tol`` when it is None. k = 0
    raises at once. Otherwise :func:`_fixed_space` of the dual finds the space from
    the point's basis and two fixed extra columns. The left and right
    eigenspaces of a semisimple eigenvalue pair nonsingularly, so the basis
    reaches every dual fixed direction. Two solves damp a dual eigenvector
    at 1 - delta only by about (delta / shift)^2, so from the basis alone
    one just off 1 stays mixed into the fixed directions; the extra columns
    give it directions of its own, which the rank rule then leaves out,
    also when the spectrum folds it into its point at 1, so k is not
    trusted as the dimension. For a map that preserves Hermiticity
    within ``eq_tol`` this runs in the Hermitian basis, where the dual's
    matrix is the transpose of the real form, with the real and imaginary
    parts of the basis's coordinates as starts.

    The candidate is the orthogonal projection of the maximally mixed state
    onto the dual fixed space, which is again a fixed point; it is then
    verified against the map's matrix to be Hermitian, fixed, positive
    semidefinite, and of unit trace. When the maximally mixed state itself
    passes the kernel rule of :func:`_fixed_space` for the dual, as on every
    trace-preserving map, it lies in the dual fixed space and is its own
    projection, so it is the candidate and no kernel is searched.
    """
    if spectrum is None:
        spectrum = point_spectrum(phi, tol)
    fixed = spectrum.find(1.0 + 0.0j)
    if fixed is None:
        raise NoPositiveFixedState("the dual map has no fixed point")
    algebra = phi.algebra
    # the vectorization of the maximally mixed state, which is also its
    # coordinates in the Hermitian basis
    mixed = _identity_vector(algebra)
    mixed *= 1.0 / algebra.total_size
    real = _real_form(phi, tol)
    dual = phi.matrix.conj().T if real is None else real.T
    bound = _kernel_bound(dual, tol)
    if _passes_kernel_rule(dual, mixed * math.sqrt(algebra.total_size), bound):
        projected = mixed
    else:
        basis = np.array([vectorize(x) for x in fixed.basis]).T
        extra = _extra_starts(algebra.dim)
        if real is None:
            starts = [basis, extra]
        else:
            coordinates = to_hermitian_basis(algebra, basis)
            starts = [coordinates.real, coordinates.imag, extra]
        kernel = _fixed_space(dual, np.concatenate(starts, axis=1), bound)
        if kernel.shape[1] == 0:
            raise NoPositiveFixedState("the dual map has no fixed point")
        projected = kernel @ (kernel.conj().T @ mixed)
        if real is not None:
            projected = from_hermitian_basis(algebra, projected)
    # the checks run on plain arrays: no entry exceeds 1 / eq_tol, so none
    # needs the overflow check of element arithmetic
    parts = _devectorize(algebra, projected).parts
    herm_defect = max(max_norm(p - p.conj().T) for p in parts)
    if herm_defect > tol.eq_tol:
        raise NoPositiveFixedState(
            f"projected fixed point is not Hermitian (defect {herm_defect:.3e})"
        )
    parts = [0.5 * (p + p.conj().T) for p in parts]
    trace = complex(sum(np.trace(p) for p in parts))
    if abs(trace) <= tol.eq_tol:
        raise NoPositiveFixedState("projected fixed point has vanishing trace")
    rho = algebra._wrap([(1.0 / trace) * p for p in parts])
    state = vectorize(rho)
    # the dual applied as (state* M)*, without a conjugate copy of M
    fixed_residual = max_norm((state.conj() @ phi.matrix).conj() - state)
    if fixed_residual > max(tol.eq_tol, 10.0 * tol.rank_tol):
        raise NoPositiveFixedState(
            f"candidate drifts under the dual map by {fixed_residual:.3e}"
        )
    least = min(float(hermitian_eig(p, tol)[0][0]) for p in rho.parts)
    if least < -tol.psd_tol:
        raise NoPositiveFixedState(
            f"fixed point of the dual map is not PSD (least eigenvalue {least:.3e})"
        )
    return InvariantState(rho=rho, faithful=least > tol.rank_tol)


def _stacked_eigenvectors(
    spectrum: PointSpectrum, algebra: BlockAlgebra
) -> tuple[list[tuple[complex, int]], np.ndarray, np.ndarray]:
    """Every basis vector of the spectrum in order: (value, index) labels,
    eigenvalues, and vectorizations as the rows of one array."""
    labels, values, rows = spectrum._stacked
    return list(labels), values, rows.reshape(len(labels), algebra.dim)


def _block_stacks(algebra: BlockAlgebra, rows: np.ndarray) -> list[np.ndarray]:
    """The elements whose vectorizations are the rows of ``rows``, as one
    (count, blocks, n, n) stack per run of consecutive blocks of one side n:
    its [j, b] matrix is block b of the run in row j."""
    stacks, start = [], 0
    for n, run in itertools.groupby(algebra.blocks):
        blocks = len(list(run))
        stop = start + blocks * n * n
        stacks.append(rows[:, start:stop].reshape(-1, blocks, n, n))
        start = stop
    return stacks


def _stacked_vectors(stacks: Sequence[np.ndarray]) -> np.ndarray:
    """Inverse of :func:`_block_stacks`."""
    return np.concatenate(
        [s.reshape(len(s), math.prod(s.shape[1:])) for s in stacks], axis=1
    )


def star_closure_check(phi: Superoperator, spectrum: PointSpectrum) -> StarClosureReport:
    """Check that adjoints of eigenvectors are eigenvectors at the conjugate
    eigenvalue."""
    labels, values, rows = _stacked_eigenvectors(spectrum, phi.algebra)
    adjoints = _stacked_vectors(
        [s.conj().swapaxes(-1, -2) for s in _block_stacks(phi.algebra, rows)]
    )
    residual = _row_drift(phi, adjoints, values.conj())
    return StarClosureReport(
        max_residual=float(residual.max(initial=0.0)), labels=labels, residual=residual
    )


def jordan_closure_check(
    phi: Superoperator,
    spectrum: PointSpectrum,
    tol: Tolerances = DEFAULT_TOL,
) -> JordanClosureReport:
    """Check that symmetrized products of eigenvectors are eigenvectors at the
    product eigenvalue; vanishing products close vacuously.

    Residuals run over ordered pairs of basis vectors. The product is
    symmetric, so each pair is computed once, one row of products at a time.
    Only the products of a row that do not vanish are multiplied by the map;
    a row with none vanished passes as one slice.
    """
    labels, values, rows = _stacked_eigenvectors(spectrum, phi.algebra)
    stacks = _block_stacks(phi.algebra, rows)
    count = len(labels)
    residual = np.zeros((count, count))
    vanished = np.zeros((count, count), dtype=bool)
    for a in range(count):
        products = _stacked_vectors(
            [0.5 * (s[a] @ s[a:] + s[a:] @ s[a]) for s in stacks]
        )
        gone = np.max(np.abs(products), axis=1) <= tol.eq_tol
        vanished[a, a:] = vanished[a:, a] = gone
        kept = ~gone if gone.any() else slice(None)
        drift = _row_drift(phi, products[kept], values[a] * values[a:][kept])
        residual[a, a:][kept] = residual[a:, a][kept] = drift
    return JordanClosureReport(
        max_residual=float(residual.max(initial=0.0)),
        labels=labels,
        residual=residual,
        vanished=vanished,
    )


def group_closure_report(spectrum: PointSpectrum) -> GroupClosureReport:
    """Decide whether the spectral values form a multiplicative group.

    Unit-modulus values form a group exactly when they contain 1, are closed
    under conjugation, and are closed under pairwise products. A value counts
    as present within ``spectrum.merge_tol``, the radius the spectrum was
    merged with. Each product failure is listed as the index pair of its
    factors in ``spectrum.values``.
    """
    values = spectrum.values
    k = len(values)
    v = np.array(values, dtype=np.complex128)
    # real arithmetic rounds each product exactly as Python's lam * mu does
    products = np.empty((k, k), dtype=np.complex128)
    products.real = v.real[:, None] * v.real - v.imag[:, None] * v.imag
    products.imag = v.real[:, None] * v.imag + v.imag[:, None] * v.real
    queries = np.concatenate([[1.0 + 0.0j], v.conj(), products.ravel()])
    # every value within the spectrum's merge radius of a query has its real
    # part inside this window, widened so that rounding cannot push one out
    radius = spectrum.merge_tol
    ordered = np.sort(v)  # by real part first
    lo = np.searchsorted(ordered.real, queries.real - 2.0 * radius, "left")
    hi = np.searchsorted(ordered.real, queries.real + 2.0 * radius, "right")
    present = np.zeros(len(queries), dtype=bool)
    for offset in range(int(np.max(hi - lo))):
        index = lo + offset
        inside = index < hi
        present[inside] |= np.abs(queries[inside] - ordered[index[inside]]) <= radius
    has_identity = bool(present[0])
    conjugation_closed = bool(np.all(present[1 : k + 1]))
    missing_pairs = np.argwhere(~present[k + 1 :].reshape(k, k)).tolist()
    return GroupClosureReport(
        is_group=has_identity and conjugation_closed and not missing_pairs,
        has_identity=has_identity,
        conjugation_closed=conjugation_closed,
        values=values,
        missing_pairs=missing_pairs,
    )


def semigroup_law_check(
    family: ContinuousFamily, pairs: Sequence[tuple[float, float]]
) -> float:
    """Largest residual of builder(s + t) against builder(s) builder(t) over
    the given (s, t) pairs."""
    worst = 0.0
    for s, t in pairs:
        lhs = family.builder(s + t).matrix
        rhs = family.builder(s).matrix @ family.builder(t).matrix
        worst = max(worst, max_norm(lhs - rhs))
    return worst


def continuous_eigen_check(
    family: ContinuousFamily,
    vectors: Sequence[AlgebraElement],
    phases: Sequence[float],
    ts: Sequence[float],
) -> list[float]:
    """Per vector x with winding rate w, the largest residual of builder(t)
    applied to x against exp(i w t) x over the times ``ts``. Each map is
    built once per time and applied to every vector."""
    if any(x.algebra != family.algebra for x in vectors):
        raise AlgebraMismatch("element does not live in the family's algebra")
    rows = [vectorize(x) for x in vectors]
    worst = [0.0] * len(rows)
    for t in ts:
        m = family.builder(t).matrix
        for k, (v, phase) in enumerate(zip(rows, phases, strict=True)):
            worst[k] = max(worst[k], max_norm(m @ v - cmath.exp(1j * phase * t) * v))
    return worst
