"""Positivity certificates for block 2x2 matrices and for linear maps.

The Schur-complement criteria decide positive semidefiniteness of
[[a, b], [c, d]] by reducing to the blocks, regularized by a decreasing
epsilon schedule so that singular corners stay invertible. They are kept
deliberately independent of :func:`oracle_psd`, the direct eigenvalue check,
so the two routes can cross-validate each other. Each decides a stack of
block matrices of one side in one pass, stage by stage on the rows still
alive, and gives every matrix the verdict or typed error that a call on it
alone gives; the one-matrix calls are one-row calls of the same code.

Complete positivity of a map on a single full matrix block is decided through
its Choi matrix, assembled with row-major tensor ordering: the (i, j) outer
block of the Choi matrix is the image of the matrix unit E_ij. A Choi matrix
of low rank, as of a map with few Kraus operators, is proved PSD by a pivoted
Cholesky factor and a rounding bound; any other is decided by its least
eigenvalue.

Plain positivity of a map is probed, not proved, by a seesaw descent over
pure inputs, one piece of the map from an input block to an output block at a
time; any negative output eigenvalue it finds comes with its input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    AlgebraElement,
    Tolerances,
    _devectorize,
    _hermitian_defects,
    _kept,
    _lapack,
    _raised,
    _Rows,
    max_norm,
)
from .errors import (
    CommutationViolated,
    ConvergenceFailure,
    DimensionMismatch,
    HypothesesViolated,
    MultiBlockUnsupported,
    NotHermitian,
    NotPSDInput,
)
from .superop import Superoperator, _real_form

__all__ = [
    "Block2Matrix",
    "EpsilonSchedule",
    "PositivityVerdict",
    "PositivityWitness",
    "FalsifierResult",
    "assemble",
    "oracle_psd",
    "oracle_psd_stack",
    "criterion_epsilon",
    "criterion_epsilon_stack",
    "criterion_epsilon_prime",
    "criterion_epsilon_prime_stack",
    "criterion_commuting",
    "criterion_commuting_stack",
    "corner_swap",
    "congruence",
    "offdiag_swap_under_hypotheses",
    "offdiag_swap_stack",
    "choi_matrix",
    "complete_positivity",
    "randomized_positivity_falsifier",
]

# Seeded unit vectors run together per piece of a map by the seesaw
# falsifier, and the improvement, relative to the piece's largest entry, below
# which a run stops.
_SEESAW_STARTS = 16
_SEESAW_RTOL = 1e-12

# The smallest Choi side n^2 at which complete_positivity tries a pivoted
# Cholesky factor before eigvalsh, and the share of that side, 1/8, beyond
# which the factor's rank gives up (measured, see CHANGES.md).
_FACTOR_MIN_SIDE = 36
_FACTOR_RANK_SHARE = 8


def _square(m) -> np.ndarray:
    a = np.array(m, dtype=np.complex128)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"expected a square block, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class Block2Matrix:
    """Four equally sized square blocks a, b, c, d of [[a, b], [c, d]], or
    four (k, n, n) stacks of them, which hold k block matrices of side n."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self) -> None:
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, _square(getattr(self, name)))
        shapes = {getattr(self, name).shape for name in ("a", "b", "c", "d")}
        if len({shape[-1] for shape in shapes}) > 1:
            raise DimensionMismatch("all four blocks must share one side length")
        if len(shapes) > 1:
            raise DimensionMismatch("all four blocks must hold the same number of matrices")

    @property
    def side(self) -> int:
        return self.a.shape[-1]


@dataclass(frozen=True)
class EpsilonSchedule:
    """Strictly decreasing positive regularization values."""

    values: tuple[float, ...] = (1.0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)

    def __post_init__(self) -> None:
        values = tuple(float(v) for v in self.values)
        if not values:
            raise ValueError("the epsilon schedule must be nonempty")
        if not all(0.0 < v < np.inf for v in values):
            raise ValueError("epsilon values must be finite and strictly positive")
        if any(u <= v for u, v in zip(values, values[1:])):
            raise ValueError("epsilon values must be strictly decreasing")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class PositivityWitness:
    """Evidence attached to a negative verdict.

    ``vector`` achieves ``quadratic_form`` below the tolerance on the matrix
    the check was run against; for Schur-based failures that matrix is the
    defect recorded here together with the epsilon that produced it.
    """

    reason: str
    vector: np.ndarray | None = None
    quadratic_form: float | None = None
    epsilon: float | None = None
    defect: np.ndarray | None = None


@dataclass(frozen=True)
class PositivityVerdict:
    is_psd: bool
    witness: PositivityWitness | None = None


_PSD = PositivityVerdict(True)


@dataclass(frozen=True)
class FalsifierResult:
    """Outcome of seesaw positivity probing.

    ``worst_input`` is the best pure trace-one state x x* found, supported on
    one block, and ``min_output_eig`` is the least eigenvalue of the Hermitian
    part of the map's output at it, so a failed verdict carries its witness.
    ``samples`` counts the pure inputs evaluated, never more than the budget;
    ``max_hermiticity_defect`` is the largest deviation of any of their
    outputs from being Hermitian. A clean sweep is evidence, not proof, of
    positivity.
    """

    min_output_eig: float
    worst_input: AlgebraElement
    samples: int
    seed: int
    passed: bool
    max_hermiticity_defect: float


def assemble(m: Block2Matrix) -> np.ndarray:
    """Dense 2n x 2n matrix [[a, b], [c, d]], or the stack of them."""
    n = m.side
    out = np.empty(m.a.shape[:-2] + (2 * n, 2 * n), dtype=np.complex128)
    out[..., :n, :n], out[..., :n, n:], out[..., n:, :n], out[..., n:, n:] = m.a, m.b, m.c, m.d
    return out


def _adjoint(h: np.ndarray) -> np.ndarray:
    return h.conj().swapaxes(-1, -2)


def _norms(h: np.ndarray) -> np.ndarray:
    """The largest entry magnitude of each matrix of a stack."""
    return np.abs(h).max(axis=(-2, -1), initial=0.0)


def _not_psd(w: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Per row of ascending eigenvalues, whether the least is below -psd_tol
    or NaN; no eigenvalue, at side 0, passes."""
    return ~(w[:, :1].min(axis=1, initial=0.0) >= -tol.psd_tol)


def _failed(reason: str, w: np.ndarray, v: np.ndarray, j: int, **fields) -> PositivityVerdict:
    """The failed verdict of :func:`oracle_psd` on row j of the
    eigendecomposition (w, v), restated under ``reason``, in which
    ``{oracle}`` stands for the oracle's own reason, with ``fields`` added.
    The witness copies its vector: a view would keep the whole stack."""
    oracle = f"least eigenvalue {w[j, 0]:.6e} below -psd_tol"
    reason, vector = reason.format(oracle=oracle), v[j, :, 0].copy()
    return PositivityVerdict(False, PositivityWitness(reason, vector, float(w[j, 0]), **fields))


def _psd_rows(rows: _Rows, h: np.ndarray, tol: Tolerances, failed, *arrays) -> tuple:
    """Decide the stack h, one matrix per live row, as :func:`oracle_psd`
    does each alone. A row whose matrix is not Hermitian settles with the
    error :func:`hermitian_eig` raises on it, one LAPACK call decomposes the
    rest, which this check has passed, and a row whose matrix is not PSD
    settles with ``failed(j, w, v, h)``. Returns the eigendecomposition and
    ``arrays``, per-row arrays aligned with h, cut to the rows that pass."""
    defect, asymmetric = _hermitian_defects(h, tol)
    keep = rows.settle([(asymmetric, lambda j: NotHermitian(
        f"matrix deviates from Hermitian by {defect[j]:.3e}"
    ))])
    h, *arrays = _kept(keep, h, *arrays)
    w, v = _lapack(np.linalg.eigh, h)
    keep = rows.settle([(_not_psd(w, tol), lambda j: failed(j, w, v, h))])
    return _kept(keep, w, v, *arrays)


def _stacked(m: Block2Matrix) -> tuple[_Rows, list[np.ndarray]]:
    """The rows of m, one matrix being a stack of one, and its blocks as
    (k, n, n) stacks."""
    blocks = [x if x.ndim == 3 else x[None] for x in (m.a, m.b, m.c, m.d)]
    return _Rows(np.arange(len(blocks[0])), [None] * len(blocks[0])), blocks


def _one(outcomes: list):
    """The outcome of a stacked call on one matrix, raised when an error."""
    if len(outcomes) != 1:
        raise DimensionMismatch(f"expected one block matrix, got a stack of {len(outcomes)}")
    return _raised(outcomes[0])


def _offdiag_mismatch(b: np.ndarray, c: np.ndarray, tol: Tolerances) -> tuple:
    """Per row, the largest entry of c - b*, and whether it exceeds
    ``eq_tol`` times max(1, the largest entry of b)."""
    defect = _norms(c - _adjoint(b))
    return defect, defect > tol.eq_tol * np.maximum(1.0, _norms(b))


def _prelude(rows: _Rows, tol: Tolerances, a, b, c, d, *arrays) -> tuple:
    """The conditions every criterion shares, in order: a PSD, d PSD, and
    c = b*; d is decomposed only for the rows whose a passed. Returns the
    eigendecompositions of a and d, and a, b, d and ``arrays``, all cut to
    the rows that pass."""
    wa, va, a, b, c, d, *arrays = _psd_rows(rows, a, tol, lambda j, w, v, h: _failed(
        "diagonal block a not PSD: {oracle}", w, v, j
    ), a, b, c, d, *arrays)
    wd, vd, wa, va, a, b, c, d, *arrays = _psd_rows(rows, d, tol, lambda j, w, v, h: _failed(
        "diagonal block d not PSD: {oracle}", w, v, j
    ), wa, va, a, b, c, d, *arrays)
    defect, mismatch = _offdiag_mismatch(b, c, tol)
    keep = rows.settle([(mismatch, lambda j: PositivityVerdict(
        False, PositivityWitness(reason=f"c differs from b* by {defect[j]:.3e}")
    ))])
    return _kept(keep, wa, va, wd, vd, a, b, d, *arrays)


def oracle_psd_stack(m: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> list:
    """:func:`oracle_psd` on each matrix of a stack (k, n, n): per matrix its
    verdict, or the error the one-matrix call raises on it."""
    h = np.asarray(m, dtype=np.complex128)
    if h.ndim != 3 or h.shape[-1] != h.shape[-2]:
        raise DimensionMismatch(f"expected square matrices stacked as (k, n, n), got shape {h.shape}")
    rows = _Rows(np.arange(len(h)), [None] * len(h))
    _psd_rows(rows, h, tol, lambda j, w, v, h: _failed("{oracle}", w, v, j))
    rows.finish(lambda j: _PSD)
    return rows.outcomes


def oracle_psd(m: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> PositivityVerdict:
    """Direct eigenvalue test: PSD iff the least eigenvalue is >= -psd_tol."""
    return _one(oracle_psd_stack(np.asarray(m)[None], tol))


def _schur_stack(
    m: Block2Matrix, schedule: EpsilonSchedule, tol: Tolerances, mirrored: bool
) -> list:
    """Shared body of the two epsilon criteria, on each matrix of a stack.

    In the plain orientation the defect is d - b*(a+ + eps)^(-1) b; mirrored
    swaps the roles of the corners: a - b (d+ + eps)^(-1) b*. Here a+ is the
    corner with its eigenvalues clamped at zero: the corner has passed its
    PSD check within ``psd_tol``, and a+ + eps is positive definite for every
    eps > 0. One eigendecomposition of the corner serves its PSD check and
    every epsilon. The defects of every row and epsilon are built as one
    stack; a row's run ends before its first defect that is not finite (1 /
    eps overflows near eps = 1e-308), and one call decomposes every run. The
    first epsilon in schedule order whose defect fails decides a row. When
    none fails before its run ends early, the row's verdict is undefined and
    its outcome is :class:`ConvergenceFailure`.
    """
    rows, (a, b, c, d) = _stacked(m)
    wa, va, wd, vd, a, b, d = _prelude(rows, tol, a, b, c, d)
    if not len(a):
        return rows.outcomes
    w, v = (wd, vd) if mirrored else (wa, va)
    b, bh = b[:, None], _adjoint(b)[:, None]
    with np.errstate(all="ignore"):
        scale = 1.0 / (np.maximum(w, 0.0)[:, None] + np.array(schedule.values)[:, None])
        # two buffers take every step, each to the bits of the plain expression
        work = v[:, None] * scale[:, :, None]
        defects = work @ _adjoint(v)[:, None]
        if mirrored:
            np.subtract(a[:, None], np.matmul(b @ defects, bh, out=work), out=defects)
        else:
            np.subtract(d[:, None], np.matmul(bh @ defects, b, out=work), out=defects)
        defects += np.conjugate(defects, out=work).swapaxes(-1, -2)
        defects *= 0.5
        del work
    finite = np.logical_and.accumulate(np.isfinite(defects).all(axis=(-2, -1)), axis=1)
    runs = defects.reshape(finite.size, *defects.shape[2:]) if finite.all() else defects[finite]
    # unchecked: entry (j, i) of D + D* is the exact conjugate of entry (i, j)
    w, v = _lapack(np.linalg.eigh, runs)
    failing = np.zeros(finite.shape, dtype=bool)
    failing[finite] = _not_psd(w, tol)
    slot = np.cumsum(finite).reshape(finite.shape) - 1
    first, stop = failing.argmax(axis=1), finite.sum(axis=1)

    def outcome(j: int):
        e = first[j]
        if failing[j, e]:
            epsilon = schedule.values[e]
            reason = f"Schur defect not PSD at epsilon={epsilon:g}"
            return _failed(reason, w, v, slot[j, e], epsilon=epsilon, defect=defects[j, e].copy())
        if stop[j] < len(schedule.values):
            epsilon = schedule.values[stop[j]]
            return ConvergenceFailure(f"Schur defect is not finite at epsilon={epsilon!r}")
        return _PSD

    rows.finish(outcome)
    return rows.outcomes


def criterion_epsilon_stack(
    m: Block2Matrix, schedule: EpsilonSchedule = EpsilonSchedule(), tol: Tolerances = DEFAULT_TOL
) -> list:
    """:func:`criterion_epsilon` on each matrix of a stack: per matrix its
    verdict, or the error the one-matrix call raises on it."""
    return _schur_stack(m, schedule, tol, mirrored=False)


def criterion_epsilon_prime_stack(
    m: Block2Matrix, schedule: EpsilonSchedule = EpsilonSchedule(), tol: Tolerances = DEFAULT_TOL
) -> list:
    """:func:`criterion_epsilon_prime` on each matrix of a stack: per matrix
    its verdict, or the error the one-matrix call raises on it."""
    return _schur_stack(m, schedule, tol, mirrored=True)


def criterion_epsilon(
    m: Block2Matrix, schedule: EpsilonSchedule = EpsilonSchedule(), tol: Tolerances = DEFAULT_TOL
) -> PositivityVerdict:
    """Schur criterion: PSD iff a, d are PSD, c = b*, and every epsilon in the
    schedule leaves d - b*(a + eps)^(-1) b positive semidefinite."""
    return _one(criterion_epsilon_stack(m, schedule, tol))


def criterion_epsilon_prime(
    m: Block2Matrix, schedule: EpsilonSchedule = EpsilonSchedule(), tol: Tolerances = DEFAULT_TOL
) -> PositivityVerdict:
    """Mirrored Schur criterion, regularizing d: a - b (d + eps)^(-1) b*."""
    return _one(criterion_epsilon_prime_stack(m, schedule, tol))


def criterion_commuting_stack(m: Block2Matrix, tol: Tolerances = DEFAULT_TOL) -> list:
    """:func:`criterion_commuting` on each matrix of a stack: per matrix its
    verdict, or the error the one-matrix call raises on it."""
    rows, (a, b, c, d) = _stacked(m)
    ad = a @ d
    defect, scale = _norms(ad - d @ a), np.maximum(1.0, _norms(a) * _norms(d))
    keep = rows.settle([(defect > tol.eq_tol * scale, lambda j: CommutationViolated(
        f"a and d do not commute, defect {defect[j]:.3e}"
    ))])
    *_, b, _, ad = _prelude(rows, tol, *_kept(keep, a, b, c, d, ad))
    product = ad - _adjoint(b) @ b
    product = 0.5 * (product + _adjoint(product))
    # unchecked: entry (j, i) of P + P* is the exact conjugate of entry (i, j)
    w, v = _lapack(np.linalg.eigh, product)
    rows.settle([(_not_psd(w, tol), lambda j: _failed(
        "a d - b* b not PSD", w, v, j, defect=product[j].copy()
    ))])
    rows.finish(lambda j: _PSD)
    return rows.outcomes


def criterion_commuting(m: Block2Matrix, tol: Tolerances = DEFAULT_TOL) -> PositivityVerdict:
    """Commuting-corner criterion: with a d = d a, PSD iff a, d PSD, c = b*,
    and a d - b* b is PSD. Raises when the corners do not commute."""
    return _one(criterion_commuting_stack(m, tol))


def corner_swap(m: Block2Matrix) -> Block2Matrix:
    """Conjugation by [[0, 1], [1, 0]]: [[a, b], [c, d]] -> [[d, c], [b, a]]."""
    return Block2Matrix(m.d, m.c, m.b, m.a)


def congruence(m: Block2Matrix, x: np.ndarray, y: np.ndarray) -> Block2Matrix:
    """Congruence by diag(x, y): [[x a x*, x b y*], [y c x*, y d y*]]; on a
    stack, by one pair of factors or by a stack of pairs."""
    x = _square(x)
    y = _square(y)
    if any(f.shape not in (m.a.shape[-2:], m.a.shape) for f in (x, y)):
        raise DimensionMismatch("congruence factors must match the block side")
    xh, yh = _adjoint(x), _adjoint(y)
    return Block2Matrix(x @ m.a @ xh, x @ m.b @ yh, y @ m.c @ xh, y @ m.d @ yh)


def offdiag_swap_stack(m: Block2Matrix, tol: Tolerances = DEFAULT_TOL) -> list:
    """:func:`offdiag_swap_under_hypotheses` on each matrix of a stack: per
    matrix the swapped matrix, or the error the one-matrix call raises."""
    rows, (a, b, c, d) = _stacked(m)
    bh = _adjoint(b)
    limit = tol.eq_tol * np.maximum.reduce([np.ones(len(a)), _norms(a), _norms(b), _norms(d)]) ** 2
    b_normal = _norms(b @ bh - bh @ b) <= limit
    bd_commute = _norms(b @ d - d @ b) <= limit
    keep = rows.settle([
        (_norms(a @ b - b @ a) > limit, lambda j: HypothesesViolated("a and b do not commute")),
        (~(b_normal | bd_commute),
         lambda j: HypothesesViolated("b is neither normal nor commuting with d")),
        (_offdiag_mismatch(b, c, tol)[1],
         lambda j: NotPSDInput("input is not of the form [[a, b], [b*, d]]")),
    ])
    a, b, c, d, bh = _kept(keep, a, b, c, d, bh)
    *_, a, b, d, bh = _psd_rows(
        rows, assemble(Block2Matrix(a, b, c, d)), tol,
        lambda *_: NotPSDInput("input block matrix is not PSD"), a, b, d, bh,
    )
    *_, a, bh, b, d = _psd_rows(
        rows, assemble(Block2Matrix(a, bh, b, d)), tol, lambda *_: HypothesesViolated(
            "swapped matrix failed the PSD check; hypotheses too weak numerically"
        ), a, bh, b, d,
    )
    rows.finish(lambda j: Block2Matrix(a[j], bh[j], b[j], d[j]))
    return rows.outcomes


def offdiag_swap_under_hypotheses(m: Block2Matrix, tol: Tolerances = DEFAULT_TOL) -> Block2Matrix:
    """Swap the off-diagonal corners of a PSD input: [[a, b], [b*, d]] becomes
    [[a, b*], [b, d]].

    Positivity survives the swap when a commutes with b and b is normal or
    commutes with d; both hypotheses are verified, as is positivity of the
    input and of the result.
    """
    return _one(offdiag_swap_stack(m, tol))


def choi_matrix(phi: Superoperator) -> np.ndarray:
    """Choi matrix of a map on a single full matrix block.

    The sum over matrix units of kron(E_ij, phi(E_ij)), read off the map
    matrix by one reshape: the (i, j) outer block is the image of E_ij, the
    column i n + j of the matrix. The map is completely positive exactly when
    this matrix is PSD.
    """
    if len(phi.algebra.blocks) != 1:
        raise MultiBlockUnsupported("the Choi matrix is defined per full matrix block")
    n = phi.algebra.blocks[0]
    return phi.matrix.reshape(n, n, n, n).transpose(2, 0, 3, 1).reshape(n * n, n * n)


def _factor_bound(h: np.ndarray, psd_tol: float) -> float | None:
    """A proven lower bound, within psd_tol of zero, on the least eigenvalue
    of the exactly Hermitian ``h``, from a diagonally pivoted Cholesky factor
    of low rank; None when the factor does not give one.

    The factor L takes the largest remaining diagonal entry as its pivot
    until that entry is at most psd_tol, and gives up beyond rank N /
    _FACTOR_RANK_SHARE for h of side N. L L* is PSD, so by Weyl's theorem
    h = L L* + S has least eigenvalue at least -||S||_2 >= -||S||_F. The
    rank of L L* is below N, so its least eigenvalue is 0, and that of h is
    at most ||S||_2: the bound is within 2 ||S||_F plus the rounding
    allowance of it. None also when S has a diagonal entry below minus that
    allowance, a negative direction of h that eigvalsh measures, or when the
    bound is below -psd_tol.
    """
    size = len(h)
    # row k holds column k of L
    rows = np.zeros((size // _FACTOR_RANK_SHARE, size), dtype=h.dtype)
    remaining = h.diagonal().real.copy()
    for rank in range(len(rows) + 1):
        pivot = int(remaining.argmax())
        top = remaining[pivot]
        if not top > psd_tol:
            break
        if rank == len(rows):
            return None
        # column pivot of h is the conjugate of its row pivot; a new array
        # even when h is real
        column = np.conjugate(h[pivot])
        column -= rows[:rank, pivot].conj() @ rows[:rank]
        column *= 1.0 / math.sqrt(top)
        rows[rank] = column
        remaining -= (column * column.conj()).real
    rows = rows[:rank]
    # residual is the computed L L* - h = -S. Each entry of L L* is a
    # complex inner product of length r = rank, off by at most gamma_{r+2}
    # (|L| |L|*)_ij (Higham, Accuracy and Stability of Numerical Algorithms,
    # 2002, sec. 3.6; gamma_m = m u / (1 - m u), u the unit roundoff), and
    # the subtraction adds u |S_ij|. So ||S||_F exceeds the computed
    # ||residual||_F by at most about (r + 2) u ||L||_F^2, since
    # || |L| |L|* ||_F <= ||L||_F^2. 4 (r + 3) u = 2 (r + 3) eps covers that
    # with room for the rounding of ||L||_F^2 itself. A sum of N^2 squares
    # has relative error at most about N^2 u, so the factor 1 + N^2 eps
    # covers the computed ||residual||_F, and the few roundings that form
    # the bound fit in the same room.
    residual = rows.T @ rows.conj()
    residual -= h
    eps = float(np.finfo(np.float64).eps)
    allowance = 2.0 * (rank + 3) * eps * float(np.vdot(rows, rows).real)
    if not residual.diagonal().real.max() <= allowance:
        return None
    # 0.0 - keeps the zero matrix's bound at +0.0, the value eigvalsh gives
    bound = 0.0 - (float(np.linalg.norm(residual)) * (1.0 + size * size * eps) + allowance)
    return bound if bound >= -psd_tol else None


def complete_positivity(
    phi: Superoperator, tol: Tolerances = DEFAULT_TOL
) -> tuple[np.ndarray, float, bool, bool]:
    """Choi matrix of a single-block map, the least eigenvalue of its
    Hermitian part H or a proven lower bound on it, whether the map is
    completely positive, and whether the value is that bound.

    The map is completely positive when the value is >= -psd_tol and the map
    preserves Hermiticity within ``eq_tol``, as the Choi matrix of a
    completely positive map is Hermitian. From side ``_FACTOR_MIN_SIDE`` on,
    H is first factored by :func:`_factor_bound`: when a pivoted Cholesky
    factor of rank at most 1/``_FACTOR_RANK_SHARE`` of the side leaves a
    residual within psd_tol, the value is the factor's bound, at rounding
    level below zero, and no eigenvalue is computed. Otherwise the value is
    the least eigenvalue of H; only the eigenvalues are computed, not the
    eigenvectors."""
    choi = choi_matrix(phi)
    # unchecked: entry (j, i) of C* + C is the exact conjugate of entry (i, j).
    # Row-major, as choi is, so the sum and the factor's row reads run in
    # order
    h = np.conjugate(choi.T, order="C")
    h += choi
    h *= 0.5
    bound = _factor_bound(h, tol.psd_tol) if len(h) >= _FACTOR_MIN_SIDE else None
    least = float(_lapack(np.linalg.eigvalsh, h)[0]) if bound is None else bound
    completely_positive = least >= -tol.psd_tol and _real_form(phi, tol) is not None
    return choi, least, completely_positive, bound is not None


def _least_eigenpairs(rows: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Least eigenvalue and unit eigenvector of the Hermitian part of each row
    read as an n x n matrix, plus the rows' largest Hermiticity defect."""
    m = rows.reshape(-1, n, n)
    dag = m.conj().transpose(0, 2, 1)
    w, v = np.linalg.eigh(0.5 * (m + dag))
    return w[:, 0], v[:, :, 0], float(np.max(np.abs(m - dag)))


def _pure_states(x: np.ndarray) -> np.ndarray:
    """Row-major vectorizations of x x* for each unit row x."""
    return (x[:, :, None] * x.conj()[:, None, :]).reshape(x.shape[0], -1)


def _seesaw_piece(
    piece: np.ndarray, n_in: int, n_out: int, budget: int, rng: np.random.Generator
) -> tuple[float, np.ndarray, int, float]:
    """Alternating least-eigenvector descent on one piece of a map.

    Returns the least output eigenvalue found, the unit input vector that
    reached it, the number of pure inputs evaluated, and the largest
    Hermiticity defect of their outputs.
    """
    starts = min(_SEESAW_STARTS, budget)
    x = rng.standard_normal((starts, n_in)) + 1j * rng.standard_normal((starts, n_in))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    values, y, defect = _least_eigenpairs(_pure_states(x) @ piece.T, n_out)
    used = starts
    k = int(np.argmin(values))
    best, best_x = float(values[k]), x[k]
    threshold = _SEESAW_RTOL * max_norm(piece)
    while used + starts <= budget:
        # Phi-dagger is the conjugate transpose: the vectorization is orthonormal
        _, x, _ = _least_eigenpairs(_pure_states(y) @ piece.conj(), n_in)
        new_values, y, step_defect = _least_eigenpairs(_pure_states(x) @ piece.T, n_out)
        used += starts
        defect = max(defect, step_defect)
        k = int(np.argmin(new_values))
        if new_values[k] < best:
            best, best_x = float(new_values[k]), x[k]
        improvement = float(np.max(values - new_values))
        values = new_values
        if improvement <= threshold:
            break
    return best, best_x, used, defect


def randomized_positivity_falsifier(
    phi: Superoperator,
    samples: int = 10000,
    seed: int = 42,
    tol: Tolerances = DEFAULT_TOL,
) -> FalsifierResult:
    """Probe positivity of a map by seesaw descent over pure inputs.

    The least output eigenvalue is concave in the input and the map is
    linear, so its minimum over positive trace-one inputs is reached at a
    pure state x x* in one input block j, read on one output block i. For
    each piece (j, i) of the map, seeded unit vectors drawn from
    ``default_rng([seed, j, i])`` descend together: y becomes the least
    eigenvector of Phi_ij(x x*), then x the least eigenvector of
    Phi_ij^dagger(y y*), until no start improves by more than a fixed
    tolerance relative to the piece's largest entry. ``samples`` caps the
    number of pure inputs evaluated over all pieces. Non-Hermitian outputs are
    symmetrized before each eigenvalue step and the worst deviation is
    reported.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    algebra = phi.algebra
    blocks = algebra.blocks
    offsets = algebra.offsets
    pieces = [(j, i) for j in range(len(blocks)) for i in range(len(blocks))]
    used = 0
    worst_defect = 0.0
    found = []
    for index, (j, i) in enumerate(pieces):
        # what one piece leaves unused goes to the pieces after it
        left = len(pieces) - index
        budget = (samples - used + left - 1) // left
        if budget == 0:
            continue
        piece = phi.matrix[offsets[i] : offsets[i + 1], offsets[j] : offsets[j + 1]]
        rng = np.random.default_rng([seed, j, i])
        value, x, count, defect = _seesaw_piece(piece, blocks[j], blocks[i], budget, rng)
        used += count
        worst_defect = max(worst_defect, defect)
        found.append((value, j, x))
    _, j, x = min(found, key=lambda entry: entry[0])
    vec = np.zeros(algebra.dim, dtype=np.complex128)
    vec[offsets[j] : offsets[j + 1]] = _pure_states(x[None, :])[0]
    out = phi.matrix @ vec
    least = np.inf
    for i, n in enumerate(blocks):
        w, _, defect = _least_eigenpairs(out[offsets[i] : offsets[i + 1]], n)
        least = min(least, float(w[0]))
        worst_defect = max(worst_defect, defect)
    return FalsifierResult(
        min_output_eig=least,
        worst_input=_devectorize(algebra, vec),
        samples=used,
        seed=seed,
        passed=least >= -tol.psd_tol,
        max_hermiticity_defect=worst_defect,
    )
