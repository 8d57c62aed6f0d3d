"""Positivity certificates for block 2x2 matrices and for linear maps.

The Schur-complement criteria decide positive semidefiniteness of
[[a, b], [c, d]] by reducing to the blocks, regularized by a decreasing
epsilon schedule so that singular corners stay invertible. They are kept
deliberately independent of :func:`oracle_psd`, the direct eigenvalue check,
so the two routes can cross-validate each other.

Complete positivity of a map on a single full matrix block is decided through
its Choi matrix, assembled with row-major tensor ordering: the (i, j) outer
block of the Choi matrix is the image of the matrix unit E_ij.

Plain positivity of a map is probed, not proved, by a seesaw descent over
pure inputs, one piece of the map from an input block to an output block at a
time; any negative output eigenvalue it finds comes with its input.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    AlgebraElement,
    Tolerances,
    _devectorize,
    hermitian_eig,
    hermitian_eigenvalues,
    max_norm,
)
from .errors import (
    CommutationViolated,
    ConvergenceFailure,
    DimensionMismatch,
    HypothesesViolated,
    MultiBlockUnsupported,
    NotPSDInput,
)
from .superop import Superoperator

__all__ = [
    "Block2Matrix",
    "EpsilonSchedule",
    "PositivityVerdict",
    "PositivityWitness",
    "FalsifierResult",
    "assemble",
    "oracle_psd",
    "criterion_epsilon",
    "criterion_epsilon_prime",
    "criterion_commuting",
    "corner_swap",
    "congruence",
    "offdiag_swap_under_hypotheses",
    "choi_matrix",
    "complete_positivity",
    "randomized_positivity_falsifier",
]

# Seeded unit vectors run together per piece of a map by the seesaw
# falsifier, and the improvement, relative to the piece's largest entry, below
# which a run stops.
_SEESAW_STARTS = 16
_SEESAW_RTOL = 1e-12


def _square(m) -> np.ndarray:
    a = np.array(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square block, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class Block2Matrix:
    """Four equally sized square blocks a, b, c, d of [[a, b], [c, d]]."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self) -> None:
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, _square(getattr(self, name)))
        side = self.a.shape[0]
        for name in ("b", "c", "d"):
            if getattr(self, name).shape[0] != side:
                raise DimensionMismatch("all four blocks must share one side length")

    @property
    def side(self) -> int:
        return self.a.shape[0]


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
    """Dense 2n x 2n matrix [[a, b], [c, d]]."""
    return np.block([[m.a, m.b], [m.c, m.d]])


def _eig_verdict(w: np.ndarray, v: np.ndarray, tol: Tolerances) -> PositivityVerdict:
    """The verdict of :func:`oracle_psd` on a matrix with eigendecomposition
    (w, v), eigenvalues ascending."""
    if w.size == 0 or w[0] >= -tol.psd_tol:
        return PositivityVerdict(True)
    witness = PositivityWitness(
        reason=f"least eigenvalue {w[0]:.6e} below -psd_tol",
        vector=v[:, 0],
        quadratic_form=float(w[0]),
    )
    return PositivityVerdict(False, witness)


def oracle_psd(m: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> PositivityVerdict:
    """Direct eigenvalue test: PSD iff the least eigenvalue is >= -psd_tol."""
    return _eig_verdict(*hermitian_eig(m, tol), tol)


def _oracle_check(
    eig: tuple[np.ndarray, np.ndarray], tol: Tolerances, reason: str, **fields
) -> PositivityVerdict | None:
    """None when :func:`oracle_psd` accepts the matrix with eigendecomposition
    ``eig``; otherwise its verdict with the witness restated under
    ``reason``, in which ``{oracle}`` stands for the oracle's own reason, and
    with ``fields`` added."""
    verdict = _eig_verdict(*eig, tol)
    if verdict.is_psd:
        return None
    assert verdict.witness is not None
    reason = reason.format(oracle=verdict.witness.reason)
    return PositivityVerdict(False, replace(verdict.witness, reason=reason, **fields))


def _offdiag_mismatch(m: Block2Matrix, tol: Tolerances) -> PositivityVerdict | None:
    defect = max_norm(m.c - m.b.conj().T)
    if defect <= tol.eq_tol * max(1.0, max_norm(m.b)):
        return None
    witness = PositivityWitness(reason=f"c differs from b* by {defect:.3e}")
    return PositivityVerdict(False, witness)


def _block_prelude(
    m: Block2Matrix, tol: Tolerances
) -> tuple[PositivityVerdict | None, list[tuple[np.ndarray, np.ndarray]]]:
    """The conditions every criterion shares, in order: a PSD, d PSD, and
    c = b*. Returns the first that fails, or None, and the eigendecompositions
    of the corners it checked, a first; d is not looked at when a fails."""
    eigs = []
    for name in ("a", "d"):
        eigs.append(hermitian_eig(getattr(m, name), tol))
        reason = f"diagonal block {name} not PSD: {{oracle}}"
        failed = _oracle_check(eigs[-1], tol, reason)
        if failed is not None:
            return failed, eigs
    return _offdiag_mismatch(m, tol), eigs


def _schur_family(
    m: Block2Matrix,
    schedule: EpsilonSchedule,
    tol: Tolerances,
    mirrored: bool,
) -> PositivityVerdict:
    """Shared body of the two epsilon criteria.

    In the plain orientation the defect is d - b*(a+ + eps)^(-1) b; mirrored
    swaps the roles of the corners: a - b (d+ + eps)^(-1) b*. Here a+ is the
    corner with its eigenvalues clamped at zero: the corner has passed its
    PSD check within ``psd_tol``, and a+ + eps is positive definite for every
    eps > 0. One eigendecomposition of the corner serves its PSD check and
    every epsilon. The defects of the schedule are built as one stack, which
    ends before the first defect that is not finite (1 / eps overflows near
    eps = 1e-308), and decomposed by one call; the first epsilon in schedule
    order whose defect fails decides. When none fails before the stack ends
    early, the verdict is undefined and :class:`ConvergenceFailure` is raised.
    """
    failed, eigs = _block_prelude(m, tol)
    if failed is not None:
        return failed
    w, v = eigs[1] if mirrored else eigs[0]
    eps = np.array(schedule.values)
    with np.errstate(all="ignore"):
        inv = (v * (1.0 / (np.maximum(w, 0.0) + eps[:, None]))[:, None, :]) @ v.conj().T
        if mirrored:
            defects = m.a - m.b @ inv @ m.b.conj().T
        else:
            defects = m.d - m.b.conj().T @ inv @ m.b
        defects = 0.5 * (defects + np.swapaxes(defects, -1, -2).conj())
    finite = np.isfinite(defects).all(axis=(-2, -1)).tolist()
    stop = finite.index(False) if False in finite else len(finite)
    stacked = zip(*hermitian_eig(defects[:stop], tol))
    for epsilon, defect, eig in zip(schedule.values, defects, stacked):
        reason = f"Schur defect not PSD at epsilon={epsilon:g}"
        failed = _oracle_check(eig, tol, reason, epsilon=epsilon, defect=defect)
        if failed is not None:
            return failed
    if stop < len(finite):
        raise ConvergenceFailure(
            f"Schur defect is not finite at epsilon={schedule.values[stop]!r}"
        )
    return PositivityVerdict(True)


def criterion_epsilon(
    m: Block2Matrix,
    schedule: EpsilonSchedule = EpsilonSchedule(),
    tol: Tolerances = DEFAULT_TOL,
) -> PositivityVerdict:
    """Schur criterion: PSD iff a, d are PSD, c = b*, and every epsilon in the
    schedule leaves d - b*(a + eps)^(-1) b positive semidefinite."""
    return _schur_family(m, schedule, tol, mirrored=False)


def criterion_epsilon_prime(
    m: Block2Matrix,
    schedule: EpsilonSchedule = EpsilonSchedule(),
    tol: Tolerances = DEFAULT_TOL,
) -> PositivityVerdict:
    """Mirrored Schur criterion, regularizing d: a - b (d + eps)^(-1) b*."""
    return _schur_family(m, schedule, tol, mirrored=True)


def criterion_commuting(
    m: Block2Matrix, tol: Tolerances = DEFAULT_TOL
) -> PositivityVerdict:
    """Commuting-corner criterion: with a d = d a, PSD iff a, d PSD, c = b*,
    and a d - b* b is PSD. Raises when the corners do not commute."""
    defect = max_norm(m.a @ m.d - m.d @ m.a)
    scale = max(1.0, max_norm(m.a) * max_norm(m.d))
    if defect > tol.eq_tol * scale:
        raise CommutationViolated(f"a and d do not commute, defect {defect:.3e}")
    failed, _ = _block_prelude(m, tol)
    if failed is not None:
        return failed
    product = m.a @ m.d - m.b.conj().T @ m.b
    product = 0.5 * (product + product.conj().T)
    eig = hermitian_eig(product, tol)
    failed = _oracle_check(eig, tol, "a d - b* b not PSD", defect=product)
    return PositivityVerdict(True) if failed is None else failed


def corner_swap(m: Block2Matrix) -> Block2Matrix:
    """Conjugation by [[0, 1], [1, 0]]: [[a, b], [c, d]] -> [[d, c], [b, a]]."""
    return Block2Matrix(m.d, m.c, m.b, m.a)


def congruence(m: Block2Matrix, x: np.ndarray, y: np.ndarray) -> Block2Matrix:
    """Congruence by diag(x, y): [[x a x*, x b y*], [y c x*, y d y*]]."""
    x = _square(x)
    y = _square(y)
    if x.shape[0] != m.side or y.shape[0] != m.side:
        raise DimensionMismatch("congruence factors must match the block side")
    return Block2Matrix(
        x @ m.a @ x.conj().T,
        x @ m.b @ y.conj().T,
        y @ m.c @ x.conj().T,
        y @ m.d @ y.conj().T,
    )


def offdiag_swap_under_hypotheses(
    m: Block2Matrix, tol: Tolerances = DEFAULT_TOL
) -> Block2Matrix:
    """Swap the off-diagonal corners of a PSD input: [[a, b], [b*, d]] becomes
    [[a, b*], [b, d]].

    Positivity survives the swap when a commutes with b and b is normal or
    commutes with d; both hypotheses are verified, as is positivity of the
    input and of the result.
    """
    scale = max(1.0, max_norm(m.a), max_norm(m.b), max_norm(m.d)) ** 2
    if max_norm(m.a @ m.b - m.b @ m.a) > tol.eq_tol * scale:
        raise HypothesesViolated("a and b do not commute")
    b_normal = max_norm(m.b @ m.b.conj().T - m.b.conj().T @ m.b) <= tol.eq_tol * scale
    bd_commute = max_norm(m.b @ m.d - m.d @ m.b) <= tol.eq_tol * scale
    if not (b_normal or bd_commute):
        raise HypothesesViolated("b is neither normal nor commuting with d")
    mismatch = _offdiag_mismatch(m, tol)
    if mismatch is not None:
        raise NotPSDInput("input is not of the form [[a, b], [b*, d]]")
    if not oracle_psd(assemble(m), tol).is_psd:
        raise NotPSDInput("input block matrix is not PSD")
    swapped = Block2Matrix(m.a, m.b.conj().T, m.b, m.d)
    verdict = oracle_psd(assemble(swapped), tol)
    if not verdict.is_psd:
        raise HypothesesViolated(
            "swapped matrix failed the PSD check; hypotheses too weak numerically"
        )
    return swapped


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


def complete_positivity(
    phi: Superoperator, tol: Tolerances = DEFAULT_TOL
) -> tuple[np.ndarray, float, bool]:
    """Choi matrix of a single-block map, the least eigenvalue of its
    Hermitian part, and whether that eigenvalue is >= -psd_tol, that is
    whether the map is completely positive. Only the eigenvalues of the
    Hermitian part are computed, not its eigenvectors."""
    choi = choi_matrix(phi)
    least = float(hermitian_eigenvalues(0.5 * (choi + choi.conj().T), tol)[0])
    return choi, least, least >= -tol.psd_tol


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
