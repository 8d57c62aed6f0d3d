"""Shared helpers for the test suite: seeded generators, random inputs and
maps built from their action."""

from typing import Callable

import numpy as np
import pytest

from perispec import (
    AlgebraElement,
    AlgebraMismatch,
    BlockAlgebra,
    Superoperator,
    Tolerances,
    vectorize,
)
from perispec import positivity, superop

TEST_SEED = 987654321


def rng_for(*tags: int) -> np.random.Generator:
    """Independent deterministic stream per (test, purpose) tag tuple."""
    return np.random.default_rng([TEST_SEED, *tags])


def random_complex(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    g = random_complex(rng, n, n)
    return 0.5 * (g + g.conj().T)


def random_psd(rng: np.random.Generator, n: int) -> np.ndarray:
    g = random_complex(rng, n, n)
    return g @ g.conj().T


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(random_complex(rng, n, n))
    d = np.diag(r)
    return q * (d / np.abs(d))


def mixed_unitary_choi(rng: np.random.Generator, n: int, k: int = 3) -> np.ndarray:
    """Choi matrix sum_ij E_ij (x) phi(E_ij) of x -> sum_j w_j u_j x u_j* on
    Mat(n), for k seeded unitaries and weights: u x u* sends E_ij to c_i c_j*,
    c_i the columns of u, so its Choi matrix is q q* with q = u.T.ravel() the
    columns stacked, and the sum has rank k."""
    weights = rng.dirichlet(np.ones(k))
    kraus = np.column_stack(
        [np.sqrt(w) * random_unitary(rng, n).T.ravel() for w in weights]
    )
    return kraus @ kraus.conj().T


def unital_kraus_map(rng: np.random.Generator, n: int, k: int = 3) -> Superoperator:
    """x -> sum_j K_j x K_j* on Mat(n), the K_j the n x n column blocks of the
    first n rows of a seeded unitary on C^(k n): the rows are orthonormal, so
    sum K K* = 1 and the map is unital and completely positive, while
    generically sum K* K != 1 and it does not preserve the trace. Row-major,
    vec(K x K*) = kron(K, conj(K)) vec(x)."""
    rows = random_unitary(rng, k * n)[:n]
    kraus = [rows[:, j * n : (j + 1) * n] for j in range(k)]
    return Superoperator(BlockAlgebra((n,)), sum(np.kron(c, c.conj()) for c in kraus))


def map_from_choi(choi: np.ndarray) -> Superoperator:
    """The map on Mat(n) whose Choi matrix is ``choi``, of side n^2."""
    n = int(round(np.sqrt(len(choi))))
    matrix = choi.reshape(n, n, n, n).transpose(1, 3, 0, 2).reshape(n * n, n * n)
    return Superoperator(BlockAlgebra((n,)), matrix)


def random_element(algebra: BlockAlgebra, rng: np.random.Generator):
    return algebra.element([random_complex(rng, n, n) for n in algebra.blocks])


def assert_frozen(a: np.ndarray) -> None:
    """a is a read-only, C-contiguous complex128 array."""
    assert a.dtype == np.complex128
    assert a.flags.c_contiguous
    assert not a.flags.writeable


def from_action(
    algebra: BlockAlgebra, action: Callable[[AlgebraElement], AlgebraElement]
) -> Superoperator:
    """Build the matrix by applying a linear action to the matrix-unit basis."""
    columns = []
    for image in map(action, algebra.basis()):
        if image.algebra != algebra:
            raise AlgebraMismatch("basis image lives in a different algebra")
        columns.append(vectorize(image))
    return Superoperator(algebra, np.column_stack(columns))


@pytest.fixture
def tol() -> Tolerances:
    return Tolerances()


def hermiticity_breaking_map() -> Superoperator:
    """x -> x + 0.1 i (tr(x)/2 1 - x) on M2: unital, with a Choi matrix whose
    Hermitian part is PSD, but it sends Hermitian inputs to non-Hermitian
    outputs, so its Choi matrix is not Hermitian."""
    algebra = BlockAlgebra((2,))
    return from_action(
        algebra,
        lambda x: algebra.element(
            [p + 0.1j * (np.trace(p) / 2 * np.eye(2) - p) for p in x.parts]
        ),
    )


@pytest.fixture
def mat2() -> BlockAlgebra:
    return BlockAlgebra((2,))


@pytest.fixture
def two_blocks() -> BlockAlgebra:
    return BlockAlgebra((2, 2))


def route_calls(monkeypatch) -> list:
    """Record, in call order, each dense eigendecomposition of
    :func:`~perispec.superop.point_spectrum` as "general_eig", each use of
    the extra columns that the spectral-gap certificate's early exit probes
    with as "extra_starts", each inverse-iteration search of the fixed space
    as "fixed_space", and each LAPACK routine that superop calls itself by
    its name, such as "eigvalsh"."""
    calls = []
    general_eig, lapack, extra = superop.general_eig, superop._lapack, superop._extra_starts
    fixed_space = superop._fixed_space

    def recorded_eig(m):
        calls.append("general_eig")
        return general_eig(m)

    def recorded_extra(d):
        calls.append("extra_starts")
        return extra(d)

    def recorded_search(*args):
        calls.append("fixed_space")
        return fixed_space(*args)

    def recorded_lapack(routine, *args, **kwargs):
        calls.append(routine.__name__)
        return lapack(routine, *args, **kwargs)

    monkeypatch.setattr(superop, "general_eig", recorded_eig)
    monkeypatch.setattr(superop, "_lapack", recorded_lapack)
    monkeypatch.setattr(superop, "_extra_starts", recorded_extra)
    monkeypatch.setattr(superop, "_fixed_space", recorded_search)
    return calls


def choi_route_calls(monkeypatch) -> list:
    """Record, in call order, each pivoted Cholesky factor that
    :func:`~perispec.positivity.complete_positivity` tries as "factor", and
    each LAPACK routine that positivity calls itself by its name, such as
    "eigvalsh"."""
    calls = []
    factor_bound, lapack = positivity._factor_bound, positivity._lapack

    def recorded_factor(h, psd_tol):
        calls.append("factor")
        return factor_bound(h, psd_tol)

    def recorded_lapack(routine, *args, **kwargs):
        calls.append(routine.__name__)
        return lapack(routine, *args, **kwargs)

    monkeypatch.setattr(positivity, "_factor_bound", recorded_factor)
    monkeypatch.setattr(positivity, "_lapack", recorded_lapack)
    return calls
