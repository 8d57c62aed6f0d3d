"""Block algebra primitives: vectorization, eigensolvers, null and column
spaces, scalar detection."""

import importlib
import pkgutil
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import perispec
from perispec import (
    AlgebraMismatch,
    BlockAlgebra,
    DimensionMismatch,
    NotHermitian,
    Tolerances,
    adjoint,
    devectorize,
    element_norm,
    hermitian_eig,
    max_norm,
    null_space,
    scalar_multiple_of_identity,
    vectorize,
)
from perispec.algebra import (
    column_space,
    from_hermitian_basis,
    general_eig,
    hermitian_basis_form,
    hermitian_eigenvalues,
    to_hermitian_basis,
)

from conftest import (
    assert_frozen,
    random_complex,
    random_element,
    random_hermitian,
    rng_for,
)


@pytest.mark.parametrize("bad", [0.0, -1e-9, float("inf"), float("nan")])
@pytest.mark.parametrize("field", ["eq_tol", "rank_tol", "psd_tol"])
def test_tolerances_must_be_positive(field, bad):
    kwargs = {field: bad}
    with pytest.raises(ValueError):
        Tolerances(**kwargs)


@pytest.mark.parametrize("blocks", [(1,), (2,), (3,), (2, 2), (1, 3, 2)])
def test_vectorize_devectorize_round_trip(blocks):
    algebra = BlockAlgebra(blocks)
    rng = rng_for(1, *blocks)
    x = random_element(algebra, rng)
    back = devectorize(algebra, vectorize(x))
    assert element_norm(x - back) == 0.0
    assert vectorize(x).shape == (algebra.dim,)


def test_vectorize_is_row_major_concatenation():
    algebra = BlockAlgebra((2, 1))
    x = algebra.element(
        [np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[5.0]])]
    )
    assert np.array_equal(vectorize(x), [1, 2, 3, 4, 5])


def test_basis_is_orthonormal_matrix_units(mat2):
    basis = list(mat2.basis())
    assert len(basis) == mat2.dim == 4
    gram = np.array(
        [[np.vdot(vectorize(a), vectorize(b)) for b in basis] for a in basis]
    )
    assert np.allclose(gram, np.eye(4))
    # fourth basis element is the (1,1) matrix unit in row-major order
    assert np.array_equal(basis[3].parts[0], [[0, 0], [0, 1]])


def test_element_arithmetic_is_blockwise(two_blocks):
    rng = rng_for(2)
    x = random_element(two_blocks, rng)
    y = random_element(two_blocks, rng)
    prod = x @ y
    for px, py, pp in zip(x.parts, y.parts, prod.parts):
        assert np.allclose(pp, px @ py)
    assert np.isclose((x + y).trace(), x.trace() + y.trace())
    assert np.isclose((2.5j * x).trace(), 2.5j * x.trace())
    assert element_norm(x - x) == 0.0


def test_adjoint_and_jordan_product_properties(two_blocks):
    rng = rng_for(3)
    x = random_element(two_blocks, rng)
    y = random_element(two_blocks, rng)
    assert element_norm(adjoint(adjoint(x)) - x) == 0.0
    assert element_norm(adjoint(x @ y) - adjoint(y) @ adjoint(x)) < 1e-12
    # the symmetrized product commutes with the adjoint
    xs, ys = adjoint(x), adjoint(y)
    sym = 0.5 * (x @ y + y @ x)
    assert element_norm(adjoint(sym) - 0.5 * (xs @ ys + ys @ xs)) < 1e-12


FROZEN_HERMITIAN = [
    # ((matrix), (ascending eigenvalues)) worked out by hand
    ([[2.0, 1.0], [1.0, 2.0]], [1.0, 3.0]),
    ([[0.0, 1.0], [1.0, 0.0]], [-1.0, 1.0]),
    ([[1.0, 2.0], [2.0, 1.0]], [-1.0, 3.0]),
    ([[0.0, 1.0], [1.0, 1.0]], [(1 - np.sqrt(5)) / 2, (1 + np.sqrt(5)) / 2]),
]


@pytest.mark.parametrize("matrix,expected", FROZEN_HERMITIAN)
def test_hermitian_eig_frozen_values(matrix, expected):
    w, v = hermitian_eig(np.array(matrix, dtype=complex))
    assert np.allclose(w, expected, atol=1e-12)
    assert np.allclose(v @ np.diag(w) @ v.conj().T, matrix, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_hermitian_eig_reconstructs_seeded_inputs(n):
    rng = rng_for(4, n)
    for _ in range(50):
        h = random_hermitian(rng, n)
        w, v = hermitian_eig(h)
        assert np.all(np.diff(w) >= 0)
        assert np.allclose(v.conj().T @ v, np.eye(n), atol=1e-11)
        assert max_norm(v @ np.diag(w) @ v.conj().T - h) < 1e-11
        # trace and squared Frobenius norm are basis-independent invariants
        assert np.isclose(np.sum(w), np.trace(h).real, atol=1e-10)
        assert np.isclose(np.sum(w**2), np.sum(np.abs(h) ** 2), atol=1e-9)


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotHermitian):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("shape", [(), (2,), (2, 3), (4, 2, 3)])
@pytest.mark.parametrize("solver", [hermitian_eig, hermitian_eigenvalues])
def test_hermitian_solvers_reject_input_that_is_not_square(solver, shape):
    with pytest.raises(DimensionMismatch, match=re.escape(f"got shape {shape}")):
        solver(np.zeros(shape))


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_hermitian_eig_on_a_stack_equals_one_call_per_matrix(n):
    rng = rng_for(14, n)
    # widely different scales, so each matrix is checked against its own
    stack = np.stack([s * random_hermitian(rng, n) for s in (1e-3, 1.0, 1e6, 0.0)])
    w, v = hermitian_eig(stack)
    assert w.shape == (4, n) and v.shape == (4, n, n)
    values = hermitian_eigenvalues(stack)
    for k, h in enumerate(stack):
        w_k, v_k = hermitian_eig(h)
        assert w[k].tobytes() == w_k.tobytes()
        assert v[k].tobytes() == v_k.tobytes()
        assert values[k].tobytes() == hermitian_eigenvalues(h).tobytes()
    empty_w, empty_v = hermitian_eig(np.zeros((0, n, n)))
    assert empty_w.shape == (0, n) and empty_v.shape == (0, n, n)


def test_hermitian_eig_on_a_stack_checks_every_matrix():
    rng = rng_for(15)
    stack = np.stack([1e6 * random_hermitian(rng, 2) for _ in range(3)])
    # far below the first two matrices' scale, but not below its own
    stack[2] = [[0.0, 1.0], [0.0, 0.0]]
    with pytest.raises(NotHermitian, match=r"matrix \(2,\) of the stack deviates"):
        hermitian_eig(stack)
    with pytest.raises(NotHermitian, match=r"matrix \(2,\) of the stack deviates"):
        hermitian_eigenvalues(stack)
    # a single matrix keeps its message word for word
    with pytest.raises(NotHermitian) as raised:
        hermitian_eig(stack[2])
    assert str(raised.value) == "matrix deviates from Hermitian by 1.000e+00"


@pytest.mark.parametrize("n", [1, 3, 8])
def test_hermitian_eigenvalues_match_hermitian_eig(n):
    rng = rng_for(9, n)
    for _ in range(20):
        h = random_hermitian(rng, n)
        assert max_norm(hermitian_eigenvalues(h) - hermitian_eig(h)[0]) < 1e-12


MAT_1_2_3 = BlockAlgebra((1, 2, 3))


def test_block_offsets_start_each_block_and_end_at_the_dimension():
    assert MAT_1_2_3.offsets == (0, 1, 5, 14)
    assert MAT_1_2_3.dim == 14


def _hermitian_basis_matrix(algebra: BlockAlgebra) -> np.ndarray:
    """The change of basis T, column by column from the Hermitian units."""
    columns = []
    offset = 0
    for n in algebra.blocks:
        for j in range(n):
            for k in range(n):
                unit = np.zeros((n, n), dtype=complex)
                if j == k:
                    unit[j, j] = 1.0
                elif j < k:
                    unit[j, k] = unit[k, j] = np.sqrt(0.5)
                else:
                    unit[k, j], unit[j, k] = 1j * np.sqrt(0.5), -1j * np.sqrt(0.5)
                column = np.zeros(algebra.dim, dtype=complex)
                column[offset : offset + n * n] = unit.reshape(-1)
                columns.append(column)
        offset += n * n
    return np.column_stack(columns)


def test_hermitian_basis_change_is_unitary_and_inverts():
    algebra = MAT_1_2_3
    t = _hermitian_basis_matrix(algebra)
    eye = np.eye(algebra.dim)
    assert max_norm(t.conj().T @ t - eye) < 1e-15
    assert max_norm(from_hermitian_basis(algebra, eye) - t) < 1e-15
    assert max_norm(to_hermitian_basis(algebra, eye) - t.conj().T) < 1e-15
    rng = rng_for(10)
    v = random_complex(rng, algebra.dim)
    columns = random_complex(rng, algebra.dim, 3)
    assert max_norm(from_hermitian_basis(algebra, to_hermitian_basis(algebra, v)) - v) < 1e-14
    assert max_norm(to_hermitian_basis(algebra, from_hermitian_basis(algebra, v)) - v) < 1e-14
    assert max_norm(to_hermitian_basis(algebra, columns) - t.conj().T @ columns) < 1e-14
    # Hermitian elements have real coordinates, and real coordinates give
    # exactly Hermitian elements
    h = algebra.element([random_hermitian(rng, n) for n in algebra.blocks])
    assert max_norm(to_hermitian_basis(algebra, vectorize(h)).imag) < 1e-15
    y = rng.standard_normal(algebra.dim)
    x = devectorize(algebra, from_hermitian_basis(algebra, y))
    assert element_norm(x - adjoint(x)) == 0.0


def test_hermitian_basis_form_is_the_real_similarity():
    algebra = MAT_1_2_3
    t = _hermitian_basis_matrix(algebra)
    rng = rng_for(11)
    real = rng.standard_normal((algebra.dim, algebra.dim))
    m = t @ real @ t.conj().T
    form, defect = hermitian_basis_form(algebra, m)
    assert form.dtype == np.float64 and form.flags.c_contiguous
    assert max_norm(form - real) < 1e-14
    assert defect < 1e-15
    bumped = m + 1e-3j * (t[:, [2]] @ t[:, [4]].conj().T)
    form, defect = hermitian_basis_form(algebra, bumped)
    assert max_norm(form - real) < 1e-14
    assert defect == pytest.approx(1e-3 / max(1.0, max_norm(real)), rel=1e-9)


def test_real_input_takes_the_real_solvers():
    rng = rng_for(12)
    m = rng.standard_normal((6, 6))
    values, vectors = general_eig(m)
    assert values.dtype == np.complex128 and vectors.dtype == np.complex128
    # complex eigenvalues of a real matrix come in exact conjugate pairs
    assert sorted(values.tolist(), key=lambda z: (z.real, z.imag)) == sorted(
        values.conj().tolist(), key=lambda z: (z.real, z.imag)
    )
    assert max_norm(m @ vectors - vectors * values) < 1e-12
    kernel = null_space(np.outer(m[0], m[1]))
    assert len(kernel) == 5
    assert all(v.dtype == np.float64 for v in kernel)


def _char_poly_coefficients(m: np.ndarray) -> np.ndarray:
    """Faddeev-LeVerrier recursion; returns [1, c_1, ..., c_n] with
    det(tI - m) = sum_k c_k t^(n-k)."""
    n = m.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    aux = np.zeros_like(m)
    for k in range(1, n + 1):
        aux = m @ aux + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(m @ aux) / k
    return coeffs


@pytest.mark.parametrize("n", [2, 3, 5])
def test_general_eigenvalues_are_char_poly_roots(n):
    rng = rng_for(5, n)
    for _ in range(25):
        m = random_complex(rng, n, n)
        coeffs = _char_poly_coefficients(m)
        scale = np.max(np.abs(coeffs))
        for lam in general_eig(m)[0]:
            value = np.polyval(coeffs, lam)
            assert abs(value) < 1e-8 * scale * max(1.0, abs(lam)) ** n


def test_general_eigenvalues_frozen_upper_triangular():
    m = np.array([[1.0, 5.0, 1.0], [0.0, 0.5j, 2.0], [0.0, 0.0, -2.0]])
    values = sorted(general_eig(m)[0], key=lambda z: (z.real, z.imag))
    assert np.allclose(values, [-2.0, 0.5j, 1.0], atol=1e-12)


def test_null_space_of_rank_one_projector():
    kernel = null_space(np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert len(kernel) == 1
    v = kernel[0]
    assert np.isclose(np.vdot(v, v), 1.0)
    assert abs(v[0]) < 1e-12 and abs(abs(v[1]) - 1.0) < 1e-12


@pytest.mark.parametrize("rank", [0, 1, 2, 3])
def test_null_space_dimensions_of_seeded_projections(rank):
    rng = rng_for(6, rank)
    n = 4
    g = random_complex(rng, n, rank) if rank else np.zeros((n, 0))
    m = g @ g.conj().T
    kernel = null_space(m)
    assert len(kernel) == n - rank
    for v in kernel:
        assert np.linalg.norm(m @ v) < 1e-9 * max(1.0, max_norm(m))


def test_null_space_of_invertible_matrix_is_empty():
    assert null_space(np.array([[2.0, 1.0], [0.0, 3.0]])) == []


def test_column_space_is_an_orthonormal_basis_cut_at_the_relative_rank_tol():
    rng = rng_for(13)
    left, _ = np.linalg.qr(random_complex(rng, 5, 3))
    right, _ = np.linalg.qr(random_complex(rng, 4, 3))
    tol = Tolerances()
    # the cut sits at rank_tol * s_max = 2e-8, at every scale of the input
    for third, rank in ((1e-8, 2), (5e-8, 3)):
        for scale in (1.0, 1e-10):
            m = scale * (left * [2.0, 0.5, third]) @ right.conj().T
            basis = column_space(m, tol)
            assert basis.shape == (5, rank)
            assert max_norm(basis.conj().T @ basis - np.eye(rank)) < 1e-12
            # the columns span the leading singular directions
            projector = basis @ basis.conj().T
            assert max_norm(projector @ left[:, :2] - left[:, :2]) < 1e-12
    real = column_space(rng.standard_normal((4, 2)) @ rng.standard_normal((2, 3)), tol)
    assert real.dtype == np.float64 and real.shape == (4, 2)
    assert column_space(np.zeros((3, 3)), tol).shape == (3, 0)


def test_every_name_in_each_all_resolves():
    for info in pkgutil.iter_modules(perispec.__path__):
        module = importlib.import_module(f"perispec.{info.name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, (info.name, missing)


def test_scalar_multiple_detection(two_blocks):
    assert scalar_multiple_of_identity(two_blocks.scalar(2.5 - 1j)) == pytest.approx(
        2.5 - 1j
    )
    x = two_blocks.identity()
    bumped = x + 1e-3 * list(two_blocks.basis())[1]
    assert scalar_multiple_of_identity(bumped) is None
    assert scalar_multiple_of_identity(two_blocks.scalar(0.0)) == 0.0
    nan = np.full((2, 2), np.nan)
    assert scalar_multiple_of_identity(two_blocks._wrap([nan, nan])) is None


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=6))
def test_hermitian_eig_diagonalizes_hypothesis_inputs(seed, n):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, n)
    w, v = hermitian_eig(h)
    assert np.all(np.abs(w.imag) == 0.0)
    assert max_norm(v @ np.diag(w) @ v.conj().T - h) < 1e-10 * max(1.0, max_norm(h))


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=4,
        max_size=4,
    )
)
def test_vectorize_round_trip_hypothesis(entries):
    algebra = BlockAlgebra((2,))
    x = algebra.element([np.array(entries).reshape(2, 2)])
    assert element_norm(devectorize(algebra, vectorize(x)) - x) == 0.0


NON_FINITE = [float("nan"), float("inf"), -float("inf"), complex(0.0, float("nan"))]


@pytest.mark.parametrize("bad", NON_FINITE)
def test_element_and_devectorize_reject_entries_that_are_not_finite(two_blocks, bad):
    part = np.eye(2, dtype=np.complex128)
    part[0, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        two_blocks.element([np.eye(2), part])
    v = np.zeros(two_blocks.dim, dtype=np.complex128)
    v[5] = bad
    with pytest.raises(ValueError, match="finite"):
        devectorize(two_blocks, v)


def test_element_and_devectorize_reject_wrong_shapes(two_blocks):
    with pytest.raises(DimensionMismatch):
        two_blocks.element([np.eye(2), np.ones((2, 3))])
    with pytest.raises(DimensionMismatch):
        two_blocks.element([np.eye(2), np.ones(4)])
    with pytest.raises(AlgebraMismatch):
        two_blocks.element([np.eye(2), np.eye(3)])
    with pytest.raises(AlgebraMismatch):
        two_blocks.element([np.eye(2)])
    with pytest.raises(DimensionMismatch):
        devectorize(two_blocks, np.zeros(two_blocks.dim + 1))


@pytest.mark.parametrize("c", [float("inf"), float("nan"), complex(1.0, -float("inf"))])
def test_scaling_by_a_scalar_that_is_not_finite_raises(two_blocks, c):
    x = two_blocks.identity()
    for scale in (lambda: x * c, lambda: c * x, lambda: two_blocks.scalar(c)):
        with pytest.raises(ValueError, match="finite"):
            scale()


def test_element_and_devectorize_keep_no_reference_to_their_input(two_blocks):
    part = np.arange(4, dtype=np.complex128).reshape(2, 2)
    x = two_blocks.element([part, part])
    v = vectorize(x)
    y = devectorize(two_blocks, v)
    part[:] = 99.0
    v[:] = 99.0
    for element in (x, y):
        for p in element.parts:
            assert np.array_equal(p, np.arange(4).reshape(2, 2))


def test_every_element_that_arithmetic_builds_is_frozen(two_blocks):
    rng = rng_for(91)
    x, y = random_element(two_blocks, rng), random_element(two_blocks, rng)
    built = [
        x + y, x - y, -x, 2.0 * x, x * (0.5 - 1j), x @ y, adjoint(x),
        two_blocks.identity(), two_blocks.scalar(2.5 - 1j),
        devectorize(two_blocks, vectorize(x)), *two_blocks.basis(),
    ]
    for element in built:
        for part in element.parts:
            assert_frozen(part)
    with pytest.raises(ValueError):
        adjoint(x).parts[0][0, 1] = 1.0


def test_arithmetic_that_overflows_from_finite_operands_raises(two_blocks, recwarn):
    big = BlockAlgebra((1,)).element([[[1e200]]])
    huge = two_blocks.element([np.full((2, 2), 1e308), np.eye(2)])
    for overflow in (
        lambda: big * 1e200,
        lambda: 1e200 * big,
        lambda: big @ big,
        lambda: huge + huge,
        lambda: huge - (-1.0) * huge,
        lambda: huge @ huge,
    ):
        with pytest.raises(ValueError, match="overflows the float range"):
            overflow()
    assert (1e-200 * big).parts[0][0, 0] == 1.0
    assert (big @ (1e-300 * big)).parts[0][0, 0] == pytest.approx(1e100)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_arithmetic_on_operands_that_are_not_finite_stays_quiet(two_blocks, recwarn):
    nan = two_blocks._wrap([np.full((2, 2), np.nan), np.eye(2)])
    inf = two_blocks._wrap([np.full((2, 2), np.inf), np.eye(2)])
    for result in (nan + nan, inf - inf, inf @ nan, 2.0 * inf):
        assert not np.isfinite(result.parts[0]).all()
        assert np.isfinite(result.parts[1]).all()
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
