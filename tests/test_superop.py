"""Superoperators: spectra, invariant states, closures, continuous families."""

import cmath
import functools
import math
import tracemalloc

import numpy as np
import pytest

from perispec import (
    AlgebraMismatch,
    BlockAlgebra,
    ContinuousFamily,
    DimensionMismatch,
    NoPositiveFixedState,
    Superoperator,
    Tolerances,
    adjoint,
    apply,
    build_example1,
    build_example1_continuous,
    build_example2,
    build_example2_continuous,
    build_psi_swap,
    continuous_eigen_check,
    devectorize,
    element_norm,
    ergodicity_check,
    explicit_map_dict,
    group_closure_report,
    invariant_state,
    jordan_closure_check,
    load_map_file,
    max_norm,
    null_space,
    point_spectrum,
    semigroup_law_check,
    star_closure_check,
    unitality_check,
    vectorize,
)
from perispec import analysis, presets, superop
from perispec.algebra import from_hermitian_basis, general_eig, to_hermitian_basis
from perispec.mapfile import complex_to_pair
from perispec.analysis import _continuous_entry, analyze
from perispec.positivity import choi_matrix, complete_positivity
from perispec.superop import InvariantState, PointSpectrum, SpectralPoint

from conftest import (
    assert_frozen,
    from_action,
    random_element,
    random_unitary,
    rng_for,
    route_calls,
    unital_kraus_map,
)

GENERIC = np.exp(2j * np.pi / 5)


def _conjugation(algebra: BlockAlgebra, u: np.ndarray) -> Superoperator:
    return from_action(
        algebra,
        lambda x: algebra.element([u @ p @ u.conj().T for p in x.parts]),
    )


def test_apply_is_linear_and_compose_matches_matrix_product(mat2):
    rng = rng_for(21)
    phi, _ = build_example1(GENERIC)
    psi = _conjugation(mat2, np.array([[0.0, 1.0], [1.0, 0.0]]))
    x = random_element(mat2, rng)
    y = random_element(mat2, rng)
    assert element_norm(phi(x + 2j * y) - (phi(x) + 2j * phi(y))) < 1e-12
    chained = Superoperator(mat2, phi.matrix @ psi.matrix)
    assert element_norm(chained(x) - phi(psi(x))) < 1e-12


def test_from_action_rejects_images_in_another_algebra(mat2):
    other = BlockAlgebra((1, 1, 1, 1))
    with pytest.raises(AlgebraMismatch):
        from_action(mat2, lambda x: devectorize(other, vectorize(x)))


def test_unitality_check_rejects_scaled_identity(mat2):
    doubled = Superoperator(mat2, 2.0 * np.eye(mat2.dim))
    assert not unitality_check(doubled)


def test_point_spectrum_of_generic_single_block_map(tol):
    phi, _ = build_example1(GENERIC)
    spectrum = point_spectrum(phi, tol)
    assert spectrum.dimensions == (1, 1, 1)
    for expected in (1.0 + 0.0j, GENERIC, np.conj(GENERIC)):
        point = spectrum.find(expected)
        assert point is not None
        for x in point.basis:
            assert element_norm(phi(x) - complex(point.value) * x) < 1e-12


def test_point_spectrum_keeps_only_peripheral_values():
    algebra = BlockAlgebra((1, 1))
    phi = Superoperator(algebra, np.diag([1.0, 0.5]))
    spectrum = point_spectrum(phi)
    assert spectrum.values == (1.0 + 0.0j,)


def test_point_spectrum_merges_nearby_values():
    algebra = BlockAlgebra((1, 1))
    phi = Superoperator(algebra, np.diag([1.0, 1.0 + 5e-8]))
    spectrum = point_spectrum(phi)
    assert len(spectrum.points) == 1
    assert spectrum.points[0].dimension == 2


def test_ergodicity_distinguishes_examples(mat2, tol):
    phi, _ = build_example1(GENERIC)
    assert ergodicity_check(phi, tol)
    assert not ergodicity_check(Superoperator(mat2, np.eye(mat2.dim)), tol)
    diagonal_fixer = _conjugation(mat2, np.diag([1.0, -1.0]))
    assert not ergodicity_check(diagonal_fixer, tol)


def test_invariant_state_of_single_block_family(tol):
    phi, _ = build_example1(GENERIC)
    state = invariant_state(phi, tol)
    assert state.faithful
    assert element_norm(state.rho - phi.algebra.element([np.eye(2) / 2.0])) < 1e-12
    assert np.allclose(state.rho.parts[0], 0.5 * np.eye(2))


def test_invariant_state_of_two_block_family(tol):
    phi, _ = build_example2(GENERIC)
    state = invariant_state(phi, tol)
    assert state.faithful
    for part in state.rho.parts:
        assert np.allclose(part, 0.25 * np.eye(2), atol=1e-12)


def test_invariant_state_of_coordinate_swap(tol):
    phi, _, expected = build_psi_swap()
    state = invariant_state(phi, tol)
    assert state.faithful
    assert element_norm(state.rho - expected.rho) < 1e-12


def test_invariant_state_requires_a_fixed_point(mat2):
    shrink = Superoperator(mat2, 0.5 * np.eye(mat2.dim))
    with pytest.raises(NoPositiveFixedState):
        invariant_state(shrink)


def test_star_and_jordan_closure_on_single_block_family(tol):
    phi, _ = build_example1(GENERIC)
    spectrum = point_spectrum(phi, tol)
    assert star_closure_check(phi, spectrum).max_residual < 1e-12
    report = jordan_closure_check(phi, spectrum, tol)
    assert report.max_residual < 1e-12


def test_jordan_closure_counts_vanishing_products(tol):
    phi, _ = build_example2(GENERIC)
    report = jordan_closure_check(phi, point_spectrum(phi, tol), tol)
    assert report.max_residual < 1e-12
    assert report.vanished_count > 0
    count = len(report.labels)
    assert report.residual.shape == report.vanished.shape == (count, count)
    assert report.vanished_count == sum(1 for e in report.entries if e[5])


def test_closure_checks_over_an_empty_peripheral_spectrum(mat2, tol):
    shrink = Superoperator(mat2, 0.5 * np.eye(mat2.dim))
    spectrum = point_spectrum(shrink, tol)
    assert spectrum.points == ()
    star = star_closure_check(shrink, spectrum)
    jordan = jordan_closure_check(shrink, spectrum, tol)
    assert star.max_residual == 0.0 and star.labels == [] and star.residual.shape == (0,)
    assert jordan.max_residual == 0.0 and jordan.entries == ()
    assert jordan.vanished_count == 0


def test_closures_and_classification_stack_the_basis_once(monkeypatch, tol):
    # the star closure, the Jordan closure and the classification of analyze
    # all read the basis of one spectrum as rows: it is vectorized once
    from perispec.analysis import _classifications_entry

    phi, _ = build_example2(1j)
    spectrum = point_spectrum(phi, tol)
    calls = []
    real_vectorize = superop.vectorize

    def counting_vectorize(x):
        calls.append(x)
        return real_vectorize(x)

    monkeypatch.setattr(superop, "vectorize", counting_vectorize)
    star_closure_check(phi, spectrum)
    jordan_closure_check(phi, spectrum, tol)
    _classifications_entry(phi, spectrum, tol)
    assert len(calls) == sum(spectrum.dimensions) == 6
    first = superop._stacked_eigenvectors(spectrum, phi.algebra)
    second = superop._stacked_eigenvectors(spectrum, phi.algebra)
    assert first[0] == second[0] and first[0] is not second[0]
    assert not first[1].flags.writeable and not first[2].flags.writeable


CUBE_ROOT = np.exp(2j * np.pi / 3)


def _kron_conjugation(u: np.ndarray) -> Superoperator:
    # row-major vectorization: vec(u x u*) = kron(u, conj(u)) vec(x)
    return Superoperator(BlockAlgebra((len(u),)), np.kron(u, u.conj()))


def _seeded_conjugation(n: int) -> Superoperator:
    return _kron_conjugation(random_unitary(rng_for(40, n), n))


def _seeded_mixed_unitary(n: int, *tags: int) -> Superoperator:
    rng = rng_for(41, n, *tags)
    weights = rng.dirichlet(np.ones(3))
    return Superoperator(
        BlockAlgebra((n,)),
        sum(
            w * _kron_conjugation(random_unitary(rng, n)).matrix for w in weights
        ),
    )


SPECTRUM_MAPS = {
    **{
        f"ex1-{name}": (lambda lam=lam: build_example1(lam)[0])
        for name, lam in [
            ("generic", GENERIC),
            ("minus-one", -1.0),
            ("cube-root", CUBE_ROOT),
            ("cube-root-conj", np.conj(CUBE_ROOT)),
            ("i", 1j),
            ("minus-i", -1j),
        ]
    },
    **{
        f"ex2-{name}": (lambda lam=lam: build_example2(lam)[0])
        for name, lam in [
            ("generic", GENERIC),
            ("cube-root", CUBE_ROOT),
            ("cube-root-conj", np.conj(CUBE_ROOT)),
            ("i", 1j),
            ("minus-i", -1j),
        ]
    },
    "psi-swap": lambda: build_psi_swap()[0],
    **{f"conjugation-n{n}": (lambda n=n: _seeded_conjugation(n)) for n in (3, 4, 5, 6)},
    "mixed-unitary-n4": lambda: _seeded_mixed_unitary(4),
}


def _null_space_spectrum(phi, tol):
    """Reference peripheral spectrum: one SVD of (matrix - lambda id) per
    cluster of eigenvalues, as (value, basis columns) pairs."""
    values = [
        complex(v)
        for v in np.linalg.eigvals(phi.matrix)
        if abs(abs(v) - 1.0) <= superop.PERIPHERAL_TOL
    ]
    points = []
    for value, spread, _ in superop._cluster_values(values, superop.MERGE_TOL):
        floor = spread + tol.rank_tol * max(1.0, spread)
        kernel = null_space(phi.matrix - value * np.eye(phi.algebra.dim), tol, atol=floor)
        points.append((value, np.column_stack(kernel)))
    return points


def _basis_columns(point: SpectralPoint) -> np.ndarray:
    return np.column_stack([vectorize(x) for x in point.basis])


@pytest.mark.parametrize("name", sorted(SPECTRUM_MAPS))
def test_point_spectrum_matches_null_space_reference(name, tol):
    phi = SPECTRUM_MAPS[name]()
    spectrum = point_spectrum(phi, tol)
    reference = _null_space_spectrum(phi, tol)
    assert len(spectrum.points) == len(reference)
    for point, (value, kernel) in zip(spectrum.points, reference):
        assert abs(point.value - value) <= 1e-12
        assert point.dimension == kernel.shape[1]
        q = _basis_columns(point)
        assert max_norm(q.conj().T @ q - np.eye(point.dimension)) <= 1e-12
        assert max_norm(phi.matrix @ q - point.value * q) <= 1e-7
        assert max_norm(q @ q.conj().T - kernel @ kernel.conj().T) <= 1e-9


def test_point_spectrum_falls_back_to_null_space_at_a_jordan_block(monkeypatch, tol):
    # 1, a 2x2 Jordan block at i and a decaying 1/2, in a seeded unitary frame
    m = np.diag([1.0, 1j, 1j, 0.5])
    m[1, 2] = 1.0
    q = random_unitary(rng_for(42), 4)
    phi = Superoperator(BlockAlgebra((1, 1, 1, 1)), q @ m @ q.conj().T)
    fallbacks = []

    def counted_null_space(*args, **kwargs):
        fallbacks.append(args[0])
        return null_space(*args, **kwargs)

    monkeypatch.setattr(superop, "null_space", counted_null_space)
    spectrum = point_spectrum(phi, tol)
    assert len(fallbacks) == 1
    point = spectrum.find(1j)
    assert point is not None
    assert point.dimension == 1
    x = point.basis[0]
    assert element_norm(phi(x) - complex(point.value) * x) <= 1e-12
    assert spectrum.find(1.0).dimension == 1


def _real_in_hermitian_basis_map() -> Superoperator:
    """A seeded map on Mat(2) + Mat(3) that is real in the Hermitian basis:
    R = Q B Q^T with Q orthogonal and B holding 1 twice, -1, two equal
    rotations and a decaying part. The first column of Q is the direction of
    the identity, so the dual fixes the maximally mixed state."""
    algebra = BlockAlgebra((2, 3))
    rng = rng_for(44)
    one = to_hermitian_basis(algebra, vectorize(algebra.identity())).real
    g = rng.standard_normal((algebra.dim, algebra.dim))
    g[:, 0] = one
    q, _ = np.linalg.qr(g)
    c, s = np.cos(0.7), np.sin(0.7)
    b = np.zeros((algebra.dim, algebra.dim))
    b[:3, :3] = np.diag([1.0, 1.0, -1.0])
    b[3:5, 3:5] = b[5:7, 5:7] = [[c, -s], [s, c]]
    b[7:9, 7:9] = 0.6 * np.array([[s, c], [-c, s]])
    b[9:, 9:] = np.diag([0.5, 0.2, -0.3, 0.1])
    t_star = to_hermitian_basis(algebra, np.eye(algebra.dim))
    return Superoperator(algebra, from_hermitian_basis(algebra, q @ b @ q.T @ t_star))


REAL_ROUTE_MAPS = {
    "mixed-unitary-n4": lambda: _seeded_mixed_unitary(4),
    "conjugation-n5": lambda: _seeded_conjugation(5),
    "real-in-hermitian-basis-2-3": _real_in_hermitian_basis_map,
}


def _projector(point: SpectralPoint) -> np.ndarray:
    q = _basis_columns(point)
    return q @ q.conj().T


def _recorded_eig_inputs(monkeypatch) -> list:
    inputs = []

    def recorded(m):
        inputs.append(m.dtype)
        return general_eig(m)

    monkeypatch.setattr(superop, "general_eig", recorded)
    return inputs


@pytest.mark.parametrize("name", sorted(REAL_ROUTE_MAPS))
def test_real_route_matches_the_complex_route(name, monkeypatch, tol):
    phi = REAL_ROUTE_MAPS[name]()
    inputs = _recorded_eig_inputs(monkeypatch)
    spectrum = point_spectrum(phi, tol)
    state = invariant_state(phi, tol, spectrum)
    assert inputs == [np.float64]
    # peripheral values come out in exact conjugate pairs
    assert set(spectrum.values) == {v.conjugate() for v in spectrum.values}

    monkeypatch.setattr(superop, "_real_form", lambda phi, tol: None)
    reference = point_spectrum(phi, tol)
    reference_state = invariant_state(phi, tol, reference)
    assert inputs == [np.float64, np.complex128]
    assert spectrum.dimensions == reference.dimensions
    for point, want in zip(spectrum.points, reference.points):
        assert abs(point.value - want.value) <= 1e-12
        assert max_norm(_projector(point) - _projector(want)) <= 1e-9
        q = _basis_columns(point)
        assert max_norm(phi.matrix @ q - point.value * q) <= 1e-7
    assert element_norm(state.rho - reference_state.rho) <= 1e-12
    assert state.faithful == reference_state.faithful
    if len(phi.algebra.blocks) == 1:
        choi = choi_matrix(phi)
        least = np.linalg.eigh(0.5 * (choi + choi.conj().T))[0][0]
        assert abs(complete_positivity(phi, tol)[1] - least) <= 1e-12


def _hermiticity_defect_map(tol, n: int = 4) -> Superoperator:
    """The seeded mixed-unitary map on Mat(n) plus an anti-Hermitian-valued
    term of relative size 10 eq_tol in the Hermitian basis."""
    phi = _seeded_mixed_unitary(n)
    algebra = phi.algebra
    bump = np.zeros((algebra.dim, algebra.dim))
    bump[1, 2] = 10.0 * tol.eq_tol * max(1.0, max_norm(phi.hermitian_form[0]))
    t_star = to_hermitian_basis(algebra, np.eye(algebra.dim))
    return Superoperator(algebra, phi.matrix + 1j * from_hermitian_basis(algebra, bump @ t_star))


def test_maps_that_break_hermiticity_take_the_complex_route(monkeypatch, tol):
    inputs = _recorded_eig_inputs(monkeypatch)
    ex2c = build_example2_continuous(GENERIC).builder(0.5)
    bumped = _hermiticity_defect_map(tol)
    assert bumped.hermitian_form[1] == pytest.approx(10.0 * tol.eq_tol, rel=1e-6)
    assert ex2c.hermitian_form[1] > 0.1
    for phi in (ex2c, bumped):
        assert superop._real_form(phi, tol) is None
        point_spectrum(phi, tol)
    assert inputs == [np.complex128, np.complex128]


CERTIFIED_MAPS = {
    **{
        f"mixed-unitary-n{n}-s{seed}": (lambda n=n, seed=seed: _seeded_mixed_unitary(n, seed))
        for n in (6, 8, 12, 16)
        for seed in (1, 2, 3)
    },
    # breaks Hermiticity, so the certificate runs on the complex matrix
    "complex-route-n6": lambda: _hermiticity_defect_map(Tolerances(), 6),
}


@pytest.mark.parametrize("name", sorted(CERTIFIED_MAPS))
def test_certified_route_matches_the_eig_route(name, monkeypatch, tol):
    phi = CERTIFIED_MAPS[name]()
    assert phi.algebra.dim >= superop._CERTIFICATE_MIN_DIM
    assert (superop._real_form(phi, tol) is None) is name.startswith("complex-route")
    calls = route_calls(monkeypatch)
    spectrum = point_spectrum(phi, tol)
    # every map here is unital, so the identity is the eigenvector, found
    # without inverse iteration
    assert calls == ["extra_starts", "eigvalsh"]
    one = vectorize(phi.algebra.identity()) / math.sqrt(phi.algebra.total_size)
    assert max_norm(_basis_columns(spectrum.points[0])[:, 0] - one) <= 1e-15
    state = invariant_state(phi, tol, spectrum)

    monkeypatch.setattr(superop, "_CERTIFICATE_MIN_DIM", math.inf)
    del calls[:]
    reference = point_spectrum(phi, tol)
    assert calls == ["general_eig"]
    reference_state = invariant_state(phi, tol, reference)
    assert spectrum.dimensions == reference.dimensions == (1,)
    (point,), (want,) = spectrum.points, reference.points
    assert abs(point.value - want.value) <= 1e-12
    assert max_norm(_projector(point) - _projector(want)) <= 1e-9
    # the basis vector's entry of largest modulus is real and positive
    q = _basis_columns(point)[:, 0]
    top = q[np.argmax(np.abs(q))]
    assert top.real > 0 and abs(top.imag) <= 1e-15
    assert element_norm(state.rho - reference_state.rho) <= tol.eq_tol
    assert state.faithful is reference_state.faithful
    choi = choi_matrix(phi)
    least = np.linalg.eigh(0.5 * (choi + choi.conj().T))[0][0]
    assert abs(complete_positivity(phi, tol)[1] - least) <= 1e-12


def test_a_kernel_bound_above_the_peripheral_tol_declines_the_identity(monkeypatch):
    # the kernel rule's bound rank_tol * (largest column norm of a - id)
    # exceeds peripheral_tol, so it no longer excludes a second kernel
    # direction, and the search runs as it would without the candidate
    tol = Tolerances(rank_tol=1e-6)
    phi = _seeded_mixed_unitary(8)
    real = superop._real_form(phi, tol)
    assert superop._kernel_bound(real, tol) > superop.PERIPHERAL_TOL
    tried, searches = [], []
    rule, fixed_space = superop._passes_kernel_rule, superop._fixed_space

    def recorded_rule(*args):
        tried.append(args)
        return rule(*args)

    def recorded_search(*args):
        searches.append(args[2])
        return fixed_space(*args)

    monkeypatch.setattr(superop, "_passes_kernel_rule", recorded_rule)
    monkeypatch.setattr(superop, "_fixed_space", recorded_search)
    spectrum = point_spectrum(phi, tol)
    assert tried == [] and searches == [superop._kernel_bound(real, tol)]
    assert spectrum.dimensions == (1,) and abs(spectrum.values[0] - 1.0) <= 1e-12


@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_kernel_bound_is_the_largest_column_norm_without_a_square_temporary(
    transpose, dtype, tol
):
    d = 200
    rng = rng_for(62, int(transpose))
    a = np.eye(d) + 0.1 * rng.standard_normal((d, d))
    if dtype is np.complex128:
        a = a + 0.1j * rng.standard_normal((d, d))
    a = a.T if transpose else a
    want = tol.rank_tol * np.linalg.norm(a - np.eye(d), axis=0).max()
    tracemalloc.start()
    try:
        bound = superop._kernel_bound(a, tol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bound == pytest.approx(want, rel=1e-12)
    # a few length-d vectors, far below one d x d float64 matrix (320 kB)
    assert peak < 8 * d * d // 10


@pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
def test_isometries_leave_the_certificate_at_its_early_exit(n, monkeypatch, tol):
    # conjugations x -> u x u*, the peripheral-ladder maps: every singular
    # value is 1, so no Gram eigenvalues are computed
    calls = route_calls(monkeypatch)
    point_spectrum(_seeded_conjugation(n), tol)
    assert "eigvalsh" not in calls and calls.count("general_eig") == 1
    assert ("extra_starts" in calls) is (n * n >= superop._CERTIFICATE_MIN_DIM)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_below_the_floor_neither_the_probe_nor_the_gram_eigenvalues_run(
    n, monkeypatch, tol
):
    assert n * n < superop._CERTIFICATE_MIN_DIM
    calls = route_calls(monkeypatch)
    point_spectrum(_seeded_mixed_unitary(n), tol)
    assert calls == ["general_eig"]


def test_point_spectrum_finds_values_within_its_own_merge_radius():
    # diag(1, 0.999998, 0.5) on three 1x1 blocks at radius 1e-5: the point at
    # 0.999999 lies 1e-6 from 1, outside MERGE_TOL but inside the radius the
    # spectrum was merged with. The dual fixes only e0.
    phi = Superoperator(BlockAlgebra((1, 1, 1)), np.diag([1.0, 0.999998, 0.5]))
    loose = Tolerances(eq_tol=1e-5)
    spectrum = point_spectrum(phi, loose, 1e-5, 1e-5)
    assert spectrum.merge_tol == 1e-5 and spectrum.dimensions == (2,)
    assert spectrum.find(1.0) is spectrum.points[0]
    assert spectrum.find(1.0, superop.MERGE_TOL) is None
    # a spectrum built by hand looks values up at MERGE_TOL
    assert PointSpectrum(spectrum.points).find(1.0) is None
    state = invariant_state(phi, loose, spectrum)
    assert state.faithful is False
    e0 = phi.algebra.element([[[1.0]], [[0.0]], [[0.0]]])
    assert element_norm(state.rho - e0) <= 1e-12
    assert not ergodicity_check(phi, loose, spectrum)


def _null_space_state(phi, tol) -> InvariantState:
    """Reference invariant state by one full SVD: the kernel of (dual - id)
    as :func:`~perispec.algebra.null_space` finds it, in the Hermitian basis
    when the map preserves Hermiticity, the maximally mixed state projected
    onto it, and the checks of invariant_state."""
    algebra = phi.algebra
    mixed = vectorize(algebra.scalar(1.0 / algebra.total_size))
    real = superop._real_form(phi, tol)
    if real is None:
        kernel = null_space(phi.matrix.conj().T - np.eye(algebra.dim), tol)
    else:
        kernel = null_space(real.T - np.eye(algebra.dim), tol)
        mixed = mixed.real
    if not kernel:
        raise NoPositiveFixedState("the dual map has no fixed point")
    projected = sum(np.vdot(vec, mixed) * vec for vec in kernel)
    if real is not None:
        projected = from_hermitian_basis(algebra, projected)
    candidate = devectorize(algebra, projected)
    herm_defect = element_norm(candidate - adjoint(candidate))
    if herm_defect > tol.eq_tol:
        raise NoPositiveFixedState(
            f"projected fixed point is not Hermitian (defect {herm_defect:.3e})"
        )
    candidate = 0.5 * (candidate + adjoint(candidate))
    trace = candidate.trace()
    if abs(trace) <= tol.eq_tol:
        raise NoPositiveFixedState("projected fixed point has vanishing trace")
    rho = (1.0 / trace) * candidate
    fixed_residual = element_norm(
        devectorize(algebra, phi.matrix.conj().T @ vectorize(rho)) - rho
    )
    if fixed_residual > max(tol.eq_tol, 10.0 * tol.rank_tol):
        raise NoPositiveFixedState(
            f"candidate drifts under the dual map by {fixed_residual:.3e}"
        )
    least = min(float(np.linalg.eigvalsh(p)[0]) for p in rho.parts)
    if least < -tol.psd_tol:
        raise NoPositiveFixedState(
            f"fixed point of the dual map is not PSD (least eigenvalue {least:.3e})"
        )
    return InvariantState(rho=rho, faithful=least > tol.rank_tol)


def _diagonal_reader() -> Superoperator:
    """x -> x_00 1 on Mat(2): unital and positive, and its dual fixes only the
    pure state |0><0|, which is not faithful."""
    m = np.zeros((4, 4))
    m[0, 0] = m[3, 0] = 1.0
    return Superoperator(BlockAlgebra((2,)), m)


INVARIANT_STATE_MAPS = {
    "ex1-generic": lambda: build_example1(GENERIC)[0],
    "ex1-i": lambda: build_example1(1j)[0],
    "ex2-generic": lambda: build_example2(GENERIC)[0],
    "ex2-i": lambda: build_example2(1j)[0],
    # breaks Hermiticity, so the complex route runs
    "ex2c-t0.5": lambda: build_example2_continuous(GENERIC).builder(0.5),
    "psi-swap": lambda: build_psi_swap()[0],
    **{f"conjugation-n{n}": (lambda n=n: _seeded_conjugation(n)) for n in (3, 4, 5, 6)},
    "mixed-unitary-n4": lambda: _seeded_mixed_unitary(4),
    "mixed-unitary-n8": lambda: _seeded_mixed_unitary(8),
    "diagonal-reader": _diagonal_reader,
    "shrink": lambda: Superoperator(BlockAlgebra((2,)), 0.5 * np.eye(4)),
    # unital but not trace preserving, so the dual fixes another state
    "unital-kraus-n4": lambda: unital_kraus_map(rng_for(60, 4), 4),
}


def _state_or_error(build):
    try:
        return build()
    except NoPositiveFixedState as exc:
        return exc


@pytest.mark.parametrize("name", sorted(INVARIANT_STATE_MAPS))
def test_invariant_state_matches_the_null_space_reference(name, tol):
    phi = INVARIANT_STATE_MAPS[name]()
    spectrum = point_spectrum(phi, tol)
    state = _state_or_error(lambda: invariant_state(phi, tol, spectrum))
    reference = _state_or_error(lambda: _null_space_state(phi, tol))
    assert type(state) is type(reference)
    if isinstance(reference, NoPositiveFixedState):
        assert str(state) == str(reference)
        return
    assert element_norm(state.rho - reference.rho) <= tol.eq_tol
    assert state.faithful is reference.faithful
    # without a spectrum, invariant_state computes the same one itself
    again = invariant_state(phi, tol)
    for part, want in zip(again.rho.parts, state.rho.parts):
        assert part.tobytes() == want.tobytes()


def test_invariant_state_of_a_map_that_fixes_a_pure_state(tol):
    state = invariant_state(_diagonal_reader(), tol)
    assert not state.faithful
    pure = BlockAlgebra((2,)).element([np.diag([1.0, 0.0])])
    assert element_norm(state.rho - pure) <= 1e-15


@pytest.mark.parametrize(
    "name",
    ["ex2-generic", "ex2c-t0.5", "conjugation-n4", "mixed-unitary-n8", "unital-kraus-n4"],
)
def test_invariant_state_with_a_spectrum_runs_no_square_svd(name, monkeypatch, tol):
    # the dual of a trace-preserving map fixes the maximally mixed state, so
    # no kernel is searched and no SVD runs; the unital Kraus map searches
    # one, and has more dimensions than starts, so each thin SVD is not square
    phi = INVARIANT_STATE_MAPS[name]()
    one = vectorize(phi.algebra.identity())
    trace_preserving = max_norm(phi.matrix.conj().T @ one - one) <= tol.eq_tol
    assert trace_preserving is (name != "unital-kraus-n4")
    spectrum = point_spectrum(phi, tol)
    shapes, searches = [], []
    svd, fixed_space = np.linalg.svd, superop._fixed_space

    def recorded_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    def recorded_search(a, *args):
        searches.append(np.shape(a))
        return fixed_space(a, *args)

    def no_null_space(*args, **kwargs):
        raise AssertionError("null_space called")

    monkeypatch.setattr(np.linalg, "svd", recorded_svd)
    monkeypatch.setattr(superop, "_fixed_space", recorded_search)
    monkeypatch.setattr(superop, "null_space", no_null_space)
    state = invariant_state(phi, tol, spectrum)
    d = phi.algebra.dim
    if trace_preserving:
        assert searches == [] and shapes == []
        for part, n in zip(state.rho.parts, phi.algebra.blocks):
            assert max_norm(part - np.eye(n) / phi.algebra.total_size) <= 1e-15
    else:
        assert searches == [(d, d)]
        assert shapes and all(rows == d and cols < d for rows, cols in shapes)


def test_analyze_computes_the_spectrum_once(monkeypatch):
    calls = []
    compute = superop.point_spectrum

    def counted(*args, **kwargs):
        calls.append(args[0])
        return compute(*args, **kwargs)

    monkeypatch.setattr(superop, "point_spectrum", counted)
    monkeypatch.setattr(analysis, "point_spectrum", counted)
    phi = build_example2(GENERIC)[0]
    report = analyze(phi, samples=50)
    assert len(calls) == 1 and calls[0] is phi
    assert report["invariant_state"]["faithful"] is True


def test_invariant_state_without_a_point_at_one_raises_before_any_solve(
    monkeypatch, tol
):
    # ex1 with its point at 1 left out of the spectrum, as a peripheral_tol
    # below rounding could leave it out: ergodic reads the same point
    phi = build_example1(GENERIC)[0]
    spectrum = point_spectrum(phi, tol)
    spectrum = PointSpectrum(tuple(p for p in spectrum.points if p.value != 1.0))
    assert spectrum.find(1.0) is None
    routines = []
    monkeypatch.setattr(
        superop, "_lapack", lambda routine, *args, **kwargs: routines.append(routine)
    )
    with pytest.raises(NoPositiveFixedState, match="the dual map has no fixed point"):
        invariant_state(phi, tol, spectrum)
    assert routines == []
    assert not ergodicity_check(phi, tol, spectrum)


def _spectrum_with_eigenvectors(phi):
    return phi, point_spectrum(phi)


def _random_map_and_vectors():
    """A random map on Mat(2) + Mat(3) with non-eigenvectors as the basis, so
    that residuals are of order one; the nilpotent unit squares to zero."""
    algebra = BlockAlgebra((2, 3))
    rng = rng_for(43)
    phi = Superoperator(algebra, rng.standard_normal((algebra.dim, algebra.dim)))
    nilpotent = algebra.element([np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((3, 3))])
    spectrum = PointSpectrum(
        (
            SpectralPoint(1.0 + 0.0j, (random_element(algebra, rng), nilpotent)),
            SpectralPoint(complex(GENERIC), (random_element(algebra, rng),)),
        )
    )
    return phi, spectrum


CLOSURE_CASES = {
    "ex2-generic": lambda: _spectrum_with_eigenvectors(build_example2(GENERIC)[0]),
    "ex2-i": lambda: _spectrum_with_eigenvectors(build_example2(1j)[0]),
    "conjugation-n4": lambda: _spectrum_with_eigenvectors(_seeded_conjugation(4)),
    "random-two-block": _random_map_and_vectors,
}


def _star_reference(phi, spectrum):
    """Per-vector loop: adjoint, apply, residual against the conjugate value."""
    entries = []
    for point in spectrum.points:
        for index, x in enumerate(point.basis):
            xs = adjoint(x)
            drift = apply(phi, xs) - complex(point.value).conjugate() * xs
            entries.append((point.value, index, element_norm(drift)))
    return entries


def _jordan_reference(phi, spectrum, tol):
    """Per-pair loop over all ordered pairs of basis vectors."""
    entries = []
    for p1 in spectrum.points:
        for i, x in enumerate(p1.basis):
            for p2 in spectrum.points:
                for j, y in enumerate(p2.basis):
                    product = 0.5 * (x @ y + y @ x)
                    drift = apply(phi, product) - p1.value * p2.value * product
                    vanished = element_norm(product) <= tol.eq_tol
                    entries.append(
                        (p1.value, i, p2.value, j, element_norm(drift), vanished)
                    )
    return entries


@pytest.mark.parametrize("name", sorted(CLOSURE_CASES))
def test_batched_closure_checks_match_per_pair_loops(name, tol):
    phi, spectrum = CLOSURE_CASES[name]()

    star = star_closure_check(phi, spectrum)
    expected = _star_reference(phi, spectrum)
    assert star.labels == [e[:2] for e in expected]
    assert star.residual.shape == (len(expected),)
    for got, want in zip(star.residual.tolist(), expected):
        assert abs(got - want[2]) <= 1e-12
    assert star.max_residual == max(star.residual.tolist())
    assert abs(star.max_residual - max(e[2] for e in expected)) <= 1e-12

    # a vanished pair closes vacuously: its residual is not computed and
    # reads 0.0, and the maximum runs over the pairs that do not vanish
    jordan = jordan_closure_check(phi, spectrum, tol)
    expected = _jordan_reference(phi, spectrum, tol)
    assert [e[:4] for e in jordan.entries] == [e[:4] for e in expected]
    assert [e[5] for e in jordan.entries] == [e[5] for e in expected]
    for got, want in zip(jordan.entries, expected):
        if want[5]:
            assert got[4] == 0.0
        else:
            assert abs(got[4] - want[4]) <= 1e-12
    assert jordan.vanished_count == sum(1 for e in expected if e[5])
    assert jordan.max_residual == max(e[4] for e in jordan.entries)
    kept = [e[4] for e in expected if not e[5]]
    assert abs(jordan.max_residual - max(kept, default=0.0)) <= 1e-12


def _full_row_residuals(phi, spectrum, tol):
    """Residual and vanished masks of every ordered pair, with each row's
    products passed to ``_row_drift`` whole, vanished ones included."""
    labels, values, rows = superop._stacked_eigenvectors(spectrum, phi.algebra)
    stacks = superop._block_stacks(phi.algebra, rows)
    count = len(labels)
    residual = np.zeros((count, count))
    vanished = np.zeros((count, count), dtype=bool)
    for a in range(count):
        products = superop._stacked_vectors(
            [0.5 * (s[a] @ s[a:] + s[a:] @ s[a]) for s in stacks]
        )
        drift = superop._row_drift(phi, products, values[a] * values[a:])
        residual[a, a:] = residual[a:, a] = drift
        vanished[a, a:] = vanished[a:, a] = np.max(np.abs(products), axis=1) <= tol.eq_tol
    return residual, vanished


JORDAN_SKIP_CASES = {
    "ex2-generic": lambda: build_example2(GENERIC)[0],
    "conjugation-n5": lambda: _seeded_conjugation(5),
}


@pytest.mark.parametrize("name", sorted(JORDAN_SKIP_CASES))
def test_jordan_closure_skips_vanished_products_with_the_same_bits(name, tol):
    phi = JORDAN_SKIP_CASES[name]()
    spectrum = point_spectrum(phi, tol)
    report = jordan_closure_check(phi, spectrum, tol)
    full, vanished = _full_row_residuals(phi, spectrum, tol)
    kept = ~vanished
    assert (report.vanished == vanished).all()
    assert 0 < report.vanished_count < vanished.size
    assert report.residual[kept].tobytes() == full[kept].tobytes()
    assert (report.residual[vanished] == 0.0).all()
    assert report.max_residual == full[kept].max()


@pytest.mark.parametrize("name", sorted(JORDAN_SKIP_CASES))
def test_jordan_closure_multiplies_only_products_that_do_not_vanish(
    monkeypatch, name, tol
):
    phi = JORDAN_SKIP_CASES[name]()
    spectrum = point_spectrum(phi, tol)
    received = []
    real_row_drift = superop._row_drift

    def counting_row_drift(phi, rows, values):
        received.append(len(rows))
        return real_row_drift(phi, rows, values)

    monkeypatch.setattr(superop, "_row_drift", counting_row_drift)
    report = jordan_closure_check(phi, spectrum, tol)
    count = len(report.labels)
    assert sum(received) == np.triu(~report.vanished).sum()
    assert sum(received) < count * (count + 1) // 2


def _greedy_clusters(values, radius):
    """Reference for superop._cluster_values: each value, in sort-key
    order, is compared with every cluster's mean recomputed from its
    members."""
    clusters = []
    order = sorted(range(len(values)), key=lambda k: superop._sort_key(values[k]))
    for k in order:
        for cluster in clusters:
            mean = sum(values[m] for m in cluster) / len(cluster)
            if abs(values[k] - mean) <= radius:
                cluster.append(k)
                break
        else:
            clusters.append([k])
    merged = []
    for cluster in clusters:
        mean = sum(values[m] for m in cluster) / len(cluster)
        merged.append((mean, max(abs(values[m] - mean) for m in cluster), cluster))
    return sorted(merged, key=lambda entry: superop._sort_key(entry[0]))


def _bitwise(clusters):
    # repr keeps every bit of a float, the sign of zero included
    return [(repr(mean), repr(spread), members) for mean, spread, members in clusters]


def _seeded_value_sets():
    rng = rng_for(45)
    radius = superop.MERGE_TOL
    sets = {}
    for trial in range(5):
        centers = np.exp(2j * np.pi * rng.random(12))
        picks = rng.integers(0, 12, 120)
        noise = radius * rng.random(120) * np.exp(2j * np.pi * rng.random(120))
        sets[f"noisy-{trial}"] = [complex(z) for z in centers[picks] + noise]
    # chains with steps of 0.5 to 2 merge radii along several directions,
    # so that values sit on both sides of the radius from a moving mean
    for angle in (0.0, 0.5 * np.pi, 0.3, 2.0, np.pi):
        steps = radius * rng.uniform(0.5, 2.0, 60) * np.exp(1j * angle)
        sets[f"chain-{angle:.2f}"] = [complex(z) for z in 1j + np.cumsum(steps)]
    # equal real parts, and real parts a rounding of the sort key apart
    sets["same-real"] = [complex(0.5, 0.1 * k * radius) for k in range(40)]
    sets["key-rounding"] = [complex(0.5 + k * 3e-13, (-1) ** k * radius) for k in range(40)]
    sets["signed-zeros"] = [complex(1.0, 0.0), complex(1.0, -0.0), complex(-0.0, 1.0)]
    # the second and third values share a sort key, so the third comes later
    # though its real part is smaller, and it still joins the first cluster
    sets["sort-key-tie"] = [
        complex(0.5, 0.0),
        complex(0.5 + radius + 4e-13, -0.5),
        complex(0.5 + radius - 1e-14, 0.0),
    ]
    sets["empty"] = []
    return sets


SEEDED_VALUE_SETS = _seeded_value_sets()


@pytest.mark.parametrize("name", sorted(SEEDED_VALUE_SETS))
def test_cluster_sweep_matches_the_greedy_reference(name):
    values = SEEDED_VALUE_SETS[name]
    for radius in (superop.MERGE_TOL, 0.5 * superop.MERGE_TOL, 2.0 * superop.MERGE_TOL):
        got = superop._cluster_values(values, radius)
        assert _bitwise(got) == _bitwise(_greedy_clusters(values, radius))


def test_cluster_sweep_matches_the_greedy_reference_on_preset_manifests(monkeypatch):
    calls = []
    sweep = superop._cluster_values

    def recorded(values, radius):
        calls.append((list(values), radius))
        return sweep(values, radius)

    monkeypatch.setattr(presets, "_cluster_values", recorded)
    lambdas = [GENERIC, CUBE_ROOT, np.conj(CUBE_ROOT), 1j, -1j]
    lambdas += [1j * np.exp(1j * offset) for offset in (1e-9, 3e-8, -1e-8)]
    lambdas += list(np.exp(2j * np.pi * rng_for(46).random(6)))
    for lam in lambdas:
        build_example1(lam)
        build_example2(lam)
    build_example1(-1.0)
    assert len(calls) == 2 * len(lambdas) + 1
    for values, radius in calls:
        assert _bitwise(sweep(values, radius)) == _bitwise(_greedy_clusters(values, radius))


def _spectrum_of(*values: complex) -> PointSpectrum:
    return PointSpectrum(tuple(SpectralPoint(v, ()) for v in values))


@pytest.mark.parametrize(
    "values,expected",
    [
        ((1.0,), True),
        ((1.0, -1.0), True),
        ((1.0, 1j, -1.0, -1j), True),
        ((1.0, GENERIC, np.conj(GENERIC)), False),
        ((GENERIC, np.conj(GENERIC)), False),
    ],
)
def test_group_closure_frozen_sets(values, expected):
    report = group_closure_report(_spectrum_of(*values))
    assert report.is_group == expected


def test_group_closure_reports_structural_reasons():
    no_identity = group_closure_report(_spectrum_of(GENERIC, np.conj(GENERIC)))
    assert not no_identity.has_identity
    no_conjugates = group_closure_report(_spectrum_of(1.0, 1j))
    assert not no_conjugates.conjugation_closed
    missing = group_closure_report(
        _spectrum_of(1.0, GENERIC, np.conj(GENERIC))
    ).missing
    assert any(
        abs(l - GENERIC) < 1e-9 and abs(m - GENERIC) < 1e-9 for l, m, _ in missing
    )


def _group_closure_loop(spectrum, closure_tol=superop.MERGE_TOL):
    """Per-pair reference: scan every value for each product."""
    values = list(spectrum.values)

    def present(z):
        return any(abs(z - v) <= closure_tol for v in values)

    missing = tuple(
        (lam, mu, lam * mu) for lam in values for mu in values if not present(lam * mu)
    )
    has_identity = present(1.0 + 0.0j)
    conjugation_closed = all(present(v.conjugate()) for v in values)
    is_group = has_identity and conjugation_closed and not missing
    return is_group, has_identity, conjugation_closed, missing


def _values_near_the_radius():
    # each cube root and a copy of it at 0.5, 0.99, 1.01 and 2 merge radii in
    # several directions, so products land on both sides of the radius
    values = []
    for k in range(3):
        root = np.exp(2j * np.pi * k / 3)
        values.append(complex(root))
        for scale, angle in [(0.5, 0.3), (0.99, 2.0), (1.01, 4.0), (2.0, 5.5)]:
            values.append(complex(root + scale * superop.MERGE_TOL * np.exp(1j * angle)))
    return _spectrum_of(*sorted(values, key=lambda v: (v.real, v.imag)))


GROUP_CASES = {
    "ex1-generic": lambda: point_spectrum(build_example1(GENERIC)[0]),
    "ex2-generic": lambda: point_spectrum(build_example2(GENERIC)[0]),
    "conjugation-n6": lambda: point_spectrum(_seeded_conjugation(6)),
    "near-the-radius": _values_near_the_radius,
}


@pytest.mark.parametrize("name", sorted(GROUP_CASES))
def test_group_closure_matches_the_per_pair_loop(name):
    spectrum = GROUP_CASES[name]()
    report = group_closure_report(spectrum)
    got = (report.is_group, report.has_identity, report.conjugation_closed, report.missing)
    assert got == _group_closure_loop(spectrum)
    assert report.missing


def test_cyclic_phase_conjugation_spectrum_is_a_group(tol):
    n = 3
    omega = np.exp(2j * np.pi / n)
    algebra = BlockAlgebra((n,))
    phi = _conjugation(algebra, np.diag([omega**k for k in range(n)]))
    spectrum = point_spectrum(phi, tol)
    assert len(spectrum.values) == n
    assert sum(spectrum.dimensions) == n * n
    assert group_closure_report(spectrum).is_group


def test_semigroup_law_holds_for_continuous_families():
    pairs = [(0.3, 1.7), (2.0, 2.0), (0.01, 4.99)]
    for family in (
        build_example1_continuous(GENERIC),
        build_example2_continuous(GENERIC),
    ):
        assert semigroup_law_check(family, pairs) < 1e-12
        assert family.zero_time_note is not None


def test_semigroup_law_detects_violations(mat2):
    phi, _ = build_example1(GENERIC)
    broken = ContinuousFamily(
        mat2, lambda t: Superoperator(mat2, (1.0 + t) * phi.matrix)
    )
    assert semigroup_law_check(broken, [(1.0, 1.0)]) > 0.1


def test_analyze_reports_whether_a_family_starts_at_the_identity(mat2, tol):
    phases = np.array([0.0, 1.0])
    family = ContinuousFamily(
        mat2, lambda t: _conjugation(mat2, np.diag(np.exp(1j * t * phases)))
    )
    report = analyze(family.builder(1.0), tol, samples=100, family=family)
    continuous = report["continuous"]
    assert continuous["identity_at_zero"] is True
    assert continuous["semigroup_max_residual"] < 1e-12
    assert "zero_time_note" not in continuous


def test_continuous_eigen_check_passes_the_principal_rate_on_ex1():
    family = build_example1_continuous(GENERIC)
    _, manifest = build_example1(GENERIC)
    index = next(
        k
        for k, v in enumerate(manifest.expected_spectrum)
        if abs(v - GENERIC) < 1e-9
    )
    x = manifest.canonical_eigenvectors[index][0]
    ts = [0.25, 0.5, 1.0, 2.5, 4.0]
    (residual,) = continuous_eigen_check(family, [x], [np.angle(GENERIC)], ts)
    assert residual < 1e-12


def test_continuous_eigen_check_needs_winding_phase_beyond_principal_branch():
    family = build_example2_continuous(GENERIC)
    _, manifest = build_example2(GENERIC)
    index = next(
        k
        for k, v in enumerate(manifest.expected_spectrum)
        if abs(v - (-GENERIC)) < 1e-9
    )
    x = manifest.canonical_eigenvectors[index][0]
    winding = manifest.continuous_phases[index][0]
    ts = [0.25, 0.75, 1.5, 3.0]
    # the sector winds faster than the principal argument of its eigenvalue
    principal, wound = continuous_eigen_check(
        family, [x, x], [np.angle(-GENERIC), winding], ts
    )
    assert principal > 0.1
    assert wound < 1e-12


def test_continuous_eigen_check_builds_each_map_once_per_time():
    family = build_example2_continuous(GENERIC)
    _, manifest = build_example2(GENERIC)
    vectors = [x for basis in manifest.canonical_eigenvectors for x in basis]
    phases = [phase for rates in manifest.continuous_phases for phase in rates]
    assert len(vectors) == 6
    times = []

    def builder(t):
        times.append(t)
        return family.builder(t)

    ts = [0.5, 1.25, 3.0, 4.75]
    counted = ContinuousFamily(family.algebra, builder)
    residuals = continuous_eigen_check(counted, vectors, phases, ts)
    assert times == ts
    assert len(residuals) == 6 and max(residuals) < 1e-12


def test_continuous_eigen_check_rejects_a_vector_from_another_algebra(two_blocks):
    family = build_example1_continuous(GENERIC)
    x = random_element(two_blocks, rng_for(90))
    with pytest.raises(AlgebraMismatch):
        continuous_eigen_check(family, [x], [0.0], [1.0])


def _eigen_checks_reference(family, manifest, seed):
    """eigen_checks as analyze made them when each eigenvector was checked
    alone, through a builder cache so that each map was built once."""
    ts = [float(v) for v in np.random.default_rng([seed, 202]).uniform(0.01, 5.0, 10)]
    builder = functools.lru_cache(None)(family.builder)
    checks = []
    for value, basis, phases in zip(
        manifest.expected_spectrum,
        manifest.canonical_eigenvectors,
        manifest.continuous_phases,
    ):
        for index, (x, phase) in enumerate(zip(basis, phases)):
            v = vectorize(x)
            worst = 0.0
            for t in ts:
                expected = cmath.exp(1j * phase * t)
                worst = max(worst, max_norm(builder(t).matrix @ v - expected * v))
            checks.append(
                {
                    "value": complex_to_pair(value),
                    "index": index,
                    "phase": float(phase),
                    "max_residual": float(worst),
                }
            )
    return checks


def _bits(checks):
    return [
        (c["value"], c["index"], c["phase"].hex(), c["max_residual"].hex())
        for c in checks
    ]


@pytest.mark.parametrize("seed", [1, 7, 42])
@pytest.mark.parametrize(
    "builders",
    [
        (build_example1_continuous, build_example1),
        (build_example2_continuous, build_example2),
    ],
)
def test_eigen_checks_keep_the_bits_of_the_per_vector_loop(builders, seed, tol):
    build_family, build = builders
    # angles off 0 and 180 degrees, where ex2 takes no lambda0, plus i and -i
    lambdas = [cmath.exp(1j * math.radians(7.5 + 14.4 * k)) for k in range(25)]
    for lam in [*lambdas, 1j, -1j]:
        family = build_family(lam)
        _, manifest = build(lam)
        entry = _continuous_entry(family, manifest, 1.0, seed, tol)
        reference = _eigen_checks_reference(family, manifest, seed)
        assert _bits(entry["eigen_checks"]) == _bits(reference)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.0, -float("inf"))])
def test_superoperator_rejects_entries_that_are_not_finite(mat2, bad):
    m = np.eye(mat2.dim, dtype=np.complex128)
    m[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        Superoperator(mat2, m)


@pytest.mark.parametrize("shape", [(4, 3), (3, 3), (16,), (2, 4, 4)])
def test_superoperator_rejects_wrong_shapes(mat2, shape):
    with pytest.raises(DimensionMismatch):
        Superoperator(mat2, np.zeros(shape))


def test_superoperator_keeps_no_reference_to_its_input(mat2):
    m = np.eye(mat2.dim)
    phi = Superoperator(mat2, m)
    m[:] = 7.0
    assert np.array_equal(phi.matrix, np.eye(mat2.dim))
    assert_frozen(phi.matrix)


def test_maps_and_elements_built_inside_perispec_are_frozen(two_blocks):
    phi, _ = build_example2(GENERIC)
    family = build_example2_continuous(GENERIC)
    loaded = load_map_file(explicit_map_dict(phi)).phi
    for matrix in (phi.matrix, family.builder(0.5).matrix, loaded.matrix):
        assert_frozen(matrix)
    x = random_element(two_blocks, rng_for(92))
    spectrum = point_spectrum(phi)
    built = [apply(phi, x), invariant_state(phi).rho]
    built += [v for point in spectrum.points for v in point.basis]
    for element in built:
        for part in element.parts:
            assert_frozen(part)
