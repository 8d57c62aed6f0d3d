"""Built-in map families: manifests, regimes, continuous extensions."""

import cmath

import numpy as np
import pytest

from perispec import presets
from perispec import (
    BadLambda0,
    BlockAlgebra,
    build_example1,
    build_example1_continuous,
    build_example2,
    build_example2_continuous,
    build_psi_swap,
    element_norm,
    ergodicity_check,
    group_closure_report,
    invariant_state,
    max_norm,
    point_spectrum,
    semigroup_law_check,
    unit_phase_power,
    unitality_check,
    vectorize,
)

from conftest import from_action

GENERIC = cmath.exp(2j * cmath.pi / 5)


def _values_match(computed, expected, tol=1e-9):
    return len(computed) == len(expected) and all(
        abs(a - b) <= tol for a, b in zip(computed, expected)
    )


def test_unit_phase_power_is_exact_at_integer_times():
    lam = cmath.exp(1.234j)
    assert unit_phase_power(lam, 1.0) == lam
    assert unit_phase_power(lam, 3.0) == lam**3
    assert unit_phase_power(lam, 0.0) == 1.0 + 0.0j


def test_unit_phase_power_uses_principal_branch_between_integers():
    lam = 1j
    assert unit_phase_power(lam, 0.5) == pytest.approx(
        cmath.exp(1j * cmath.pi / 4), abs=1e-15
    )
    assert unit_phase_power(-1.0 + 0.0j, 0.5) == pytest.approx(1j, abs=1e-15)


@pytest.mark.parametrize(
    "build,bad",
    [
        (build_example1, 1.0 + 0.0j),
        (build_example1, 0.5 + 0.0j),
        (build_example1, 1.1j),
        (build_example2, 1.0 + 0.0j),
        (build_example2, -1.0 + 0.0j),
        (build_example2, 0.3 + 0.4j),
        (build_example1_continuous, 1.0 + 0.0j),
        (build_example1_continuous, 0.5 + 0.0j),
        (build_example1_continuous, 1.1j),
        (build_example2_continuous, 1.0 + 0.0j),
        (build_example2_continuous, -1.0 + 0.0j),
        (build_example2_continuous, 0.3 + 0.4j),
    ],
)
def test_builders_reject_invalid_rotation_parameters(build, bad):
    with pytest.raises(BadLambda0) as raised:
        build(bad)
    # a continuous builder rejects what its single builder rejects, in its words
    single = {
        build_example1_continuous: build_example1,
        build_example2_continuous: build_example2,
    }.get(build, build)
    with pytest.raises(BadLambda0) as expected:
        single(bad)
    assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize(
    "build",
    [build_example1, build_example2, build_example1_continuous, build_example2_continuous],
)
def test_builders_reject_a_nan_rotation_parameter(build):
    with pytest.raises(BadLambda0):
        build(complex("nan"))


def _first_member_rows(rows):
    """Manifest grouping as first written: a row joins the first group whose
    first row lies within the merge radius, and groups sort by that row."""
    groups: list[list] = []
    for row in rows:
        for group in groups:
            if abs(group[0][0] - row[0]) <= presets.MERGE_TOL:
                group.append(row)
                break
        else:
            groups.append([row])
    groups.sort(key=lambda g: (round(g[0][0].real, 12), round(g[0][0].imag, 12)))
    return (
        tuple(g[0][0] for g in groups),
        tuple(len(g) for g in groups),
        tuple(tuple(entry[1] for entry in g) for g in groups),
        tuple(tuple(entry[2] for entry in g) for g in groups),
        tuple(tuple(entry[3] for entry in g) for g in groups),
    )


def _lambda0_grid() -> list[complex]:
    """Every half degree and the benchmark's special angles, computed as the
    benchmark computes them, and the exact values +-1, +-i and
    exp(2 pi i / 3)."""
    degrees = [k / 2 for k in range(720)] + [90.0, 120.0, 180.0, 240.0, 270.0]
    grid = [complex(np.cos(np.deg2rad(d)), np.sin(np.deg2rad(d))) for d in degrees]
    return grid + [1.0 + 0.0j, -1.0 + 0.0j, 1j, -1j, cmath.exp(2j * cmath.pi / 3)]


# The construction as two parallel families spelled it out, kept literally as
# the reference for the single psi ⊗ E builder.


def _reference_example1_matrix(lam: complex) -> np.ndarray:
    return np.array(
        [
            [0.5, 0.0, 0.0, 0.5],
            [0.0, lam, 0.0, 0.0],
            [0.0, 0.0, complex(lam).conjugate(), 0.0],
            [0.5, 0.0, 0.0, 0.5],
        ],
        dtype=np.complex128,
    )


def _reference_example2_matrix(lam: complex, c: complex, s: complex) -> np.ndarray:
    ex1 = _reference_example1_matrix(lam)
    psi = np.array([[c, s], [s, c]])
    return (ex1[None, :, None, :] * psi[:, None, :, None]).reshape(8, 8)


def _reference_ex2_element(top, bottom, diag=None):
    parts = []
    for j in (0, 1):
        m = np.zeros((2, 2), dtype=np.complex128)
        if diag is not None:
            m[0, 0] = diag[j]
            m[1, 1] = diag[j]
        if top is not None:
            m[0, 1] = top[j]
        if bottom is not None:
            m[1, 0] = bottom[j]
        parts.append(m)
    return BlockAlgebra((2, 2)).element(parts)


def _reference_rows(build, lambda0: complex) -> list:
    phase0 = cmath.phase(lambda0)
    if build is build_example1:
        algebra = BlockAlgebra((2,))
        return [
            (1.0 + 0.0j, "III", algebra.element([np.eye(2) / np.sqrt(2.0)]), 0.0),
            (lambda0, "I", algebra.element([np.array([[0.0, 1.0], [0.0, 0.0]])]), phase0),
            (
                lambda0.conjugate(),
                "I",
                algebra.element([np.array([[0.0, 0.0], [1.0, 0.0]])]),
                -phase0,
            ),
        ]
    ones = np.array([1.0, 1.0])
    sign = np.array([1.0, -1.0])
    pi = cmath.pi
    element = _reference_ex2_element
    return [
        (1.0 + 0.0j, "III", element(None, None, diag=ones / 2.0), 0.0),
        (-1.0 + 0.0j, "III", element(None, None, diag=sign / 2.0), pi),
        (lambda0, "I", element(ones / np.sqrt(2.0), None), phase0),
        (-lambda0, "I", element(sign / np.sqrt(2.0), None), phase0 + pi),
        (lambda0.conjugate(), "I", element(None, ones / np.sqrt(2.0)), -phase0),
        (-lambda0.conjugate(), "I", element(None, sign / np.sqrt(2.0)), pi - phase0),
    ]


def _reference_matrix(build, lam: complex, t: float | None = None) -> np.ndarray:
    if t is not None:
        lam = unit_phase_power(lam, t)
    if build is build_example1:
        return _reference_example1_matrix(lam)
    if t is None:
        return _reference_example2_matrix(lam, 0.0, 1.0)
    w = unit_phase_power(-1.0 + 0.0j, t)
    return _reference_example2_matrix(lam, (1.0 + w) / 2.0, (1.0 - w) / 2.0)


def _bits(values) -> np.ndarray:
    """The IEEE bit patterns, which tell signed zeros apart."""
    return np.ascontiguousarray(values).view(np.uint64)


@pytest.mark.parametrize(
    "build,family,excluded",
    [
        (build_example1, build_example1_continuous, (1.0,)),
        (build_example2, build_example2_continuous, (1.0, -1.0)),
    ],
    ids=["ex1", "ex2"],
)
def test_construction_reproduces_the_reference_bit_for_bit(build, family, excluded):
    exact = [complex(0.0, -1.0), complex(-0.0, 1.0)]
    accepted = 0
    for lam in _lambda0_grid() + exact:
        if any(abs(lam - e) <= presets.MERGE_TOL for e in excluded):
            with pytest.raises(BadLambda0):
                build(lam)
            continue
        accepted += 1
        phi, manifest = build(lam)
        assert np.array_equal(_bits(phi.matrix), _bits(_reference_matrix(build, lam)))
        continuous = family(lam)
        for t in (0.0, 0.5, 1.0, 1.7, 2.0, 2.5, 3.9):
            got = continuous.builder(t).matrix
            assert np.array_equal(_bits(got), _bits(_reference_matrix(build, lam, t)))
        spectrum, dims, tags, basis, phases = presets._sorted_manifest_rows(
            _reference_rows(build, lam)
        )
        got_spectrum = np.array(manifest.expected_spectrum, dtype=np.complex128)
        assert np.array_equal(_bits(got_spectrum), _bits(np.array(spectrum)))
        got_phases = np.array([p for ps in manifest.continuous_phases for p in ps])
        assert np.array_equal(_bits(got_phases), _bits(np.array([p for ps in phases for p in ps])))
        assert manifest.expected_dims == dims
        assert manifest.expected_classifications == tags
        for xs, ys in zip(manifest.canonical_eigenvectors, basis, strict=True):
            assert all(np.array_equal(vectorize(x), vectorize(y)) for x, y in zip(xs, ys))
    assert accepted >= 700


@pytest.mark.parametrize("build", [build_example1, build_example2])
def test_manifest_grouping_matches_the_first_member_reference(build, monkeypatch):
    built = []
    for grouping in (presets._sorted_manifest_rows, _first_member_rows):
        monkeypatch.setattr(presets, "_sorted_manifest_rows", grouping)
        manifests = []
        for lam in _lambda0_grid():
            try:
                manifests.append(build(lam)[-1])
            except BadLambda0:
                manifests.append(None)
        built.append(manifests)
    merged = 0
    for got, expected in zip(*built):
        assert (got is None) == (expected is None)
        if got is None:
            continue
        for field in (
            "expected_spectrum",
            "expected_dims",
            "expected_classifications",
            "continuous_phases",
        ):
            assert getattr(got, field) == getattr(expected, field)
        for xs, ys in zip(got.canonical_eigenvectors, expected.canonical_eigenvectors):
            assert all(np.array_equal(vectorize(x), vectorize(y)) for x, y in zip(xs, ys))
        merged += len(got.expected_dims) < sum(got.expected_dims)
    assert merged >= 2


@pytest.mark.parametrize("offset", [1e-9, 3e-8, -1e-8])
def test_manifest_order_follows_point_spectrum_inside_the_merge_radius(offset):
    # just off i the merged points' real parts differ by 2e-9 to 6e-8, which
    # the first-member rule sorted by and the computed spectrum does not
    lam = 1j * cmath.exp(1j * offset)
    phi, manifest = build_example2(lam)
    computed = point_spectrum(phi).points
    assert manifest.expected_dims == tuple(p.dimension for p in computed)
    assert _values_match([p.value for p in computed], manifest.expected_spectrum, 1e-7)


def test_example1_matrix_is_frozen_literal():
    phi, _ = build_example1(1j)
    expected = np.array(
        [
            [0.5, 0, 0, 0.5],
            [0, 1j, 0, 0],
            [0, 0, -1j, 0],
            [0.5, 0, 0, 0.5],
        ]
    )
    assert np.array_equal(phi.matrix, expected)
    assert unitality_check(phi)


@pytest.mark.parametrize(
    "lam,expected_points,is_group",
    [
        (GENERIC, 3, False),
        (cmath.exp(2j * cmath.pi / 3), 3, True),
        (-1.0 + 0.0j, 2, True),
    ],
)
def test_example1_regimes(lam, expected_points, is_group, tol):
    phi, manifest = build_example1(lam)
    spectrum = point_spectrum(phi, tol)
    assert len(spectrum.points) == expected_points
    assert _values_match(spectrum.values, manifest.expected_spectrum)
    assert spectrum.dimensions == manifest.expected_dims
    assert group_closure_report(spectrum).is_group == is_group
    assert ergodicity_check(phi, tol)
    mixed = phi.algebra.element([np.eye(2) / 2.0])
    assert element_norm(invariant_state(phi, tol).rho - mixed) < 1e-12


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_example1(GENERIC),
        lambda: build_example1(-1.0 + 0.0j),
        lambda: build_example2(GENERIC),
        lambda: build_example2(1j),
        lambda: build_example2(cmath.exp(1j * cmath.pi / 3)),
    ],
)
def test_manifest_vectors_are_eigenvectors(build, tol):
    phi, manifest = build()
    for value, basis in zip(
        manifest.expected_spectrum, manifest.canonical_eigenvectors
    ):
        for x in basis:
            assert element_norm(phi(x) - complex(value) * x) < 1e-12


@pytest.mark.parametrize(
    "lam,expected_points,expected_dims,is_group",
    [
        (GENERIC, 6, (1,) * 6, False),
        (cmath.exp(1j * cmath.pi / 3), 6, (1,) * 6, True),
        (1j, 4, None, True),
    ],
)
def test_example2_regimes(lam, expected_points, expected_dims, is_group, tol):
    phi, manifest = build_example2(lam)
    spectrum = point_spectrum(phi, tol)
    assert len(spectrum.points) == expected_points
    assert _values_match(spectrum.values, manifest.expected_spectrum)
    assert spectrum.dimensions == manifest.expected_dims
    if expected_dims is not None:
        assert spectrum.dimensions == expected_dims
    assert group_closure_report(spectrum).is_group == is_group
    assert ergodicity_check(phi, tol)


def test_example2_merged_regime_has_two_dimensional_eigenspaces(tol):
    phi, manifest = build_example2(1j)
    spectrum = point_spectrum(phi, tol)
    by_value = {
        complex(round(v.real, 9), round(v.imag, 9)): d
        for v, d in zip(spectrum.values, spectrum.dimensions)
    }
    assert by_value == {1 + 0j: 1, -1 + 0j: 1, 1j: 2, -1j: 2}
    assert phi.algebra.blocks == (2, 2)


def test_psi_swap_exchanges_coordinates(tol):
    phi, u, state = build_psi_swap()
    assert np.array_equal(phi.matrix, [[0.0, 1.0], [1.0, 0.0]])
    assert element_norm(phi(u) + u) < 1e-15  # eigenvector at -1
    assert element_norm(invariant_state(phi, tol).rho - state.rho) < 1e-12


def _entrywise_example2(lam: complex, c: complex, s: complex) -> np.ndarray:
    """Reference: ex2 built entry by entry, each entry's coordinate pair
    mixed by psi(v) = (c v1 + s v2, s v1 + c v2), the diagonal averaged and
    the off-diagonal rotated by lam."""
    algebra = BlockAlgebra((2, 2))
    lam = complex(lam)

    def psi(v):
        return np.array([c * v[0] + s * v[1], s * v[0] + c * v[1]])

    def act(x):
        b1, b2 = x.parts
        a, b, c_, d = (np.array([b1[i, j], b2[i, j]]) for i, j in np.ndindex(2, 2))
        mean = psi((a + d) / 2.0)
        top = lam * psi(b)
        bottom = lam.conjugate() * psi(c_)
        return algebra.element(
            [np.array([[mean[j], top[j]], [bottom[j], mean[j]]]) for j in (0, 1)]
        )

    return from_action(algebra, act).matrix


@pytest.mark.parametrize("degrees", [90.0, 120.0, 240.0, 270.0, 37.0, 72.0, 200.5])
def test_example2_equals_the_entrywise_construction(degrees):
    lam = complex(np.cos(np.deg2rad(degrees)), np.sin(np.deg2rad(degrees)))
    assert np.array_equal(build_example2(lam)[0].matrix, _entrywise_example2(lam, 0.0, 1.0))
    family = build_example2_continuous(lam)
    for t in (0.0, 0.5, 1.0, 1.7, 2.0, 2.5, 3.9):
        w = unit_phase_power(-1.0 + 0.0j, t)
        expected = _entrywise_example2(
            unit_phase_power(lam, t), (1.0 + w) / 2.0, (1.0 - w) / 2.0
        )
        assert np.array_equal(family.builder(t).matrix, expected)


@pytest.mark.parametrize(
    "make_family,make_discrete",
    [
        (build_example1_continuous, lambda lam: build_example1(lam)[0]),
        (build_example2_continuous, lambda lam: build_example2(lam)[0]),
    ],
)
def test_continuous_families_interpolate_the_discrete_maps(
    make_family, make_discrete, tol
):
    family = make_family(GENERIC)
    assert max_norm(family.builder(1.0).matrix - make_discrete(GENERIC).matrix) == 0.0
    assert semigroup_law_check(family, [(0.4, 0.6), (1.5, 2.5)]) < 1e-12
    # time zero projects onto the diagonal instead of starting at the identity
    assert family.zero_time_note is not None
    ident = np.eye(family.algebra.dim)
    assert max_norm(family.builder(0.0).matrix - ident) > 0.4


def test_continuous_phase_table_matches_eigenvalues():
    for built in (build_example1(GENERIC), build_example2(GENERIC)):
        _, manifest = built
        for value, basis, phases in zip(
            manifest.expected_spectrum,
            manifest.canonical_eigenvectors,
            manifest.continuous_phases,
        ):
            assert len(phases) == len(basis)
            for phase in phases:
                # each winding rate reproduces its eigenvalue at t = 1
                assert cmath.exp(1j * phase) == pytest.approx(
                    complex(value), abs=1e-12
                )

