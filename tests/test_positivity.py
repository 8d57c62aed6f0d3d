"""Block positivity criteria, transformations, Choi matrices, falsifier."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perispec import (
    DEFAULT_TOL,
    Block2Matrix,
    BlockAlgebra,
    CommutationViolated,
    ConvergenceFailure,
    DimensionMismatch,
    EpsilonSchedule,
    HypothesesViolated,
    MultiBlockUnsupported,
    NotPSDInput,
    PerispecError,
    PositivityVerdict,
    PositivityWitness,
    Superoperator,
    Tolerances,
    assemble,
    build_example1,
    build_example2,
    choi_matrix,
    complete_positivity,
    congruence,
    corner_swap,
    criterion_commuting,
    criterion_commuting_stack,
    criterion_epsilon,
    criterion_epsilon_prime,
    criterion_epsilon_prime_stack,
    criterion_epsilon_stack,
    max_norm,
    offdiag_swap_stack,
    offdiag_swap_under_hypotheses,
    oracle_psd,
    oracle_psd_stack,
    randomized_positivity_falsifier,
    vectorize,
)
from perispec import analysis, positivity
from perispec.analysis import analyze

from conftest import (
    choi_route_calls,
    from_action,
    hermiticity_breaking_map,
    map_from_choi,
    mixed_unitary_choi,
    random_complex,
    random_hermitian,
    random_psd,
    random_unitary,
    rng_for,
)

AGREEMENT_TOL = Tolerances(eq_tol=1e-9, rank_tol=1e-8, psd_tol=1e-8)


def _split(matrix: np.ndarray) -> Block2Matrix:
    n = matrix.shape[0] // 2
    return Block2Matrix(
        matrix[:n, :n], matrix[:n, n:], matrix[n:, :n], matrix[n:, n:]
    )


def test_oracle_frozen_indefinite_values():
    verdict = oracle_psd(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert not verdict.is_psd
    assert verdict.witness is not None
    # least eigenvalue is exactly -1; the witness direction certifies it
    v = verdict.witness.vector
    assert verdict.witness.quadratic_form == pytest.approx(-1.0, abs=1e-12)
    assert np.isclose(np.vdot(v, v), 1.0)

    verdict = oracle_psd(np.array([[0.0, 1.0], [1.0, 1.0]]))
    assert not verdict.is_psd
    assert verdict.witness.quadratic_form == pytest.approx(
        (1 - np.sqrt(5)) / 2, abs=1e-12
    )


def test_oracle_accepts_psd():
    assert oracle_psd(np.array([[2.0, 1.0], [1.0, 1.0]])).is_psd
    assert oracle_psd(np.zeros((3, 3))).is_psd


@pytest.mark.parametrize(
    "values",
    [
        (), (1.0, 1.0), (0.1, 1.0), (1.0, -0.1), (1.0, 0.0),
        (float("nan"), 0.1), (1.0, float("nan")), (float("inf"), 1.0),
    ],
)
def test_epsilon_schedule_rejects_bad_values(values):
    with pytest.raises(ValueError):
        EpsilonSchedule(values)


def test_epsilon_schedule_default_is_decreasing():
    values = EpsilonSchedule().values
    assert values[0] == 1.0 and values[-1] == 1e-6
    assert all(a > b for a, b in zip(values, values[1:]))


def test_schur_criteria_frozen_psd_example():
    m = Block2Matrix(
        2.0 * np.eye(2),
        np.array([[0.0, 1.0], [0.0, 0.0]]),
        np.array([[0.0, 0.0], [1.0, 0.0]]),
        np.eye(2),
    )
    assert criterion_epsilon(m).is_psd
    assert criterion_epsilon_prime(m).is_psd
    assert oracle_psd(assemble(m)).is_psd


def test_schur_criteria_frozen_indefinite_example():
    m = Block2Matrix(
        np.array([[1.0]]), np.array([[2.0]]), np.array([[2.0]]), np.array([[1.0]])
    )
    for verdict in (criterion_epsilon(m), criterion_epsilon_prime(m)):
        assert not verdict.is_psd
        assert verdict.witness is not None
        assert verdict.witness.epsilon is not None


def test_schur_criterion_rejects_structural_failures():
    indefinite_corner = Block2Matrix(
        np.array([[-1.0]]), np.array([[0.0]]), np.array([[0.0]]), np.array([[1.0]])
    )
    verdict = criterion_epsilon(indefinite_corner)
    assert not verdict.is_psd and "diagonal" in verdict.witness.reason

    asymmetric = Block2Matrix(
        np.eye(1), np.array([[1.0]]), np.array([[0.5]]), np.eye(1)
    )
    verdict = criterion_epsilon(asymmetric)
    assert not verdict.is_psd and "differs from b*" in verdict.witness.reason


@pytest.mark.parametrize("make_indefinite", [False, True])
def test_schur_criteria_agree_with_oracle_seeded(make_indefinite):
    rng = rng_for(10, int(make_indefinite))
    for _ in range(100):
        n = int(rng.integers(1, 4))
        matrix = random_psd(rng, 2 * n)
        if make_indefinite:
            w = np.linalg.eigvalsh(matrix)
            matrix -= (w[0] + 0.1 * max(1.0, w[-1])) * np.eye(2 * n)
        m = _split(matrix)
        reference = oracle_psd(matrix, AGREEMENT_TOL).is_psd
        assert criterion_epsilon(m, tol=AGREEMENT_TOL).is_psd == reference
        assert criterion_epsilon_prime(m, tol=AGREEMENT_TOL).is_psd == reference


def _schur_reference(
    m: Block2Matrix,
    tol: Tolerances,
    mirrored: bool,
    schedule: EpsilonSchedule = EpsilonSchedule(),
) -> PositivityVerdict:
    """The epsilon criteria as first written: the prelude and each witness
    spelled out, the regularized corner decomposed again per epsilon, its
    spectrum clamped at zero, and one defect built and decided at a time,
    stopping at the first failure."""
    for name, corner in (("a", m.a), ("d", m.d)):
        verdict = oracle_psd(corner, tol)
        if not verdict.is_psd:
            witness = PositivityWitness(
                reason=f"diagonal block {name} not PSD: {verdict.witness.reason}",
                vector=verdict.witness.vector,
                quadratic_form=verdict.witness.quadratic_form,
            )
            return PositivityVerdict(False, witness)
    mismatch = np.max(np.abs(m.c - m.b.conj().T))
    if mismatch > tol.eq_tol * max(1.0, np.max(np.abs(m.b))):
        return PositivityVerdict(
            False, PositivityWitness(reason=f"c differs from b* by {mismatch:.3e}")
        )
    for eps in schedule.values:
        w, v = np.linalg.eigh(m.d if mirrored else m.a)
        inv = (v * (1.0 / (np.maximum(w, 0.0) + eps))) @ v.conj().T
        if mirrored:
            defect = m.a - m.b @ inv @ m.b.conj().T
        else:
            defect = m.d - m.b.conj().T @ inv @ m.b
        defect = 0.5 * (defect + defect.conj().T)
        verdict = oracle_psd(defect, tol)
        if not verdict.is_psd:
            witness = PositivityWitness(
                reason=f"Schur defect not PSD at epsilon={eps:g}",
                vector=verdict.witness.vector,
                quadratic_form=verdict.witness.quadratic_form,
                epsilon=eps,
                defect=defect,
            )
            return PositivityVerdict(False, witness)
    return PositivityVerdict(True)


def _schur_inputs(rng, count: int):
    """PSD corners with off-diagonal blocks of growing size (so some fail at a
    late epsilon), rank-deficient corners, and whole matrices shifted to be
    indefinite (so some fail the prelude)."""
    for k in range(count):
        n = int(rng.integers(1, 5))
        a, d = random_psd(rng, n), random_psd(rng, n)
        if k % 3 == 1:
            a[:, 0] = a[0, :] = 0.0
        b = (0.2 + 0.1 * (k % 20)) * random_complex(rng, n, n)
        yield Block2Matrix(a, b, b.conj().T, d)
        matrix = random_psd(rng, 2 * n)
        matrix -= (0.3 * k / count) * np.trace(matrix).real / n * np.eye(2 * n)
        yield _split(matrix)


@pytest.mark.parametrize("mirrored", [False, True])
def test_schur_criteria_match_the_per_epsilon_reference(mirrored):
    criterion = criterion_epsilon_prime if mirrored else criterion_epsilon
    outcomes = set()
    for m in _schur_inputs(rng_for(12, int(mirrored)), 200):
        got = criterion(m, tol=AGREEMENT_TOL)
        expected = _schur_reference(m, AGREEMENT_TOL, mirrored)
        assert got.is_psd == expected.is_psd
        if got.is_psd:
            outcomes.add("psd")
            continue
        g, e = got.witness, expected.witness
        assert (g.reason, g.epsilon) == (e.reason, e.epsilon)
        for field in ("vector", "quadratic_form", "defect"):
            assert np.array_equal(getattr(g, field), getattr(e, field))
        outcomes.add(g.reason.split(" ")[0] if g.epsilon is None else g.epsilon)
    # every route is taken: PSD, each kind of prelude failure, and the
    # Schur defect failing at more than one epsilon
    assert {"psd", "diagonal"} <= outcomes
    assert len([o for o in outcomes if isinstance(o, float)]) >= 2


def _bitwise_verdict(verdict: PositivityVerdict) -> tuple:
    """Every field of a verdict, arrays and floats as their bytes."""
    w = verdict.witness
    if w is None:
        return (verdict.is_psd,)
    arrays = tuple(
        None if x is None else np.asarray(x).tobytes()
        for x in (w.vector, w.quadratic_form, w.defect)
    )
    return (verdict.is_psd, w.reason, w.epsilon, type(w.epsilon), *arrays)


def _failing_at(n: int, beta2: float, rng) -> Block2Matrix:
    """A PSD corner a with kernel spanned by u e0, and b coupling into it
    with weight sqrt(beta2) and weakly into the rest of the range of a: the
    Schur defect d - b*(a + eps)^(-1) b, with d the identity, has least
    eigenvalue 1 - beta2 / eps, so the first epsilon below beta2 fails."""
    u = random_unitary(rng, n)
    a = (u * np.array([0.0] + [2.0] * (n - 1))) @ u.conj().T
    b = np.zeros((n, n), dtype=complex)
    b[:, 0] = np.sqrt(beta2) * u[:, 0]
    b[:, 1:] = u[:, 1:] @ (0.1 * random_complex(rng, n - 1, n - 1))
    return Block2Matrix(0.5 * (a + a.conj().T), b, b.conj().T, np.eye(n))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("mirrored", [False, True])
def test_stacked_schedule_matches_the_per_epsilon_loop(mirrored, n):
    criterion = criterion_epsilon_prime if mirrored else criterion_epsilon
    schedule = EpsilonSchedule()
    rng = rng_for(16, int(mirrored), n)
    psd = random_psd(rng, 2 * n) + np.eye(2 * n)
    cases = {"psd": (_split(psd), None)}
    for position in (0, 3, len(schedule.values) - 1):
        eps = schedule.values[position]
        cases[position] = (_failing_at(n, 3.0 * eps, rng), eps)
    for name, (m, expected_eps) in cases.items():
        # the mirrored criterion regularizes d: swap the corners for it
        m = corner_swap(m) if mirrored else m
        got = criterion(m, schedule)
        expected = _schur_reference(m, DEFAULT_TOL, mirrored, schedule)
        assert _bitwise_verdict(got) == _bitwise_verdict(expected), name
        if expected_eps is None:
            assert got.is_psd
        else:
            assert got.witness.epsilon == expected_eps
            assert got.witness.reason == f"Schur defect not PSD at epsilon={expected_eps:g}"


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("mirrored", [False, True])
def test_clamped_corner_keeps_every_defect_finite(mirrored, n):
    # the corner's least eigenvalue -1e-10 passes the PSD check; clamped at
    # zero it is cancelled by no epsilon, so every defect is finite, and an
    # epsilon of 1e-10 still sees the coupling into the corner's kernel
    criterion = criterion_epsilon_prime if mirrored else criterion_epsilon
    corner = np.diag([-1e-10] + [1.0] * (n - 1)).astype(complex)
    rng = rng_for(17, int(mirrored), n)
    schedules = [(1.0, 1e-10), (1e-10,), (1.0, 1e-3, 1e-10, 1e-12)]
    for scale in (0.1, 1.0, 10.0):
        b = scale * random_complex(rng, n, n)
        m = Block2Matrix(corner, b, b.conj().T, 3.0 * np.eye(n))
        m = corner_swap(m) if mirrored else m
        oracle = oracle_psd(assemble(m)).is_psd
        for values in schedules:
            schedule = EpsilonSchedule(values)
            got = criterion(m, schedule)
            expected = _schur_reference(m, DEFAULT_TOL, mirrored, schedule)
            assert _bitwise_verdict(got) == _bitwise_verdict(expected)
            assert got.is_psd == oracle
            if got.witness is not None:
                w = got.witness
                for field in (w.vector, w.quadratic_form, w.defect):
                    assert np.isfinite(field).all()


@pytest.mark.parametrize("mirrored", [False, True])
def test_an_overflowing_epsilon_raises_unless_an_earlier_one_fails(mirrored):
    # the regularized corner has eigenvalue -1e-10, inside psd_tol, and the
    # matrix is not PSD: the oracle's least eigenvalue is about -0.0033
    criterion = criterion_epsilon_prime if mirrored else criterion_epsilon
    corner = np.diag([-1e-10, 1.0]).astype(complex)
    m = Block2Matrix(corner, 0.1 * np.eye(2), 0.1 * np.eye(2), 3.0 * np.eye(2))
    m = corner_swap(m) if mirrored else m
    assert oracle_psd(assemble(m)).witness.quadratic_form < -3e-3
    # 1 / 1e-320 overflows: no defect is decided before it, so no verdict
    with pytest.raises(ConvergenceFailure, match="epsilon=1e-320"):
        criterion(m, EpsilonSchedule((1.0, 1e-320)))
    # 1e-310 overflows too, but 1e-3 fails first and decides
    verdict = criterion(m, EpsilonSchedule((1e-3, 1e-310)))
    assert not verdict.is_psd
    assert verdict.witness.epsilon == 1e-3
    assert verdict.witness.quadratic_form == -7.0


@pytest.mark.parametrize("mirrored", [False, True])
def test_schur_criteria_decompose_each_corner_once(mirrored, monkeypatch):
    import perispec.positivity as positivity

    calls = []
    real_lapack = positivity._lapack

    def counting_lapack(routine, h):
        assert routine is np.linalg.eigh
        calls.append(h.shape)
        return real_lapack(routine, h)

    monkeypatch.setattr(positivity, "_lapack", counting_lapack)
    rng = rng_for(13, int(mirrored))
    rows = []
    for _ in range(3):
        a, d = random_psd(rng, 3), random_psd(rng, 3)
        b = 0.01 * random_complex(rng, 3, 3)
        rows.append((a, b, b.conj().T, d))
    # a row whose corner a fails, and one whose corner d fails
    rows.append((-np.eye(3), np.zeros((3, 3)), np.zeros((3, 3)), np.eye(3)))
    rows.append((np.eye(3), np.zeros((3, 3)), np.zeros((3, 3)), -np.eye(3)))
    m = _stack(rows)
    schedule = EpsilonSchedule((1.0, 0.1, 0.01))
    stacked = criterion_epsilon_prime_stack if mirrored else criterion_epsilon_stack
    criterion = criterion_epsilon_prime if mirrored else criterion_epsilon
    outcomes = stacked(m, schedule)
    assert [v.is_psd for v in outcomes] == [True, True, True, False, False]
    # a of every row, d of the rows whose a passed, then the defects of the
    # rows left at every epsilon as one stack: the regularized corner is the
    # one already decomposed for its PSD check
    s = len(schedule.values)
    assert calls == [(5, 3, 3), (4, 3, 3), (3 * s, 3, 3)]
    calls.clear()
    assert criterion(Block2Matrix(*rows[0]), schedule).is_psd
    assert calls == [(1, 3, 3), (1, 3, 3), (s, 3, 3)]


@pytest.mark.parametrize("scale", [1e-300, 1e-150, 1.0, 1e150, 1e300])
def test_symmetrized_stacks_reach_lapack_exactly_hermitian(scale, monkeypatch):
    # the Schur defects and a d - b* b go to LAPACK without a Hermiticity
    # check: the symmetrized D + D* is Hermitian bit for bit at any magnitude
    import perispec.positivity as positivity

    calls = []
    real_lapack = positivity._lapack

    def recording_lapack(routine, h):
        calls.append(h)
        return real_lapack(routine, h)

    monkeypatch.setattr(positivity, "_lapack", recording_lapack)
    rng = rng_for(16, int(np.log10(scale)) + 300)
    root = np.sqrt(scale)
    for n in (1, 2, 3, 4):
        general = _stack([
            (scale * random_psd(rng, n), b, b.conj().T, scale * random_psd(rng, n))
            for b in (0.3 * scale * random_complex(rng, n, n) for _ in range(5))
        ])
        # diagonal corners commute; a d and b* b are both of order scale
        commuting = _stack([
            (np.diag(a), b, b.conj().T, np.diag(d))
            for a, d, b in (
                (root * rng.uniform(0.5, 2.0, n), root * rng.uniform(0.5, 2.0, n),
                 0.5 * root * random_complex(rng, n, n))
                for _ in range(5)
            )
        ])
        for decide, m in (
            (criterion_epsilon_stack, general),
            (criterion_epsilon_prime_stack, general),
            (criterion_commuting_stack, commuting),
        ):
            calls.clear()
            decide(m)
            # the corners a and d, which are checked, then the symmetrized stack
            assert len(calls) == 3
            h = calls[2]
            assert np.array_equal(h, h.conj().swapaxes(-1, -2))
            assert 1e-3 * scale <= max_norm(h) <= 1e3 * scale
            assert n == 1 or np.abs(h.imag).max() > 0.0


def _outcome_key(outcome) -> tuple:
    """Every field of one outcome of a stacked call, bit for bit: an error's
    class and message, a swapped matrix's blocks, or a verdict's fields."""
    if isinstance(outcome, PerispecError):
        return (type(outcome), str(outcome))
    if isinstance(outcome, Block2Matrix):
        return tuple((x.shape, x.tobytes()) for x in (outcome.a, outcome.b, outcome.c, outcome.d))
    return _bitwise_verdict(outcome)


def _one_row(call, *args):
    """What a one-matrix call gives: its result, or the error it raises."""
    try:
        return call(*args)
    except PerispecError as exc:
        return exc


def _stack(rows: list) -> Block2Matrix:
    return Block2Matrix(*(np.stack(block) for block in zip(*rows)))


def _assert_rows_match(stacked: list, one_row) -> set:
    """Each outcome of a stacked call equals the one-matrix call on its row;
    returns the kinds of outcome seen, to check the mix is the one built."""
    kinds = set()
    for i, outcome in enumerate(stacked):
        expected = one_row(i)
        assert _outcome_key(outcome) == _outcome_key(expected), i
        if isinstance(outcome, PositivityVerdict):
            witness = outcome.witness
            kinds.add("psd" if witness is None else witness.reason.split(" ")[0])
        else:
            kinds.add(type(outcome).__name__)
    return kinds


def _schur_rows(rng, n: int) -> list:
    """Rows of side n with every outcome of the epsilon criteria."""
    eye, zero = np.eye(n), np.zeros((n, n))
    skew = (1.0 + 1j) * eye
    # eigenvalue -1e-10 of the corner, inside psd_tol, clamps to 0: with b
    # = 0.1 1 the defect fails at epsilon = 1e-3, with b = 1e-3 1 it passes
    # there and overflows at 1e-310
    singular = np.diag([-1e-10] + [1.0] * (n - 1))
    rows = [
        (eye, zero, zero, -eye),
        # a fails and d is not Hermitian, in either orientation
        (-eye, zero, zero, skew),
        (skew, zero, zero, -eye),
        (eye, eye, 0.5 * eye, eye),
        (skew, zero, zero, eye),
        (eye, zero, zero, skew),
        (singular, 0.1 * eye, 0.1 * eye, 3.0 * eye),
        (singular, 1e-3 * eye, 1e-3 * eye, 3.0 * eye),
    ]
    for k in range(8):
        matrix = random_psd(rng, 2 * n)
        if k % 2:
            w = np.linalg.eigvalsh(matrix)
            matrix -= (w[0] + 0.2 * k / 8 * max(1.0, w[-1])) * np.eye(2 * n)
        m = _split(matrix)
        rows.append((m.a, m.b, m.c, m.d))
    for eps in (1.0, 1e-2, 1e-4):
        m = _failing_at(n, 3.0 * eps, rng) if n > 1 else Block2Matrix(
            np.zeros((1, 1)), [[np.sqrt(3.0 * eps)]], [[np.sqrt(3.0 * eps)]], eye
        )
        rows.append((m.a, m.b, m.c, m.d))
    return rows


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("mirrored", [False, True])
def test_stacked_schur_criteria_match_the_one_row_calls(mirrored, n):
    stacked = criterion_epsilon_prime_stack if mirrored else criterion_epsilon_stack
    criterion = criterion_epsilon_prime if mirrored else criterion_epsilon
    rows = _schur_rows(rng_for(18, int(mirrored), n), n)
    # the mirrored criterion regularizes d: swap the corners for it
    m = corner_swap(_stack(rows)) if mirrored else _stack(rows)
    single = [Block2Matrix(m.a[i], m.b[i], m.c[i], m.d[i]) for i in range(len(rows))]
    kinds = set()
    for schedule in (EpsilonSchedule(), EpsilonSchedule((1e-3, 1e-310))):
        kinds |= _assert_rows_match(
            stacked(m, schedule), lambda i: _one_row(criterion, single[i], schedule)
        )
    assert kinds == {
        "psd", "diagonal", "c", "Schur", "NotHermitian", "ConvergenceFailure"
    }


@pytest.mark.parametrize("n", [1, 2, 4])
def test_stacked_oracle_matches_the_one_row_calls(n):
    rng = rng_for(19, n)
    matrices = [random_psd(rng, n), -random_psd(rng, n), random_complex(rng, n, n)]
    matrices += [random_hermitian(rng, n) for _ in range(5)]
    stack = np.stack(matrices)
    kinds = _assert_rows_match(
        oracle_psd_stack(stack, AGREEMENT_TOL),
        lambda i: _one_row(oracle_psd, matrices[i], AGREEMENT_TOL),
    )
    assert kinds == {"psd", "least", "NotHermitian"}


def test_side_zero_block_matrices_are_psd_alone_and_stacked():
    empty, stack = np.zeros((0, 0)), np.zeros((3, 0, 0))
    one, many = Block2Matrix(empty, empty, empty, empty), Block2Matrix(stack, stack, stack, stack)
    for criterion in (criterion_epsilon, criterion_epsilon_prime, criterion_commuting):
        assert criterion(one).is_psd
    for stacked in (criterion_epsilon_stack, criterion_epsilon_prime_stack, criterion_commuting_stack):
        assert [v.is_psd for v in stacked(many)] == [True] * 3
    assert oracle_psd(empty).is_psd and offdiag_swap_under_hypotheses(one).side == 0


@pytest.mark.parametrize("shape", [(2, 3), (3,), (2, 2, 2)])
def test_oracle_rejects_what_is_not_one_square_matrix(shape):
    with pytest.raises(DimensionMismatch):
        oracle_psd(np.zeros(shape))


@pytest.mark.parametrize("shape", [(2, 2), (2, 2, 3), (1, 2, 2, 2)])
def test_stacked_oracle_rejects_what_is_not_a_stack_of_square_matrices(shape):
    with pytest.raises(DimensionMismatch):
        oracle_psd_stack(np.zeros(shape))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacked_commuting_criterion_matches_the_one_row_calls(n):
    rng = rng_for(20, n)
    eye, zero = np.eye(n), np.zeros((n, n))
    rows = [
        (2.0 * eye, eye, eye, eye),
        (eye, 2.0 * eye, 2.0 * eye, eye),
        (-eye, zero, zero, eye),
        (eye, eye, 0.5 * eye, 3.0 * eye),
        ((1.0 + 1j) * eye, zero, zero, eye),
    ]
    if n > 1:
        rows.append((np.diag(np.arange(1.0, n + 1)), zero, zero, np.ones((n, n))))
    for _ in range(6):
        m = _commuting_psd_block(rng, n)
        rows.append((m.a, 2.0 * rng.random() * m.b, 2.0 * rng.random() * m.c, m.d))
    m = _stack(rows)
    kinds = _assert_rows_match(
        criterion_commuting_stack(m),
        lambda i: _one_row(criterion_commuting, Block2Matrix(*rows[i])),
    )
    expected = {"psd", "a", "diagonal", "c", "NotHermitian"}
    assert kinds == expected | ({"CommutationViolated"} if n > 1 else set())


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacked_offdiag_swap_matches_the_one_row_calls(n):
    rng = rng_for(21, n)
    eye, zero = np.eye(n), np.zeros((n, n))
    nilpotent = np.eye(n, k=1)
    rows = [
        (eye, 2.0 * eye, 2.0 * eye, eye),
        (eye, eye, 0.5 * eye, eye),
        ((1.0 + 1j) * eye + nilpotent, zero, zero, eye),
    ]
    if n > 1:
        rows.append((np.diag(np.arange(1.0, n + 1)), 0.1 * nilpotent, 0.1 * nilpotent.T, eye))
        rows.append((eye, 0.1 * nilpotent, 0.1 * nilpotent.T, np.diag(np.arange(1.0, n + 1))))
    for _ in range(6):
        m = _commuting_psd_block(rng, n)
        rows.append((m.a, m.b, m.c, m.d))
    m = _stack(rows)
    kinds = _assert_rows_match(
        offdiag_swap_stack(m),
        lambda i: _one_row(offdiag_swap_under_hypotheses, Block2Matrix(*rows[i])),
    )
    expected = {"Block2Matrix", "NotPSDInput", "NotHermitian"}
    assert kinds == expected | ({"HypothesesViolated"} if n > 1 else set())


def test_stacked_transformations_act_on_each_matrix():
    rng = rng_for(22)
    matrices = [random_psd(rng, 4) for _ in range(5)]
    x, y = random_complex(rng, 5, 2, 2), random_complex(rng, 5, 2, 2)
    m = _stack([(s.a, s.b, s.c, s.d) for s in map(_split, matrices)])
    assert np.array_equal(assemble(m), np.stack(matrices))
    for i, matrix in enumerate(matrices):
        single = _split(matrix)
        assert np.array_equal(assemble(corner_swap(m))[i], assemble(corner_swap(single)))
        assert np.array_equal(
            assemble(congruence(m, x, y))[i], assemble(congruence(single, x[i], y[i]))
        )
        assert np.array_equal(
            assemble(congruence(m, x[0], y[0]))[i], assemble(congruence(single, x[0], y[0]))
        )
    with pytest.raises(DimensionMismatch):
        congruence(m, x[:3], y[:3])
    with pytest.raises(DimensionMismatch):
        Block2Matrix(m.a, m.b, m.c, m.d[:4])
    with pytest.raises(DimensionMismatch):
        criterion_epsilon(m)


def test_mirrored_schur_criterion_checks_corner_a_first():
    # d is not even Hermitian, but a fails first and decides the verdict
    m = Block2Matrix(
        np.array([[-1.0]]), np.array([[0.0]]), np.array([[0.0]]), np.array([[1j]])
    )
    verdict = criterion_epsilon_prime(m)
    assert not verdict.is_psd
    assert verdict.witness.reason.startswith("diagonal block a not PSD")


def test_commuting_criterion_diagonal_frozen_cases():
    psd = Block2Matrix(
        np.diag([2.0, 3.0]), np.diag([1.0, 1.5]), np.diag([1.0, 1.5]), np.eye(2)
    )
    assert criterion_commuting(psd).is_psd
    violating = Block2Matrix(
        np.diag([2.0, 3.0]), np.diag([1.0, 2.0]), np.diag([1.0, 2.0]), np.eye(2)
    )
    verdict = criterion_commuting(violating)
    assert not verdict.is_psd
    assert not oracle_psd(assemble(violating)).is_psd


def test_commuting_criterion_requires_commuting_corners():
    m = Block2Matrix(
        np.diag([1.0, 2.0]),
        np.zeros((2, 2)),
        np.zeros((2, 2)),
        np.array([[1.0, 1.0], [1.0, 1.0]]),
    )
    with pytest.raises(CommutationViolated):
        criterion_commuting(m)


def test_corner_swap_is_an_involution_and_preserves_spectrum():
    rng = rng_for(11)
    matrix = random_psd(rng, 6)
    m = _split(matrix)
    swapped = corner_swap(m)
    assert np.array_equal(assemble(corner_swap(swapped)), matrix)
    original = np.linalg.eigvalsh(matrix)
    permuted = np.linalg.eigvalsh(assemble(swapped))
    assert np.allclose(original, permuted, atol=1e-10)


def test_congruence_by_identity_is_identity():
    rng = rng_for(12)
    m = _split(random_psd(rng, 4))
    same = congruence(m, np.eye(2), np.eye(2))
    assert np.array_equal(assemble(same), assemble(m))


def test_congruence_preserves_positivity_seeded():
    rng = rng_for(13)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        m = _split(random_psd(rng, 2 * n))
        x = random_complex(rng, n, n)
        y = random_complex(rng, n, n)
        result = assemble(congruence(m, x, y))
        w = np.linalg.eigvalsh(0.5 * (result + result.conj().T))
        assert w[0] > -1e-9 * max(1.0, w[-1])


def _commuting_psd_block(rng, n: int) -> Block2Matrix:
    v = random_unitary(rng, n)
    p = rng.uniform(0.1, 2.0, n)
    q = rng.uniform(0.1, 2.0, n)
    z = np.exp(2j * np.pi * rng.random(n)) * np.sqrt(p * q) * rng.uniform(0, 0.9, n)
    conj = lambda d: v @ np.diag(d) @ v.conj().T
    return Block2Matrix(conj(p), conj(z), conj(z.conj()), conj(q))


def test_offdiag_swap_preserves_positivity_seeded():
    rng = rng_for(14)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        m = _commuting_psd_block(rng, n)
        swapped = offdiag_swap_under_hypotheses(m)
        assert np.allclose(swapped.b, m.c, atol=1e-12)
        assert np.allclose(swapped.c, m.b, atol=1e-12)
        w = np.linalg.eigvalsh(assemble(swapped))
        assert w[0] > -1e-9


def test_offdiag_swap_rejects_noncommuting_hypotheses():
    m = Block2Matrix(
        np.diag([1.0, 2.0]),
        np.array([[0.0, 0.1], [0.0, 0.0]]),
        np.array([[0.0, 0.0], [0.1, 0.0]]),
        np.eye(2),
    )
    with pytest.raises(HypothesesViolated):
        offdiag_swap_under_hypotheses(m)


def test_offdiag_swap_rejects_indefinite_input():
    m = Block2Matrix(
        np.diag([1.0, 1.0]), np.diag([2.0, 0.0]), np.diag([2.0, 0.0]), np.eye(2)
    )
    with pytest.raises(NotPSDInput):
        offdiag_swap_under_hypotheses(m)


def test_choi_matrix_of_identity_map_is_rank_one():
    algebra = BlockAlgebra((2,))
    choi = choi_matrix(Superoperator(algebra, np.eye(algebra.dim)))
    w = np.linalg.eigvalsh(choi)
    assert np.allclose(w, [0.0, 0.0, 0.0, 2.0], atol=1e-12)


def test_choi_matrix_of_transpose_map_has_negative_eigenvalue():
    algebra = BlockAlgebra((2,))
    transpose = from_action(
        algebra, lambda x: algebra.element([p.T for p in x.parts])
    )
    w = np.linalg.eigvalsh(choi_matrix(transpose))
    assert np.allclose(w, [-1.0, 1.0, 1.0, 1.0], atol=1e-12)


def test_choi_matrix_frozen_single_block_example():
    lam = np.exp(2j * np.pi / 5)
    phi, _ = build_example1(lam)
    choi = choi_matrix(phi)
    expected = np.array(
        [
            [0.5, 0, 0, lam],
            [0, 0.5, 0, 0],
            [0, 0, 0.5, 0],
            [np.conj(lam), 0, 0, 0.5],
        ]
    )
    assert np.allclose(choi, expected, atol=1e-12)
    w = np.linalg.eigvalsh(0.5 * (choi + choi.conj().T))
    assert np.allclose(w, [-0.5, 0.5, 0.5, 1.5], atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_choi_matrix_equals_the_matrix_unit_loop(n):
    algebra = BlockAlgebra((n,))
    phi = Superoperator(algebra, random_complex(rng_for(64, n), n * n, n * n))
    expected = np.zeros((n * n, n * n), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            unit = np.zeros((n, n))
            unit[i, j] = 1.0
            image = phi(algebra.element([unit])).parts[0]
            expected[i * n : (i + 1) * n, j * n : (j + 1) * n] = image
    assert np.array_equal(choi_matrix(phi), expected)


def test_complete_positivity_verdicts():
    phi, _ = build_example1(np.exp(2j * np.pi / 5))
    choi, least, completely_positive, _ = complete_positivity(phi)
    assert np.array_equal(choi, choi_matrix(phi))
    assert least == pytest.approx(-0.5, abs=1e-12)
    assert not completely_positive
    algebra = BlockAlgebra((3,))
    _, least, completely_positive, _ = complete_positivity(
        Superoperator(algebra, np.eye(algebra.dim))
    )
    assert least == pytest.approx(0.0, abs=1e-12)
    assert completely_positive


def test_a_map_that_breaks_hermiticity_is_not_completely_positive():
    phi = hermiticity_breaking_map()
    choi, least, completely_positive, _ = complete_positivity(phi)
    assert max_norm(choi - choi.conj().T) == pytest.approx(0.2)
    # the Hermitian part of the Choi matrix alone would pass
    assert least >= -DEFAULT_TOL.psd_tol
    assert not completely_positive
    # outside eq_tol the same map passes
    assert complete_positivity(phi, Tolerances(eq_tol=0.5))[2]


def _conjugation(u: np.ndarray) -> Superoperator:
    return Superoperator(BlockAlgebra((len(u),)), np.kron(u, u.conj()))


def _transpose_map(n: int) -> Superoperator:
    # Choi matrix: the swap, with eigenvalues 1 and -1
    algebra = BlockAlgebra((n,))
    return from_action(algebra, lambda x: algebra.element([p.T for p in x.parts]))


# Choi side n^2 from 36 on, Choi rank at most n^2 / 8: the rank 1 of a
# conjugation, the Kraus rank of a mixed-unitary channel, and the cap itself
FACTOR_ROUTE_MAPS = {
    **{
        f"mixed-unitary-n{n}": (lambda n=n: map_from_choi(mixed_unitary_choi(rng_for(49, n), n)))
        for n in (6, 8, 12)
    },
    **{
        f"conjugation-n{n}": (lambda n=n: _conjugation(random_unitary(rng_for(50, n), n)))
        for n in (6, 10)
    },
    "real-orthogonal-conjugation-n7": lambda: _conjugation(
        np.linalg.qr(rng_for(51).standard_normal((7, 7)))[0]
    ),
    "kraus-rank-8-n8": lambda: map_from_choi(mixed_unitary_choi(rng_for(52), 8, 8)),
}

# full rank, rank one over the cap, no positive diagonal, and a negative
# eigenvalue
FALLBACK_ROUTE_MAPS = {
    "trace-mixed-n6": lambda: map_from_choi(
        0.9 * mixed_unitary_choi(rng_for(53), 6) + 0.1 / 6 * np.eye(36)
    ),
    "kraus-rank-9-n8": lambda: map_from_choi(mixed_unitary_choi(rng_for(52), 8, 9)),
    "negated-channel-n6": lambda: map_from_choi(-mixed_unitary_choi(rng_for(54), 6)),
    "transpose-n6": lambda: _transpose_map(6),
}


def _hermitian_part_least(choi: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(0.5 * (choi + choi.conj().T))[0])


@pytest.mark.parametrize("name", sorted(FACTOR_ROUTE_MAPS))
def test_a_low_rank_choi_matrix_is_proved_psd_without_eigenvalues(name, monkeypatch, tol):
    phi = FACTOR_ROUTE_MAPS[name]()
    assert phi.algebra.dim >= positivity._FACTOR_MIN_SIDE
    calls = choi_route_calls(monkeypatch)
    choi, least, completely_positive, certified = complete_positivity(phi, tol)
    assert calls == ["factor"]
    assert certified and completely_positive and type(least) is float
    # a lower bound on the least eigenvalue, at rounding level below it
    reference = _hermitian_part_least(choi)
    assert least <= reference and reference - least <= 1e-12


@pytest.mark.parametrize("name", sorted(FALLBACK_ROUTE_MAPS))
def test_other_choi_matrices_fall_back_to_eigvalsh_bit_for_bit(name, monkeypatch, tol):
    phi = FALLBACK_ROUTE_MAPS[name]()
    assert phi.algebra.dim >= positivity._FACTOR_MIN_SIDE
    calls = choi_route_calls(monkeypatch)
    choi, least, completely_positive, certified = complete_positivity(phi, tol)
    assert calls == ["factor", "eigvalsh"] and not certified
    assert least == _hermitian_part_least(choi)
    assert completely_positive is (least >= -tol.psd_tol)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_below_the_floor_the_factor_is_never_tried(n, monkeypatch, tol):
    phi = map_from_choi(mixed_unitary_choi(rng_for(55, n), n))
    assert phi.algebra.dim < positivity._FACTOR_MIN_SIDE
    calls = choi_route_calls(monkeypatch)
    choi, least, completely_positive, certified = complete_positivity(phi, tol)
    assert calls == ["eigvalsh"] and not certified and completely_positive
    assert least == _hermitian_part_least(choi)


def test_the_zero_map_is_proved_cp_at_positive_zero(monkeypatch):
    calls = choi_route_calls(monkeypatch)
    _, least, completely_positive, certified = complete_positivity(
        Superoperator(BlockAlgebra((6,)), np.zeros((36, 36)))
    )
    assert calls == ["factor"] and certified and completely_positive
    # the value eigvalsh gives, not -0.0
    assert least == 0.0 and np.copysign(1.0, least) == 1.0


def test_analyze_names_the_factor_route_only_where_it_decided():
    proved = analyze(FACTOR_ROUTE_MAPS["conjugation-n6"](), samples=50)
    measured = analyze(FALLBACK_ROUTE_MAPS["trace-mixed-n6"](), samples=50)
    assert proved["complete_positivity"]["method"].startswith("pivoted Cholesky factor")
    assert measured["complete_positivity"]["method"] == "least eigenvalue of the Choi matrix"


def _falsifier_calls(monkeypatch) -> list:
    """Record each map that analyze hands to the seesaw falsifier."""
    calls = []
    falsifier = analysis.randomized_positivity_falsifier

    def recorded(phi, **kwargs):
        calls.append(phi)
        return falsifier(phi, **kwargs)

    monkeypatch.setattr(analysis, "randomized_positivity_falsifier", recorded)
    return calls


@pytest.mark.parametrize("name", sorted(FACTOR_ROUTE_MAPS))
def test_analyze_takes_positivity_from_a_proof_of_complete_positivity(name, monkeypatch):
    calls = _falsifier_calls(monkeypatch)
    report = analyze(FACTOR_ROUTE_MAPS[name](), samples=50)
    complete = report["complete_positivity"]
    assert calls == []
    assert complete["completely_positive"] is True
    assert complete["method"] == analysis.choi_method(True)
    assert report["positivity"] == {
        "method": analysis._POSITIVE_BY_CHOI,
        "passed": True,
        "choi_lower_bound": complete["choi_min_eigenvalue"],
    }


SEESAW_MAPS = {
    # completely positive, but decided by eigvalsh below the factor's floor
    "conjugation-n4": lambda: _conjugation(random_unitary(rng_for(50, 4), 4)),
    "ex1-generic": lambda: build_example1(np.exp(2j * np.pi / 5))[0],
    # on two blocks, where no Choi matrix is formed
    "ex2-generic": lambda: build_example2(np.exp(2j * np.pi / 5))[0],
    **FALLBACK_ROUTE_MAPS,
}


@pytest.mark.parametrize("name", sorted(SEESAW_MAPS))
def test_analyze_keeps_the_seesaw_where_complete_positivity_is_not_proved(
    name, monkeypatch
):
    phi = SEESAW_MAPS[name]()
    calls = _falsifier_calls(monkeypatch)
    report = analyze(phi, seed=7, samples=50)
    assert calls == [phi]
    result = randomized_positivity_falsifier(phi, samples=50, seed=7)
    assert report["positivity"] == {
        "method": "seesaw descent over seeded pure inputs, one input and one "
        "output block at a time; a clean sweep is evidence, not a proof",
        "confidence": "reduced",
        "passed": result.passed,
        "min_output_eig": result.min_output_eig,
        "max_hermiticity_defect": result.max_hermiticity_defect,
        "samples": result.samples,
        "seed": 7,
    }


def test_choi_matrix_rejects_multi_block_algebras():
    algebra = BlockAlgebra((2, 2))
    with pytest.raises(MultiBlockUnsupported):
        choi_matrix(Superoperator(algebra, np.eye(algebra.dim)))


def test_falsifier_passes_positive_map_and_is_deterministic():
    phi, _ = build_example1(np.exp(2j * np.pi / 5))
    first = randomized_positivity_falsifier(phi, samples=2000, seed=7)
    second = randomized_positivity_falsifier(phi, samples=2000, seed=7)
    assert first.passed
    assert first.min_output_eig == second.min_output_eig
    assert first.max_hermiticity_defect < 1e-12
    rho = first.worst_input
    assert rho.trace() == pytest.approx(1.0, abs=1e-12)
    for part in rho.parts:
        assert np.min(np.linalg.eigvalsh(part)) > -1e-12


def test_falsifier_finds_negative_output_of_non_positive_map():
    algebra = BlockAlgebra((2,))
    leaky = from_action(
        algebra,
        lambda x: algebra.element([x.parts[0].T - 0.1 * x.trace() * np.eye(2)]),
    )
    result = randomized_positivity_falsifier(leaky, samples=1000, seed=42)
    assert not result.passed
    assert result.min_output_eig < -0.05


# The ex1 off-diagonal scaled by 1 + delta at the benchmark's two fixed
# lambda0: a pure state maps to [[1/2, k b], [conj(k b), 1/2]] with |b| <= 1/2
# and |k| = 1 + delta, so the least output eigenvalue is exactly -delta / 2.
SCALED_LAMBDAS = (np.exp(2j * np.pi / 5), np.exp(2j * np.pi * 3 / 7))


def _scaled_example1(lam: complex, delta: float) -> Superoperator:
    phi, _ = build_example1(lam)
    matrix = phi.matrix.copy()
    matrix[1, 1] *= 1.0 + delta
    matrix[2, 2] *= 1.0 + delta
    return Superoperator(phi.algebra, matrix)


def _reduction(algebra: BlockAlgebra, delta: float) -> Superoperator:
    """tr(x) 1 - (1 + delta) x, whose least output on pure states is -delta."""
    n = algebra.blocks[0]
    return from_action(
        algebra,
        lambda x: algebra.element([x.trace() * np.eye(n) - (1.0 + delta) * x.parts[0]]),
    )


def _wishart_reference(phi: Superoperator, samples: int, seed: int) -> float:
    """Least output eigenvalue over blockwise Wishart inputs g g* of unit total
    trace, in chunks of 512 seeded by (seed, chunk index): the falsifier's
    former sampling loop."""
    blocks = phi.algebra.blocks
    best = np.inf
    for chunk, start in enumerate(range(0, samples, 512)):
        count = min(512, samples - start)
        rng = np.random.default_rng([seed, chunk])
        parts = []
        for n in blocks:
            g = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
            parts.append(g @ g.conj().transpose(0, 2, 1))
        traces = sum(np.trace(p, axis1=1, axis2=2).real for p in parts)
        vecs = np.concatenate(
            [(p / traces[:, None, None]).reshape(count, -1) for p in parts], axis=1
        )
        out = vecs @ phi.matrix.T
        offset = 0
        for n in blocks:
            block = out[:, offset : offset + n * n].reshape(count, n, n)
            offset += n * n
            w = np.linalg.eigvalsh(0.5 * (block + block.conj().transpose(0, 2, 1)))
            best = min(best, float(w[:, 0].min()))
    return best


def _random_hermiticity_preserving(algebra: BlockAlgebra, rng) -> Superoperator:
    """Difference of two random completely positive maps between all blocks."""
    blocks = algebra.blocks
    kraus = {
        (j, i): [
            (random_complex(rng, ni, nj), 0.5 * random_complex(rng, ni, nj))
            for _ in range(2)
        ]
        for j, nj in enumerate(blocks)
        for i, ni in enumerate(blocks)
    }

    def action(x):
        parts = []
        for i, ni in enumerate(blocks):
            y = np.zeros((ni, ni), dtype=np.complex128)
            for j, xj in enumerate(x.parts):
                for a, b in kraus[j, i]:
                    y += a @ xj @ a.conj().T - b @ xj @ b.conj().T
            parts.append(y)
        return algebra.element(parts)

    return from_action(algebra, action)


@pytest.mark.parametrize("lam", SCALED_LAMBDAS)
def test_seesaw_fails_ex1_scaled_past_positivity(lam):
    result = randomized_positivity_falsifier(_scaled_example1(lam, 1e-4))
    assert not result.passed
    assert abs(result.min_output_eig - (-5e-5)) <= 1e-9


@pytest.mark.parametrize("lam", SCALED_LAMBDAS)
def test_seesaw_passes_ex1_scaled_short_of_the_boundary(lam):
    result = randomized_positivity_falsifier(_scaled_example1(lam, -1e-4))
    assert result.passed
    assert result.min_output_eig == pytest.approx(5e-5, abs=1e-9)


def test_seesaw_finds_the_reduction_map_minimum():
    delta = 1e-3
    result = randomized_positivity_falsifier(_reduction(BlockAlgebra((3,)), delta))
    assert not result.passed
    assert result.min_output_eig == pytest.approx(-delta, abs=1e-12)


def test_seesaw_finds_the_one_negative_piece_between_blocks():
    """Block 0 goes to itself and, through the reduction map, to block 1;
    block 1 goes to its own trace. Only the piece 0 -> 1 is not positive."""
    algebra = BlockAlgebra((2, 3))
    delta = 1e-3
    v = np.linalg.qr(random_complex(rng_for(60), 3, 2))[0]
    phi = from_action(
        algebra,
        lambda x: algebra.element(
            [
                x.parts[0],
                np.trace(x.parts[0]) * np.eye(3)
                - (1.0 + delta) * v @ x.parts[0] @ v.conj().T
                + np.trace(x.parts[1]) * np.eye(3) / 3.0,
            ]
        ),
    )
    result = randomized_positivity_falsifier(phi)
    assert not result.passed
    assert result.min_output_eig == pytest.approx(-delta, abs=1e-12)
    assert np.all(result.worst_input.parts[1] == 0.0)


@pytest.mark.parametrize("blocks", [(2,), (3,), (2, 3)])
def test_seesaw_witness_is_a_pure_state_in_one_block(blocks):
    algebra = BlockAlgebra(blocks)
    phi = _random_hermiticity_preserving(algebra, rng_for(61, *blocks))
    result = randomized_positivity_falsifier(phi, samples=3000, seed=5)
    rho = result.worst_input
    support = [k for k, part in enumerate(rho.parts) if np.any(part != 0.0)]
    assert len(support) == 1
    part = rho.parts[support[0]]
    assert np.trace(part).real == pytest.approx(1.0, abs=1e-12)
    w = np.linalg.eigvalsh(part)
    assert w[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.abs(w[:-1]) <= 1e-12)
    image = phi(rho)
    least = min(
        np.linalg.eigvalsh(0.5 * (p + p.conj().T))[0] for p in image.parts
    )
    assert least == pytest.approx(result.min_output_eig, abs=1e-12)
    assert not result.passed


@pytest.mark.parametrize("samples", [1, 5, 17, 100, 10000])
@pytest.mark.parametrize("blocks", [(2,), (1, 1), (2, 3)])
def test_seesaw_is_deterministic_and_keeps_its_budget(blocks, samples):
    algebra = BlockAlgebra(blocks)
    phi = _random_hermiticity_preserving(algebra, rng_for(62, *blocks))
    first = randomized_positivity_falsifier(phi, samples=samples, seed=11)
    second = randomized_positivity_falsifier(phi, samples=samples, seed=11)
    assert 1 <= first.samples <= samples
    assert first.samples == second.samples
    assert first.min_output_eig == second.min_output_eig
    assert first.max_hermiticity_defect == second.max_hermiticity_defect
    for a, b in zip(first.worst_input.parts, second.worst_input.parts):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("index", range(6))
@pytest.mark.parametrize("blocks", [(2,), (3,), (2, 2), (2, 3)])
def test_seesaw_minimum_never_above_the_wishart_reference(blocks, index):
    algebra = BlockAlgebra(blocks)
    rng = rng_for(63, index, *blocks)
    phi = _random_hermiticity_preserving(algebra, rng)
    if index % 2:
        # shift to just below positivity, where sampled mixed inputs miss
        # by (least + 1e-4) tr(x) 1, where tr(x) = <vec(1), vec(x)>
        least = randomized_positivity_falsifier(phi, seed=index).min_output_eig
        one = vectorize(algebra.identity())
        phi = Superoperator(algebra, phi.matrix - (least + 1e-4) * np.outer(one, one))
    seesaw = randomized_positivity_falsifier(phi, seed=index).min_output_eig
    assert seesaw <= _wishart_reference(phi, 2000, index) + 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=3))
def test_schur_criterion_accepts_hypothesis_psd(seed, n):
    rng = np.random.default_rng(seed)
    matrix = random_psd(rng, 2 * n)
    assert criterion_epsilon(_split(matrix), tol=AGREEMENT_TOL).is_psd
