"""Seeded inputs for the four benchmark workloads, with their expected outputs.

Everything here is computed with numpy from closed forms or from the map
matrices the benchmark builds itself; nothing is imported from perispec.
perispec only ever sees the map files written by :func:`build`.

Vectorization follows the map-file format: the blocks of an element are
flattened row-major and concatenated, and a superoperator is the matrix that
acts on those vectors. Row-major, ``vec(u x u*) = kron(u, conj(u)) vec(x)``.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("preset-sweep", "peripheral-ladder", "contracting-large", "acceptance-suite")

LADDER_SIDES = (4, 6, 8, 10, 12)
CONTRACTING_SIDES = (8, 16, 24)

# ex1 / ex2 angles in degrees that the paper singles out: lambda0 = -1 and the
# cube roots (group regime), lambda0 = +-i (ex2's merged regime).
EX1_SPECIAL_DEG = (180.0, 120.0, 240.0, 90.0, 270.0)
EX2_SPECIAL_DEG = (120.0, 240.0, 90.0, 270.0)  # ex2 rejects lambda0 = -1
GENERIC_COUNT = 3
CONTINUOUS_TIMES = 3

# Explicit ex1 maps with the off-diagonal scaled by 1 + delta. They do not
# depend on the seed: the +1e-4 maps are not positive (exact minimum -delta/2)
# and expose the falsifier fault on every run.
SCALED_LAMBDAS = (cmath.exp(2j * cmath.pi / 5), cmath.exp(2j * cmath.pi * 3 / 7))
SCALED_DELTAS = (1e-4, -1e-4)
FALSIFIER_FAULT = "positivity"

# Distinct expected eigenvalues of seeded inputs are kept this far apart, far
# outside perispec's merge radius (1e-7); closer draws are redrawn.
MIN_SEPARATION = 1e-5

SUITE_CRITERIA = tuple(f"criterion_{k:02d}" for k in range(1, 11))


@dataclass
class MapOp:
    """One ``perispec analyze`` call and what its report must say."""

    label: str
    path: Path
    blocks: tuple[int, ...]
    matrix: np.ndarray
    eigenvalues: list[complex]  # peripheral eigenvalues with multiplicity
    tags: dict = field(default_factory=dict)  # eigenvalue -> case tag, 1-dim points
    min_pure: float = 0.0  # exact least output eigenvalue over pure states
    choi_min: float | None = None  # closed form, single-block maps only
    group: bool | None = None  # expected is_group, presets only
    continuous: bool = False
    known_fault: str | None = None


@dataclass
class SuiteOp:
    """One acceptance criterion run through perispec.suite at its defaults."""

    label: str
    function: str
    known_fault: str | None = None


@dataclass
class Workload:
    name: str
    ops: list
    heaviest: int  # index of the op reported as largest_op_s

    @property
    def files(self) -> list[Path]:
        return [op.path for op in self.ops if isinstance(op, MapOp)]


# ----------------------------------------------------------------------
# Map files


def write_explicit(path: Path, blocks: tuple[int, ...], matrix: np.ndarray) -> None:
    """Write an explicit map file row by row, so a large map never exists as
    one Python object tree."""
    with open(path, "w") as f:
        f.write('{"algebra": {"blocks": %s}, "map": {"superop": [' % json.dumps(list(blocks)))
        for i, row in enumerate(matrix):
            if i:
                f.write(",\n")
            f.write(json.dumps([[float(z.real), float(z.imag)] for z in row]))
        f.write("]}}\n")


def write_preset(path: Path, name: str, lambda0: complex | None, t: float | None) -> None:
    stanza: dict = {"name": name}
    if lambda0 is not None:
        stanza["lambda0"] = [float(lambda0.real), float(lambda0.imag)]
    if t is not None:
        stanza["t"] = float(t)
    path.write_text(json.dumps({"map": {"preset": stanza}}) + "\n")


# ----------------------------------------------------------------------
# Closed forms for the preset families


def ex1_matrix(lam: complex) -> np.ndarray:
    """ex1 on one 2x2 block: average the diagonal, rotate the off-diagonal.
    ``lam`` may be scaled off the unit circle for the explicit variants."""
    m = np.zeros((4, 4), dtype=np.complex128)
    m[0, 0] = m[0, 3] = m[3, 0] = m[3, 3] = 0.5
    m[1, 1] = lam
    m[2, 2] = np.conj(lam)
    return m


def ex2_matrix(lam: complex, w: complex) -> np.ndarray:
    """ex2 on two 2x2 blocks with coordinate mixing psi = [[c, s], [s, c]],
    c = (1 + w) / 2, s = (1 - w) / 2 (w = -1 is the plain swap)."""
    c, s = (1 + w) / 2, (1 - w) / 2
    psi = np.array([[c, s], [s, c]])
    m = np.zeros((8, 8), dtype=np.complex128)

    def idx(block: int, r: int, col: int) -> int:
        return 4 * block + 2 * r + col

    for j in range(2):  # output block
        for k in range(2):  # input block
            for r in range(2):
                m[idx(j, r, r), idx(k, 0, 0)] = psi[j, k] / 2
                m[idx(j, r, r), idx(k, 1, 1)] = psi[j, k] / 2
            m[idx(j, 0, 1), idx(k, 0, 1)] = lam * psi[j, k]
            m[idx(j, 1, 0), idx(k, 1, 0)] = np.conj(lam) * psi[j, k]
    return m


def ex1_spectrum(lam: complex) -> list[tuple[complex, str]]:
    return [(1.0 + 0j, "III"), (lam, "I"), (lam.conjugate(), "I")]


def ex2_spectrum(lam: complex, w: complex) -> list[tuple[complex, str]]:
    return [
        (1.0 + 0j, "III"),
        (w, "III"),
        (lam, "I"),
        (lam * w, "I"),
        (lam.conjugate(), "I"),
        (lam.conjugate() * w, "I"),
    ]


def phase_power(value: complex, t: float) -> complex:
    """value**t through the principal argument, as the continuous presets
    define it for non-integer t."""
    return cmath.exp(1j * cmath.phase(value) * t)


def is_group(values: list[complex], tol: float = 1e-7) -> bool:
    """Whether a finite set of unit complex numbers is closed under products
    and conjugation and contains 1."""
    v = np.array(values)

    def present(z: np.ndarray) -> np.ndarray:
        return np.min(np.abs(z[:, None] - v[None, :]), axis=1) <= tol

    products = (v[:, None] * v[None, :]).ravel()
    return bool(
        present(np.array([1.0 + 0j]))[0] and present(v.conj()).all() and present(products).all()
    )


def well_separated(values: list[complex]) -> bool:
    """Distinct values (not coinciding to 1e-12) are MIN_SEPARATION apart."""
    v = np.array(values)
    gaps = np.abs(v[:, None] - v[None, :])
    return not np.any((gaps > 1e-12) & (gaps < MIN_SEPARATION))


def unit(deg: float) -> complex:
    rad = np.deg2rad(deg)
    return complex(np.cos(rad), np.sin(rad))


def _preset_op(out: Path, label: str, name: str, lam: complex, t: float | None = None) -> MapOp:
    path = out / f"{label}.json"
    write_preset(path, name, lam, t)
    if name == "ex1":
        spec, matrix, blocks = ex1_spectrum(lam), ex1_matrix(lam), (2,)
    elif name == "ex2":
        spec, matrix, blocks = ex2_spectrum(lam, -1.0 + 0j), ex2_matrix(lam, -1.0 + 0j), (2, 2)
    elif name == "ex1c":
        lt = phase_power(lam, t)
        spec, matrix, blocks = ex1_spectrum(lt), ex1_matrix(lt), (2,)
    else:  # ex2c
        lt, w = phase_power(lam, t), phase_power(-1.0 + 0j, t)
        spec, matrix, blocks = ex2_spectrum(lt, w), ex2_matrix(lt, w), (2, 2)
    values = [v for v, _ in spec]
    return MapOp(
        label=label,
        path=path,
        blocks=blocks,
        matrix=matrix,
        eigenvalues=values,
        tags=dict(spec),
        # the least Choi eigenvalue of the single-block family is -1/2
        choi_min=-0.5 if len(blocks) == 1 else None,
        group=is_group(values),
        continuous=name in ("ex1c", "ex2c"),
    )


def _draw_generic_angle(rng: np.random.Generator) -> float:
    """An angle in degrees whose ex1 and ex2 spectra are well separated."""
    while True:
        deg = float(rng.uniform(1.0, 359.0))
        lam = unit(deg)
        if well_separated([v for v, _ in ex2_spectrum(lam, -1.0 + 0j)]):
            return deg


def _draw_time(rng: np.random.Generator, lam: complex, name: str) -> float:
    """A non-integer snapshot time whose spectrum is well separated."""
    while True:
        t = float(rng.uniform(0.3, 4.7))
        if abs(t - round(t)) < 0.05:
            continue
        lt, w = phase_power(lam, t), phase_power(-1.0 + 0j, t)
        spec = ex1_spectrum(lt) if name == "ex1c" else ex2_spectrum(lt, w)
        if well_separated([v for v, _ in spec]):
            return t


def preset_sweep(seed: int, out: Path) -> Workload:
    rng = np.random.default_rng([seed, 1])
    generic = [_draw_generic_angle(rng) for _ in range(GENERIC_COUNT)]
    ops = []
    for deg in EX1_SPECIAL_DEG + tuple(generic):
        ops.append(_preset_op(out, f"ex1-{deg:.4f}deg", "ex1", unit(deg)))
    for deg in EX2_SPECIAL_DEG + tuple(generic):
        ops.append(_preset_op(out, f"ex2-{deg:.4f}deg", "ex2", unit(deg)))
    lam_c = unit(_draw_generic_angle(rng))
    for name in ("ex1c", "ex2c"):
        for _ in range(CONTINUOUS_TIMES):
            t = _draw_time(rng, lam_c, name)
            ops.append(_preset_op(out, f"{name}-t{t:.4f}", name, lam_c, t))
    swap = out / "psi_swap.json"
    write_preset(swap, "psi_swap", None, None)
    ops.append(
        MapOp(
            label="psi_swap",
            path=swap,
            blocks=(1, 1),
            matrix=np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128),
            eigenvalues=[1.0 + 0j, -1.0 + 0j],
            tags={1.0 + 0j: "III", -1.0 + 0j: "III"},
            group=True,
        )
    )
    for k, lam in enumerate(SCALED_LAMBDAS):
        for delta in SCALED_DELTAS:
            label = f"ex1-scaled{k}-{'plus' if delta > 0 else 'minus'}"
            path = out / f"{label}.json"
            matrix = ex1_matrix((1.0 + delta) * lam)
            write_explicit(path, (2,), matrix)
            ops.append(
                MapOp(
                    label=label,
                    path=path,
                    blocks=(2,),
                    matrix=matrix,
                    # (1 +- delta) lambda0 sits 1e-4 off the circle
                    eigenvalues=[1.0 + 0j],
                    tags={1.0 + 0j: "III"},
                    # pure state output [[1/2, k b], [conj(k b), 1/2]], |b| <= 1/2
                    min_pure=-delta / 2,
                    choi_min=-0.5 - delta,
                    known_fault=FALSIFIER_FAULT if delta > 0 else None,
                )
            )
    heaviest = next(i for i, op in enumerate(ops) if op.label.startswith("ex2c"))
    return Workload("preset-sweep", ops, heaviest)


# ----------------------------------------------------------------------
# Explicit single-block maps


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def peripheral_ladder(seed: int, out: Path, sides=LADDER_SIDES) -> Workload:
    """Conjugations x -> u x u*: every eigenvalue exp(i(a_j - a_k)) of the map
    is peripheral, and the fixed space (j = k) has dimension n."""
    ops = []
    for n in sides:
        rng = np.random.default_rng([seed, 2, n])
        while True:
            u = haar_unitary(rng, n)
            phases = np.angle(np.linalg.eigvals(u))
            diffs = np.exp(1j * (phases[:, None] - phases[None, :]))
            np.fill_diagonal(diffs, 1.0)
            values = list(diffs.ravel())
            if well_separated(values):
                break
        label = f"conj-n{n}"
        path = out / f"{label}.json"
        matrix = np.kron(u, u.conj())
        write_explicit(path, (n,), matrix)
        ops.append(MapOp(label=label, path=path, blocks=(n,), matrix=matrix, eigenvalues=values))
    return Workload("peripheral-ladder", ops, len(ops) - 1)


def contracting_large(seed: int, out: Path, sides=CONTRACTING_SIDES) -> Workload:
    """Mixed-unitary channels sum_k w_k U_k x U_k*: unital, trace preserving
    and completely positive; with a spectral gap only 1 is peripheral."""
    ops = []
    for n in sides:
        rng = np.random.default_rng([seed, 3, n])
        while True:
            weights = rng.uniform(0.2, 1.0, 3)
            weights /= weights.sum()
            unitaries = [haar_unitary(rng, n) for _ in weights]
            matrix = sum(w * np.kron(v, v.conj()) for w, v in zip(weights, unitaries))
            moduli = np.sort(np.abs(np.linalg.eigvals(matrix)))
            if moduli[-2] < 0.95:
                break
        label = f"mixed-n{n}"
        path = out / f"{label}.json"
        write_explicit(path, (n,), matrix)
        ops.append(
            MapOp(
                label=label,
                path=path,
                blocks=(n,),
                matrix=matrix,
                eigenvalues=[1.0 + 0j],
                tags={1.0 + 0j: "III"},
            )
        )
    return Workload("contracting-large", ops, len(ops) - 1)


def acceptance_suite(seed: int, out: Path) -> Workload:
    # The suite runs at its defaults (seed 42); the benchmark seed does not
    # enter, so its inputs are the same on every run.
    ops = [SuiteOp(label=f"c{k + 1:02d}", function=f) for k, f in enumerate(SUITE_CRITERIA)]
    return Workload("acceptance-suite", ops, SUITE_CRITERIA.index("criterion_06"))


def build(name: str, seed: int, out: Path, smallest: bool = False) -> Workload:
    """Write the inputs of one workload under ``out`` and return its ops.

    ``smallest`` keeps only the smallest map of the two ladders."""
    out.mkdir(parents=True, exist_ok=True)
    if name == "preset-sweep":
        return preset_sweep(seed, out)
    if name == "peripheral-ladder":
        return peripheral_ladder(seed, out, LADDER_SIDES[:1] if smallest else LADDER_SIDES)
    if name == "contracting-large":
        return contracting_large(seed, out, CONTRACTING_SIDES[:1] if smallest else CONTRACTING_SIDES)
    if name == "acceptance-suite":
        return acceptance_suite(seed, out)
    raise ValueError(f"unknown workload {name!r}; choose one of {WORKLOADS}")
