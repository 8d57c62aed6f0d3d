"""JSON schemas for maps and block matrices, and their (de)serialization.

A map file holds an algebra and either an explicit superoperator matrix or a
preset stanza naming a built-in family. Complex numbers are encoded as
[real, imaginary] pairs; matrices as row-major nested lists of those pairs.
Well-formed numeric matrices are converted by numpy in one pass; anything
else goes through a per-entry parser that names the offending entry.
All serialization is deterministic: keys are sorted, every number is a
plain Python float, and the C JSON encoder renders every value that is not
an object, or a list holding one, on a single line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import presets
from .algebra import AlgebraElement, BlockAlgebra
from .errors import MapFileError
from .positivity import Block2Matrix
from .presets import PRESET_NAMES, ExampleManifest, build_psi_swap
from .superop import ContinuousFamily, Superoperator

__all__ = [
    "LoadedMap",
    "complex_to_pair",
    "matrix_to_json",
    "element_to_json",
    "load_map_file",
    "load_block2_file",
    "explicit_map_dict",
    "preset_map_dict",
    "dump_json",
]


def complex_to_pair(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def matrix_to_json(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=np.complex128)
    return np.stack((m.real, m.imag), axis=-1).tolist()


def element_to_json(x: AlgebraElement) -> list:
    return [matrix_to_json(p) for p in x.parts]


_encode = json.JSONEncoder(sort_keys=True, allow_nan=False).encode


def _render(value, indent: str) -> str:
    inner = indent + "  "
    if isinstance(value, dict) and value:
        items = [f"{_encode(key)}: {_render(value[key], inner)}" for key in sorted(value)]
        brackets = "{}"
    elif isinstance(value, (list, tuple)) and any(isinstance(v, dict) for v in value):
        items = [_render(v, inner) for v in value]
        brackets = "[]"
    else:
        return _encode(value)
    body = ",\n".join(inner + item for item in items)
    return f"{brackets[0]}\n{body}\n{indent}{brackets[1]}"


def dump_json(document: dict) -> str:
    """Canonical rendering with a trailing newline. Keys, which must be
    strings, are sorted at every depth, and NaN or infinity is rejected. Each
    object, and each list holding an object, spreads its members over
    two-space indented lines; every other value (a number, an [re, im] pair,
    a matrix, a list of strings) sits on one line."""
    return _render(document, "") + "\n"


def _parse_complex(obj, where: str) -> complex:
    if isinstance(obj, (int, float)):
        obj = (obj, 0.0)
    if (
        isinstance(obj, (list, tuple))
        and len(obj) == 2
        and all(isinstance(v, (int, float)) for v in obj)
    ):
        value = complex(float(obj[0]), float(obj[1]))
        if np.isfinite(value):
            return value
        raise MapFileError(f"{where}: numbers must be finite")
    raise MapFileError(f"{where}: expected a number or [re, im] pair, got {obj!r}")


def _numeric_matrix(obj: list) -> np.ndarray | None:
    """The matrix of an n x n nested list of numbers or of [re, im] number
    pairs, converted in one numpy pass; None for any other input, which is
    left to the per-entry parser and its messages. Strings, None and
    bool-only input never pass: their dtype kind is not f or i."""
    try:
        arr = np.asarray(obj)
    except ValueError:
        return None
    n = len(obj)
    if arr.dtype.kind not in "fi":
        return None
    if arr.shape == (n, n, 2):
        return np.ascontiguousarray(arr, dtype=np.float64).view(np.complex128)[..., 0]
    if arr.shape == (n, n):
        return arr.astype(np.complex128)
    return None


def _parse_matrix(obj, where: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise MapFileError(f"{where}: expected a nonempty nested list")
    matrix = _numeric_matrix(obj)
    if matrix is not None:
        if not np.isfinite(matrix).all():
            raise MapFileError(f"{where}: entries must be finite")
        return matrix
    rows = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != len(obj):
            raise MapFileError(f"{where}: row {i} does not make the matrix square")
        rows.append([_parse_complex(entry, f"{where}[{i}]") for entry in row])
    return np.array(rows, dtype=np.complex128)


@dataclass(frozen=True)
class LoadedMap:
    """A map file after validation.

    ``family`` and ``manifest`` are filled for presets that provide them;
    ``t`` is the snapshot time used to realize a continuous preset as the
    single map ``phi``.
    """

    phi: Superoperator
    t: float | None = None
    family: ContinuousFamily | None = None
    manifest: ExampleManifest | None = None


def _load_preset(stanza: dict, override_t: float | None) -> LoadedMap:
    if not isinstance(stanza, dict):
        raise MapFileError("map.preset must be an object")
    name = stanza.get("name")
    if name not in PRESET_NAMES:
        raise MapFileError(f"unknown preset {name!r}; choose one of {PRESET_NAMES}")
    t = override_t
    if t is None and "t" in stanza:
        if not isinstance(stanza["t"], (int, float)):
            raise MapFileError("map.preset.t must be a number")
        t = float(stanza["t"])
    continuous = name in ("ex1c", "ex2c")
    if t is not None and not continuous:
        raise MapFileError(f"preset {name!r} reads no t; only ex1c and ex2c take one")
    if name == "psi_swap":
        if "lambda0" in stanza:
            raise MapFileError("preset 'psi_swap' reads no lambda0")
        return LoadedMap(phi=build_psi_swap()[0])
    if "lambda0" not in stanza:
        raise MapFileError(f"preset {name!r} requires a lambda0 entry")
    lambda0 = _parse_complex(stanza["lambda0"], "map.preset.lambda0")
    if t is not None and not np.isfinite(t):
        raise MapFileError(f"t = {t!r} is not finite")
    # looked up at call time, so that a builder rebound on the presets module
    # (as the benchmark's tracer does) is the one called
    phi, manifest = getattr(presets, f"build_example{name[2]}")(lambda0)
    if not continuous:
        return LoadedMap(phi=phi, manifest=manifest)
    family = getattr(presets, f"build_example{name[2]}_continuous")(lambda0)
    t = 1.0 if t is None else t
    return LoadedMap(phi=family.builder(t), t=t, family=family, manifest=manifest)


def _parse_algebra(obj) -> BlockAlgebra:
    if not isinstance(obj, dict) or "blocks" not in obj:
        raise MapFileError("algebra must be an object with a blocks list")
    blocks = obj["blocks"]
    if (
        not isinstance(blocks, list)
        or not blocks
        or not all(isinstance(n, int) and n >= 1 for n in blocks)
    ):
        raise MapFileError("algebra.blocks must be a nonempty list of positive ints")
    return BlockAlgebra(tuple(blocks))


def _read_document(source: str | Path | dict, key: str) -> tuple[dict, dict]:
    """The document (path or already-parsed) and its top-level ``key`` object."""
    if isinstance(source, dict):
        document = source
    else:
        path = Path(source)
        if not path.exists():
            raise MapFileError(f"no such file: {path}")
        try:
            document = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise MapFileError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(document, dict) or key not in document:
        raise MapFileError(f"a {key} file must be an object with a {key} entry")
    stanza = document[key]
    if not isinstance(stanza, dict):
        raise MapFileError(f"{key} must be an object")
    return document, stanza


def load_map_file(source: str | Path | dict, t: float | None = None) -> LoadedMap:
    """Load and validate a map file (path or already-parsed document)."""
    document, stanza = _read_document(source, "map")
    if ("superop" in stanza) == ("preset" in stanza):
        raise MapFileError("map must contain exactly one of superop or preset")
    if "preset" in stanza:
        loaded = _load_preset(stanza["preset"], t)
        if "algebra" in document:
            declared = _parse_algebra(document["algebra"])
            if declared != loaded.phi.algebra:
                raise MapFileError(
                    f"declared blocks {declared.blocks} do not match the preset's "
                    f"{loaded.phi.algebra.blocks}"
                )
        return loaded
    if "algebra" not in document:
        raise MapFileError("an explicit superop needs an algebra entry")
    algebra = _parse_algebra(document["algebra"])
    matrix = _parse_matrix(stanza["superop"], "map.superop")
    if matrix.shape != (algebra.dim, algebra.dim):
        raise MapFileError(
            f"superop of shape {matrix.shape} does not fit coefficient dimension "
            f"{algebra.dim}"
        )
    return LoadedMap(phi=Superoperator(algebra, matrix))


def explicit_map_dict(phi: Superoperator) -> dict:
    """Map-file document with the superoperator written out entry by entry."""
    return {
        "algebra": {"blocks": list(phi.algebra.blocks)},
        "map": {"superop": matrix_to_json(phi.matrix)},
    }


def preset_map_dict(name: str, lambda0: complex | None, t: float | None) -> dict:
    stanza: dict = {"name": name}
    if lambda0 is not None:
        stanza["lambda0"] = complex_to_pair(lambda0)
    if t is not None:
        stanza["t"] = float(t)
    return {"map": {"preset": stanza}}


def load_block2_file(
    source: str | Path | dict,
) -> tuple[Block2Matrix, np.ndarray | None, np.ndarray | None]:
    """Load a block 2x2 matrix file, returning optional congruence factors."""
    _, stanza = _read_document(source, "block2")
    missing = [k for k in ("a", "b", "c", "d") if k not in stanza]
    if missing:
        raise MapFileError(f"block2 is missing entries {missing}")
    blocks = {k: _parse_matrix(stanza[k], f"block2.{k}") for k in ("a", "b", "c", "d")}
    try:
        m = Block2Matrix(**blocks)
    except Exception as exc:
        raise MapFileError(str(exc)) from exc
    x = _parse_matrix(stanza["x"], "block2.x") if "x" in stanza else None
    y = _parse_matrix(stanza["y"], "block2.y") if "y" in stanza else None
    return m, x, y
