"""JSON schemas for maps and block matrices, and their (de)serialization.

A map file holds an algebra and either an explicit superoperator matrix or a
preset stanza naming a built-in family. Complex numbers are encoded as
[real, imaginary] pairs; matrices as row-major nested lists of those pairs.
Every object passes one key check that names each missing and unknown key,
and JSON true and false are not numbers. Well-formed numeric matrices are
converted by numpy row by row: the superop of an explicit map file is read
from its text one row at a time, each row straight into a numpy array, and
the rows are stacked in one pass. numpy would read a boolean among numbers as
0 or 1, so every matrix is searched for one, and a matrix holding one, like
anything else numpy cannot stack, goes through a per-entry parser that names
the offending entry. Rows are read into numpy arrays only from a text that
holds no t and no f, so no boolean can hide in an array row.
All serialization is deterministic: keys are sorted, every number is a
plain Python float, and the C JSON encoder renders every value that is not
an object, or a list holding one, on a single line.
"""

from __future__ import annotations

import json
import re
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
    m = np.ascontiguousarray(m, dtype=np.complex128)
    return m.view(np.float64).reshape(*m.shape, 2).tolist()


def element_to_json(x: AlgebraElement) -> list:
    return [matrix_to_json(p) for p in x.parts]


_encode = json.JSONEncoder(sort_keys=True, allow_nan=False, check_circular=False).encode


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
    a matrix, a list of strings) sits on one line. ``document`` must be a
    tree: the encoder does not look for cycles, and one that contains itself
    raises RecursionError."""
    return _render(document, "") + "\n"


def _is_number(value, kinds: type | tuple = (int, float)) -> bool:
    """``value`` is one of ``kinds`` and no bool, which Python counts as an int."""
    return isinstance(value, kinds) and not isinstance(value, bool)


def _fields(obj, where: str, required: tuple = (), optional: tuple = ()) -> dict:
    """``obj`` itself, once it is an object holding every ``required`` key and
    no key outside ``required`` and ``optional``."""
    if not isinstance(obj, dict):
        raise MapFileError(f"{where} must be an object, got {type(obj).__name__}")
    missing = [key for key in required if key not in obj]
    unknown = sorted(set(obj) - {*required, *optional}, key=str)
    if missing or unknown:
        raise MapFileError(f"{where}: missing {missing}, unknown {unknown}; it takes "
                           f"{', '.join((*required, *optional))}")
    return obj


def _float(number: int | float, where: str) -> float:
    """``float(number)``, rejecting a JSON integer beyond the float range."""
    try:
        return float(number)
    except OverflowError:
        raise MapFileError(f"{where}: an integer beyond the float range") from None


def _parse_complex(obj, where: str) -> complex:
    if _is_number(obj):
        obj = (obj, 0.0)
    if isinstance(obj, (list, tuple)) and len(obj) == 2 and all(map(_is_number, obj)):
        value = complex(_float(obj[0], where), _float(obj[1], where))
        if np.isfinite(value):
            return value
        raise MapFileError(f"{where}: numbers must be finite")
    raise MapFileError(f"{where}: expected a number or [re, im] pair, got {obj!r}")


def _numeric_matrix(obj: list) -> np.ndarray | None:
    """The matrix of a list of n rows, each a list or a numpy array, of n
    numbers or n [re, im] number pairs, stacked by numpy in one pass; None
    for any other input, which is left to the per-entry parser and its
    messages. Strings, None and bool-only input never pass: their dtype kind
    is not f or i."""
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


def _holds_boolean(obj: list) -> bool:
    """Whether a nested list holds a JSON true or false."""
    return any(
        v is True or v is False or (isinstance(v, list) and _holds_boolean(v)) for v in obj
    )


def _parse_matrix(obj, where: str) -> np.ndarray:
    """The matrix of ``obj``. A JSON true or false in it sends it to the
    per-entry parser, which rejects it."""
    if not isinstance(obj, list) or not obj:
        raise MapFileError(f"{where}: expected a nonempty nested list")
    matrix = _numeric_matrix(obj)
    if matrix is not None and not _holds_boolean(obj):
        if not np.isfinite(matrix).all():
            raise MapFileError(f"{where}: entries must be finite")
        return matrix
    rows = []
    for i, row in enumerate(obj):
        if isinstance(row, np.ndarray):
            row = row.tolist()  # a row of a file, as its numbers or pairs (see _row)
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


def _load_preset(stanza, override_t: float | None) -> LoadedMap:
    name = _fields(stanza, "map.preset", ("name",), ("lambda0", "t"))["name"]
    if name not in PRESET_NAMES:
        raise MapFileError(f"unknown preset {name!r}; choose one of {PRESET_NAMES}")
    if "t" in stanza and not _is_number(stanza["t"]):
        raise MapFileError(f"map.preset.t must be a number, got {stanza['t']!r}")
    t = _float(stanza["t"], "map.preset.t") if override_t is None and "t" in stanza else override_t
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
    blocks = _fields(obj, "algebra", ("blocks",))["blocks"]
    if isinstance(blocks, list) and blocks and all(_is_number(n, int) and n > 0 for n in blocks):
        return BlockAlgebra(tuple(blocks))
    raise MapFileError(
        f"algebra.blocks must be a nonempty list of positive ints, got {blocks!r}"
    )


_scan = json.JSONDecoder().scan_once
_skip = json.decoder.WHITESPACE.match
# an object key without escapes, and the colon after it
_KEY = re.compile(r'[ \t\n\r]*"([^"\\\x00-\x1f]*)"[ \t\n\r]*:[ \t\n\r]*')


def _row(row):
    """A superop row as a numpy array when numpy reads it as numbers or as
    [re, im] pairs, entries the per-entry parser never names; any other row
    stays as parsed, so that parser's messages show it as written."""
    if not isinstance(row, list):
        return row
    try:
        arr = np.asarray(row)
    except ValueError:  # a ragged row
        return row
    return arr if arr.dtype.kind in "fi" and arr.shape[1:] in ((), (2,)) else row


def _decode(text: str, idx: int, reads) -> tuple[object, int]:
    """The JSON value at ``idx`` of ``text`` and the index past it. A dict
    ``reads`` reads an object key by key, each value as ``reads.get(key)``
    says; ``_row`` reads an array item by item, each through ``_row``. What
    the loop does not read (None, another type, an empty or malformed value,
    a key with escapes) the C scanner reads whole from ``idx``, so malformed
    text raises what json.loads raises."""
    rows = reads is _row
    opener, closer = "[]" if rows else "{}"
    if reads is None or text[idx:idx + 1] != opener:
        return _scan(text, idx)
    items, end = [], idx + 1
    while True:
        if rows:
            try:
                value, end = _scan(text, _skip(text, end).end())
            except StopIteration:
                break
            items.append(_row(value))
        elif key := _KEY.match(text, end):
            value, end = _decode(text, key.end(), reads.get(key[1]))
            items.append((key[1], value))
        else:
            break
        end = _skip(text, end).end()
        if text[end:end + 1] == closer:
            return (items if rows else dict(items)), end + 1
        if text[end:end + 1] != ",":
            break
        end += 1
    return _scan(text, idx)


class _RowDecoder(json.JSONDecoder):
    """json.loads, with the rows of map.superop read one at a time into
    numpy arrays, so a large map never exists as one Python object tree."""

    def __init__(self):
        super().__init__()
        self.scan_once = lambda text, idx: _decode(text, idx, {"map": {"superop": _row}})


def _read_document(source: str | Path | dict) -> object:
    """The document, from a path or already parsed. Only a text that holds
    no t and no f, so no JSON true or false, has its superop rows read into
    numpy arrays; _holds_boolean sees every list of the rest."""
    if isinstance(source, dict):
        return source
    path = Path(source)
    if not path.exists():
        raise MapFileError(f"no such file: {path}")
    # ValueError covers invalid JSON, text that is not UTF-8 and an integer
    # literal past Python's digit limit
    try:
        text = path.read_text()
        booleans = "t" in text or "f" in text
        return json.loads(text, cls=None if booleans else _RowDecoder)
    except (OSError, ValueError) as exc:
        raise MapFileError(f"cannot parse {path}: {exc}") from exc


def load_map_file(source: str | Path | dict, t: float | None = None) -> LoadedMap:
    """Load and validate a map file (path or already-parsed document).

    ``t`` overrides the snapshot time of a continuous preset; every other map
    reads no t and rejects it."""
    document = _read_document(source)
    document = _fields(document, "map file", ("map",), ("algebra",))
    stanza = _fields(document["map"], "map", optional=("superop", "preset"))
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
    if t is not None:
        raise MapFileError("an explicit superop reads no t; only ex1c and ex2c take one")
    if "algebra" not in document:
        raise MapFileError("an explicit superop needs an algebra entry")
    algebra = _parse_algebra(document["algebra"])
    matrix = _parse_matrix(stanza["superop"], "map.superop")
    if matrix.shape != (algebra.dim, algebra.dim):
        raise MapFileError(
            f"superop of shape {matrix.shape} does not fit coefficient dimension "
            f"{algebra.dim}"
        )
    # _parse_matrix has checked the entries and the shape is checked above
    return LoadedMap(phi=Superoperator._wrap(algebra, matrix))


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
    document = _read_document(source)
    document = _fields(document, "block2 file", ("block2",))
    stanza = _fields(document["block2"], "block2", ("a", "b", "c", "d"), ("x", "y"))
    blocks = {
        k: _parse_matrix(stanza[k], f"block2.{k}") for k in ("a", "b", "c", "d")
    }
    try:
        m = Block2Matrix(**blocks)
    except Exception as exc:
        raise MapFileError(str(exc)) from exc
    factors = {
        k: _parse_matrix(stanza[k], f"block2.{k}") for k in ("x", "y") if k in stanza
    }
    misfits = [f"{k} has side {len(f)}" for k, f in factors.items() if len(f) != m.side]
    if misfits:
        raise MapFileError(f"block2 blocks have side {m.side}, but {' and '.join(misfits)}")
    return m, factors.get("x"), factors.get("y")
