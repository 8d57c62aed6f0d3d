"""Command-line interface.

Subcommands:

  analyze     full spectral and positivity report for a map file
  classify    classify eigenvectors at one peripheral eigenvalue
  positivity  block 2x2 criteria and transformations
  choi        Choi matrix and complete-positivity verdict
  example     write a preset map file
  suite       run the acceptance criteria

Reports are deterministic JSON: two runs with the same inputs, seed, and
sample count produce byte-identical output. Exit codes: 0 on success, 2 for
malformed or unsupported input, 3 for numerical failures; the suite exits 1
when a criterion fails.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import re
import sys
from pathlib import Path

import numpy as np

from .algebra import DEFAULT_TOL, Tolerances, vectorize
from .analysis import (
    STANDARD_SAMPLES,
    analyze,
    choi_method,
    classification_entry,
    tolerances_entry,
)
from .errors import (
    BadLambda0,
    LambdaNotInSpectrum,
    MapFileError,
    MultiBlockUnsupported,
    PerispecError,
)
from .mapfile import (
    complex_to_pair,
    dump_json,
    element_to_json,
    explicit_map_dict,
    load_block2_file,
    load_map_file,
    matrix_to_json,
    preset_map_dict,
)
from .positivity import (
    EpsilonSchedule,
    PositivityVerdict,
    assemble,
    complete_positivity,
    congruence,
    corner_swap,
    criterion_commuting,
    criterion_epsilon,
    criterion_epsilon_prime,
    offdiag_swap_under_hypotheses,
    oracle_psd,
)
from .presets import PRESET_NAMES
from .structure import classify_eigenvectors
from .superop import point_spectrum

_INPUT_ERRORS = (MapFileError, BadLambda0, MultiBlockUnsupported, LambdaNotInSpectrum)

# argparse takes a token that starts with '-' for an option unless it is a
# plain number, so "--lam -1,0" would leave --lam without its value. Plain
# negative numbers are left to argparse: after a flag they are positionals.
_LONG_OPTION = re.compile(r"--[^=]+")
_NEGATIVE_VALUE = re.compile(r"-\.?\d")
_PLAIN_NEGATIVE = re.compile(r"-\d+|-\d*\.\d+")


def _parse_cli_complex(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) in (1, 2):
            value = complex(*map(float, parts))
            if cmath.isfinite(value):
                return value
    except ValueError:
        pass
    raise MapFileError(f"cannot parse a finite complex number from {text!r}; use RE or RE,IM")


def _parse_coeffs(text: str) -> list[complex]:
    return [_parse_cli_complex(chunk) for chunk in text.split(";") if chunk.strip()]


def _tolerances(args: argparse.Namespace) -> Tolerances:
    """The flags' thresholds; the default radii where the subcommand has none.
    A bad threshold is reported by its flag."""
    radii = {k: v for k, v in vars(args).items() if k in ("peripheral_tol", "merge_tol")}
    try:
        return Tolerances(
            eq_tol=args.tol, rank_tol=args.rank_tol, psd_tol=args.psd_tol, **radii
        )
    except ValueError as exc:
        # Tolerances' message opens with the field's name: name its flag
        field, _, rest = str(exc).partition(" ")
        flag = "--tol" if field == "eq_tol" else "--" + field.replace("_", "-")
        raise MapFileError(f"{flag} {rest}") from exc


def _check_counts(args: argparse.Namespace) -> None:
    """Reject a sample count below 1 and a negative seed before any work
    starts."""
    if getattr(args, "samples", 1) < 1:
        raise MapFileError(f"--samples must be at least 1, got {args.samples}")
    if getattr(args, "seed", 0) < 0:
        raise MapFileError(f"--seed must be nonnegative, got {args.seed}")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _add_tolerances(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL.eq_tol,
                        help="entrywise residual tolerance (default %(default)s)")
    parser.add_argument("--rank-tol", type=float, default=DEFAULT_TOL.rank_tol,
                        help="relative singular value cutoff (default %(default)s)")
    parser.add_argument("--psd-tol", type=float, default=DEFAULT_TOL.psd_tol,
                        help="eigenvalue nonnegativity slack (default %(default)s)")


def _add_sampling(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=42,
                        help="seed for all sampling (default 42)")
    parser.add_argument("--samples", type=int, default=STANDARD_SAMPLES,
                        help="most pure inputs the positivity falsifier evaluates "
                        f"(default {STANDARD_SAMPLES})")


def _add_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None, help="write the report to this path")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output (reports are already JSON; "
                        "for suite this replaces the human summary)")


def _add_spectral(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--peripheral-tol", type=float, default=DEFAULT_TOL.peripheral_tol,
                        help="distance from the unit circle to keep (default %(default)s)")
    parser.add_argument("--merge-tol", type=float, default=DEFAULT_TOL.merge_tol,
                        help="radius for merging split eigenvalues (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perispec",
        description="peripheral spectra, eigenvector structure, and positivity "
        "certificates for unital positive maps on block matrix algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full report for a map file")
    p.add_argument("mapfile", help="path to a map file (explicit or preset)")
    p.add_argument("--t", type=float, default=None,
                   help="snapshot time for continuous presets (default 1)")
    p.add_argument("--emit", default=None,
                   help="also write the analyzed map as an explicit map file")
    _add_tolerances(p)
    _add_sampling(p)
    _add_output(p)
    _add_spectral(p)

    p = sub.add_parser("classify", help="classify eigenvectors at one eigenvalue")
    p.add_argument("mapfile")
    p.add_argument("--lam", "--lambda", dest="lam", required=True,
                   help="peripheral eigenvalue as RE,IM")
    p.add_argument("--coeffs", default=None,
                   help="also classify this combination of the computed basis, "
                   "as RE,IM;RE,IM;...")
    p.add_argument("--t", type=float, default=None)
    _add_tolerances(p)
    _add_output(p)
    _add_spectral(p)

    p = sub.add_parser("positivity", help="block 2x2 criteria and transformations")
    p.add_argument("block2file", help="path to a block2 file")
    p.add_argument("--method", choices=("eps", "eps-prime", "commuting", "oracle"),
                   default="eps")
    p.add_argument("--schedule", default=None,
                   help="comma-separated decreasing epsilon values")
    p.add_argument("--transform", default=None,
                   choices=("corner-swap", "congruence", "offdiag-swap"),
                   help="apply a positivity-preserving transformation instead "
                   "of a criterion")
    _add_tolerances(p)
    _add_output(p)

    p = sub.add_parser("choi", help="Choi matrix and complete positivity")
    p.add_argument("mapfile")
    p.add_argument("--t", type=float, default=None)
    _add_tolerances(p)
    _add_output(p)

    p = sub.add_parser("example", help="write a preset map file")
    p.add_argument("name", choices=PRESET_NAMES)
    p.add_argument("--lambda0", default=None, help="unit-modulus parameter as RE,IM")
    p.add_argument("--angle", type=float, default=None,
                   help="set lambda0 = exp(i angle pi / 180), angle in degrees")
    p.add_argument("--t", type=float, default=None,
                   help="snapshot time stored for continuous presets")
    p.add_argument("--explicit", action="store_true",
                   help="write the superoperator matrix instead of the preset stanza")
    _add_output(p)

    p = sub.add_parser("suite", help="run the acceptance criteria")
    _add_tolerances(p)
    _add_sampling(p)
    _add_output(p)
    return parser


def cmd_analyze(args: argparse.Namespace) -> int:
    tol = _tolerances(args)
    loaded = load_map_file(args.mapfile, t=args.t)
    report = analyze(
        loaded.phi,
        tol=tol,
        seed=args.seed,
        samples=args.samples,
        family=loaded.family,
        manifest=loaded.manifest,
        t=loaded.t,
    )
    if args.emit is not None:
        Path(args.emit).write_text(dump_json(explicit_map_dict(loaded.phi)), encoding="utf-8")
    _emit(dump_json(report), args.out)
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    tol = _tolerances(args)
    loaded = load_map_file(args.mapfile, t=args.t)
    value = _parse_cli_complex(args.lam)
    spectrum = point_spectrum(loaded.phi, tol)
    point = spectrum.find(value)
    if point is None:
        known = ", ".join(f"{v:.6g}" for v in spectrum.values)
        raise LambdaNotInSpectrum(
            f"{value:.6g} is not a peripheral eigenvalue; spectrum is {{{known}}}"
        )
    rows = [vectorize(x) for x in point.basis]
    if args.coeffs is not None:
        coeffs = _parse_coeffs(args.coeffs)
        if len(coeffs) != point.dimension:
            raise MapFileError(
                f"got {len(coeffs)} coefficients for a {point.dimension}-dimensional "
                "eigenspace"
            )
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            combo = sum(c * row for c, row in zip(coeffs, rows))
        if not np.isfinite(combo).all():
            raise MapFileError("the --coeffs combination overflows the float range")
        rows.append(combo)
    entries = [
        classification_entry(outcome)
        for outcome in classify_eigenvectors(
            loaded.phi, [point.value] * len(rows), np.array(rows), tol
        )
    ]
    report = {
        "tolerances": tolerances_entry(tol),
        "value": complex_to_pair(point.value),
        "dimension": point.dimension,
        "basis": [element_to_json(x) for x in point.basis],
        "vectors": [{"index": i} | entry for i, entry in enumerate(entries[: point.dimension])],
    }
    if args.coeffs is not None:
        report["combination"] = {
            "coefficients": [complex_to_pair(c) for c in coeffs]
        } | entries[-1]
    _emit(dump_json(report), args.out)
    return 0


def _verdict_entry(verdict: PositivityVerdict) -> dict:
    entry: dict = {"is_psd": bool(verdict.is_psd)}
    if verdict.witness is not None:
        witness: dict = {"reason": verdict.witness.reason}
        if verdict.witness.epsilon is not None:
            witness["epsilon"] = float(verdict.witness.epsilon)
        if verdict.witness.quadratic_form is not None:
            witness["quadratic_form"] = float(verdict.witness.quadratic_form)
        if verdict.witness.vector is not None:
            witness["vector"] = [complex_to_pair(v) for v in verdict.witness.vector]
        entry["witness"] = witness
    return entry


def cmd_positivity(args: argparse.Namespace) -> int:
    tol = _tolerances(args)
    m, x, y = load_block2_file(args.block2file)
    if args.transform is not None:
        if args.transform == "corner-swap":
            result = corner_swap(m)
        elif args.transform == "congruence":
            if x is None or y is None:
                raise MapFileError(
                    "the congruence transform needs x and y entries in the block2 file"
                )
            result = congruence(m, x, y)
        else:
            result = offdiag_swap_under_hypotheses(m, tol)
        report = {
            "transform": args.transform,
            "input_psd": _verdict_entry(oracle_psd(assemble(m), tol)),
            "result_psd": _verdict_entry(oracle_psd(assemble(result), tol)),
            "result": {
                "a": matrix_to_json(result.a),
                "b": matrix_to_json(result.b),
                "c": matrix_to_json(result.c),
                "d": matrix_to_json(result.d),
            },
        }
        _emit(dump_json(report), args.out)
        return 0
    schedule = EpsilonSchedule()
    if args.schedule is not None:
        try:
            values = tuple(float(v) for v in args.schedule.split(","))
            schedule = EpsilonSchedule(values)
        except ValueError as exc:
            raise MapFileError(f"bad schedule: {exc}") from exc
    if args.method == "eps":
        verdict = criterion_epsilon(m, schedule, tol)
        method = f"Schur criterion over epsilon schedule {list(schedule.values)}"
    elif args.method == "eps-prime":
        verdict = criterion_epsilon_prime(m, schedule, tol)
        method = f"mirrored Schur criterion over epsilon schedule {list(schedule.values)}"
    elif args.method == "commuting":
        verdict = criterion_commuting(m, tol)
        method = "commuting-corner criterion"
    else:
        verdict = oracle_psd(assemble(m), tol)
        method = "direct eigenvalue oracle"
    report = {"method": method, "side": m.side} | _verdict_entry(verdict)
    _emit(dump_json(report), args.out)
    return 0


def cmd_choi(args: argparse.Namespace) -> int:
    tol = _tolerances(args)
    loaded = load_map_file(args.mapfile, t=args.t)
    choi, least, completely_positive, certified = complete_positivity(loaded.phi, tol)
    report = {
        "algebra": {"blocks": list(loaded.phi.algebra.blocks)},
        "choi": matrix_to_json(choi),
        "method": choi_method(certified),
        "min_eigenvalue": least,
        "completely_positive": completely_positive,
    }
    _emit(dump_json(report), args.out)
    return 0


def cmd_example(args: argparse.Namespace) -> int:
    if args.lambda0 is not None and args.angle is not None:
        raise MapFileError("give either --lambda0 or --angle, not both")
    lambda0: complex | None = None
    if args.lambda0 is not None:
        lambda0 = _parse_cli_complex(args.lambda0)
    elif args.angle is not None:
        lambda0 = cmath.exp(1j * cmath.pi * args.angle / 180.0)
    if args.name != "psi_swap" and lambda0 is None:
        raise MapFileError(f"preset {args.name!r} needs --lambda0 or --angle")
    document = preset_map_dict(args.name, lambda0, args.t)
    loaded = load_map_file(document)  # validates lambda0 and t
    if args.explicit:
        document = explicit_map_dict(loaded.phi)
    _emit(dump_json(document), args.out)
    return 0


def cmd_suite(args: argparse.Namespace) -> int:
    from .suite import run_all  # deferred: the suite imports most of the package

    tol = _tolerances(args)
    results = run_all(seed=args.seed, samples=args.samples, tol=tol)
    all_passed = all(r.passed for r in results)
    if args.json or args.out is not None:
        document = {
            "seed": args.seed,
            "samples": args.samples,
            "confidence": "standard" if args.samples >= STANDARD_SAMPLES else "reduced",
            "all_passed": all_passed,
            "criteria": [
                {
                    "id": r.cid,
                    "title": r.title,
                    "passed": r.passed,
                    "details": r.details,
                }
                for r in results
            ],
        }
        _emit(dump_json(document), args.out)
    if not args.json:
        for r in results:
            sys.stdout.write(f"[{r.cid}] {'PASS' if r.passed else 'FAIL'} {r.title}\n")
        label = "" if args.samples >= STANDARD_SAMPLES else " (reduced sample count)"
        sys.stdout.write(
            f"{sum(r.passed for r in results)}/{len(results)} criteria passed{label}\n"
        )
    return 0 if all_passed else 1


_HANDLERS = {
    "analyze": cmd_analyze,
    "classify": cmd_classify,
    "positivity": cmd_positivity,
    "choi": cmd_choi,
    "example": cmd_example,
    "suite": cmd_suite,
}


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Rewrite "--name -1,0" as "--name=-1,0" for every long option name,
    abbreviations included, unless argparse already reads the value."""
    out: list[str] = []
    for token in argv:
        if (
            out
            and _LONG_OPTION.fullmatch(out[-1])
            and _NEGATIVE_VALUE.match(token)
            and not _PLAIN_NEGATIVE.fullmatch(token)
        ):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every :func:`main` call in this process shares, built on
    first use. Sharing is safe because ``parse_args`` reads the parser and
    writes only the namespace it returns; that holds while no option has a
    mutable default or an ``append`` action and nothing mutates the parser."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(
        _attach_negative_values(sys.argv[1:] if argv is None else argv)
    )
    try:
        _check_counts(args)
        return _HANDLERS[args.command](args)
    except _INPUT_ERRORS as exc:
        sys.stderr.write(f"error ({type(exc).__name__}): {exc}\n")
        return 2
    except PerispecError as exc:
        sys.stderr.write(f"numerical failure ({type(exc).__name__}): {exc}\n")
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
