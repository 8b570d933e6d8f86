"""Command-line surface: check, solve-canonical, eval-resolvent, verify, demo.

Exit codes are fixed for scripting: 0 success, 1 input or configuration
error, 2 verification or positivity failure, 3 structural gate
(non-self-adjoint second shift, broken internal structure), 4 parameter
gate (inadmissible, non-commuting, or otherwise rejected parameter).
A package error exits with the ``exit_code`` of its class
(:mod:`moment2d.errors`).
All floating-point output uses 17 significant digits and reruns with
the same configuration are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

import numpy as np

from . import io
from .cayley import ContractionParameter, build_isometric_pair
from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import (EXIT_INPUT, EXIT_VERIFY, FixedPointError,
                     Moment2dError, NotSelfAdjointA2Error, SchemaError)
from .moments import carleman_diagnostic, check_psd
from .resolvents import pair_resolvent_symmetric, prepare_pair, valid_grid
from .scenarios import e1, e2, e3
from .solutions import (SAMPLER_KINDS, SamplerSpec, canonical_extension,
                        solve_canonical, verify_solution)

__all__ = ["main"]

EXIT_OK = 0

#: The JSON type of a config key, the type of its flag's value: the
#: Python types ``json`` decodes it to and their name (a JSON ``true`` or
#: ``false`` is never a number).
_NUMBER = ((int, float), "a number")
_INTEGER = ((int,), "an integer")
_STRING = ((str,), "a string")
_COMPLEX = ((str, int, float), "a string or a number")

_CARLEMAN_VARIANTS = ("pair", "single")
_FORMATS = ("csv", "json")

#: The options of every subcommand but ``demo``, as rows of ``OPTIONS``.
COMMON_OPTIONS = (
    ("--config", None, None, {"help": "JSON file with flag overrides"}),
    ("--output", None, None, {"help": "output file (default stdout)"}),
    *((f"--{field.name.replace('_', '-')}", _NUMBER, None, {"type": float})
      for field in dataclasses.fields(Tolerances)),
)

#: The options of each subcommand that reads ``--config``, in ``--help``
#: order, before ``COMMON_OPTIONS``. A row is ``(flag, JSON type,
#: default, extra add_argument keywords)``. The option's dest, and its
#: config key, is the flag without ``--`` and with ``_`` for ``-``; a JSON
#: type of None marks a flag with no config key.
OPTIONS = {
    "check": (
        ("--carleman-variant", _STRING, "pair",
         {"choices": _CARLEMAN_VARIANTS}),
    ),
    "solve-canonical": (
        ("--sampler", _STRING, "identity-only", {"choices": SAMPLER_KINDS}),
        ("--count", _INTEGER, 1, {"type": int}),
        ("--seed", _INTEGER, None, {"type": int}),
        ("--phases", _INTEGER, 4, {"type": int}),
        ("--d-m", _INTEGER, None, {"type": int}),
        ("--d-n", _INTEGER, None, {"type": int}),
        ("--max-n", _INTEGER, None, {"type": int}),
        ("--refine", None, False, {"action": "store_true"}),
        ("--output-dir", _STRING, ".", {}),
    ),
    "eval-resolvent": (
        ("--phi", None, None, {"help": "constant parameter matrix JSON "
                                       "file (default zero)"}),
        ("--l1-start", _COMPLEX, None, {}),
        ("--l1-stop", _COMPLEX, None, {}),
        ("--l1-count", _INTEGER, 1, {"type": int}),
        ("--l2-start", _COMPLEX, None, {}),
        ("--l2-stop", _COMPLEX, None, {}),
        ("--l2-count", _INTEGER, 1, {"type": int}),
        ("--format", _STRING, "csv", {"choices": _FORMATS}),
    ),
    "verify": (),
}

#: Flags whose value is a complex number, which may begin with ``-``.
COMPLEX_FLAGS = tuple(flag for rows in OPTIONS.values()
                      for flag, kind, _, _ in rows if kind is _COMPLEX)


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


_CSV_ROW = ",".join(["%.17g"] * 6)


def _parse_complex(text: str, what: str) -> complex:
    try:
        z = complex(text.replace(" ", ""))
    except ValueError as exc:
        raise SchemaError(f"{what}: cannot parse {text!r} as a complex "
                          f"number (use Python syntax, e.g. 0.5+2j)") from exc
    if not np.isfinite(z):
        raise SchemaError(f"{what} must be finite")
    return z


def _apply_config(args, options: tuple) -> None:
    """Set each of ``options`` not given as a flag from the ``--config``
    object, else from its default.

    A config key that is not the dest of one of ``options`` with a JSON
    type, or a config value of another JSON type, is a ``SchemaError``.
    """
    config = {}
    if args.config is not None:
        config = io.load(args.config, lambda obj: obj)
        if not isinstance(config, dict):
            raise SchemaError("config file must hold a JSON object")
    keyed = {flag[2:].replace("-", "_"): (kind, default)
             for flag, kind, default, _ in options if kind is not None}
    for key in config:
        if key not in keyed:
            raise SchemaError(
                f"config key {key!r} is not read by {args.command}; "
                f"accepted keys: {', '.join(keyed)}")
    for name, ((types, what), default) in keyed.items():
        if getattr(args, name) is not None:
            continue
        value = config.get(name, default)
        if name in config and (isinstance(value, bool)
                               or not isinstance(value, types)):
            raise SchemaError(f"config key {name!r} in {args.config} must be "
                              f"{what}")
        setattr(args, name, value)


def _positive(value: float, name: str) -> float:
    value = float(value)
    if not value > 0:
        raise SchemaError(f"{name} must be strictly positive")
    return value


def _tolerances(args):
    updates = {}
    for field in dataclasses.fields(Tolerances):
        value = getattr(args, field.name)
        if value is not None:
            updates[field.name] = _positive(value, field.name)
    return dataclasses.replace(DEFAULT_TOLERANCES, **updates)


def _sampler(args) -> SamplerSpec:
    if args.sampler == "haar-random" and args.seed is None:
        raise SchemaError("sampler haar-random requires --seed")
    return SamplerSpec(kind=args.sampler, count=args.count, seed=args.seed,
                       phases=args.phases)


def _write_or_print(text: str, path: str | None):
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _load_source(path: str):
    """Moment table or operator pair, sniffed from the JSON keys."""
    def decode(obj):
        if isinstance(obj, dict) and "entries" in obj:
            return io.moment_table_from_json(obj)
        if isinstance(obj, dict) and "a1_domain" in obj:
            return io.pair_from_json(obj)
        raise SchemaError(f"{path}: expected a moment table (key 'entries') "
                          f"or an operator pair (key 'a1_domain')")
    return io.load(path, decode)


def cmd_check(args) -> int:
    table = io.load(args.table, io.moment_table_from_json)
    tolerances = _tolerances(args)
    variant = args.carleman_variant
    # Checked here, since a table too small for a Carleman row reads none.
    if variant not in _CARLEMAN_VARIANTS:
        raise SchemaError("variant must be 'pair' or 'single'")
    psd_rows = []
    all_ok = True
    for d_m in range(table.max_m // 2 + 1):
        for d_n in range(table.max_n // 2 + 1):
            ok, min_eig = check_psd(table, d_m, d_n, tolerances=tolerances)
            all_ok = all_ok and ok
            psd_rows.append({"d_m": d_m, "d_n": d_n, "ok": bool(ok),
                             "min_eig": float(min_eig)})
    carleman_rows = []
    big_k = table.max_n // 2
    if big_k >= 1:
        m = 0
        while 2 * m + 2 <= table.max_m:
            report = carleman_diagnostic(table, m, big_k, variant=variant)
            carleman_rows.append({
                "m": report.m,
                "variant": variant,
                "verdict": report.verdict,
                "partial_sums": [float(s) for s in report.partial_sums],
            })
            m += 1
    out = {"psd": psd_rows, "psd_ok": bool(all_ok),
           "carleman": carleman_rows}
    _write_or_print(io.dumps(out), args.output)
    return EXIT_OK if all_ok else EXIT_VERIFY


def cmd_solve_canonical(args) -> int:
    source = _load_source(args.input)
    sampler = _sampler(args)
    tolerances = _tolerances(args)

    def on_reject(label: str, exc: FixedPointError):
        sys.stderr.write(f"rejected {label}: {exc}\n")

    count = 0
    for report in solve_canonical(
            source, sampler=sampler, d_m=args.d_m, d_n=args.d_n,
            max_n=args.max_n, tolerances=tolerances, refine=args.refine,
            on_reject=on_reject):
        if count == 0:
            os.makedirs(args.output_dir, exist_ok=True)
        path = os.path.join(args.output_dir, f"solution-{count:04d}.json")
        io.write_json(io.report_to_json(report), path)
        sys.stdout.write(
            f"{path}: atoms={report.measure.n_atoms} "
            f"error={_fmt(report.max_abs_moment_error)} "
            f"passed={report.passed} u2={report.u2_seed}\n")
        count += 1
    # Made only once solve_canonical accepted the input, so a refused run
    # leaves no directory; a run with no solution still leaves one.
    os.makedirs(args.output_dir, exist_ok=True)
    sys.stdout.write(f"solutions written: {count}\n")
    return EXIT_OK


def cmd_eval_resolvent(args) -> int:
    pair = io.load(args.input, io.pair_from_json)
    tolerances = _tolerances(args)
    iso = build_isometric_pair(pair, tolerances=tolerances)
    d_n0 = iso.n0_basis.shape[1]
    d_ninf = iso.ninf_basis.shape[1]
    if args.phi is None:
        phi_matrix = np.zeros((d_ninf, d_n0), dtype=complex)
    else:
        phi_matrix = io.load(args.phi, lambda obj: io.complex_matrix_from_json(
            obj, "phi", rows=d_ninf, cols=d_n0))
    grid1 = _grid(args, "l1")
    grid2 = _grid(args, "l2")
    if args.format not in _FORMATS:
        raise SchemaError("format must be 'csv' or 'json'")
    # The gates run here once, even when every grid point is excluded.
    prepared = prepare_pair(iso, ContractionParameter.const(phi_matrix),
                            tolerances=tolerances, h_embed=pair.h00[:, None])
    valid1, valid2, excluded = valid_grid(grid1, grid2)
    values = pair_resolvent_symmetric(prepared, valid1, valid2)[..., 0, 0]
    rows = [[lam1.real, lam1.imag, lam2.real, lam2.imag, value.real,
             value.imag] for lam1, line in zip(valid1, values.tolist())
            for lam2, value in zip(valid2, line)]
    if args.format == "csv":
        lines = ["l1_re,l1_im,l2_re,l2_im,value_re,value_im"]
        lines += [_CSV_ROW % tuple(row) for row in rows]
        lines.append(f"# excluded: {excluded}")
        _write_or_print("\n".join(lines), args.output)
    else:
        _write_or_print(io.dumps({"rows": rows, "excluded": excluded}),
                        args.output)
    return EXIT_OK


def _grid(args, which: str) -> list:
    start = getattr(args, f"{which}_start")
    if start is None:
        raise SchemaError(f"missing --{which}-start")
    stop = getattr(args, f"{which}_stop")
    count = getattr(args, f"{which}_count")
    if count < 1:
        raise SchemaError(f"--{which}-count must be >= 1")
    z0 = _parse_complex(str(start), f"--{which}-start")
    if stop is None:
        if count != 1:
            raise SchemaError(f"--{which}-stop is required when "
                              f"--{which}-count > 1")
        return [z0]
    z1 = _parse_complex(str(stop), f"--{which}-stop")
    if count == 1:
        return [z0]
    ts = np.linspace(0.0, 1.0, count)
    points = [complex(z0 + (z1 - z0) * t) for t in ts]
    if not np.isfinite(points).all():
        raise SchemaError(f"--{which}-start to --{which}-stop overflows")
    return points


def cmd_verify(args) -> int:
    measure = io.load(args.measure, io.measure_from_json)
    table = io.load(args.table, io.moment_table_from_json)
    report = verify_solution(measure, table, tolerances=_tolerances(args))
    _write_or_print(io.dumps(io.report_to_json(report)), args.output)
    return EXIT_OK if report.passed else EXIT_VERIFY


def cmd_demo(args) -> int:
    out_dir = args.output_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    s1, s2, s3 = e1(), e2(), e3()
    paths = {}
    for scen in (s1, s2, s3):
        table_path = os.path.join(out_dir, f"{scen.name}-table.json")
        io.write_json(io.moment_table_to_json(scen.table), table_path)
        paths[f"{scen.name}-table"] = table_path
        pair_path = os.path.join(out_dir, f"{scen.name}-pair.json")
        io.write_json(io.pair_to_json(scen.pair), pair_path)
        paths[f"{scen.name}-pair"] = pair_path
        if scen.measure is not None:
            m_path = os.path.join(out_dir, f"{scen.name}-measure.json")
            io.write_json(io.measure_to_json(scen.measure), m_path)
            paths[f"{scen.name}-measure"] = m_path
    # The parameter of e3's canonical extension at the identity commutant
    # element, an admissible --phi for eval-resolvent on e3-pair.json.
    iso = build_isometric_pair(s3.pair)
    ext = canonical_extension(s3.pair, iso,
                              np.eye(iso.defect_dim, dtype=complex))
    paths["e3-phi"] = os.path.join(out_dir, "e3-phi.json")
    io.write_json(io.complex_matrix_to_json(
        iso.ninf_basis.conj().T @ ext.u24), paths["e3-phi"])
    for key in sorted(paths):
        sys.stdout.write(f"wrote {paths[key]}\n")
    # Determinate round trip on the two-atom scenario.
    reports = list(solve_canonical(s2.table))
    sys.stdout.write(
        f"e2 solve-canonical: {len(reports)} solution(s), "
        f"error={_fmt(reports[0].max_abs_moment_error)}\n")
    # Indeterminate family on the Jacobi scenario: four phases, one of
    # which may be rejected as a fixed point.
    labels = []

    def on_reject(label, exc):
        labels.append(f"{label} (rejected)")

    for report in solve_canonical(
            s3.pair, sampler=SamplerSpec(kind="exhaustive-phases", phases=4),
            on_reject=on_reject):
        labels.append(f"{report.u2_seed} -> atoms={report.measure.n_atoms}")
    sys.stdout.write("e3 canonical family:\n")
    for line in labels:
        sys.stdout.write(f"  {line}\n")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built on first use and then shared."""
    parser = argparse.ArgumentParser(
        prog="moment2d",
        description="Two-dimensional moment problem toolkit: positivity "
                    "checks, canonical solutions, resolvent grids.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="PSD and Carleman diagnostics "
                                     "for a moment table")
    p.add_argument("table", help="moment table JSON file")

    p = sub.add_parser("solve-canonical",
                       help="enumerate canonical solutions")
    p.add_argument("input", help="moment table or operator pair JSON file")

    p = sub.add_parser("eval-resolvent",
                       help="evaluate the pair resolvent scalar on a grid")
    p.add_argument("input", help="operator pair JSON file")

    p = sub.add_parser("verify", help="compare a measure against a table")
    p.add_argument("measure", help="measure JSON file")
    p.add_argument("table", help="moment table JSON file")

    p = sub.add_parser("demo", help="write bundled scenarios and run a "
                                    "small pipeline")
    p.add_argument("--output-dir", default=None, dest="output_dir")
    # An option with a config key keeps the parser default None, so that
    # ``_apply_config`` can tell a flag left out from one given.
    for name, rows in OPTIONS.items():
        for flag, _, _, keywords in rows + COMMON_OPTIONS:
            sub.choices[name].add_argument(flag, **keywords)
    return parser


def _attach_complex_values(argv: list) -> list:
    """Rewrite ``--l1-start -1+2j`` as ``--l1-start=-1+2j``.

    argparse takes a separate value that begins with ``-`` and is not a
    plain negative number, such as ``-1-0.25j``, for an option and
    refuses the flag for lacking its argument.
    """
    out = []
    for token in argv:
        if (out and out[-1] in COMPLEX_FLAGS and token.startswith("-")
                and not token.startswith("--")):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(_attach_complex_values(argv))
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    # Looked up by name at call time, not bound into the shared parser.
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        if args.command in OPTIONS:
            _apply_config(args, COMMON_OPTIONS + OPTIONS[args.command])
        return command(args)
    except Moment2dError as exc:
        sys.stderr.write(f"error: {exc}\n")
        if isinstance(exc, NotSelfAdjointA2Error) and (
                exc.defect_a1 is not None or exc.defect_a2 is not None):
            sys.stderr.write(f"defect indices: A1={exc.defect_a1} "
                             f"A2={exc.defect_a2}\n")
        return exc.exit_code
    except (OSError, ValueError, TypeError, MemoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
