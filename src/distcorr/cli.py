"""Command-line front end.

Machine output (JSON) goes to stdout; diagnostics go to stderr.
Exit codes: 0 success, 1 verification failure (an oracle disagreement, or
quadrature that does not converge), 2 usage error, 3 data error.
``test`` and ``screen --p-values`` run their permutation replicates in up
to as many forked processes as the CPUs this process may run on (cap them
with ``taskset``); their output is the same for any count.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import secrets
import sys
from dataclasses import asdict

import numpy as np

from .core import DEFAULT_MEMORY_BUDGET, dcor, dcov_sq
from .errors import (
    ConvergenceError,
    DataFormatError,
    DataQualityError,
    DimensionMismatchError,
    DistcorrError,
    UsageError,
)
from .inference import SCENARIOS, permutation_test, power_simulation
from .oracles import QuadratureSpec, dcov_sq_oracle_sums, dcov_sq_via_integral
from .samples import as_sample
from .screening import (
    FORMATS,
    MIN_COMPLETE_ROWS,
    MISSING_POLICIES,
    OutlierRule,
    ScreenConfig,
    _temporary,
    emit_plot_data,
    flag_outliers,
    load_dataset,
    pairwise_screen,
)
from .singular import SingularParams, c_p, singular_constant, verify_singular_integral

SCHEMA_VERSION = 1


class VerificationFailure(DistcorrError):
    pass


def _emit(payload: dict) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _verdict(payload: dict, failure: str) -> int:
    """Emit a verify command's payload, then raise VerificationFailure(failure) unless it passed."""
    _emit(payload)
    if not payload["pass"]:
        raise VerificationFailure(failure)
    return 0


def _load_sample(path, delimiter: str):
    ds = load_dataset(path, delimiter=delimiter, missing_policy="reject")
    if not ds.columns:
        raise DataFormatError(f"{path} has no numeric columns")
    return as_sample(np.column_stack([ds.columns[name] for name in ds.columns]))


def _resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    generated = secrets.randbits(63)
    print(f"seed auto-generated: {generated}", file=sys.stderr)
    return generated


def _quad_spec(args) -> QuadratureSpec:
    return QuadratureSpec(
        truncation_radius=args.quad_radius,
        panel_count=args.quad_panels,
        tolerance=args.quad_tolerance,
    )


def _whole(floor: int):
    """A parser of whole numbers >= ``floor``: 1 for counts and bytes, 0 for a seed (as SeedSequence takes)."""
    kind = "positive" if floor == 1 else "non-negative"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = floor - 1
        if value < floor:
            raise argparse.ArgumentTypeError(f"must be a {kind} whole number, got {text!r}")
        return value
    return parse


def _delimiter(text: str) -> str:
    """``--delimiter``: exactly one character, as the csv reader takes."""
    if len(text) != 1:
        raise argparse.ArgumentTypeError(f"must be exactly one character, got {text!r}")
    return text


def cmd_compute(args) -> int:
    x = _load_sample(args.x, args.delimiter)
    y = _load_sample(args.y, args.delimiter)
    _emit(asdict(dcor(x, y, memory_budget=args.memory_budget)))
    return 0


def cmd_test(args) -> int:
    x = _load_sample(args.x, args.delimiter)
    y = _load_sample(args.y, args.delimiter)
    seed = _resolve_seed(args.seed)
    _emit(asdict(permutation_test(x, y, args.replicates, seed, jobs=None)))
    return 0


def cmd_screen(args) -> int:
    # everything is checked before the screen runs, which with --p-values can take hours
    rule = OutlierRule(nonlinear_gap=args.nonlinear_gap, low_dcor_percentile=args.low_dcor_percentile)
    columns = None if args.columns is None else [name.strip() for name in args.columns.split(",")]
    if columns is not None and not all(columns):
        raise UsageError(f"--columns {args.columns!r} names an empty column")
    if columns is not None and len(columns) < 2:
        raise UsageError(f"--columns {args.columns!r} names one column; screening needs at least 2")
    if not os.path.basename(args.out) or os.path.isdir(args.out):  # "" or a trailing separator too
        raise UsageError(f"--out {args.out!r} names a directory")
    if not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
        raise UsageError(f"--out {args.out!r} is in a directory that does not exist")
    try:  # what emit_plot_data does: its temporary file beside the output, then the output's name
        fd, tmp = _temporary(args.out)
        os.close(fd)
        os.unlink(tmp)
        with contextlib.suppress(FileNotFoundError):
            os.lstat(args.out)
    except OSError as exc:
        raise UsageError(f"--out {args.out!r} cannot be written: {exc.strerror}") from None
    config = ScreenConfig(p_values=args.p_values, replicates=args.replicates, seed=_resolve_seed(args.seed))
    dataset = load_dataset(
        args.data,
        delimiter=args.delimiter,
        group_by=args.group_by,
        columns=columns,
        missing_policy=args.missing_policy,
    )
    table = pairwise_screen(dataset, config, jobs=None)
    for warning in table.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if not table.records:
        raise DataFormatError(f"every pair was skipped: none has {MIN_COMPLETE_ROWS} complete rows in a group")
    table = flag_outliers(table, rule)
    emit_plot_data(table, args.format, args.out)
    _emit(
        {
            "out": args.out,
            "groups": len({r.group for r in table.records}),
            "pairs": len(table.records),
            "flagged": sum(1 for r in table.records if r.flags),
            "dropped_rows": dataset.dropped_rows,
            "seed": config.seed,
        }
    )
    return 0


def cmd_power(args) -> int:
    seed = _resolve_seed(args.seed)
    report = power_simulation(args.scenario, args.n, args.trials, args.alpha, args.replicates, seed)
    _emit(asdict(report))
    return 0


def cmd_verify_dcov(args) -> int:
    seed = _resolve_seed(args.seed)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((args.n, 1))
    y = rng.standard_normal((args.n, 1))
    direct = dcov_sq(x, y)
    triple = dcov_sq_oracle_sums(x, y)
    quad = dcov_sq_via_integral(x, y, _quad_spec(args))
    ok_triple = abs(direct - triple) <= 1e-12 * max(abs(direct), 1e-30)
    ok_quad = abs(direct - quad.value) <= max(1e-2 * abs(direct), 3 * quad.error_estimate)
    return _verdict(
        {
            "n": args.n,
            "seed": seed,
            "dcov_sq": direct,
            "triple_sum": triple,
            "quadrature": quad.value,
            "quadrature_error": quad.error_estimate,
            "pass": ok_triple and ok_quad,
        },
        "oracle disagreement on dcov_sq",
    )


def cmd_verify_singular(args) -> int:
    check = verify_singular_integral(
        SingularParams(alpha=args.alpha, x=args.x), _quad_spec(args)
    )
    denom = max(abs(check.closed_form), 1e-30)
    ok = abs(check.numeric - check.closed_form) <= max(
        1e-4 * denom, 3 * check.error_estimate
    )
    return _verdict({"alpha": args.alpha, "x": args.x, **asdict(check), "pass": ok},
                    "singular integral disagrees with closed form")


def cmd_verify_constants(args) -> int:
    rows = []
    ok = True
    for p in range(1, 11):
        cp = c_p(p)
        c_alpha1 = singular_constant(p, 1.0)
        agree = abs(cp - c_alpha1) <= 1e-12 * cp
        ok = ok and agree
        rows.append({"p": p, "c_p": cp, "C_p_alpha1": c_alpha1, "pass": agree})
    return _verdict({"constants": rows, "pass": ok}, "C(p, 1) does not match c_p")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distcorr",
        description="Distance covariance/correlation statistics, testing, and screening",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # options shared by several commands, each declared once.  A parent's option is one object in every
    # command that takes it, so --replicates, whose default differs by command, is declared per command
    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("--x", required=True)
    pair.add_argument("--y", required=True)
    delimited = argparse.ArgumentParser(add_help=False)
    delimited.add_argument("--delimiter", type=_delimiter, default=",")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=_whole(0), default=None)
    quadrature = argparse.ArgumentParser(add_help=False)
    quadrature.add_argument("--quad-radius", type=float, default=QuadratureSpec.truncation_radius)
    quadrature.add_argument("--quad-panels", type=int, default=QuadratureSpec.panel_count)
    quadrature.add_argument("--quad-tolerance", type=float, default=QuadratureSpec.tolerance)

    p = sub.add_parser("compute", parents=[pair, delimited],
                       help="distance and Pearson statistics for one pair of samples")
    p.add_argument("--memory-budget", type=_whole(1), default=DEFAULT_MEMORY_BUDGET)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("test", parents=[pair, delimited, seeded], help="permutation test of independence")
    p.add_argument("--replicates", type=_whole(1), default=999)
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("screen", parents=[delimited, seeded], help="pairwise Pearson/dcor screen over a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--columns", default=None, help="comma-separated column names")
    p.add_argument("--group-by", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=FORMATS, default="csv")
    p.add_argument("--missing-policy", choices=MISSING_POLICIES, default="reject")
    p.add_argument("--p-values", action="store_true")
    p.add_argument("--replicates", type=_whole(1), default=ScreenConfig.replicates)
    p.add_argument("--nonlinear-gap", type=float, default=OutlierRule.nonlinear_gap)
    p.add_argument("--low-dcor-percentile", type=float, default=OutlierRule.low_dcor_percentile)
    p.set_defaults(func=cmd_screen)

    p = sub.add_parser("power", parents=[seeded], help="power comparison: dcov vs Pearson permutation tests")
    p.add_argument("--scenario", choices=list(SCENARIOS), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--replicates", type=_whole(1), default=199)
    p.set_defaults(func=cmd_power)

    p = sub.add_parser("verify", help="re-certify the build against its oracles")
    vsub = p.add_subparsers(dest="verify_what", required=True)

    v = vsub.add_parser("dcov", parents=[seeded, quadrature],
                        help="Eq.-style estimator vs triple-sum and quadrature oracles")
    v.add_argument("--n", type=_whole(1), default=5)
    v.set_defaults(func=cmd_verify_dcov)

    v = vsub.add_parser("singular", parents=[quadrature], help="singular integral vs closed form")
    v.add_argument("--alpha", type=float, required=True)
    v.add_argument("--x", type=float, required=True)
    v.set_defaults(func=cmd_verify_singular)

    v = vsub.add_parser("constants", help="c_p vs C(p, 1) for p = 1..10")
    v.set_defaults(func=cmd_verify_constants)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataFormatError, DataQualityError, DimensionMismatchError) as exc:
        print(f"error: data: {exc}", file=sys.stderr)
        return 3
    except (ConvergenceError, VerificationFailure) as exc:
        print(f"error: verification: {exc}", file=sys.stderr)
        return 1
    except UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
