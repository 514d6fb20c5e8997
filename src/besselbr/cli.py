"""Batch experiment runner with reproducible, machine-readable reports.

Every subcommand takes a mandatory ``--seed`` and writes (with ``--out``) a
report that is a pure function of its flags: reruns and different
``--threads`` values produce byte-identical files.  Wall-clock timings are
therefore printed to stderr and only embedded in the report when explicitly
requested with ``--emit-timings``.

Exit codes: 0 all row verdicts pass, 1 a row verdict failed, 2 usage error.
The report's verdict is derived from its rows, never declared by a command.
"""

import argparse
import math
import os
import sys
import tempfile
import time

import numpy as np

from . import __version__
from .brown_resnick import (
    BRTruncationSpec,
    TruncationError,
    gumbel_cdf,
    sample_br_batch,
    sample_br_exact,
)
from .numerics import QuadratureError, QuadratureSpec, StreamKey
from .paths import make_dyadic_grid, time_index
from .rescale import bessel_constants, normal_constants, scalar_constants
from .stats import fdd_check, ks_statistic, marginal_gumbel_sweep, two_sample_ks
from .tails import (
    chi_square_density,
    chi_square_tail,
    chi_square_tail_asymptotic,
    check_condition_kk,
    product_tail_oracle,
    scalar_product_tail_asymptotic,
)

SCHEMA = "bessel-br/1"

_ORACLE_QUADRATURE = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-12, max_subdivisions=200)


# ---------------------------------------------------------------------------
# deterministic serialization


def _format_real(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("report values must be finite")
    return format(x, ".17g")


def _json_encode(obj, indent=0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{inner}"{key}": {_json_encode(value, indent + 1)}' for key, value in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{_json_encode(value, indent + 1)}" for value in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, float):
        return _format_real(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{out}"'
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _csv_encode(report) -> str:
    lines = ["statistic,value,threshold,passed"]
    for row in report["results"]:
        threshold = "" if row["threshold"] is None else _format_real(row["threshold"])
        passed = "" if row["passed"] is None else ("true" if row["passed"] else "false")
        lines.append(f'{row["statistic"]},{_format_real(row["value"])},{threshold},{passed}')
    return "\n".join(lines) + "\n"


def _write_atomic(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".besselbr-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _result(statistic: str, value: float, threshold=None) -> dict:
    # a gated row passes exactly when its value is at most its threshold; an
    # ungated row has no verdict
    value, passed = float(value), None
    if threshold is not None:
        threshold = float(threshold)
        passed = value <= threshold
    return {"statistic": statistic, "value": value, "threshold": threshold, "passed": passed}


# ---------------------------------------------------------------------------
# flag parsing helpers


def _int_list(text: str):
    try:
        values = [int(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer: {text!r}")
    return value


def _finite_float(text: str) -> float:
    # report reals must serialise, so a non-finite flag is a usage error
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite real: {text!r}")
    return value


def _seed(text: str) -> int:
    try:
        return StreamKey(int(text)).master_seed  # StreamKey holds the range rule
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a seed in [0, 2**64 - 1]: {text!r}") from None


def _float_list(text: str):
    values = [_finite_float(part) for part in text.split(",") if part]
    if not values:
        raise argparse.ArgumentTypeError("expected at least one real")
    return values


def _add_common(parser, threads_help=None):
    parser.add_argument("--seed", type=_seed, required=True, help="master seed (mandatory)")
    parser.add_argument("--out", type=str, default=None, help="report file path")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument(
        "--emit-timings",
        action="store_true",
        help="embed wall-clock timings in the report (breaks byte-reproducibility)",
    )
    if threads_help:
        parser.add_argument("--threads", type=_positive_int, default=1, help=threads_help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="besselbr",
        description="Convergence experiments for maxima of squared Bessel and "
        "Brownian scalar-product processes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="print norming constants (a, b)")
    p.add_argument("--process", choices=("bessel", "scalar", "bm"), required=True)
    p.add_argument("--m", type=_positive_int, default=2, help="dimension (unused for bm)")
    p.add_argument("--n", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("tail-check", help="exact vs asymptotic tail at one point")
    p.add_argument("--process", choices=("bessel", "scalar"), default="scalar")
    p.add_argument("--m", type=_positive_int, default=2)
    p.add_argument("--x", type=_finite_float, required=True)
    p.add_argument("--threshold", type=_finite_float, default=0.05, help="bound on |ratio - 1|")
    _add_common(p)

    p = sub.add_parser("kk-check", help="Gaussian-damped lower-tail boundedness sequence")
    p.add_argument("--m", type=_positive_int, default=2)
    p.add_argument("--r", type=_finite_float, default=2.0)
    p.add_argument("--p", type=_finite_float, default=4.0)
    p.add_argument("--ns", type=_int_list, default=[1000, 10000, 100000])
    p.add_argument("--bound-factor", type=_finite_float, default=2.0)
    _add_common(p)

    p = sub.add_parser("marginal-sweep", help="KS-to-Gumbel sweep of normalised maxima")
    p.add_argument("--process", choices=("bessel", "scalar", "bm"), required=True)
    p.add_argument("--m", type=_positive_int, default=2)
    p.add_argument("--ns", type=_int_list, default=[100, 1000, 10000])
    p.add_argument("--replicates", type=int, default=2000,
                   help="sampled maxima per n (scalar with m != 2 only)")
    p.add_argument("--threshold", type=_finite_float, default=0.10, help="bound on the final KS")
    _add_common(p, threads_help="worker threads (scalar with m != 2 only)")

    p = sub.add_parser("fdd-check", help="two-time check against the Husler-Reiss law")
    p.add_argument("--process", choices=("bessel", "scalar", "br"), required=True)
    p.add_argument("--m", type=_positive_int, default=2, help="dimension (bessel/scalar only)")
    p.add_argument("--times", type=_float_list, default=[0.0, 1.0])
    p.add_argument("--n", type=int, default=10000, help="copies per maximum (bessel/scalar only)")
    p.add_argument("--replicates", type=int, default=2000)
    p.add_argument(
        "--threshold",
        type=_finite_float,
        default=None,
        help="bound on the sup CDF difference (default 0.05, or 0.03 for br)",
    )
    _add_common(p, threads_help="worker threads (bessel/scalar only)")

    p = sub.add_parser("br-sample", help="simulate one exact limit-process path")
    p.add_argument("--grid-k", type=int, default=8)
    _add_common(p)

    p = sub.add_parser("br-selftest", help="marginal, stationarity and truncation self-tests")
    p.add_argument("--grid-k", type=int, default=8)
    p.add_argument("--epsilon", type=_finite_float, default=1e-4)
    p.add_argument("--replicates", type=int, default=5000)
    p.add_argument("--marginal-threshold", type=_finite_float, default=0.026)
    p.add_argument("--two-sample-threshold", type=_finite_float, default=0.033)
    _add_common(p, threads_help="worker threads")

    return parser


# Built once per process: building costs far more than parsing one argv. Calls
# share the list defaults, so no handler may mutate a parsed value.
_PARSER = build_parser()


# ---------------------------------------------------------------------------
# subcommand handlers (return (result rows, extra report fields); ``run``
# derives the verdict from the rows, and an extra "timings_ms" entry holds
# per-stage wall-clock spans)


def _cmd_constants(args):
    if args.process == "bm":
        consts = normal_constants(args.n)
    else:
        family = bessel_constants if args.process == "bessel" else scalar_constants
        consts = family(args.n, args.m)
    return [_result("a", consts.a), _result("b", consts.b)], {}


def _cmd_tail_check(args):
    if args.process == "bessel":
        exact = chi_square_tail(args.m, args.x)
        asymptotic = chi_square_tail_asymptotic(args.m, args.x)
    else:
        asymptotic = scalar_product_tail_asymptotic(args.m, args.x)
        if args.m == 2:
            exact = 0.5 * math.exp(-args.x)
        else:
            exact = product_tail_oracle(args.m, args.x, _ORACLE_QUADRATURE)
    if exact == 0.0:
        raise ValueError(f"exact tail underflows to 0 at x = {args.x}")
    ratio = asymptotic / exact
    rows = [
        _result("exact_tail", exact),
        _result("asymptotic_tail", asymptotic),
        _result("ratio", ratio),
        _result("ratio_error", abs(ratio - 1.0), threshold=args.threshold),
    ]
    return rows, {}


def _cmd_kk_check(args):
    sequence = check_condition_kk(
        lambda y: chi_square_density(args.m, y),
        lambda n: bessel_constants(n, args.m),
        args.r,
        args.p,
        args.ns,
        _ORACLE_QUADRATURE,
    )
    rows = [_result(f"kk_integral_n_{n}", v) for n, v in zip(args.ns, sequence)]
    first, top = sequence[0], max(sequence)
    if first == 0.0 and top > 0.0:
        raise ValueError(f"kk integral is 0 at the first n = {args.ns[0]}: max/first is undefined")
    rows.append(_result("kk_max_over_first", top / first if first > 0 else 0.0,
                        threshold=args.bound_factor))
    return rows, {}


def _cmd_marginal_sweep(args):
    values = marginal_gumbel_sweep(
        args.process,
        args.m,
        args.ns,
        args.replicates,
        StreamKey(args.seed),
        threads=args.threads,
    )
    rows = [_result(f"ks_gumbel_n_{n}", v) for n, v in zip(args.ns, values)]
    steps_up = sum(b >= a for a, b in zip(values, values[1:]))  # 0 exactly when strictly decreasing
    rows.append(_result("ks_steps_not_decreasing", steps_up, threshold=0))
    rows.append(_result("ks_final", values[-1], threshold=args.threshold))
    return rows, {}


def _cmd_fdd_check(args):
    if len(args.times) != 2:
        raise ValueError("--times needs exactly two values")
    threshold = args.threshold
    if threshold is None:
        threshold = 0.03 if args.process == "br" else 0.05
    diagnostics, spans = {}, {}
    diff = fdd_check(
        args.process,
        args.m,
        tuple(args.times),
        args.n,
        args.replicates,
        StreamKey(args.seed),
        threads=args.threads,
        diagnostics=diagnostics,
        timings=spans,
    )
    rows = [_result("fdd_sup_diff", diff, threshold=threshold)]
    rows += [_result(name, value) for name, value in diagnostics.items()]
    return rows, {"timings_ms": spans}


def _cmd_br_sample(args):
    grid = make_dyadic_grid(args.grid_k)
    (path,), (spectral,) = sample_br_exact(grid, StreamKey(args.seed), 1)
    rows = [
        _result("path_min", path.min()),
        _result("path_max", path.max()),
        _result("spectral_functions", spectral),
    ]
    extra = {
        "path": {
            "times": [float(t) for t in grid],
            "values": [float(v) for v in path],
        }
    }
    return rows, extra


def _cmd_br_selftest(args):
    grid = make_dyadic_grid(args.grid_k)
    columns = {t: time_index(grid, t) for t in (0.0, 0.5, 1.0)}  # exit 2 before any sampling
    key = StreamKey(args.seed)
    spans = {}

    def batch(name, epsilon, batch_key):
        started = time.perf_counter()
        paths = sample_br_batch(
            grid, BRTruncationSpec(epsilon=epsilon), batch_key, args.replicates, args.threads
        )
        spans[name] = 1000.0 * (time.perf_counter() - started)
        return paths

    base = batch("base", args.epsilon, key)
    rows = [
        _result(f"ks_marginal_t_{t:g}", ks_statistic(base[:, column], gumbel_cdf),
                threshold=args.marginal_threshold)
        for t, column in columns.items()
    ]
    stationarity = two_sample_ks(base[:, columns[0.0]], base[:, columns[1.0]])
    rows.append(_result("ks_stationarity", stationarity, threshold=args.two_sample_threshold))

    loose = batch("loose", 1e-3, key.with_substream(10))[:, columns[1.0]]
    tight = batch("tight", 1e-6, key.with_substream(20))[:, columns[1.0]]
    rows.append(_result("ks_epsilon_insensitivity", two_sample_ks(loose, tight),
                        threshold=args.two_sample_threshold))
    return rows, {"timings_ms": spans}


_HANDLERS = {
    "constants": _cmd_constants,
    "tail-check": _cmd_tail_check,
    "kk-check": _cmd_kk_check,
    "marginal-sweep": _cmd_marginal_sweep,
    "fdd-check": _cmd_fdd_check,
    "br-sample": _cmd_br_sample,
    "br-selftest": _cmd_br_selftest,
}


def _config_echo(args) -> dict:
    # `out` and `threads` are execution details, not part of the experiment;
    # excluding them keeps reports byte-identical across paths and workers.
    # The limit process of `fdd-check --process br` has no dimension or copy count.
    skip = {"command", "emit_timings", "out", "threads"}
    if args.command == "fdd-check" and args.process == "br":
        skip |= {"m", "n"}
    config = {}
    for name, value in sorted(vars(args).items()):
        if name in skip:
            continue
        config[name] = value
    return config


def argv_from_config(command: str, config: dict) -> list[str]:
    """Reconstruct an argv that reproduces the run described by a config echo."""
    argv = [command]
    for name, value in config.items():
        if value is None or value is False:
            continue
        flag = "--" + name.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif isinstance(value, (list, tuple)):
            argv.extend([flag, ",".join(repr(v) if isinstance(v, float) else str(v) for v in value)])
        elif isinstance(value, float):
            argv.extend([flag, repr(value)])
        else:
            argv.extend([flag, str(value)])
    return argv


def run(argv=None) -> int:
    """Parse ``argv``, run the subcommand, write/print the report.

    Returns 0 when every row verdict passes, 1 when one fails, 2 on usage
    errors.
    """
    started = time.perf_counter()  # the total covers parsing and the --out check too
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2

    directory = os.path.dirname(os.path.abspath(args.out or "."))  # checked before any sampling
    if args.out and (os.path.isdir(args.out) or not os.access(directory, os.W_OK)):
        print(f"error: cannot write the report to --out {args.out!r}", file=sys.stderr)
        return 2

    try:
        rows, extra = _HANDLERS[args.command](args)
    except (ValueError, OverflowError, TruncationError, QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed_ms = 1000.0 * (time.perf_counter() - started)
    passed = all(row["passed"] is not False for row in rows)  # ungated rows carry None

    report = {
        "schema": SCHEMA,
        "tool_version": __version__,
        "command": args.command,
        "config": _config_echo(args),
        "results": rows,
        "passed": passed,
    }
    spans = extra.pop("timings_ms", {})  # per-stage wall clock, never part of a default report
    for name, span_ms in spans.items():
        print(f"[{args.command}] {name} {span_ms:.1f} ms", file=sys.stderr)
    report.update(extra)
    if args.emit_timings:
        report["timings_ms"] = {**spans, "total": elapsed_ms}
    else:
        print(f"[{args.command}] {elapsed_ms:.1f} ms", file=sys.stderr)

    text = _json_encode(report) + "\n" if args.format == "json" else _csv_encode(report)
    if args.out:
        _write_atomic(args.out, text)
        summary = sys.stdout
    else:
        sys.stdout.write(text)
        summary = sys.stderr  # keep stdout a parseable report

    for row in rows:
        verdict = ""
        if row["threshold"] is not None:
            verdict = f"  {'PASS' if row['passed'] else 'FAIL'} (threshold {row['threshold']:g})"
        print(f"{row['statistic']} = {row['value']:.6g}{verdict}", file=summary)
    print("PASS" if passed else "FAIL", file=summary)
    return 0 if passed else 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
