"""Benchmark workloads and the op runner that validates every report.

An op is a fixed sequence of ``besselbr.cli.run(argv)`` calls, all with the
same master seed.  Every call writes its report to a fresh ``--out`` path
(``os.replace`` onto an existing file costs a disk flush that would dominate
the fast commands), and the summary lines ``run`` prints are captured so
terminal I/O is not timed.
"""

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass

SCHEMA = "bessel-br/1"


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple  # argv lists without --seed/--out, run in order for one op
    warmup: tuple  # scaled-down commands for the untimed warm-up op
    items_per_op: int  # work items one op completes
    item: str

    @property
    def threads(self) -> int:
        argv = self.commands[0]
        return int(argv[argv.index("--threads") + 1]) if "--threads" in argv else 1


def _argv(text):
    return tuple(text.split())


_QUICK_CHECKS = (
    _argv("constants --process bessel --m 2 --n 100"),
    _argv("tail-check --process scalar --m 3 --x 30"),
    _argv("kk-check --m 2 --r 2 --p 4 --ns 1000,10000,100000"),
    _argv("marginal-sweep --process bessel --m 3 --ns 100,1000,10000 --replicates 2000 --threads 1"),
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="br-selftest",
            commands=(_argv("br-selftest --grid-k 8 --epsilon 1e-4 --replicates 5000 --threads 1"),),
            warmup=(_argv("br-selftest --grid-k 8 --epsilon 1e-4 --replicates 50 --threads 1"),),
            items_per_op=3 * 5000,
            item="Brown-Resnick path",
        ),
        Workload(
            name="fdd-prelimit",
            commands=tuple(
                _argv(f"fdd-check --process {p} --m 2 --times 0,1 --n 10000 --replicates 2000 --threads 2")
                for p in ("bessel", "scalar")
            ),
            warmup=tuple(
                _argv(f"fdd-check --process {p} --m 2 --times 0,1 --n 1000 --replicates 100 --threads 2")
                for p in ("bessel", "scalar")
            ),
            items_per_op=2 * 10000 * 2000,
            item="rescaled copy",
        ),
        Workload(
            name="fdd-limit",
            commands=(_argv("fdd-check --process br --times 0,1 --replicates 10000 --threads 1"),),
            warmup=(_argv("fdd-check --process br --times 0,1 --replicates 100 --threads 1"),),
            items_per_op=10000,
            item="Brown-Resnick path",
        ),
        Workload(
            name="quick-checks",
            commands=_QUICK_CHECKS,
            warmup=_QUICK_CHECKS,  # the full op is already cheap
            items_per_op=4,
            item="report",
        ),
    )
}


class OpResult:
    """Outcome of one op: what went wrong, report bytes and report digests."""

    __slots__ = ("error", "malformed", "threshold_failed", "report_bytes", "digests")

    def __init__(self):
        self.error = False  # raised, or exit code 2
        self.malformed = False  # a report failed validation
        self.threshold_failed = False  # valid report, exit code 1
        self.report_bytes = 0
        self.digests = {}

    @property
    def failed(self):
        return self.error or self.malformed or self.threshold_failed


def _finite(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _reject_constant(name):
    raise ValueError(f"non-finite literal {name}")


def validate_report(raw, command, seed, exit_code, summary):
    """Return a list of problems with one report's bytes; empty when it is well-formed."""
    try:
        report = json.loads(raw.decode("utf-8"), parse_constant=_reject_constant)
    except ValueError as exc:
        return [f"not JSON: {exc}"]
    if not isinstance(report, dict):
        return ["report is not an object"]
    problems = []
    if report.get("schema") != SCHEMA:
        problems.append(f"schema {report.get('schema')!r}")
    if report.get("command") != command:
        problems.append(f"command {report.get('command')!r} != {command!r}")
    config = report.get("config")
    if not isinstance(config, dict) or config.get("seed") != seed:
        problems.append("config does not echo the op seed")
    rows = report.get("results")
    if not isinstance(rows, list) or not rows:
        return problems + ["results missing or empty"]
    verdicts = []
    for row in rows:
        if not isinstance(row, dict) or not isinstance(row.get("statistic"), str):
            problems.append(f"malformed row {row!r}")
            continue
        if not _finite(row.get("value")):
            problems.append(f"{row['statistic']}: non-finite value")
        if row.get("threshold") is not None and not _finite(row["threshold"]):
            problems.append(f"{row['statistic']}: non-finite threshold")
        if row.get("passed") is not None:
            if not isinstance(row["passed"], bool):
                problems.append(f"{row['statistic']}: passed is not a bool")
            verdicts.append(row["passed"])
    passed = report.get("passed")
    if not isinstance(passed, bool):
        problems.append("passed is not a bool")
    else:
        if passed != all(verdicts):
            problems.append("passed disagrees with the row verdicts")
        if exit_code != (0 if passed else 1):
            problems.append(f"exit code {exit_code} disagrees with passed={passed}")
        if summary.rstrip().rsplit("\n", 1)[-1] != ("PASS" if passed else "FAIL"):
            problems.append("summary verdict line disagrees with passed")
    return problems


def run_op(cli, commands, seed, out_dir, log):
    """Run one op; the caller times it.  ``cli`` is the ``besselbr.cli`` module.

    Each report is read back, deleted, validated and hashed; problems are
    appended to ``log``.  Seeds differ between the ops of a run and reports
    are deleted, so every ``--out`` path is new.
    """
    result = OpResult()
    for index, command in enumerate(commands):
        path = os.path.join(out_dir, f"{seed}-{index}.json")
        argv = [*command, "--seed", str(seed), "--out", path]
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.run(argv)
        except Exception as exc:  # an op that raises is counted, not fatal
            result.error = True
            log.append(f"{command[0]} seed {seed}: raised {type(exc).__name__}: {exc}")
            continue
        if code not in (0, 1):
            result.error = True
            log.append(f"{command[0]} seed {seed}: exit {code}: {stderr.getvalue().strip()}")
            continue
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
            os.unlink(path)
        except OSError as exc:
            result.malformed = True
            log.append(f"{command[0]} seed {seed}: no report: {exc}")
            continue
        result.report_bytes += len(raw)
        problems = validate_report(raw, command[0], seed, code, stdout.getvalue())
        if problems:
            result.malformed = True
            log.append(f"{command[0]} seed {seed}: " + "; ".join(problems))
        elif code == 1:
            result.threshold_failed = True
            log.append(f"{command[0]} seed {seed}: threshold failed")
        result.digests[f"{index}:{command[0]}"] = hashlib.sha256(raw).hexdigest()
    return result
