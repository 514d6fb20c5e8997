"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Statistical thresholds and the master seed are frozen from the pilot runs in
demos/pilot_thresholds.py (seed 7 passed every seeded check with margin; the
pilot header records the observed spreads).  Run with `pytest -s` to see the
per-criterion lines as they complete.
"""

import json
import math
import time

import numpy as np

from besselbr.brown_resnick import BRTruncationSpec, gumbel_cdf
from besselbr.cli import run
from besselbr.numerics import QuadratureSpec, StreamKey, integrate
from besselbr.paths import make_dyadic_grid, time_index
from besselbr.rescale import (
    bessel_constants,
    generic_constants,
    local_bessel_batch,
    local_bessel_split_batch,
    scalar_constants,
)
from besselbr.stats import (
    PAIR_CHUNK,
    fdd_check,
    ks_statistic,
    marginal_gumbel_sweep,
    two_sample_ks,
)
from besselbr.tails import (
    TailParams,
    check_condition_kk,
    check_gumbel_intensity,
    chi_square_density,
    chi_square_tail,
    chi_square_tail_fn,
    chi_square_tail_params,
    product_tail_oracle,
    scalar_product_tail_asymptotic,
    scalar_product_tail_params,
    weibull_product_density,
    weibull_product_tail,
)

MASTER_SEED = 7  # frozen by demos/pilot_thresholds.py
KEY = StreamKey(MASTER_SEED)

ORACLE_QUAD = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-12, max_subdivisions=200)

# the CLI's default gates that the criteria re-derive; test_gates_are_the_cli_defaults
# holds each to the threshold that a `cli.run` report prints for it
TAIL_RATIO_GATE = 0.05  # tail-check ratio_error
SWEEP_FINAL_GATE = 0.10  # marginal-sweep ks_final
BR_MARGINAL_GATE = 0.026  # br-selftest ks_marginal_t_*
BR_TWO_SAMPLE_GATE = 0.033  # br-selftest ks_stationarity, ks_epsilon_insensitivity
FDD_PRELIMIT_GATE = 0.05  # fdd-check --process bessel/scalar fdd_sup_diff
FDD_LIMIT_GATE = 0.03  # fdd-check --process br fdd_sup_diff
KK_BOUND_FACTOR = 2.0  # kk-check kk_max_over_first


def report(number, passed, detail):
    line = f"ACCEPTANCE {number:>2}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert passed, line


def test_criterion_01_exact_intensity_identity():
    # warm-up so the timed section measures arithmetic, not import machinery
    chi_square_tail(2, 1.0)
    worst = 0.0
    started = time.perf_counter()
    for n in (10, 10**3, 10**6):
        b = bessel_constants(n, 2).b
        for s in (-1.0, 0.0, 3.0):
            value = n * chi_square_tail(2, 2.0 * s + b)
            worst = max(worst, abs(value - math.exp(-s)))
    elapsed = time.perf_counter() - started
    report(
        1,
        worst <= 1e-12 and elapsed < 1e-3,
        f"n P(chi2_2 > 2s + b_n) = e^-s, worst error {worst:.2e}, {elapsed*1e3:.3f} ms",
    )


def test_criterion_02_norming_constant_consistency():
    bessel_constants(10, 1)  # warm-up
    worst = 0.0
    started = time.perf_counter()
    for m in range(1, 7):
        kb, cb, bb = chi_square_tail_params(m)
        ks_, cs, bs = scalar_product_tail_params(m)
        for n in (10**2, 10**6):
            g = generic_constants(kb, cb, bb, n)
            ref = bessel_constants(n, m)
            worst = max(worst, abs(g.a - ref.a), abs(g.b - ref.b))
            g = generic_constants(ks_, cs, bs, n)
            ref = scalar_constants(n, m)
            worst = max(worst, abs(g.a - ref.a), abs(g.b - ref.b))
    elapsed = time.perf_counter() - started
    report(
        2,
        worst <= 1e-12 and elapsed < 1e-3,
        f"generic constants reproduce both families, worst gap {worst:.2e}, {elapsed*1e3:.3f} ms",
    )


def test_criterion_03_product_tail_oracle_equivalence():
    started = time.perf_counter()
    worst_ratio_gap = 0.0
    for m in (1, 2, 3):
        ratio = scalar_product_tail_asymptotic(m, 30.0) / product_tail_oracle(m, 30.0, ORACLE_QUAD)
        worst_ratio_gap = max(worst_ratio_gap, abs(ratio - 1.0))
    worst_laplace = max(
        abs(product_tail_oracle(2, x, ORACLE_QUAD) - 0.5 * math.exp(-x)) for x in (1.0, 5.0, 10.0)
    )
    elapsed = time.perf_counter() - started
    report(
        3,
        worst_ratio_gap <= TAIL_RATIO_GATE and worst_laplace <= 1e-9 and elapsed < 1.0,
        f"asymptotic/oracle gap {worst_ratio_gap:.4f} (<={TAIL_RATIO_GATE}), Laplace error "
        f"{worst_laplace:.1e} (<=1e-9), {elapsed:.2f} s",
    )


def test_criterion_04_product_tail_and_density_formulas():
    params = TailParams(C1=1, L1=1, p1=1, alpha1=0, C2=1, L2=1, p2=1, alpha2=0)
    started = time.perf_counter()

    def oracle_tail(x):
        return integrate(lambda y: math.exp(-y - x / y), 0.0, np.inf, ORACLE_QUAD)

    tail_ratio = weibull_product_tail(params, 100.0) / oracle_tail(100.0)
    h = 0.1
    fd_density = (oracle_tail(100.0 - h) - oracle_tail(100.0 + h)) / (2.0 * h)
    density_ratio = weibull_product_density(params, 100.0) / fd_density
    elapsed = time.perf_counter() - started
    report(
        4,
        0.97 <= tail_ratio <= 1.03 and 0.95 <= density_ratio <= 1.05 and elapsed < 1.0,
        f"tail ratio {tail_ratio:.4f} in [0.97, 1.03], density ratio {density_ratio:.4f} "
        f"in [0.95, 1.05], {elapsed:.2f} s",
    )


def test_criterion_05_marginal_gumbel_sweeps():
    # bessel and scalar m = 2 are exact distances; scalar m = 3 samples pair_maxima
    started = time.perf_counter()
    details = []
    ok = True
    sweeps = (("bessel", 2), ("bessel", 3), ("scalar", 2), ("scalar", 3))
    for substream, (process, m) in zip((51, 52, 53, 54), sweeps):
        values = marginal_gumbel_sweep(
            process, m, [100, 1000, 10000], 2000, KEY.with_substream(substream)
        )
        decreasing = all(b < a for a, b in zip(values, values[1:]))
        ok = ok and decreasing and values[-1] <= SWEEP_FINAL_GATE
        details.append(f"{process} m={m}: {['%.4g' % v for v in values]}")
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 60.0
    detail = f" (decreasing, final <= {SWEEP_FINAL_GATE:.2f}), {elapsed:.1f} s"
    report(5, ok, "; ".join(details) + detail)


def test_criterion_06_br_simulator_selftests():
    from besselbr import sample_br_batch

    started = time.perf_counter()
    grid = make_dyadic_grid(8)
    batch = sample_br_batch(grid, BRTruncationSpec(epsilon=1e-4), KEY.with_substream(60), 5000)
    marginals = {
        t: ks_statistic(batch[:, time_index(grid, t)], gumbel_cdf)
        for t in (0.0, 0.5, 1.0)
    }
    stationarity = two_sample_ks(batch[:, 0], batch[:, -1])
    col = time_index(grid, 1.0)
    loose = sample_br_batch(grid, BRTruncationSpec(epsilon=1e-3), KEY.with_substream(61), 5000)
    tight = sample_br_batch(grid, BRTruncationSpec(epsilon=1e-6), KEY.with_substream(62), 5000)
    insensitivity = two_sample_ks(loose[:, col], tight[:, col])
    elapsed = time.perf_counter() - started
    ok = (
        all(v <= BR_MARGINAL_GATE for v in marginals.values())
        and stationarity <= BR_TWO_SAMPLE_GATE
        and insensitivity <= BR_TWO_SAMPLE_GATE
        and elapsed < 120.0
    )
    report(
        6,
        ok,
        f"marginal KS {['%.4f' % marginals[t] for t in (0.0, 0.5, 1.0)]} (<={BR_MARGINAL_GATE}), "
        f"stationarity {stationarity:.4f}, eps-insensitivity {insensitivity:.4f} "
        f"(<={BR_TWO_SAMPLE_GATE}), {elapsed:.0f} s",
    )


def test_criterion_07_fdd_checks():
    started = time.perf_counter()
    bessel = fdd_check("bessel", 2, (0.0, 1.0), 10000, 2000, KEY.with_substream(70))
    scalar = fdd_check("scalar", 2, (0.0, 1.0), 10000, 2000, KEY.with_substream(71))
    limit = fdd_check("br", 2, (0.0, 1.0), 0, 10000, KEY.with_substream(72))
    elapsed = time.perf_counter() - started
    ok = (
        bessel <= FDD_PRELIMIT_GATE
        and scalar <= FDD_PRELIMIT_GATE
        and limit <= FDD_LIMIT_GATE
        and elapsed < 600.0
    )
    report(
        7,
        ok,
        f"fdd sup-diff vs HR(0.5): bessel {bessel:.4f}, scalar {scalar:.4f} "
        f"(<={FDD_PRELIMIT_GATE}), limit harness {limit:.4f} (<={FDD_LIMIT_GATE}), {elapsed:.0f} s",
    )


def test_criterion_08_decomposition_cross_check():
    started = time.perf_counter()
    ts = np.array([0.5, 1.0])
    direct = local_bessel_batch(ts, 10**4, 2, KEY.with_substream(80), 10**5)
    split = local_bessel_split_batch(ts, 10**4, 2, KEY.with_substream(81), 10**5)
    distances = [two_sample_ks(direct[:, j], split[:, j]) for j in range(2)]
    elapsed = time.perf_counter() - started
    ok = max(distances) <= 0.01 and elapsed < 60.0
    report(
        8,
        ok,
        f"two-sample KS direct vs decomposition at t=0.5, 1: "
        f"{['%.4f' % d for d in distances]} (<=0.01), {elapsed:.1f} s",
    )


def test_criterion_09_cli_reports_are_thread_invariant(tmp_path):
    commands = {
        "constants": ["constants", "--process", "bessel", "--m", "2", "--n", "100"],
        "tail-check": ["tail-check", "--m", "2", "--x", "5"],
        "kk-check": ["kk-check", "--ns", "1000,10000"],
        "marginal-sweep": [
            "marginal-sweep", "--process", "scalar", "--m", "3",
            "--ns", "100,1000", "--replicates", "1250",
        ],
        "fdd-check": [
            "fdd-check", "--process", "bessel", "--m", "2", "--n", "500", "--replicates", "1250",
        ],
        "fdd-check-br": ["fdd-check", "--process", "br", "--times", "0,1", "--replicates", "2500"],
        "br-sample": ["br-sample", "--grid-k", "5"],
        "br-selftest": [
            "br-selftest", "--grid-k", "5", "--replicates", "300",
            "--marginal-threshold", "0.2", "--two-sample-threshold", "0.2",
        ],
    }
    for name in ("marginal-sweep", "fdd-check"):  # threads 1 and 4 cross chunks
        assert int(commands[name][-1]) > 2 * PAIR_CHUNK
    threaded = {"marginal-sweep", "fdd-check", "fdd-check-br", "br-selftest"}
    ok = True
    details = []
    for name, argv in commands.items():
        outputs = []
        for threads in (1, 4):
            out = tmp_path / f"{name}-{threads}.json"
            extra = ["--threads", str(threads)] if name in threaded else []
            code = run(argv + ["--seed", str(MASTER_SEED)] + extra + ["--out", str(out)])
            assert code in (0, 1), f"{name} returned usage error"
            outputs.append(out.read_bytes())
        same = outputs[0] == outputs[1]
        ok = ok and same
        details.append(f"{name}:{'=' if same else '!='}")
    report(9, ok, "byte-identical reports at threads 1 vs 4 [" + " ".join(details) + "]")


def test_criterion_10_condition_verifiers():
    started = time.perf_counter()
    worst = 0.0
    for s in (-1.0, 0.0, 3.0):
        values = check_gumbel_intensity(
            chi_square_tail_fn(2), lambda n: bessel_constants(n, 2), s, [10, 10**3, 10**6]
        )
        worst = max(worst, max(abs(v - math.exp(-s)) for v in values))
    sequence = check_condition_kk(
        lambda y: chi_square_density(2, y),
        lambda n: bessel_constants(n, 2),
        2.0,
        4.0,
        [10**3, 10**4, 10**5],
        ORACLE_QUAD,
    )
    bounded = max(sequence) <= KK_BOUND_FACTOR * sequence[0]
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and bounded and elapsed < 5.0
    report(
        10,
        ok,
        f"intensity exact to {worst:.1e}, damped-tail sequence "
        f"{['%.3f' % v for v in sequence]} bounded by {KK_BOUND_FACTOR:g}x first, {elapsed:.2f} s",
    )


def test_gates_are_the_cli_defaults(tmp_path):
    # small argvs at default thresholds: (argv, gated row, the constant the criteria use)
    cases = [
        ("tail-check --m 2 --x 5", "ratio_error", TAIL_RATIO_GATE),
        ("marginal-sweep --process bm --ns 100 --replicates 10", "ks_final", SWEEP_FINAL_GATE),
        ("br-selftest --grid-k 1 --replicates 10", "ks_marginal_t_0", BR_MARGINAL_GATE),
        ("br-selftest --grid-k 1 --replicates 10", "ks_stationarity", BR_TWO_SAMPLE_GATE),
        ("br-selftest --grid-k 1 --replicates 10", "ks_epsilon_insensitivity", BR_TWO_SAMPLE_GATE),
        ("fdd-check --process bessel --n 100 --replicates 10", "fdd_sup_diff", FDD_PRELIMIT_GATE),
        ("fdd-check --process scalar --n 100 --replicates 10", "fdd_sup_diff", FDD_PRELIMIT_GATE),
        ("fdd-check --process br --replicates 10", "fdd_sup_diff", FDD_LIMIT_GATE),
        ("kk-check --ns 1000,10000", "kk_max_over_first", KK_BOUND_FACTOR),
    ]
    for i, (argv, statistic, gate) in enumerate(cases):
        out = tmp_path / f"{i}.json"
        assert run(argv.split() + ["--seed", "1", "--out", str(out)]) in (0, 1), argv
        rows = {row["statistic"]: row for row in json.loads(out.read_text())["results"]}
        assert rows[statistic]["threshold"] == gate, (argv, statistic)
