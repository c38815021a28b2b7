"""End-to-end acceptance checks, one per criterion.

Run `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line per
criterion with the measured numbers.  Each criterion is independent and
carries its own oracle; tolerances are stated inline.
"""

import dataclasses
import math
import time

import numpy as np
from scipy.integrate import quad
from scipy.special import ndtr

from conftest import imputed_columns, make_blockwise_table
from primeplm import ModelStructure, ObservationTable, build_pattern_index, make_spec
from primeplm.kernel_impute import KernelConfig
from primeplm.model_averaging import (
    build_candidates,
    build_cv_matrix,
    cc_design,
    cv_weights,
    fit_prime_ma,
)
from primeplm.prime_fit import fit_cc, fit_prime, predict
from primeplm.simulation import (
    MR_PARAMS_60,
    MR_PARAMS_85,
    TRUE_BETA,
    ReplicationRecord,
    ScenarioConfig,
    _aggregate,
    _sim_table,
    apply_missing_scenario1,
    apply_missing_scenario2,
    calibration_mu_samples,
    gen_covariates,
    gen_errors,
    run_study,
    sigma_for_r2,
    true_mean,
)
from reference_kernel import (
    delete_one_residuals,
    imputed_weights,
    pattern_directions,
    pooled_projected_differences,
    silverman,
)

BAND = (0.15, 0.35)

STUDY = ScenarioConfig(
    n=200, n_test=1000, replications=100, rho_mode="0.3",
    error_mode="homoscedastic", r_squared=0.7, missing="scenario1",
    mr_params=MR_PARAMS_60, seed=20260814,
)


def _check(num: int, fn) -> None:
    try:
        ok, detail = fn()
    except Exception as err:
        print(f"criterion {num}: FAIL - {type(err).__name__}: {err}")
        raise
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _complete_sim_table(n: int, seed) -> tuple[ObservationTable, float]:
    rng = np.random.default_rng(seed)
    sigma2 = sigma_for_r2(calibration_mu_samples("0.3"), 0.7)
    x = gen_covariates(n, "0.3", rng)
    y = true_mean(x) + gen_errors(x, sigma2, "homoscedastic", rng)
    return _sim_table(x, y, np.ones(x.shape, dtype=bool)), sigma2


# -- 1: with no missing data the imputation path is exactly complete-case ----


def test_criterion_1_complete_data_agreement():
    def body():
        table, _ = _complete_sim_table(300, 42)
        t0 = time.perf_counter()
        full = fit_prime(table)
        cc = fit_cc(table)
        dt = time.perf_counter() - t0
        gap = max(
            abs(full.intercept - cc.intercept),
            float(np.abs(full.curve_coefs - cc.curve_coefs).max()),
            float(np.abs(full.linear_coefs - cc.linear_coefs).max()),
        )
        ok = gap <= 1e-10 and dt < 1.0
        return ok, (f"n=300 complete data, max coefficient gap {gap:.2e} "
                    f"(tol 1e-10) in {dt * 1000:.0f} ms")
    _check(1, body)


# -- 2: kernel-weighted imputations against hand-computed values -------------


def test_criterion_2_nw_micro_oracles():
    def body():
        donors_a = [0.05, 0.2, 0.4, 0.55, 0.75, 0.9]
        donors_b = [5.0, -1.0, 2.5, 0.5, 3.0, -2.0]
        targets_a = [0.1, 0.5, 0.85]
        targets_b = [1.0, -0.5, 2.0]

        n = 12
        x = np.full((n, 2), np.nan)
        mask = np.zeros((n, 2), dtype=bool)
        for i in range(6):
            x[i] = (donors_a[i], donors_b[i])
            mask[i] = (True, True)
        for k in range(3):
            x[6 + k, 0] = targets_a[k]
            mask[6 + k, 0] = True
            x[9 + k, 1] = targets_b[k]
            mask[9 + k, 1] = True
        table = ObservationTable(
            y=np.arange(n, dtype=float), x=x, mask=mask, columns=("a", "b"),
            structure=ModelStructure(nonlinear=("a",), linear=("b",)),
        )
        pattern = build_pattern_index(table)
        spec = make_spec()

        def bernstein(u):
            return [math.comb(3, l) * u**l * (1 - u) ** (3 - l) for l in range(4)]

        errs = []
        for ha, hb in ((0.3, 0.5), (0.8, 0.25), (1.5, 1.0)):
            config = KernelConfig(bandwidth="fixed", fixed_h=(ha, hb))
            values = imputed_columns(table, pattern, config, spec)
            for k, a_t in enumerate(targets_a):
                ws = [
                    math.exp(-0.5 * ((ad - a_t) / ha) ** 2)
                    / (math.sqrt(2 * math.pi) * ha)
                    for ad in donors_a
                ]
                expected = sum(w * b for w, b in zip(ws, donors_b)) / sum(ws)
                errs.append(abs(values[1][6 + k, 0] - expected))
            for k, b_t in enumerate(targets_b):
                ws = [
                    math.exp(-0.5 * ((bd - b_t) / hb) ** 2)
                    / (math.sqrt(2 * math.pi) * hb)
                    for bd in donors_b
                ]
                sw = sum(ws)
                expected = [
                    sum(w * bernstein(ad)[l] for w, ad in zip(ws, donors_a)) / sw
                    for l in range(4)
                ]
                got = values[0][9 + k]
                errs.append(max(abs(g - e) for g, e in zip(got, expected)))

        # projected donor weights against an explicit geometric mean of the
        # per-direction Gaussian kernels: eight complete donors and four
        # units missing the last of m + 1 columns, whose m > 2 observed
        # columns switch the resampled projection on
        rng = np.random.default_rng(7)
        for instance in range(9):
            m = int(rng.integers(3, 7))
            x = rng.normal(0, 1, (12, m + 1))
            x[8:, m] = np.nan
            cols = tuple(f"c{c}" for c in range(m + 1))
            table = ObservationTable(
                y=np.zeros(12), x=x, mask=~np.isnan(x), columns=cols,
                structure=ModelStructure(nonlinear=(), linear=cols),
            )
            config = KernelConfig(projection="resampled", n_projections=2,
                                  projection_threshold=2, seed=instance)
            i = 8 + instance % 4
            donors = np.flatnonzero(table.mask[:, m])
            got = imputed_weights(table, config, m)[i, donors]
            cond = np.arange(m)
            directions = pattern_directions(config, cond)
            pooled = pooled_projected_differences(table.x, table.mask, i, directions)
            h = silverman(pooled, table.n)[0]
            ws = []
            for d in donors:
                logs = []
                for b in range(2):
                    t = sum((x[d, c] - x[i, c]) * directions[b, c] for c in range(m)) / h
                    logs.append(-0.5 * t * t - 0.5 * math.log(2 * math.pi) - math.log(h))
                ws.append(math.exp(sum(logs) / len(logs)))
            errs.append(max(abs(g - w / sum(ws)) for g, w in zip(got, ws)))

        worst = max(errs)
        ok = worst <= 1e-12 and len(errs) >= 20
        return ok, f"{len(errs)} hand-computed instances, max |err| {worst:.2e} (tol 1e-12)"
    _check(2, body)


# -- 3: leave-one-out residuals equal delete-one refits ----------------------


def test_criterion_3_loo_identity():
    def body():
        rng = np.random.default_rng(3)
        spec = make_spec()
        worst = 0.0
        checked = 0
        for _ in range(10):
            n = int(rng.integers(12, 26))
            k = int(rng.integers(2, 5))
            x = rng.normal(0, 1, (n, k))
            cols = tuple(f"c{c}" for c in range(k))
            table = ObservationTable(
                y=rng.normal(0, 1, n), x=x, mask=np.ones((n, k), dtype=bool),
                columns=cols, structure=ModelStructure(nonlinear=(), linear=cols),
            )
            candidates = build_candidates(cols)
            cv = build_cv_matrix(table, candidates, spec)
            c = int(rng.integers(k))
            G = cc_design(table, candidates[c], spec, np.arange(n))
            units = rng.choice(cv.rows, size=5, replace=False)
            want = delete_one_residuals(G, table.y, units)
            got = cv.matrix[np.searchsorted(cv.rows, units), c]
            worst = max(worst, float(np.abs(got - want).max()))
            checked += units.size
        ok = worst <= 1e-8 and checked == 50
        return ok, (f"{checked} delete-one refits against build_cv_matrix, "
                    f"max |err| {worst:.2e} (tol 1e-8)")
    _check(3, body)


# -- 4: simplex-constrained quadratic weights -------------------------------


def test_criterion_4_weight_solver():
    from primeplm.model_averaging import _simplex_qp

    def body():
        rng = np.random.default_rng(4)
        diag_err = 0.0
        feas_err = 0.0
        for _ in range(20):
            K = int(rng.integers(1, 9))
            q = rng.uniform(0.2, 5.0, K)
            w = _simplex_qp(np.diag(q))
            expected = (1.0 / q) / (1.0 / q).sum()
            diag_err = max(diag_err, float(np.abs(w - expected).max()))
            feas_err = max(feas_err, -float(w.min()), abs(float(w.sum()) - 1.0))

        grid_gap = 0.0
        for _ in range(10):
            K = int(rng.integers(2, 4))
            E = rng.normal(0, 1, (K + 4, K))
            Q = E.T @ E
            w = _simplex_qp(Q)
            feas_err = max(feas_err, -float(w.min()), abs(float(w.sum()) - 1.0))
            obj = float(w @ Q @ w)
            if K == 2:
                w1 = np.arange(0.0, 1.0 + 1e-9, 1e-3)
                grid = np.column_stack([w1, 1.0 - w1])
            else:
                w1, w2 = np.meshgrid(
                    np.arange(0.0, 1.0 + 1e-9, 2e-3),
                    np.arange(0.0, 1.0 + 1e-9, 2e-3),
                )
                keep = w1 + w2 <= 1.0 + 1e-12
                grid = np.column_stack(
                    [w1[keep], w2[keep], 1.0 - w1[keep] - w2[keep]]
                )
            grid_best = float(np.einsum("ij,jk,ik->i", grid, Q, grid).min())
            grid_gap = max(grid_gap, obj - grid_best)

        ok = diag_err <= 1e-6 and grid_gap <= 5e-3 and feas_err <= 1e-10
        return ok, (f"20 diagonal cases max |err| {diag_err:.2e} (tol 1e-6); "
                    f"10 grid comparisons max gap {grid_gap:.2e} (tol 5e-3); "
                    f"feasibility slack {feas_err:.1e}")
    _check(4, body)


# -- 5: the headline study lands in the published band -----------------------


def test_criterion_5_study_prediction_error():
    def body():
        t0 = time.perf_counter()
        report = run_study(STUDY, methods=("prime", "cc"))
        dt = time.perf_counter() - t0
        pe = report.metrics["prime"].pe
        pe_cc = report.metrics["cc"].pe
        ok = BAND[0] <= pe <= BAND[1] and pe < pe_cc
        return ok, (f"n=200 MR60 study: imputation PE {pe:.4f} in "
                    f"[{BAND[0]}, {BAND[1]}], complete-case PE {pe_cc:.4f} "
                    f"({dt:.1f} s, {STUDY.replications} replications)")
    _check(5, body)


# -- 6: prediction error shrinks with sample size -----------------------------


def test_criterion_6_consistency_trend():
    def body():
        medians = {}
        spreads = {}
        for n in (200, 400):
            pes = []
            for seed in (101, 102, 103, 104, 105):
                config = dataclasses.replace(STUDY, n=n, seed=seed)
                pes.append(run_study(config, methods=("prime",)).metrics["prime"].pe)
            medians[n] = float(np.median(pes))
            spreads[n] = (min(pes), max(pes))
        ok = medians[400] < medians[200]
        return ok, (f"median PE over 5 seeds: n=200 {medians[200]:.4f} "
                    f"(range {spreads[200][0]:.3f}-{spreads[200][1]:.3f}), "
                    f"n=400 {medians[400]:.4f} "
                    f"(range {spreads[400][0]:.3f}-{spreads[400][1]:.3f})")
    _check(6, body)


# -- 7: deletion mechanisms hit their calibrated rates -------------------------


def test_criterion_7_missingness_calibration():
    def body():
        n = 100_000
        rng = np.random.default_rng(2026)
        sigma2 = sigma_for_r2(calibration_mu_samples("0.3"), 0.7)
        s = math.sqrt(sigma2)
        x = gen_covariates(n, "0.3", rng)
        phi = lambda t: np.exp(-0.5 * t * t) / np.sqrt(2 * np.pi)

        eps = gen_errors(x, sigma2, "homoscedastic", rng)
        mask1 = apply_missing_scenario1(x, eps, MR_PARAMS_60, rng)
        a, b, c, d, e = MR_PARAMS_60
        quad1 = [
            quad(lambda t: 1 / (1 + np.exp(a * s * t + b)) * phi(t), -40, 40)[0],
            quad(lambda t: ndtr(c * s * t + d) * phi(t), -40, 40)[0],
            e,
        ]
        emp1 = [(~mask1[:, 2]).mean(), (~mask1[:, 4]).mean(), (~mask1[:, 6]).mean()]

        mask2 = apply_missing_scenario2(x, MR_PARAMS_85, rng)
        a, b, c, d, e = MR_PARAMS_85
        quad2 = [
            quad(lambda u: 1 / (1 + np.exp(a * u + b)), 0, 1)[0],
            quad(lambda u: ndtr(c * u + d), 0, 1)[0],
            e,
        ]
        emp2 = [(~mask2[:, 2]).mean(), (~mask2[:, 4]).mean(), (~mask2[:, 6]).mean()]

        z = 0.0
        for p, f in zip(quad1 + quad2, emp1 + emp2):
            z = max(z, abs(f - p) / math.sqrt(p * (1 - p) / n))
        inc1 = (~mask1.all(axis=1)).mean()
        inc2 = (~mask2.all(axis=1)).mean()
        ok = z <= 3.0 and abs(inc1 - 0.60) <= 0.03 and abs(inc2 - 0.85) <= 0.03
        return ok, (f"6 group rates within {z:.2f} MC standard errors of "
                    f"quadrature (limit 3); incomplete fractions "
                    f"{inc1:.4f} (target 0.60) and {inc2:.4f} (target 0.85)")
    _check(7, body)


# -- 8: averaging stays close to the full fit and finds the real curves --------


def test_criterion_8_model_averaging():
    def body():
        sigma2 = sigma_for_r2(calibration_mu_samples("0.3"), 0.7)
        x_test = gen_covariates(2000, "0.3", np.random.default_rng(31337))
        mu_test = true_mean(x_test)

        ratios = []
        hits = 0
        for seed in range(10):
            rng = np.random.default_rng([seed, 88])
            x = gen_covariates(400, "0.3", rng)
            y = true_mean(x) + gen_errors(x, sigma2, "homoscedastic", rng)
            table = _sim_table(x, y, np.ones(x.shape, dtype=bool))
            full = fit_prime(table)
            pe_full = float(np.mean((predict(full, x_test) - mu_test) ** 2))
            avg = fit_prime_ma(table)
            pe_avg = float(np.mean((avg.predict(x_test) - mu_test) ** 2))
            ratios.append(pe_avg / pe_full)
            top3 = {avg.candidates[k] for k in np.argsort(avg.weights)[::-1][:3]}
            hits += bool(top3 & {"x1", "x2", "x3"})

        mean_ratio = float(np.mean(ratios))
        ok = mean_ratio <= 2.5 and hits >= 6
        return ok, (f"10 runs at n=400: mean averaged/full PE ratio "
                    f"{mean_ratio:.3f} (limit 2.5), nonlinear covariate in "
                    f"top-3 weights {hits}/10 (need >= 6)")
    _check(8, body)


# -- 9: bulk invariants ---------------------------------------------------------


def test_criterion_9_property_sweeps():
    def body():
        # partition of unity across spline settings
        rng = np.random.default_rng(9)
        from primeplm.spline import basis_matrix

        pou_cases = 0
        pou_dev = 0.0
        for degree, knots in ((3, 0), (3, 3), (2, 4), (4, 2), (1, 6)):
            spec = make_spec(degree, knots)
            pts = rng.uniform(0.0, 1.0, 5000)
            rows = basis_matrix(spec, pts)
            pou_dev = max(
                pou_dev,
                float(np.abs(rows.sum(axis=1) - 1.0).max()),
                max(0.0, -float(rows.min())),
            )
            pou_cases += pts.size

        # every imputed cell stays inside its donors' convex hull
        hull_cells = 0
        hull_viol = 0
        for seed in (1, 2, 3, 4, 5):
            table = make_blockwise_table(n=1200, seed=seed)
            pattern = build_pattern_index(table)
            config = KernelConfig(seed=seed)
            values = imputed_columns(table, pattern, config, make_spec())
            nonlinear = {table.position(c) for c in table.structure.nonlinear}
            weights = {j: imputed_weights(table, config, j) for j in table.linear_pos}
            for i in np.flatnonzero(~table.mask.all(axis=1)):
                for j in np.flatnonzero(~table.mask[i]):
                    if j in nonlinear:
                        row = values[j][i]
                        good = row.min() >= -1e-12 and abs(row.sum() - 1.0) <= 1e-9
                    else:
                        # a fallback cell weighs every observed row
                        value = values[j][i, 0]
                        pool = table.x[weights[j][i] > 0, j]
                        good = pool.min() - 1e-9 <= value <= pool.max() + 1e-9
                    hull_cells += 1
                    hull_viol += not good
        if hull_cells < 10_000:
            return False, f"hull sweep too small ({hull_cells} cells)"

        # cross-validation weights always land on the simplex and never
        # do worse than uniform weights
        qp_cases = 10_000
        qp_feas = 0.0
        qp_regret = 0.0
        for _ in range(qp_cases):
            K = int(rng.integers(1, 7))
            E = rng.normal(0, 1, (K + 3, K))
            w = cv_weights(E)
            Q = E.T @ E
            uniform = np.full(K, 1.0 / K)
            qp_feas = max(qp_feas, -float(w.min()), abs(float(w.sum()) - 1.0))
            qp_regret = max(qp_regret, float(w @ Q @ w - uniform @ Q @ uniform))

        # squared-error decomposition: mse = variance + bias^2, both on
        # 10000 vectorized draws and through the aggregator itself
        beta0 = np.asarray(TRUE_BETA)
        draws = beta0 + rng.normal(0, 0.5, (10_000, 6, 5))
        mse = ((draws - beta0) ** 2).sum(axis=2).mean(axis=1)
        bar = draws.mean(axis=1)
        variance = ((draws - bar[:, None, :]) ** 2).mean(axis=1).sum(axis=1)
        bias_sq = ((bar - beta0) ** 2).sum(axis=1)
        mse_dev = float(np.abs(mse - variance - bias_sq).max())

        config = ScenarioConfig(
            n=60, n_test=50, replications=6, rho_mode="0.3",
            error_mode="homoscedastic", r_squared=0.7, missing="scenario1",
            mr_params=MR_PARAMS_60, seed=99,
        )
        agg_dev = 0.0
        for case in range(50):
            records = [
                ReplicationRecord("prime", r, 0.1, tuple(draws[case, r]))
                for r in range(6)
            ]
            m = _aggregate(config, ("prime",), records).metrics["prime"]
            agg_dev = max(
                agg_dev,
                abs(m.mse - mse[case]),
                abs(m.variance - variance[case]),
                abs(m.bias_sq - bias_sq[case]),
                abs(m.mse - m.variance - m.bias_sq),
            )

        # identical configurations reproduce bit for bit
        small = dataclasses.replace(config, replications=3)
        rep_a = run_study(small, methods=("prime", "cc"))
        rep_b = run_study(small, methods=("prime", "cc"))
        table = make_blockwise_table(n=60, seed=30)
        fit_a = fit_prime(table)
        fit_b = fit_prime(table)
        repro = (
            rep_a.records == rep_b.records
            and np.array_equal(fit_a.curve_coefs, fit_b.curve_coefs)
            and np.array_equal(fit_a.linear_coefs, fit_b.linear_coefs)
            and fit_a.intercept == fit_b.intercept
        )
        for name, m in rep_a.metrics.items():
            if np.isfinite(m.mse):
                agg_dev = max(agg_dev, abs(m.mse - m.variance - m.bias_sq))

        ok = (
            pou_dev <= 1e-9
            and hull_viol == 0
            and qp_feas <= 1e-10
            and qp_regret <= 1e-9
            and mse_dev <= 1e-10
            and agg_dev <= 1e-10
            and repro
        )
        return ok, (f"partition of unity {pou_cases} pts (dev {pou_dev:.1e}); "
                    f"convex hull {hull_cells} imputed cells "
                    f"({hull_viol} violations); simplex feasibility "
                    f"{qp_cases} solves (slack {qp_feas:.1e}, regret "
                    f"{qp_regret:.1e}); mse identity 10050 cases "
                    f"(dev {max(mse_dev, agg_dev):.1e}); "
                    f"bit-reproducibility {'ok' if repro else 'BROKEN'}")
    _check(9, body)
