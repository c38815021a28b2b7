import dataclasses
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.integrate import quad
from scipy.special import ndtr

from primeplm.errors import InvalidConfig
from primeplm.simulation import (
    MR_PARAMS_60,
    MR_PARAMS_85,
    TRUE_BETA,
    MetricsReport,
    ReplicationRecord,
    ScenarioConfig,
    _aggregate,
    apply_missing_scenario1,
    apply_missing_scenario2,
    calibration_mu_samples,
    calibration_sum_sq,
    gen_covariates,
    gen_errors,
    run_study,
    scenario_from_entries,
    sigma_for_r2,
    true_mean,
)

GROUPS = ((2, 3), (4, 5), (6, 7))


def small_config(**overrides):
    base = dict(
        n=60, n_test=50, replications=3, rho_mode="0.3",
        error_mode="homoscedastic", r_squared=0.7, missing="scenario1",
        mr_params=MR_PARAMS_60, seed=11,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def test_gen_covariates_shapes_and_ranges():
    rng = np.random.default_rng(0)
    x = gen_covariates(1000, "0.3", rng)
    assert x.shape == (1000, 8)
    assert x[:, :3].min() >= 0.0 and x[:, :3].max() <= 1.0


def test_gen_covariates_moments():
    rng = np.random.default_rng(1)
    x = gen_covariates(100_000, "0.3", rng)
    assert_allclose(x[:, 3:].mean(axis=0), 1.0, atol=0.02)
    assert_allclose(x[:, 3:].var(axis=0), 1.0, atol=0.03)
    corr = np.corrcoef(x[:, 3:].T)
    off = corr[np.triu_indices(5, k=1)]
    assert_allclose(off, 0.3, atol=0.02)

    x6 = gen_covariates(100_000, "0.6", np.random.default_rng(2))
    corr6 = np.corrcoef(x6[:, 3:].T)
    assert corr6[0, 1] == pytest.approx(0.6, abs=0.02)

    xa = gen_covariates(100_000, "ar", np.random.default_rng(3))
    corra = np.corrcoef(xa[:, 3:].T)
    assert corra[0, 1] == pytest.approx(0.8, abs=0.02)
    assert corra[0, 2] == pytest.approx(0.64, abs=0.02)
    assert corra[0, 4] == pytest.approx(0.8**4, abs=0.02)


def test_gen_covariates_bad_mode():
    with pytest.raises(InvalidConfig):
        gen_covariates(10, "0.9", np.random.default_rng(0))


def test_true_mean_examples():
    x = np.array([0.25, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    assert true_mean(x) == pytest.approx(2.2, abs=1e-12)
    assert true_mean(np.zeros(8)) == pytest.approx(0.0, abs=1e-12)
    shifted = x.copy()
    shifted[3] += 1.0
    assert true_mean(shifted) - true_mean(x) == pytest.approx(1.0, abs=1e-12)
    rows = np.vstack([x, shifted])
    assert_allclose(true_mean(rows), [2.2, 3.2], atol=1e-12)


def test_sigma_for_r2_formula():
    rng = np.random.default_rng(4)
    samples = rng.normal(0, 2.0, 50_000)
    v = samples.var(ddof=1)
    assert sigma_for_r2(samples, 0.5) == pytest.approx(v, rel=1e-12)
    assert sigma_for_r2(samples, 0.9) == pytest.approx(v / 9.0, rel=1e-12)
    assert sigma_for_r2(samples, 0.99) < sigma_for_r2(samples, 0.5)


def test_calibration_moments_match_analytic():
    # Var(mu) = Var(sin 2piU) + Var(sin piU) + Var(U^3/2) + beta' Sigma beta
    var_nonlin = 0.5 + (0.5 - (2 / math.pi) ** 2) + 0.25 * (1 / 7 - 1 / 16)
    beta = np.asarray(TRUE_BETA)
    S = 0.3 * np.ones((5, 5)) + 0.7 * np.eye(5)
    var_mu = var_nonlin + beta @ S @ beta
    samples = calibration_mu_samples("0.3")
    assert samples.shape == (100_000,)
    assert samples.var(ddof=1) == pytest.approx(var_mu, rel=0.03)
    assert sigma_for_r2(samples, 0.7) == pytest.approx(var_mu * 3 / 7, rel=0.03)
    # E sum X_j^2 = 3 * 1/3 + 5 * (1 + 1) = 11
    assert calibration_sum_sq("0.3") == pytest.approx(11.0, rel=0.01)


def test_gen_errors_homoscedastic_variance():
    rng = np.random.default_rng(5)
    x = gen_covariates(1_000_000, "0.3", rng)
    eps = gen_errors(x, 2.0, "homoscedastic", rng)
    assert eps.var() == pytest.approx(2.0, rel=0.01)


def test_gen_errors_heteroscedastic():
    rng = np.random.default_rng(6)
    x = gen_covariates(200_000, "0.3", rng)
    ess = calibration_sum_sq("0.3")
    eps = gen_errors(x, 2.0, "heteroscedastic", rng, expected_sum_sq=ess)
    # averaged over units the variance normalizes back to sigma^2
    assert eps.var() == pytest.approx(2.0, rel=0.02)
    # conditional variance scales with the squared-norm of the row
    s = (x**2).sum(axis=1)
    hi = eps[s > np.quantile(s, 0.9)]
    lo = eps[s < np.quantile(s, 0.1)]
    assert hi.var() > 2.0 * lo.var()
    with pytest.raises(InvalidConfig):
        gen_errors(x, 2.0, "heteroscedastic", rng)
    with pytest.raises(InvalidConfig):
        gen_errors(x, 2.0, "lognormal", rng)


def test_scenario1_group_structure():
    rng = np.random.default_rng(7)
    x = gen_covariates(20_000, "0.3", rng)
    eps = rng.normal(0, 1.4, 20_000)
    mask = apply_missing_scenario1(x, eps, (0.0, 0.0, 0.0, 0.0, 0.25), rng)
    # first pair never deleted
    assert mask[:, :2].all()
    # groups delete as blocks
    for a, b in GROUPS:
        assert_array_equal(mask[:, a], mask[:, b])
    # a=b=0 -> logistic at zero -> rate 1/2; c=d=0 -> Phi(0) = 1/2
    assert (~mask[:, 2]).mean() == pytest.approx(0.5, abs=0.02)
    assert (~mask[:, 4]).mean() == pytest.approx(0.5, abs=0.02)
    assert (~mask[:, 6]).mean() == pytest.approx(0.25, abs=0.02)


def test_scenario1_error_dependence():
    # large `a` makes group-2 deletion concentrate on negative errors
    rng = np.random.default_rng(8)
    x = gen_covariates(30_000, "0.3", rng)
    eps = rng.normal(0, 1.0, 30_000)
    mask = apply_missing_scenario1(x, eps, (8.0, 0.0, 0.0, 0.0, 0.0), rng)
    deleted = ~mask[:, 2]
    assert eps[deleted].mean() < -0.5
    assert eps[~deleted].mean() > 0.2


def test_scenario2_latent_covariate_dependence():
    rng = np.random.default_rng(9)
    x = gen_covariates(30_000, "0.3", rng)
    mask = apply_missing_scenario2(x, (0.0, 0.0, 40.0, -20.0, 0.0), rng)
    g3 = ~mask[:, 4]
    # group-3 deletion keys on x3 even in rows where x3 itself is deleted
    assert g3[x[:, 2] > 0.6].mean() > 0.95
    assert g3[x[:, 2] < 0.4].mean() < 0.05
    assert (~mask[:, 2]).mean() == pytest.approx(0.5, abs=0.02)
    assert mask[:, 6:].all()


def test_scenario_incomplete_fractions():
    rng = np.random.default_rng(10)
    x = gen_covariates(30_000, "0.3", rng)
    sigma2 = sigma_for_r2(calibration_mu_samples("0.3"), 0.7)
    eps = gen_errors(x, sigma2, "homoscedastic", rng)
    m1 = apply_missing_scenario1(x, eps, MR_PARAMS_60, rng)
    frac1 = (~m1.all(axis=1)).mean()
    assert frac1 == pytest.approx(0.60, abs=0.03)
    m2 = apply_missing_scenario2(x, MR_PARAMS_85, rng)
    frac2 = (~m2.all(axis=1)).mean()
    assert frac2 == pytest.approx(0.85, abs=0.03)


def test_run_study_deterministic():
    config = small_config()
    a = run_study(config, methods=("prime", "cc"))
    b = run_study(config, methods=("prime", "cc"))
    assert a.records == b.records
    assert a.metrics == b.metrics


def test_run_study_workers_equivalence():
    config = small_config(replications=6)
    serial = run_study(config, methods=("prime",))
    parallel = run_study(config, methods=("prime",), workers=2)
    assert serial.records == parallel.records


def test_run_study_metrics_identity_and_ratio():
    config = small_config(replications=4, n=80)
    report = run_study(config, methods=("prime", "cc", "mean_impute"))
    for name, m in report.metrics.items():
        if np.isfinite(m.mse):
            assert m.mse == pytest.approx(m.variance + m.bias_sq, abs=1e-10)
    assert report.metrics["prime"].pe_ratio == pytest.approx(1.0, abs=1e-12)
    expected = report.metrics["cc"].pe / report.metrics["prime"].pe
    assert report.metrics["cc"].pe_ratio == pytest.approx(expected, rel=1e-12)


def test_run_study_records_failures():
    # 85% incomplete rows at n=50 leaves too few complete cases for cc
    config = small_config(
        n=50, replications=3, missing="scenario2", mr_params=MR_PARAMS_85, seed=3,
    )
    report = run_study(config, methods=("prime", "cc"))
    cc = report.metrics["cc"]
    assert cc.n_failed >= 1
    failed = [r for r in report.records if r.method == "cc" and r.pe is None]
    assert failed and all(r.error for r in failed)
    assert any("InsufficientCompleteCases" in r.error for r in failed)


def test_run_study_survives_linalg_error(monkeypatch):
    import primeplm.simulation as simulation

    real_fit = simulation.fit_prime
    calls = []

    def flaky_fit(table, spec, config):
        calls.append(1)
        if len(calls) == 2:
            raise np.linalg.LinAlgError("SVD did not converge")
        return real_fit(table, spec, config)

    monkeypatch.setattr(simulation, "fit_prime", flaky_fit)
    report = run_study(small_config(replications=3), methods=("prime", "cc"))
    prime = report.metrics["prime"]
    assert prime.n_ok == 2 and prime.n_failed == 1
    assert np.isfinite(prime.pe)
    failed = [r for r in report.records if r.pe is None]
    assert [(r.method, r.replication) for r in failed] == [("prime", 1)]
    assert failed[0].error == "LinAlgError: SVD did not converge"
    assert report.metrics["cc"].n_ok == 3


def test_run_study_no_missing_and_prime_ma():
    config = small_config(n=100, replications=2, missing="none")
    report = run_study(config, methods=("prime", "prime_ma"))
    assert report.metrics["prime"].n_failed == 0
    # averaging records no coefficient estimates, so MSE stays undefined
    assert math.isnan(report.metrics["prime_ma"].mse)
    assert np.isfinite(report.metrics["prime_ma"].pe)


def test_run_study_rejects_unknown_method():
    with pytest.raises(InvalidConfig):
        run_study(small_config(), methods=("prime", "mystery"))


def test_aggregate_synthetic_records():
    beta0 = np.asarray(TRUE_BETA)
    b1 = beta0 + 0.1
    b2 = beta0 - 0.1
    records = [
        ReplicationRecord("prime", 0, 0.1, tuple(b1)),
        ReplicationRecord("prime", 1, 0.3, tuple(b2)),
        ReplicationRecord("cc", 0, 0.2, tuple(b1)),
        ReplicationRecord("cc", 1, 0.6, None, "InsufficientCompleteCases: n0"),
    ]
    report = _aggregate(small_config(), ("prime", "cc"), records)
    prime = report.metrics["prime"]
    assert prime.pe == pytest.approx(0.2)
    assert prime.pe_sd == pytest.approx(np.std([0.1, 0.3], ddof=1))
    # bias cancels (+0.1 then -0.1), variance carries all of the MSE
    assert prime.mse == pytest.approx(5 * 0.01, abs=1e-12)
    assert prime.bias_sq == pytest.approx(0.0, abs=1e-12)
    assert prime.variance == pytest.approx(5 * 0.01, abs=1e-12)
    assert prime.mse == pytest.approx(prime.variance + prime.bias_sq, abs=1e-12)


def test_aggregate_failed_replication_excluded():
    records = [
        ReplicationRecord("cc", 0, 0.4, None),
        ReplicationRecord("cc", 1, None, None, "boom"),
    ]
    report = _aggregate(small_config(), ("cc",), records)
    cc = report.metrics["cc"]
    assert cc.n_ok == 1 and cc.n_failed == 1
    assert cc.pe == pytest.approx(0.4)
    assert math.isnan(cc.pe_sd)


def test_scenario_config_validation():
    with pytest.raises(InvalidConfig):
        small_config(n=10)
    with pytest.raises(InvalidConfig):
        small_config(r_squared=1.5)
    with pytest.raises(InvalidConfig):
        small_config(rho_mode="0.5")
    with pytest.raises(InvalidConfig):
        small_config(missing="scenario3")
    with pytest.raises(InvalidConfig):
        small_config(mr_params=(0.1, 0.2, 0.3))
    with pytest.raises(InvalidConfig):
        small_config(mr_params=(0.1, 0.5, 0.1, -1.1, 1.3))
    for position in range(4):  # e already has to lie in [0, 1]
        for value in (math.nan, math.inf, -math.inf):
            params = list(MR_PARAMS_60)
            params[position] = value
            with pytest.raises(InvalidConfig, match="finite"):
                small_config(mr_params=tuple(params))
    with pytest.raises(InvalidConfig):
        small_config(error_mode="cauchy")
    with pytest.raises(InvalidConfig):
        small_config(replications=0)


@pytest.mark.parametrize("field, value, message", [
    pytest.param("r_squared", "0.7", "r_squared must be a number in", id="r_squared-str"),
    pytest.param("mr_params", None, "mr_params must be 5 numbers", id="mr_params-None"),
    pytest.param("mr_params", "abcde", "mr_params must be 5 numbers", id="mr_params-str"),
])
def test_scenario_config_non_numeric_fields(field, value, message):
    # each used to escape as a bare TypeError or ValueError
    with pytest.raises(InvalidConfig, match=message):
        small_config(**{field: value})


@pytest.mark.parametrize("workers", ["2", 2.0, True], ids=repr)
def test_run_study_workers_must_be_an_integer(workers):
    # "2" used to raise a bare TypeError, and 2.0 and True ran a study
    with pytest.raises(InvalidConfig, match="workers must be an integer"):
        run_study(small_config(replications=2), methods=("cc",), workers=workers)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: small_config(rho_mode=["0.3"]), id="listed-rho_mode"),
    pytest.param(lambda: gen_covariates(10, ["0.3"], np.random.default_rng(0)),
                 id="gen_covariates-listed-rho_mode"),
    pytest.param(lambda: run_study(small_config(replications=1), methods=[["prime"]]),
                 id="listed-method"),
    pytest.param(lambda: small_config(mr_params=("0.1", 0.5, 0.1, -1.1, 0.3)),
                 id="mr_params-string-entry"),
    pytest.param(lambda: small_config(mr_params=(True, 0.5, 0.1, -1.1, 0.3)),
                 id="mr_params-bool-entry"),
    pytest.param(lambda: sigma_for_r2(np.arange(5.0), "0.5"), id="sigma_for_r2-str-r_squared"),
    pytest.param(lambda: sigma_for_r2(np.arange(5.0), 1.5), id="sigma_for_r2-r_squared-above-1"),
    pytest.param(lambda: sigma_for_r2(np.full(5, 2.0), 0.5), id="sigma_for_r2-constant-mu"),
    pytest.param(lambda: gen_covariates(2.5, "0.3", np.random.default_rng(0)),
                 id="gen_covariates-fractional-n"),
    pytest.param(lambda: gen_covariates(-1, "0.3", np.random.default_rng(0)),
                 id="gen_covariates-negative-n"),
    pytest.param(lambda: run_study(small_config(replications=1), methods=None),
                 id="no-method-sequence"),
])
def test_bad_study_settings_raise_invalid_config(call):
    # the first three used to escape as TypeError: unhashable; the next two
    # were accepted, where fixed_h rejects the same entries; the string
    # r_squared, the gen_covariates sizes and a missing method list escaped
    # as a bare TypeError or ValueError
    with pytest.raises(InvalidConfig):
        call()


def test_run_study_rejects_a_bare_method_string():
    # a string used to be read as its characters: "unknown method 'p'"
    with pytest.raises(InvalidConfig, match="methods must be a sequence of method names"):
        run_study(small_config(replications=1), methods="prime")


def test_numpy_r_squared_is_stored_as_float():
    # an np.float32 used to be stored as given, which json cannot write
    config = small_config(r_squared=np.float32(0.7))
    assert type(config.r_squared) is float
    assert json.loads(json.dumps(dataclasses.asdict(config)))["r_squared"] == config.r_squared


def test_gen_covariates_empty_draw():
    assert gen_covariates(0, "0.3", np.random.default_rng(0)).shape == (0, 8)


def test_scenario_config_integer_fields():
    # a float count used to pass here and end the study in a bare TypeError
    config = small_config(n=np.int64(60), n_test=np.int32(50), replications=np.uint8(1),
                          seed=np.int16(3))
    cc = run_study(config, methods=("cc",)).metrics["cc"]
    assert cc.n_ok + cc.n_failed == 1
    for field, value in (("n", 100.0), ("n_test", 20.0), ("replications", 2.0),
                         ("seed", 1.5), ("seed", True), ("n", np.float64(60)), ("n", "60")):
        with pytest.raises(InvalidConfig, match=f"{field} must be an integer"):
            small_config(**{field: value})


def test_scenario_from_entries():
    entries = {
        "n": "200", "replications": "100", "seed": "42", "rho": "ar",
        "error_mode": "heteroscedastic", "r_squared": "0.5",
        "missing": "scenario2", "mr": "85", "n_test": "500",
    }
    config = scenario_from_entries(entries)
    assert config.n == 200 and config.seed == 42
    assert config.rho_mode == "ar"
    assert config.mr_params == MR_PARAMS_85
    assert config.n_test == 500

    with pytest.raises(InvalidConfig):
        scenario_from_entries({"n": "100", "replications": "2"})
    with pytest.raises(InvalidConfig):
        scenario_from_entries({**entries, "bogus": "1"})
    with pytest.raises(InvalidConfig):
        scenario_from_entries({**entries, "mr_params": "0.1,0.5,0.1,-1.1,0.3"})
    with pytest.raises(InvalidConfig):
        scenario_from_entries({**entries, "mr": "70"})
    with pytest.raises(InvalidConfig):
        scenario_from_entries({**entries, "n": "twelve"})


def test_custom_mr_params_entry():
    entries = {
        "n": "60", "replications": "2", "seed": "1",
        "mr_params": "0.1, 0.5, 0.1, -1.1, 0.3",
    }
    config = scenario_from_entries(entries)
    assert config.mr_params == MR_PARAMS_60
