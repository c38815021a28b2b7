"""Monte Carlo harness: data generator, missingness scenarios, metrics.

The generator draws three uniform covariates (modeled nonlinearly) and
five correlated unit-variance normals with mean 1 (modeled linearly),
builds the mean surface, scales the noise to a target population R^2, and
deletes covariates in fixed pairs with unit-level probabilities driven
either by the error (scenario 1) or by latent covariates (scenario 2).
Each replication runs on its own RNG stream derived from (seed, index),
so results are reproducible and independent of worker scheduling.
"""

from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache, partial
from numbers import Real

import numpy as np

from .dataset import ModelStructure, ObservationTable
from .errors import InvalidConfig, PrimeError, _choice, _integer, _reals
from .kernel_impute import KernelConfig
from .model_averaging import AveragedFit, fit_prime_ma
from .prime_fit import fit_cc, fit_mean_impute, fit_prime, predict
from .spline import SplineSpec, make_spec

__all__ = [
    "TRUE_BETA",
    "MR_PARAMS_60",
    "MR_PARAMS_85",
    "SIM_COLUMNS",
    "SIM_STRUCTURE",
    "ScenarioConfig",
    "MethodMetrics",
    "ReplicationRecord",
    "MetricsReport",
    "gen_covariates",
    "true_mean",
    "sigma_for_r2",
    "gen_errors",
    "apply_missing_scenario1",
    "apply_missing_scenario2",
    "run_study",
]

TRUE_BETA = np.array([1.0, -1.5, 1.0, -1.2, 0.4])
TRUE_BETA.flags.writeable = False

# unit-level deletion parameter sets targeting ~60% and ~85% incomplete rows
MR_PARAMS_60 = (0.1, 0.5, 0.1, -1.1, 0.3)
MR_PARAMS_85 = (0.1, 0.3, 0.1, -0.5, 0.6)

SIM_COLUMNS = tuple(f"x{j}" for j in range(1, 9))
SIM_STRUCTURE = ModelStructure(nonlinear=SIM_COLUMNS[:3], linear=SIM_COLUMNS[3:])

# covariates are deleted in pairs; the first pair is always observed
_DELETION_GROUPS = ((2, 3), (4, 5), (6, 7))

_RHO_CODES = {"0.3": 1, "0.6": 2, "ar": 3}
_CALIBRATION_TAG = 0xCA11B
_TEST_TAG = 0x7E57
_CALIBRATION_DRAWS = 100_000

_ALL_METHODS = ("prime", "prime_ma", "cc", "mean_impute")
_ERROR_MODES = ("homoscedastic", "heteroscedastic")


@dataclass(frozen=True)
class ScenarioConfig:
    n: int
    replications: int
    seed: int
    n_test: int = 10_000
    rho_mode: str = "0.3"
    error_mode: str = "homoscedastic"
    r_squared: float = 0.7
    missing: str = "scenario1"
    mr_params: tuple[float, float, float, float, float] = MR_PARAMS_60

    def __post_init__(self):
        counts = (("n", 50, None), ("n_test", 1, None), ("replications", 1, None),
                  ("seed", 0, "a nonnegative integer"))
        for name, least, must in counts:
            value = _integer(name, getattr(self, name), InvalidConfig, least, must)
            object.__setattr__(self, name, value)
        _choice("rho_mode", self.rho_mode, _RHO_CODES, InvalidConfig)
        _choice("error_mode", self.error_mode, _ERROR_MODES, InvalidConfig)
        if not (isinstance(self.r_squared, Real) and 0.0 < self.r_squared < 1.0):
            raise InvalidConfig(f"r_squared must be a number in (0, 1), got {self.r_squared!r}")
        object.__setattr__(self, "r_squared", float(self.r_squared))
        _choice("missing mode", self.missing, ("scenario1", "scenario2", "none"), InvalidConfig)
        params = _reals("mr_params", self.mr_params, InvalidConfig, size=5)
        if not 0.0 <= params[4] <= 1.0:
            raise InvalidConfig("the constant deletion probability e must be in [0, 1]")
        object.__setattr__(self, "mr_params", params)


# Each scenario setting: its scenario-file key, its ScenarioConfig field and
# the parser of its text, in the order summaries and provenance write them.
_SETTINGS = (
    ("n", "n", int),
    ("n_test", "n_test", int),
    ("rho", "rho_mode", str),
    ("error_mode", "error_mode", str),
    ("missing", "missing", str),
    ("mr_params", "mr_params", lambda text: tuple(float(v) for v in text.split(","))),
    ("r_squared", "r_squared", float),
    ("replications", "replications", int),
    ("seed", "seed", int),
)


@lru_cache(maxsize=None)
def _chol(rho_mode: str) -> np.ndarray:
    if rho_mode == "ar":
        idx = np.arange(5)
        cov = 0.8 ** np.abs(idx[:, None] - idx[None, :])
    else:
        rho = float(rho_mode)
        cov = np.full((5, 5), rho) + (1.0 - rho) * np.eye(5)
    return np.linalg.cholesky(cov)


def gen_covariates(n: int, rho_mode: str, rng: np.random.Generator) -> np.ndarray:
    """(n, 8): three U[0,1] columns, five correlated N(1, 1) columns."""
    n = _integer("n", n, InvalidConfig, 0)
    _choice("rho_mode", rho_mode, _RHO_CODES, InvalidConfig)
    u = rng.uniform(size=(n, 3))
    z = rng.standard_normal((n, 5))
    return np.hstack([u, 1.0 + z @ _chol(rho_mode).T])


def true_mean(x: np.ndarray) -> np.ndarray | float:
    """sin(2 pi x1) + sin(pi x2) + 0.5 x3^3 + linear part."""
    x = np.asarray(x, dtype=float)
    xm = np.atleast_2d(x)
    mu = (
        np.sin(2.0 * np.pi * xm[:, 0])
        + np.sin(np.pi * xm[:, 1])
        + 0.5 * xm[:, 2] ** 3
        + xm[:, 3:8] @ TRUE_BETA
    )
    return float(mu[0]) if x.ndim == 1 else mu


def sigma_for_r2(mu_samples: np.ndarray, r_squared: float) -> float:
    """Error variance making the population R^2 equal the target."""
    if not (isinstance(r_squared, Real) and 0.0 < r_squared < 1.0):
        raise InvalidConfig("r_squared must lie strictly between 0 and 1")
    var_mu = float(np.var(np.asarray(mu_samples, dtype=float), ddof=1))
    if var_mu <= 0.0:
        raise InvalidConfig("mu sample variance must be positive")
    return var_mu * (1.0 - r_squared) / r_squared


def gen_errors(
    x: np.ndarray,
    sigma2: float,
    error_mode: str,
    rng: np.random.Generator,
    expected_sum_sq: float | None = None,
) -> np.ndarray:
    n = x.shape[0]
    if _choice("error_mode", error_mode, _ERROR_MODES, InvalidConfig) == "homoscedastic":
        return rng.standard_normal(n) * math.sqrt(sigma2)
    if expected_sum_sq is None:
        raise InvalidConfig("heteroscedastic errors need the E(sum x^2) normalizer")
    var_i = sigma2 * (x**2).sum(axis=1) / expected_sum_sq
    return rng.standard_normal(n) * np.sqrt(var_i)


def _logistic(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(np.clip(z, -40.0, 40.0)))


def _group_mask(
    first: np.ndarray,
    second: np.ndarray,
    mr_params: tuple[float, float, float, float, float],
    rng: np.random.Generator,
) -> np.ndarray:
    """True = observed.  The three deletable pairs are dropped with
    probabilities logistic(a first + b), Phi(c second + d) and e, by one
    uniform draw per (unit, pair)."""
    from scipy.special import ndtr  # only simulated missingness needs scipy.special

    a, b, c, d, e = mr_params
    probs = (_logistic(a * first + b), ndtr(c * second + d), e)
    n = first.shape[0]
    u = rng.uniform(size=(n, len(_DELETION_GROUPS)))
    mask = np.ones((n, 8), dtype=bool)
    for k, cols in enumerate(_DELETION_GROUPS):
        mask[np.ix_(u[:, k] < probs[k], cols)] = False
    return mask


def apply_missing_scenario1(
    x: np.ndarray,
    eps: np.ndarray,
    mr_params: tuple[float, float, float, float, float],
    rng: np.random.Generator,
) -> np.ndarray:
    """Deletion probabilities driven by the regression error."""
    return _group_mask(eps, eps, mr_params, rng)


def apply_missing_scenario2(
    x: np.ndarray,
    mr_params: tuple[float, float, float, float, float],
    rng: np.random.Generator,
) -> np.ndarray:
    """Deletion probabilities driven by covariates; the third-group
    probability uses the latent x3 draw even when x3 itself is deleted."""
    return _group_mask(x[:, 0], x[:, 2], mr_params, rng)


# -- calibration constants (fixed internal seed so every study shares them) --


@lru_cache(maxsize=None)
def _calibration(rho_mode: str) -> tuple[np.ndarray, float]:
    rng = np.random.default_rng(
        np.random.SeedSequence([_CALIBRATION_TAG, _RHO_CODES[rho_mode]])
    )
    x = gen_covariates(_CALIBRATION_DRAWS, rho_mode, rng)
    mu = true_mean(x)
    mu.flags.writeable = False
    return mu, float((x**2).sum(axis=1).mean())


def calibration_mu_samples(rho_mode: str) -> np.ndarray:
    """Monte Carlo draws of the mean surface used to scale the noise."""
    return _calibration(rho_mode)[0]


def calibration_sum_sq(rho_mode: str) -> float:
    """Monte Carlo estimate of E(sum_j X_j^2) for heteroscedastic scaling."""
    return _calibration(rho_mode)[1]


# -- replication harness -------------------------------------------------------


@dataclass(frozen=True)
class ReplicationRecord:
    method: str
    replication: int
    pe: float | None
    beta: tuple[float, ...] | None
    error: str | None = None


@dataclass(frozen=True)
class MethodMetrics:
    method: str
    n_ok: int
    n_failed: int
    pe: float
    pe_sd: float
    pe_ratio: float
    mse: float
    variance: float
    bias_sq: float


@dataclass(frozen=True)
class MetricsReport:
    config: ScenarioConfig
    methods: tuple[str, ...]
    metrics: dict[str, MethodMetrics]
    records: tuple[ReplicationRecord, ...] = field(repr=False)


def _sim_table(x: np.ndarray, y: np.ndarray, mask: np.ndarray) -> ObservationTable:
    # the table stores unobserved cells as NaN itself
    return ObservationTable(y=y, x=x, mask=mask, columns=SIM_COLUMNS, structure=SIM_STRUCTURE)


def _replication_chunk(
    config: ScenarioConfig,
    reps: list[int],
    methods: tuple[str, ...],
    spec: SplineSpec,
) -> list[ReplicationRecord]:
    # resampled projection whenever a unit observes more covariates than there
    # are directions: the product kernel degenerates to nearest-neighbour
    # weighting once the conditioning set is wide, inflating prediction error
    kconfig = KernelConfig(
        seed=config.seed,
        projection="resampled",
        n_projections=2,
        projection_threshold=2,
    )
    # looked up per chunk, so a fitter patched in this module's namespace (as
    # the perfbench tracer does) is the one that runs
    fitters = {
        "prime": fit_prime,
        "prime_ma": fit_prime_ma,
        "cc": fit_cc,
        "mean_impute": fit_mean_impute,
    }
    test_rng = np.random.default_rng(np.random.SeedSequence([config.seed, _TEST_TAG]))
    x_test = gen_covariates(config.n_test, config.rho_mode, test_rng)
    mu_test = true_mean(x_test)
    sigma2 = sigma_for_r2(calibration_mu_samples(config.rho_mode), config.r_squared)
    ess = (
        calibration_sum_sq(config.rho_mode)
        if config.error_mode == "heteroscedastic"
        else None
    )

    records: list[ReplicationRecord] = []
    for rep in reps:
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, rep]))
        x = gen_covariates(config.n, config.rho_mode, rng)
        mu = true_mean(x)
        eps = gen_errors(x, sigma2, config.error_mode, rng, ess)
        y = mu + eps
        if config.missing == "scenario1":
            mask = apply_missing_scenario1(x, eps, config.mr_params, rng)
        elif config.missing == "scenario2":
            mask = apply_missing_scenario2(x, config.mr_params, rng)
        else:
            mask = np.ones_like(x, dtype=bool)
        table = _sim_table(x, y, mask)
        for method in methods:
            try:
                fit = fitters[method](table, spec, kconfig)
                if isinstance(fit, AveragedFit):
                    pred, beta = fit.predict(x_test), None
                else:
                    pred, beta = predict(fit, x_test), tuple(fit.linear_coefs)
            except (PrimeError, np.linalg.LinAlgError) as err:
                records.append(
                    ReplicationRecord(method, rep, None, None, f"{type(err).__name__}: {err}")
                )
                continue
            records.append(
                ReplicationRecord(method, rep, float(np.mean((pred - mu_test) ** 2)), beta)
            )
    return records


def _aggregate(
    config: ScenarioConfig,
    methods: tuple[str, ...],
    records: list[ReplicationRecord],
) -> MetricsReport:
    nan = float("nan")
    succeeded = {m: [r for r in records if r.method == m and r.pe is not None] for m in methods}
    pe = {m: float(np.mean([r.pe for r in oks])) if oks else nan for m, oks in succeeded.items()}
    base = pe.get("prime", nan)
    metrics: dict[str, MethodMetrics] = {}
    for method, oks in succeeded.items():
        betas = [r.beta for r in oks if r.beta is not None]
        if betas and len(betas) == len(oks):
            B = np.array(betas)
            mse = float(((B - TRUE_BETA) ** 2).sum(axis=1).mean())
            bbar = B.mean(axis=0)
            variance = float(((B - bbar) ** 2).sum(axis=1).mean())
            bias_sq = float(((bbar - TRUE_BETA) ** 2).sum())
        else:
            mse = variance = bias_sq = nan
        metrics[method] = MethodMetrics(
            method=method,
            n_ok=len(oks),
            n_failed=sum(r.method == method for r in records) - len(oks),
            pe=pe[method],
            pe_sd=float(np.std([r.pe for r in oks], ddof=1)) if len(oks) >= 2 else nan,
            pe_ratio=pe[method] / base if math.isfinite(base) else nan,
            mse=mse,
            variance=variance,
            bias_sq=bias_sq,
        )
    return MetricsReport(
        config=config, methods=methods, metrics=metrics, records=tuple(records)
    )


def run_study(
    config: ScenarioConfig,
    methods=_ALL_METHODS,
    workers: int = 1,
    spec: SplineSpec | None = None,
) -> MetricsReport:
    """Run all replications and aggregate PE / coefficient-error metrics.

    Failed replications are excluded per method and counted.  RNG streams
    are derived per replication, so any worker count gives identical
    results.
    """
    if isinstance(methods, str) or not hasattr(methods, "__iter__"):
        raise InvalidConfig(f"methods must be a sequence of method names, got {methods!r}")
    methods = tuple(
        dict.fromkeys(_choice("method", m, _ALL_METHODS, InvalidConfig) for m in methods)
    )
    if not methods:
        raise InvalidConfig("no methods requested")
    workers = _integer("workers", workers, InvalidConfig, 1)
    if spec is None:
        spec = make_spec()

    all_reps = list(range(config.replications))
    if workers == 1 or config.replications == 1:
        records = _replication_chunk(config, all_reps, methods, spec)
    else:
        chunks = [c.tolist() for c in np.array_split(all_reps, workers) if c.size]
        run_chunk = partial(_replication_chunk, config, methods=methods, spec=spec)
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            records = [rec for part in pool.map(run_chunk, chunks) for rec in part]
    return _aggregate(config, methods, records)


def scenario_from_entries(entries: dict[str, str]) -> ScenarioConfig:
    """Build a config from key=value pairs (strings); unknown keys raise."""
    unknown = sorted(set(entries) - {key for key, _, _ in _SETTINGS} - {"mr"})
    if unknown:
        raise InvalidConfig(f"unknown scenario keys: {unknown}")
    if "mr" in entries and "mr_params" in entries:
        raise InvalidConfig("give either mr or mr_params, not both")
    fields = dataclasses.fields(ScenarioConfig)
    required = {f.name for f in fields if f.default is dataclasses.MISSING}
    for key, name, _ in _SETTINGS:
        if name in required and key not in entries:
            raise InvalidConfig(f"scenario file is missing required key {key!r}")
    try:
        kwargs = {name: parse(entries[key]) for key, name, parse in _SETTINGS if key in entries}
        if "mr" in entries:
            presets = {"60": MR_PARAMS_60, "85": MR_PARAMS_85}
            if entries["mr"] not in presets:
                raise InvalidConfig(f"mr preset must be 60 or 85, got {entries['mr']!r}")
            kwargs["mr_params"] = presets[entries["mr"]]
        return ScenarioConfig(**kwargs)
    except (TypeError, ValueError) as err:
        raise InvalidConfig(f"bad scenario value: {err}") from None
