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
from functools import lru_cache

import numpy as np

from .dataset import ModelStructure, ObservationTable
from .errors import InvalidConfig, PrimeError
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
        if self.n < 50:
            raise InvalidConfig(f"n must be >= 50, got {self.n}")
        if self.n_test < 1:
            raise InvalidConfig("n_test must be >= 1")
        if self.replications < 1:
            raise InvalidConfig("replications must be >= 1")
        if self.rho_mode not in _RHO_CODES:
            raise InvalidConfig(
                f"rho_mode must be one of {sorted(_RHO_CODES)}, got {self.rho_mode!r}"
            )
        if self.error_mode not in ("homoscedastic", "heteroscedastic"):
            raise InvalidConfig(f"unknown error_mode {self.error_mode!r}")
        if not 0.0 < self.r_squared < 1.0:
            raise InvalidConfig("r_squared must lie strictly between 0 and 1")
        if self.missing not in ("scenario1", "scenario2", "none"):
            raise InvalidConfig(f"unknown missing mode {self.missing!r}")
        params = tuple(float(v) for v in self.mr_params)
        if len(params) != 5:
            raise InvalidConfig("mr_params needs exactly 5 values (a, b, c, d, e)")
        if not all(math.isfinite(v) for v in params):
            raise InvalidConfig(f"mr_params must all be finite, got {params}")
        if not 0.0 <= params[4] <= 1.0:
            raise InvalidConfig("the constant deletion probability e must be in [0, 1]")
        object.__setattr__(self, "mr_params", params)
        if self.seed < 0:
            raise InvalidConfig("seed must be a nonnegative integer")


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
    if rho_mode not in _RHO_CODES:
        raise InvalidConfig(f"unknown rho_mode {rho_mode!r}")
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
    if not 0.0 < r_squared < 1.0:
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
    if error_mode == "homoscedastic":
        return rng.standard_normal(n) * math.sqrt(sigma2)
    if error_mode != "heteroscedastic":
        raise InvalidConfig(f"unknown error_mode {error_mode!r}")
    if expected_sum_sq is None:
        raise InvalidConfig("heteroscedastic errors need the E(sum x^2) normalizer")
    var_i = sigma2 * (x**2).sum(axis=1) / expected_sum_sq
    return rng.standard_normal(n) * np.sqrt(var_i)


def _logistic(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(np.clip(z, -40.0, 40.0)))


def _group_mask(n: int, probs: list[np.ndarray], rng: np.random.Generator) -> np.ndarray:
    """True = observed; one uniform draw per (unit, deletable group)."""
    u = rng.uniform(size=(n, len(_DELETION_GROUPS)))
    mask = np.ones((n, 8), dtype=bool)
    for k, cols in enumerate(_DELETION_GROUPS):
        deleted = u[:, k] < probs[k]
        for c in cols:
            mask[deleted, c] = False
    return mask


def apply_missing_scenario1(
    x: np.ndarray,
    eps: np.ndarray,
    mr_params: tuple[float, float, float, float, float],
    rng: np.random.Generator,
) -> np.ndarray:
    """Deletion probabilities driven by the regression error."""
    from scipy.special import ndtr  # only simulated missingness needs scipy.special

    a, b, c, d, e = mr_params
    n = x.shape[0]
    probs = [
        _logistic(a * eps + b),
        ndtr(c * eps + d),
        np.full(n, e),
    ]
    return _group_mask(n, probs, rng)


def apply_missing_scenario2(
    x: np.ndarray,
    mr_params: tuple[float, float, float, float, float],
    rng: np.random.Generator,
) -> np.ndarray:
    """Deletion probabilities driven by covariates; the third-group
    probability uses the latent x3 draw even when x3 itself is deleted."""
    from scipy.special import ndtr

    a, b, c, d, e = mr_params
    n = x.shape[0]
    probs = [
        _logistic(a * x[:, 0] + b),
        ndtr(c * x[:, 2] + d),
        np.full(n, e),
    ]
    return _group_mask(n, probs, rng)


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


def _run_method(
    method: str,
    table: ObservationTable,
    x_test: np.ndarray,
    spec: SplineSpec,
    kconfig: KernelConfig,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Returns (test predictions, linear coefficient estimates or None)."""
    # built per call, so a fitter patched in this module's namespace (as the
    # perfbench tracer does) is the one that runs
    fitters = {
        "prime": fit_prime,
        "prime_ma": fit_prime_ma,
        "cc": fit_cc,
        "mean_impute": fit_mean_impute,
    }
    fit = fitters[method](table, spec, kconfig)
    if isinstance(fit, AveragedFit):
        return fit.predict(x_test), None
    return predict(fit, x_test), fit.linear_coefs


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
                pred, beta = _run_method(method, table, x_test, spec, kconfig)
            except (PrimeError, np.linalg.LinAlgError) as err:
                records.append(
                    ReplicationRecord(method, rep, None, None, f"{type(err).__name__}: {err}")
                )
                continue
            pe = float(np.mean((pred - mu_test) ** 2))
            records.append(
                ReplicationRecord(
                    method, rep, pe, tuple(beta) if beta is not None else None
                )
            )
    return records


def _aggregate(
    config: ScenarioConfig,
    methods: tuple[str, ...],
    records: list[ReplicationRecord],
) -> MetricsReport:
    metrics: dict[str, MethodMetrics] = {}
    for method in methods:
        recs = [r for r in records if r.method == method]
        oks = [r for r in recs if r.pe is not None]
        n_ok, n_failed = len(oks), len(recs) - len(oks)
        if oks:
            pes = np.array([r.pe for r in oks])
            pe = float(pes.mean())
            pe_sd = float(pes.std(ddof=1)) if len(oks) >= 2 else float("nan")
        else:
            pe = pe_sd = float("nan")
        betas = [r.beta for r in oks if r.beta is not None]
        if betas and len(betas) == len(oks):
            B = np.array(betas)
            mse = float(((B - TRUE_BETA) ** 2).sum(axis=1).mean())
            bbar = B.mean(axis=0)
            variance = float(((B - bbar) ** 2).sum(axis=1).mean())
            bias_sq = float(((bbar - TRUE_BETA) ** 2).sum())
        else:
            mse = variance = bias_sq = float("nan")
        metrics[method] = MethodMetrics(
            method=method,
            n_ok=n_ok,
            n_failed=n_failed,
            pe=pe,
            pe_sd=pe_sd,
            pe_ratio=float("nan"),
            mse=mse,
            variance=variance,
            bias_sq=bias_sq,
        )
    if "prime" in metrics and np.isfinite(metrics["prime"].pe):
        base = metrics["prime"].pe
        for method in methods:
            metrics[method] = dataclasses.replace(
                metrics[method], pe_ratio=metrics[method].pe / base
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
    methods = tuple(dict.fromkeys(methods))
    unknown = [m for m in methods if m not in _ALL_METHODS]
    if unknown:
        raise InvalidConfig(f"unknown methods: {unknown}")
    if not methods:
        raise InvalidConfig("no methods requested")
    if workers < 1:
        raise InvalidConfig("workers must be >= 1")
    if spec is None:
        spec = make_spec()

    all_reps = list(range(config.replications))
    if workers == 1 or config.replications == 1:
        records = _replication_chunk(config, all_reps, methods, spec)
    else:
        chunks = [c.tolist() for c in np.array_split(all_reps, workers) if c.size]
        records = []
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            futures = [
                pool.submit(_replication_chunk, config, chunk, methods, spec)
                for chunk in chunks
            ]
            for fut in futures:
                records.extend(fut.result())
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
