"""Span tracer that wraps primeplm's public functions from outside the package.

A hook names a public function by (module, attribute) and the layer its time
belongs to.  Installing the tracer replaces that function object in every
loaded primeplm module namespace that binds it, which is where the library's
own callers look it up, so internal calls are traced too.  A hooked name that
no longer exists is listed in ``absent`` and skipped.

Spans are recorded only inside an ``operation`` and kept in memory; each has
a name, layer, start, end, parent span and operation id.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from dataclasses import dataclass, field


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _count_points(counts, args, kwargs, result):
    counts["basis_points"] = int(_arg(args, kwargs, 1, "x").size)


def _count_rows(counts, args, kwargs, result):
    rows = _arg(args, kwargs, 1, "rows")
    counts["predict_rows"] = int(rows.shape[0]) if getattr(rows, "ndim", 1) == 2 else 1


def _count_design(counts, args, kwargs, result):
    # the mask is turned into cell and donor-pair counts after the round
    counts["mask"] = _arg(args, kwargs, 0, "table").mask
    counts["fallbacks"] = int(result.imputation.total_fallbacks)


# (module, public function, layer, counter).  assemble_design's own time,
# outside its basis_matrix children, is the imputation, so it belongs to
# kernel_impute; the per-cell imputer API is deliberately not hooked.
HOOKS = (
    ("dataset", "build_pattern_index", "dataset", None),
    ("dataset", "minmax_normalize", "dataset", None),
    ("dataset", "load_csv", "dataset", None),
    ("spline", "basis_matrix", "spline", _count_points),
    ("prime_fit", "assemble_design", "kernel_impute", _count_design),
    ("prime_fit", "solve_least_squares", "prime_fit", None),
    ("prime_fit", "fit_prime", "prime_fit", None),
    ("prime_fit", "fit_cc", "prime_fit", None),
    ("prime_fit", "fit_mean_impute", "prime_fit", None),
    ("prime_fit", "predict", "prime_fit", _count_rows),
    ("prime_fit", "save_fit", "prime_fit", None),
    ("prime_fit", "load_fit", "prime_fit", None),
    ("model_averaging", "fit_prime_ma", "model_averaging", None),
    ("model_averaging", "fit_candidate_full", "model_averaging", None),
    ("model_averaging", "build_cv_matrix", "model_averaging", None),
    ("model_averaging", "cv_weights", "model_averaging", None),
    ("model_averaging", "predict_averaged", "model_averaging", None),
    ("simulation", "run_study", "simulation", None),
    ("simulation", "gen_covariates", "simulation", None),
    ("simulation", "true_mean", "simulation", None),
    ("simulation", "gen_errors", "simulation", None),
    ("simulation", "apply_missing_scenario1", "simulation", None),
    ("cli", "main", "cli", None),
    ("cli", "cmd_fit", "cli", None),
    ("cli", "cmd_predict", "cli", None),
)

PACKAGE = "primeplm"
DATAGEN = (
    "simulation.gen_covariates",
    "simulation.true_mean",
    "simulation.gen_errors",
    "simulation.apply_missing_scenario1",
)


@dataclass(slots=True)
class Span:
    sid: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    op: int
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self, hooks=HOOKS):
        self.hooks = tuple(hooks)
        self.spans: list[Span] = []
        self.ops: list[tuple[str, int]] = []  # op id -> (kind, round)
        self.absent: list[str] = []
        self.counter_errors: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self._op: int | None = None

    # -- hooks -----------------------------------------------------------------

    def install(self) -> None:
        namespaces = [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        self.absent = []
        for module_name, attr, layer, counter in self.hooks:
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                self.absent.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(f"{module_name}.{attr}", layer, original, counter)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)
                        self._patched.append((ns, key, original))

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._patched):
            setattr(ns, key, original)
        self._patched = []

    def _wrap(self, name: str, layer: str, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            span = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if counter is not None:
                try:
                    counter(span.counts, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError) as err:
                    tracer.counter_errors.append(f"{name}: {type(err).__name__}: {err}")
            return result

        return wrapper

    # -- spans -----------------------------------------------------------------

    def _open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, layer, 0.0, 0.0, parent, self._op)
        self.spans.append(span)
        self._stack.append(span.sid)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def operation(self, kind: str, round_index: int):
        """Root span of one timed operation; hooked calls inside become its children."""
        self._op = len(self.ops)
        self.ops.append((kind, round_index))
        span = self._open(f"op.{kind}", "bench")
        try:
            yield span
        finally:
            self._close(span)
            self._op = None

    def dump(self, t0: float) -> dict:
        """Spans as plain lists, times in seconds since t0."""
        return {
            "columns": ["sid", "name", "start_s", "end_s", "parent", "op"],
            "spans": [
                [s.sid, s.name, s.start - t0, s.end - t0, s.parent, s.op] for s in self.spans
            ],
            "ops": [[i, kind, rnd] for i, (kind, rnd) in enumerate(self.ops)],
            "absent": list(self.absent),
            "counter_errors": list(self.counter_errors),
        }


def self_times(spans) -> dict[int, float]:
    """Span duration minus the time its child spans cover."""
    covered: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            covered[s.parent] = covered.get(s.parent, 0.0) + (s.end - s.start)
    return {s.sid: (s.end - s.start) - covered.get(s.sid, 0.0) for s in spans}
