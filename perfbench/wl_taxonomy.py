"""``taxonomy``: the paper's five-step attribution (Fig. 7) end to end.

Every pass simulates a fresh Cori-like platform (Darshan + LMT logs,
about 56 % duplicate jobs), builds its dataset and runs
``TaxonomyPipeline`` with compact tuning and golden grids on one worker,
ending in a validated ``ErrorBreakdown``.  Each time the pipeline has
fitted a GBM, a copy of it scores jobs in windows of 64 (the
``gateway-batch`` loop without the serving stack), answers lone jobs
after an idle gap, and is deployed into a ``ModelRegistry`` (register +
promote); that probe's time is taken out of ``breakdown_s``.  The probes
give the workload's latency and rollout figures without the serving stack
in the way, sampled all through the pass rather than in one burst.
"""

from __future__ import annotations

import pickle
import time
from typing import Any

import numpy as np

from common import (
    CpuMeter, check, import_probe_s, overhead_pct, pass_figures, quiet_quartile, run_phase,
    self_peak_rss_mb, seed_seq,
)
from spans import SpanRecorder

IMPORTS = ["repro.config", "repro.simulator.engine", "repro.data.dataset",
           "repro.taxonomy", "repro.serve.registry"]

SIZES = {
    # jobs per simulated platform, deep-ensemble members and epochs
    "full": {"jobs": 2400, "members": 3, "epochs": 6, "min_passes": 3},
    "tiny": {"jobs": 600, "members": 2, "epochs": 2, "min_passes": 2},
}
# fixed n_estimators/max_depth: every seed does the same boosting work,
# whichever learning rate wins the search
TUNING_GRID = {
    "n_estimators": (40,), "max_depth": (6,), "learning_rate": (0.1, 0.2),
    "min_child_weight": (6,), "subsample": (0.8,), "colsample_bytree": (0.8,),
    "loss": ("squared",),
}
# the golden model has the tuned models' capacity, so the system segment
# measures what the start-time feature adds (see README on the 1200-job
# probe whose segments summed past ErrorBreakdown.validate's range)
GOLDEN_GRID = {
    "n_estimators": (40,), "max_depth": (6,), "learning_rate": (0.1,),
    "min_child_weight": (6,), "subsample": (0.8,), "colsample_bytree": (0.8,),
    "loss": ("squared",),
}
PROBE_ROWS = 1024  # jobs scored per fitted GBM, in windows like gateway-batch's
WINDOW = 64
ROW_CHECKS = 8
LONE_PER_FIT = 8
LONE_IDLE_S = 0.002
WARMUP_PASS = 1 << 20

PER_LAYER = {
    # name: (span, field) — field "s" is seconds per pass, "self" self
    # seconds per pass, "calls"/"units" counts per pass
    "simulator.simulate_s": ("simulate", "s"),
    "data.build_dataset_s": ("build_dataset", "s"),
    "data.feature_matrix_s": ("feature_matrix", "s"),
    "data.find_duplicate_sets_s": ("find_duplicate_sets", "s"),
    "ml.gbm.fit_s": ("gbm.fit", "s"),
    "ml.gbm.fit_calls": ("gbm.fit", "calls"),
    "ml.gbm.trees_fit": ("gbm.fit", "units"),
    "ml.gbm.predict_s": ("gbm.predict", "s"),
    "ml.hpo.grid_search_s": ("grid_search", "s"),
    "ml.hpo.grid_search_self_s": ("grid_search", "self"),
    "taxonomy.system_bound_s": ("system_bound", "s"),
    "taxonomy.system_bound_self_s": ("system_bound", "self"),
    "ml.ensemble.fit_s": ("ensemble.fit", "s"),
    "ml.ensemble.decompose_s": ("ensemble.decompose", "s"),
    "taxonomy.application_bound_s": ("application_bound", "s"),
    "taxonomy.ood_attribution_s": ("ood_attribution", "s"),
    "taxonomy.noise_bound_s": ("noise_bound", "s"),
}


def _install_spans(rec: SpanRecorder) -> None:
    from repro.data import dataset
    from repro.ml.ensemble import DeepEnsemble
    from repro.ml.gbm import GradientBoostingRegressor
    from repro.simulator import engine
    from repro.taxonomy import framework, litmus_system

    rec.install(engine, "simulate", "simulate")
    rec.install(dataset, "build_dataset", "build_dataset")
    for name in ("feature_matrix", "find_duplicate_sets", "system_bound",
                 "application_bound", "ood_attribution", "noise_bound"):
        rec.install(framework, name, name)
    rec.install(framework, "grid_search", "grid_search")
    rec.install(litmus_system, "grid_search", "grid_search")
    rec.install(GradientBoostingRegressor, "fit", "gbm.fit",
                units=lambda a, k, r: len(a[0].trees_))
    rec.install(GradientBoostingRegressor, "predict", "gbm.predict")
    rec.install(DeepEnsemble, "fit", "ensemble.fit")
    rec.install(DeepEnsemble, "decompose", "ensemble.decompose")


class _Capture:
    """Keeps what the checks need from inside a pass: every GBM fit with
    its training data, and the pipeline's duplicate census.  ``on_fit``,
    when set, runs after each GBM fit returns."""

    def __init__(self) -> None:
        from repro.ml.gbm import GradientBoostingRegressor
        from repro.taxonomy import framework

        self.fits: list[tuple[Any, np.ndarray, np.ndarray]] = []
        self.dups: list[Any] = []
        self.on_fit: Any = None
        fit, find = GradientBoostingRegressor.fit, framework.find_duplicate_sets

        def capture_fit(model, X, y, *a, **k):
            out = fit(model, X, y, *a, **k)
            self.fits.append((model, np.asarray(X, dtype=float), np.asarray(y, dtype=float)))
            if self.on_fit is not None:
                self.on_fit(model, self.fits[-1][1])
            return out

        def capture_find(features):
            out = find(features)
            self.dups.append(out)
            return out

        GradientBoostingRegressor.fit = capture_fit
        framework.find_duplicate_sets = capture_find
        self._undo = lambda: (setattr(GradientBoostingRegressor, "fit", fit),
                              setattr(framework, "find_duplicate_sets", find))

    def reset(self) -> None:
        self.fits.clear()
        self.dups.clear()

    def close(self) -> None:
        self._undo()


# ---------------------------------------------------------------------- #
# checks against computations made apart from the program
# ---------------------------------------------------------------------- #
def _check_pass(ds: Any, report: Any, cap: _Capture) -> None:
    from repro.data import feature_matrix

    posix = ds.frames["posix"]
    y = np.asarray(ds.y, dtype=float)

    # duplicate sets == an independent np.unique grouping of Darshan rows
    check(len(cap.dups) == 1, "pipeline ran one duplicate census")
    _, inverse, counts = np.unique(posix, axis=0, return_inverse=True, return_counts=True)
    inverse = inverse.reshape(-1)
    want = {tuple(np.flatnonzero(inverse == g)) for g in np.flatnonzero(counts >= 2)}
    got = {tuple(int(i) for i in s) for s in cap.dups[0].sets}
    check(got == want, "duplicate sets differ from np.unique grouping")

    # application bound == plain NumPy: Bessel-corrected, mean-centred
    # residuals per set, median |r| in dex, converted to percent
    resid = np.concatenate([
        (y[list(s)] - y[list(s)].mean()) * np.sqrt(len(s) / (len(s) - 1.0))
        for s in sorted(want)
    ])
    app_pct = (10.0 ** float(np.median(np.abs(resid))) - 1.0) * 100.0
    check(np.isclose(report.app_bound.median_abs_pct, app_pct, rtol=1e-12, atol=0),
          f"application bound {report.app_bound.median_abs_pct} != {app_pct}")

    # baseline and tuned errors recomputed from the report's models
    X_app, _ = feature_matrix(ds, "posix")
    test = report.splits[2]
    for model, got_pct, what in (
        (report.baseline_model, report.breakdown.baseline_error_pct, "baseline"),
        (report.tuned_model, report.breakdown.tuned_error_pct, "tuned"),
    ):
        err = np.median(np.abs(y[test] - model.predict(X_app[test])))
        want_pct = (10.0 ** err - 1.0) * 100.0
        check(np.isclose(got_pct, want_pct, rtol=1e-12, atol=0),
              f"{what} error {got_pct} != recomputed {want_pct}")

    report.breakdown.validate()

    # every fitted GBM beats its own constant base score on training MSE
    check(len(cap.fits) > 0, "no GBM was fitted")
    for model, X, yt in cap.fits:
        mse = float(np.mean((yt - model.predict(X)) ** 2))
        base = float(np.mean((yt - model.base_score_) ** 2))
        check(mse < base, f"GBM training MSE {mse} does not beat base score {base}")


# ---------------------------------------------------------------------- #
def run(seed: int, seconds: float, trace: bool, size: str) -> dict[str, Any]:
    from repro.config import preset
    from repro.data import dataset
    from repro.serve.registry import ModelRegistry
    from repro.simulator import engine
    from repro.taxonomy import TaxonomyPipeline

    cfg_size = SIZES[size]
    setup_s = import_probe_s(IMPORTS)  # nothing to train before the first pass
    cap = _Capture()
    rec = SpanRecorder()
    registry = ModelRegistry()
    cpu = CpuMeter()
    passes: list[dict[str, float]] = []
    state: dict[str, Any] = {"version": None, "ops": 0}

    def probe(model: Any, X: np.ndarray) -> None:
        """After a GBM fit: a copy of the model scores jobs a window at a
        time, answers lone jobs after an idle gap, and is deployed.  Its
        time is taken out of the pass's ``breakdown_s`` and CPU."""
        t_start, c_start = time.perf_counter(), cpu.read()
        copy = pickle.loads(pickle.dumps(model))  # the pipeline's model stays untouched
        rows, lone_rows = X[:PROBE_ROWS], X[-LONE_PER_FIT:]
        lat = np.empty(len(rows))
        got = np.empty(len(rows))
        for k in range(0, len(rows), WINDOW):
            t = time.perf_counter()
            got[k:k + WINDOW] = copy.predict(rows[k:k + WINDOW])
            lat[k:k + WINDOW] = time.perf_counter() - t  # every job in the window waits for it
        for j in seed_seq(seed, 4, len(state["lat"])).choice(len(rows), ROW_CHECKS, replace=False):
            check(got[j] == copy.predict(rows[j][None, :])[0], "windowed answer differs from one-job predict")
        lone_ms = []
        lone = np.empty(len(lone_rows))
        for j, row in enumerate(lone_rows):
            time.sleep(LONE_IDLE_S)
            t = time.perf_counter()
            lone[j] = copy.predict(row[None, :])[0]
            lone_ms.append(1e3 * (time.perf_counter() - t))
        check(np.array_equal(got, copy.predict(rows)), "windowed answers differ from block predict")
        check(np.array_equal(lone, copy.predict(lone_rows)), "lone predictions differ from block predict")
        t = time.perf_counter()
        version = registry.register("gbm", copy)
        registry.promote("gbm", version)
        rollout_ms = 1e3 * (time.perf_counter() - t)
        if state["version"] is not None:
            registry.unregister("gbm", state["version"])
        state["version"] = version
        check(registry.production_version("gbm") == version, "deployed version not in production")
        state["lat"].append(1e3 * lat)
        state["lone"].extend(lone_ms)
        state["rollout"].append(rollout_ms)
        state["ops"] += len(rows) + len(lone_rows) + 2
        state["probe_s"] += time.perf_counter() - t_start
        state["probe_cpu"] += cpu.read() - c_start

    def do_pass(i: int, traced: bool) -> float:
        pass_seed = int(seed_seq(seed, 1, i).integers(2**31 - 1))
        cap.reset()
        state.update(lat=[], lone=[], rollout=[], probe_s=0.0, probe_cpu=0.0)
        if traced:
            _install_spans(rec)
        else:  # the probes would sit inside the spans of a traced pass
            cap.on_fit = probe
        c0, t0 = cpu.read(), time.perf_counter()
        try:
            cfg = preset("cori", n_jobs=cfg_size["jobs"], seed=pass_seed)
            sim = engine.simulate(cfg)
            ds = dataset.build_dataset(cfg, sim)
            report = TaxonomyPipeline(
                tuning_grid=TUNING_GRID, golden_grid=GOLDEN_GRID,
                ensemble_members=cfg_size["members"], ensemble_epochs=cfg_size["epochs"],
                seed=pass_seed, workers=1,
            ).run(ds)
            report.breakdown.validate()
            wall = time.perf_counter() - t0 - state["probe_s"]
            busy_cpu = cpu.read() - c0 - state["probe_cpu"]
        finally:
            rec.uninstall()
            cap.on_fit = None
        _check_pass(ds, report, cap)
        if not traced:
            passes.append(pass_figures(wall, len(ds), wall, busy_cpu, np.concatenate(state["lat"]),
                                       state["lone"], float(np.median(state["rollout"]))))
        state["ops"] += 1
        return wall

    try:
        do_pass(WARMUP_PASS, False)  # first-call costs of every step
        passes.clear()
        state["ops"] = 0
        phase = run_phase(seconds, trace, do_pass, cfg_size["min_passes"])
    finally:
        cap.close()

    n_traced = sum(phase.traced)
    out: dict[str, Any] = {"attempted": state["ops"], "failed": 0, "recorder": rec}
    if trace:
        per_layer = {}
        for metric, (span, fld) in PER_LAYER.items():
            a = rec.get(span)
            per_layer[metric] = {"s": a.total, "self": a.self_total, "calls": a.count,
                                 "units": a.units}[fld] / n_traced
        per_layer["trace.overhead_pct"] = overhead_pct(phase)
        out["per_layer"] = per_layer
    else:
        out["end_to_end"] = {
            "setup_s": setup_s,
            **quiet_quartile(passes),
            "peak_rss_mb": self_peak_rss_mb(),
        }
    out["inputs"] = {"jobs_per_pass": cfg_size["jobs"], "passes": len(phase.pass_s),
                     "pass_s": [round(x, 4) for x in phase.pass_s], "traced_passes": n_traced}
    return out
