"""``gateway-batch``: a scheduler scoring its pending jobs in process.

One thread submits a window of I/O-model requests to a
``ServingGateway`` (a forest and a GBM behind it), calls ``flush()`` and
collects the answers, window after window.  In every window after a
pass's first, a fixed number of rows repeat rows of the window before,
so they are answered by the ``PredictionCache``.  Each pass ends with a
rollout of the GBM name (register + promote a retrained version, then
rollback and unregister it) and one lone request on fresh rows, which
waits out the batcher's ``max_delay`` on an idle stack.
"""

from __future__ import annotations

import pickle
import time
from typing import Any

import numpy as np

from common import (
    CpuMeter, check, import_probe_s, overhead_pct, pass_figures, quiet_quartile, repeated_setup,
    run_phase, self_peak_rss_mb, seed_seq,
)
from spans import SpanRecorder

IMPORTS = ["repro.ml.forest", "repro.ml.gbm", "repro.serve.registry", "repro.serve.router"]
SIZES = {
    "full": {"train": 1200, "pool": 4000, "window": 64, "windows": 64, "repeat": 16,
             "trees": 32, "gbm_trees": 40, "row_checks": 16, "min_passes": 5},
    "tiny": {"train": 400, "pool": 400, "window": 16, "windows": 4, "repeat": 4,
             "trees": 4, "gbm_trees": 6, "row_checks": 4, "min_passes": 2},
}
NAMES = ("forest", "gbm")
JITTER = 0.05  # log-normal sigma that makes every drawn row a fresh one
WARMUP_PASS = 1 << 20  # input stream of the untimed warm-up pass

PER_LAYER = (
    "serve.router.submit_self_us", "serve.service.submit_self_us", "serve.batcher.submit_us",
    "serve.batcher.flush_self_us", "serve.batcher.batches", "serve.batcher.mean_batch_rows",
    "serve.batcher.size_flushes", "serve.batcher.deadline_flushes", "serve.cache.hits",
    "serve.cache.lookups", "ml.predictor.calls", "ml.predictor.predict_many_us_per_row",
    "serve.ticket.result_wait_us",
)


def make_inputs(seed: int, size: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Darshan POSIX rows of a simulated Theta-like platform: a training
    set and a pool the request rows are drawn from."""
    from repro.config import preset
    from repro.data import build_dataset

    ds = build_dataset(preset("theta", n_jobs=size["train"] + size["pool"], seed=seed))
    X = np.asarray(ds.frames["posix"], dtype=float)
    return X[: size["train"]], np.asarray(ds.y[: size["train"]]), X[size["train"]:]


def fresh_rows(rng: np.random.Generator, pool: np.ndarray, n: int) -> np.ndarray:
    return pool[rng.integers(0, len(pool), n)] * rng.lognormal(0.0, JITTER, (n, pool.shape[1]))


def one_row_blocks(model: Any, rows: np.ndarray) -> np.ndarray:
    """The model's answers to each row sent alone, in one batched call."""
    return np.concatenate(model.predict_many([r[None, :] for r in rows]))


def pass_rows(rng: np.random.Generator, pool: np.ndarray, size: dict) -> tuple[np.ndarray, np.ndarray]:
    """One pass of request rows and their model index (0 forest, 1 gbm).

    Window ``w > 0`` holds ``repeat`` rows copied from window ``w - 1``
    at random positions; they were scored (and cached) one flush earlier.
    """
    W, n_win, rep = size["window"], size["windows"], size["repeat"]
    rows = fresh_rows(rng, pool, W * n_win)
    which = rng.integers(0, len(NAMES), W * n_win)
    for w in range(1, n_win):
        dst = w * W + rng.choice(W, rep, replace=False)
        src = (w - 1) * W + rng.choice(W, rep, replace=False)
        rows[dst] = rows[src]
        which[dst] = which[src]
    return rows, which


def _install_spans(rec: SpanRecorder) -> None:
    from repro.ml.forest import RandomForestRegressor
    from repro.ml.gbm import GradientBoostingRegressor
    from repro.serve.batcher import MicroBatcher, Ticket
    from repro.serve.router import ServingGateway
    from repro.serve.service import CompletedTicket, InferenceService

    rec.install(ServingGateway, "submit", "router.submit")
    rec.install(InferenceService, "submit", "service.submit")
    rec.install(MicroBatcher, "submit", "batcher.submit")
    rec.install(MicroBatcher, "flush", "batcher.flush")
    rows = lambda a, k, r: sum(b.shape[0] for b in a[1])  # noqa: E731
    rec.install(RandomForestRegressor, "predict_many", "predict_many", units=rows)
    rec.install(GradientBoostingRegressor, "predict_many", "predict_many", units=rows)
    rec.install(Ticket, "result", "ticket.result")
    rec.install(CompletedTicket, "result", "ticket.result")


def _counters(gw: Any) -> dict[str, int]:
    t = gw.stats().total
    return {"batches": t.batches, "rows": t.rows, "size": t.size_flushes,
            "deadline": t.deadline_flushes, "hits": t.cache_hits,
            "lookups": t.cache_hits + t.cache_misses}


# ---------------------------------------------------------------------- #
def run(seed: int, seconds: float, trace: bool, size: str) -> dict[str, Any]:
    from repro.ml.forest import RandomForestRegressor
    from repro.ml.gbm import GradientBoostingRegressor
    from repro.serve.registry import ModelRegistry
    from repro.serve.router import ServingGateway

    sz = SIZES[size]
    X_train, y_train, pool = make_inputs(seed, sz)
    import_s = import_probe_s(IMPORTS)
    gbm_params = dict(n_estimators=sz["gbm_trees"], max_depth=6, subsample=0.8,
                      loss="squared")

    def build() -> dict[str, Any]:
        forest = RandomForestRegressor(n_estimators=sz["trees"], max_depth=10,
                                       random_state=seed).fit(X_train, y_train)
        gbm = GradientBoostingRegressor(**gbm_params, random_state=seed).fit(X_train, y_train)
        retrained = GradientBoostingRegressor(**gbm_params, random_state=seed + 1).fit(X_train, y_train)
        registry = ModelRegistry()
        registry.register("forest", forest, promote=True)
        registry.register("gbm", gbm, promote=True)
        return {"registry": registry, "gw": ServingGateway(registry),
                "models": (forest, gbm), "retrained": pickle.dumps(retrained)}

    stack, build_s = repeated_setup(build, lambda s: s["gw"].close())
    registry, gw, models = stack["registry"], stack["gw"], stack["models"]
    rec = SpanRecorder()
    cpu = CpuMeter()
    W = sz["window"]
    passes: list[dict[str, float]] = []
    counts: dict[str, int] = {}
    ops = {"n": 0}

    def do_pass(i: int, traced: bool) -> float:
        rng = seed_seq(seed, 2, i)
        rows, which = pass_rows(rng, pool, sz)
        lone_row = fresh_rows(rng, pool, 1)[0]
        retrained = pickle.loads(stack["retrained"])
        n = len(rows)
        out = np.empty(n)
        lat = np.empty(n)
        t_sub = np.empty(W)
        before = _counters(gw) if traced else None
        if traced:
            _install_spans(rec)
        try:
            c0 = cpu.read()
            t0 = time.perf_counter()
            for w0 in range(0, n, W):
                tickets = []
                for j in range(W):
                    t_sub[j] = time.perf_counter()
                    tickets.append(gw.submit(NAMES[which[w0 + j]], rows[w0 + j]))
                gw.flush()
                for j, ticket in enumerate(tickets):
                    out[w0 + j] = ticket.result(timeout=60.0)
                    lat[w0 + j] = time.perf_counter() - t_sub[j]
            seg = time.perf_counter() - t0
            busy_cpu = cpu.read() - c0
            # rollout of a retrained GBM, then back to the production one
            t = time.perf_counter()
            version = registry.register("gbm", retrained)
            registry.promote("gbm", version)
            rollout = time.perf_counter() - t
            registry.rollback("gbm")
            registry.unregister("gbm", version)
            wall = time.perf_counter() - t0
        finally:
            rec.uninstall()
        if traced:
            after = _counters(gw)
            for k in after:
                counts[k] = counts.get(k, 0) + after[k] - before[k]
        t = time.perf_counter()
        lone = gw.submit("forest", lone_row).result(timeout=60.0)
        lone_ms = [1e3 * (time.perf_counter() - t)]

        # every answer == the production version's answer to the row as a
        # one-row block; a sample of answers, and the lone one, == one-row
        # predict() calls (see README: checking every row that way costs
        # more than the timed phase)
        for k, model in enumerate(models):
            mask = which == k
            check(np.array_equal(out[mask], one_row_blocks(model, rows[mask])),
                  f"{NAMES[k]} answers differ from one-row-block predicts")
        for j in rng.choice(n, sz["row_checks"], replace=False):
            check(out[j] == models[which[j]].predict(rows[j][None, :])[0],
                  "answer differs from one-row predict")
        check(lone == models[0].predict(lone_row[None, :])[0], "lone answer differs")
        check(registry.production_version("gbm") == 1, "rollback did not restore version 1")

        passes.append(pass_figures(wall, n, seg, busy_cpu, 1e3 * lat, lone_ms, 1e3 * rollout))
        ops["n"] += n + 2 + 1  # rows, register + promote, lone request
        return wall

    try:
        do_pass(WARMUP_PASS, False)  # lazy services and first flushes
        passes.clear()
        ops["n"] = 0
        phase = run_phase(seconds, trace, do_pass, sz["min_passes"])
    finally:
        gw.close()

    result: dict[str, Any] = {"attempted": ops["n"], "failed": 0, "recorder": rec}
    n_traced = sum(phase.traced)
    if trace:
        pm = rec.get("predict_many")
        result["per_layer"] = {
            "serve.router.submit_self_us": rec.per_call("router.submit", 1e6, True),
            "serve.service.submit_self_us": rec.per_call("service.submit", 1e6, True),
            "serve.batcher.submit_us": rec.per_call("batcher.submit", 1e6),
            "serve.batcher.flush_self_us": rec.per_call("batcher.flush", 1e6, True),
            "serve.batcher.batches": counts["batches"] / n_traced,
            "serve.batcher.mean_batch_rows": counts["rows"] / max(counts["batches"], 1),
            "serve.batcher.size_flushes": counts["size"] / n_traced,
            "serve.batcher.deadline_flushes": counts["deadline"] / n_traced,
            "serve.cache.hits": counts["hits"] / n_traced,
            "serve.cache.lookups": counts["lookups"] / n_traced,
            "ml.predictor.calls": pm.count / n_traced,
            "ml.predictor.predict_many_us_per_row": 1e6 * pm.total / max(pm.units, 1),
            "serve.ticket.result_wait_us": rec.per_call("ticket.result", 1e6),
            "trace.overhead_pct": overhead_pct(phase),
        }
    else:
        result["end_to_end"] = {
            "setup_s": import_s + build_s,
            **quiet_quartile(passes),
            "peak_rss_mb": self_peak_rss_mb(),
        }
    result["inputs"] = {
        "rows_per_pass": sz["window"] * sz["windows"], "window": sz["window"],
        "repeat_share": round(sz["repeat"] * (sz["windows"] - 1) / (sz["window"] * sz["windows"]), 4),
        "passes": len(phase.pass_s), "traced_passes": n_traced,
        "pass_s": [round(x, 4) for x in phase.pass_s],
    }
    return result
