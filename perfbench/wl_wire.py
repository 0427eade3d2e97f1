"""``wire-churn``: one pipelined TCP client against the sharded stack,
with model rollouts between stream segments.

A ``ServeClient`` keeps a fixed window of single-row requests in flight
to an ``AsyncServeServer`` that fronts a one-shard ``pipe``
``ShardedServingCluster``.  Every pass streams a segment of fresh rows,
drains, then registers and promotes a retrained forest (an ack-gated
broadcast to the worker), rolls it back and unregisters it, and sends
two lone requests on the idle stack.  Reads and writes share one path.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
from typing import Any

import numpy as np

from common import (
    CpuMeter, check, import_probe_s, overhead_pct, pass_figures, quiet_quartile, proc_hwm_mb,
    repeated_setup, run_phase, self_peak_rss_mb, seed_seq,
)
from spans import SpanRecorder
from wl_gateway import fresh_rows, make_inputs, one_row_blocks

IMPORTS = ["repro.ml.forest", "repro.serve.registry", "repro.serve.shard", "repro.serve.net"]
SIZES = {
    "full": {"train": 1200, "pool": 4000, "window": 32, "segment": 1536, "trees": 32,
             "row_checks": 16, "min_passes": 5},
    "tiny": {"train": 400, "pool": 400, "window": 8, "segment": 64, "trees": 4,
             "row_checks": 4, "min_passes": 2},
}
NAME = "io"
LONE_PER_PASS = 2
WARMUP_PASS = 1 << 20

PER_LAYER = (
    "serve.net.client.send_us", "serve.net.client.recv_wait_us", "serve.net.edge.requests",
    "serve.net.edge.responses", "serve.shard.submit_us", "serve.shard.submit_self_us",
    "serve.shard.result_wait_us", "serve.transport.sends", "serve.transport.send_us",
    "serve.shard.worker_batches", "serve.shard.worker_mean_batch_rows",
    "serve.shard.register_ms", "serve.shard.register_self_ms",
    "serve.shard.promote_ms", "serve.shard.promote_self_ms",
)


def _install_spans(rec: SpanRecorder) -> None:
    from repro.serve.net import ServeClient
    from repro.serve.shard import ClusterTicket, ShardedServingCluster
    from repro.serve.transport import PipeTransport

    rec.install(ServeClient, "send", "client.send")
    rec.install(ServeClient, "recv", "client.recv")
    rec.install(ShardedServingCluster, "submit", "shard.submit")
    rec.install(ClusterTicket, "result", "shard.result")
    rec.install(PipeTransport, "send", "transport.send")
    rec.install(ShardedServingCluster, "register", "shard.register")
    rec.install(ShardedServingCluster, "promote", "shard.promote")


def _counters(server: Any, cluster: Any) -> dict[str, int]:
    edge = server.counters()
    worker = cluster.stats().total
    return {"requests": edge["requests"], "responses": edge["responses"],
            "batches": worker.batches, "rows": worker.rows}


# ---------------------------------------------------------------------- #
def run(seed: int, seconds: float, trace: bool, size: str) -> dict[str, Any]:
    from repro.ml.forest import RandomForestRegressor
    from repro.serve.net import AsyncServeServer, ServeClient
    from repro.serve.registry import ModelRegistry
    from repro.serve.shard import ShardedServingCluster

    sz = SIZES[size]
    X_train, y_train, pool = make_inputs(seed, sz)
    import_s = import_probe_s(IMPORTS)

    def build() -> dict[str, Any]:
        params = dict(n_estimators=sz["trees"], max_depth=10)
        model = RandomForestRegressor(**params, random_state=seed).fit(X_train, y_train)
        retrained = RandomForestRegressor(**params, random_state=seed + 1).fit(X_train, y_train)
        registry = ModelRegistry()
        registry.register(NAME, model, promote=True)
        cluster = ShardedServingCluster(registry, n_shards=1, transport="pipe")
        server = AsyncServeServer(cluster).start()
        client = ServeClient(server.host, server.port, timeout=60.0)
        return {"model": model, "retrained": pickle.dumps(retrained),
                "cluster": cluster, "server": server, "client": client}

    def close(s: dict[str, Any]) -> None:
        s["client"].close()
        s["server"].close()
        s["cluster"].close()

    stack, build_s = repeated_setup(build, close)
    model, cluster, server, client = (stack[k] for k in ("model", "cluster", "server", "client"))
    workers = tuple(p.pid for p in multiprocessing.active_children())
    check(len(workers) == 1, f"expected one shard worker, found {len(workers)}")
    rec = SpanRecorder()
    cpu = CpuMeter(workers)
    W = sz["window"]
    passes: list[dict[str, float]] = []
    counts: dict[str, int] = {}
    ops = {"n": 0}

    def do_pass(i: int, traced: bool) -> float:
        rng = seed_seq(seed, 3, i)
        rows = fresh_rows(rng, pool, sz["segment"])
        lone_rows = fresh_rows(rng, pool, LONE_PER_PASS)
        retrained = pickle.loads(stack["retrained"])
        n = len(rows)
        out = np.empty(n)
        sent = np.empty(n)
        lat = np.empty(n)
        before = _counters(server, cluster) if traced else None
        if traced:
            _install_spans(rec)
        try:
            c0 = cpu.read()
            t0 = time.perf_counter()
            got = 0
            for j in range(n):
                if client.outstanding >= W:
                    out[got] = client.recv()
                    lat[got] = time.perf_counter() - sent[got]
                    got += 1
                sent[j] = time.perf_counter()
                client.send(NAME, rows[j])
            while got < n:
                out[got] = client.recv()
                lat[got] = time.perf_counter() - sent[got]
                got += 1
            seg = time.perf_counter() - t0
            busy_cpu = cpu.read() - c0
            # rollout of a retrained forest through the cluster, then back
            t = time.perf_counter()
            version = cluster.register(NAME, retrained)
            cluster.promote(NAME, version)
            rollout = time.perf_counter() - t
            cluster.rollback(NAME)
            cluster.unregister(NAME, version)
            wall = time.perf_counter() - t0
        finally:
            rec.uninstall()
        if traced:
            after = _counters(server, cluster)
            for k in after:
                counts[k] = counts.get(k, 0) + after[k] - before[k]
        lone = np.empty(LONE_PER_PASS)
        lone_ms = []
        for j, row in enumerate(lone_rows):
            t = time.perf_counter()
            lone[j] = client.predict(NAME, row)
            lone_ms = [1e3 * (time.perf_counter() - t)]

        # every answer == the production version's answer to the row as a
        # one-row block; a sample of answers, and the lone ones, == one-row
        # predict() calls
        check(np.array_equal(out, one_row_blocks(model, rows)),
              "answers differ from one-row-block predicts")
        for j in rng.choice(n, sz["row_checks"], replace=False):
            check(out[j] == model.predict(rows[j][None, :])[0], "answer differs from one-row predict")
        for j, row in enumerate(lone_rows):
            check(lone[j] == model.predict(row[None, :])[0], "lone answer differs")
        check(cluster.registry.production_version(NAME) == 1, "rollback did not restore version 1")

        passes.append(pass_figures(wall, n, seg, busy_cpu, 1e3 * lat, lone_ms, 1e3 * rollout))
        ops["n"] += n + 2 + LONE_PER_PASS
        return wall

    try:
        do_pass(WARMUP_PASS, False)
        passes.clear()
        ops["n"] = 0
        phase = run_phase(seconds, trace, do_pass, sz["min_passes"])
        peak_rss = self_peak_rss_mb() + proc_hwm_mb(workers[0])
        edge = server.counters()
        check(edge["shed"] == 0 and edge["wire_errors"] == 0, f"edge shed or failed: {edge}")
    finally:
        close(stack)

    result: dict[str, Any] = {"attempted": ops["n"], "failed": 0, "recorder": rec}
    n_traced = sum(phase.traced)
    if trace:
        result["per_layer"] = {
            "serve.net.client.send_us": rec.per_call("client.send", 1e6),
            "serve.net.client.recv_wait_us": rec.per_call("client.recv", 1e6),
            "serve.net.edge.requests": counts["requests"] / n_traced,
            "serve.net.edge.responses": counts["responses"] / n_traced,
            "serve.shard.submit_us": rec.per_call("shard.submit", 1e6),
            "serve.shard.submit_self_us": rec.per_call("shard.submit", 1e6, True),
            "serve.shard.result_wait_us": rec.per_call("shard.result", 1e6),
            "serve.transport.sends": rec.get("transport.send").count / n_traced,
            "serve.transport.send_us": rec.per_call("transport.send", 1e6),
            "serve.shard.worker_batches": counts["batches"] / n_traced,
            "serve.shard.worker_mean_batch_rows": counts["rows"] / max(counts["batches"], 1),
            "serve.shard.register_ms": rec.per_call("shard.register", 1e3),
            "serve.shard.register_self_ms": rec.per_call("shard.register", 1e3, True),
            "serve.shard.promote_ms": rec.per_call("shard.promote", 1e3),
            "serve.shard.promote_self_ms": rec.per_call("shard.promote", 1e3, True),
            "trace.overhead_pct": overhead_pct(phase),
        }
    else:
        result["end_to_end"] = {
            "setup_s": import_s + build_s,
            **quiet_quartile(passes),
            "peak_rss_mb": peak_rss,
        }
    result["inputs"] = {
        "rows_per_segment": sz["segment"], "window": W,
        "passes": len(phase.pass_s), "traced_passes": n_traced,
        "pass_s": [round(x, 4) for x in phase.pass_s],
    }
    return result
