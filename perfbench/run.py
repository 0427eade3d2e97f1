"""One benchmark command for the taxonomy pipeline and the serving stack.

    python3 perfbench/run.py --workload taxonomy --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (every
``end_to_end`` metric of ``BENCHMARK.json`` with ``--trace 0``, every
``per_layer`` metric with ``--trace 1``).  A line starting with ``host``
before it records the host's CPU steal share, CPU count and load average.
A traced run also writes its spans to ``perfbench/out/``.  ``--smoke``
runs every workload at tiny sizes, traced and untraced, and checks each
result against the schema.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import OUT, ROOT, SRC, CheckFailed, HostProbe  # noqa: E402

WORKLOADS = {"taxonomy": "wl_taxonomy", "gateway-batch": "wl_gateway", "wire-churn": "wl_wire"}


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_units(trace: bool) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec()["per_layer" if trace else "end_to_end"]}


def run_workload(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(SRC))
    import importlib

    import repro  # noqa: F401  (fails fast outside a checkout)

    host = HostProbe()
    module = importlib.import_module(WORKLOADS[args.workload])
    try:
        result = module.run(args.seed, args.seconds, bool(args.trace), args.size)
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    diag = host.report()
    print("inputs " + json.dumps({"workload": args.workload, "seed": args.seed,
                                  "size": args.size, **result["inputs"]}))
    print("host " + json.dumps(diag))

    units = metric_units(bool(args.trace))
    values = result["per_layer" if args.trace else "end_to_end"]
    unknown = set(values) - set(units)
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    if args.trace:
        # a workload reports the layers it drives; the others read 0
        path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        result["recorder"].write(path, {"workload": args.workload, "seed": args.seed,
                                        "host": diag})
        print(f"spans written to {path.relative_to(ROOT)}")
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"correct": True, "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))
    return 0


def smoke() -> int:
    """Every workload at tiny sizes, untraced and traced; checks the schema."""
    bad = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            problem = None
            try:
                res = json.loads(proc.stdout.strip().splitlines()[-1])
                want = metric_units(bool(trace))
                if proc.returncode != 0:
                    problem = f"exit code {proc.returncode}"
                elif set(res) != {"correct", "attempted", "failed", "metrics"}:
                    problem = f"keys {sorted(res)}"
                elif res["correct"] is not True or res["failed"] != 0 or res["attempted"] < 1:
                    problem = "not correct, or failures"
                elif {k: v["unit"] for k, v in res["metrics"].items()} != want:
                    problem = "metric names or units differ from BENCHMARK.json"
                elif not trace and any(v["value"] <= 0 for v in res["metrics"].values()):
                    problem = "an end-to-end metric is not positive"
            except (IndexError, json.JSONDecodeError):
                problem = f"no result line (exit {proc.returncode}): {proc.stderr[-2000:]}"
            print(f"smoke {workload:14s} trace={trace}: {problem or 'ok'}")
            bad += problem is not None
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=float(spec()["run_seconds"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--smoke", action="store_true", help="tiny run of every workload")
    args = p.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        p.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
