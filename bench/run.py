"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass over the workload's items runs in
a fresh worker process (``worker.py``) that imports ``sympair`` from this
checkout's ``src``; passes repeat until ``--seconds`` have been spent (at
least ``MIN_PASSES``).  Each pass takes its item order from its own seed,
drawn from ``--seed``, so no item is tied to one place in the order (such as
first, paying for cold caches) on every pass of a run.  Every answer of every
pass is checked against the oracle (``workloads.problems``).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is the run record (machine,
versions, seed, commit, digest of the library sources, per-item CPU seconds).
The exit code is 0 only when every answer was correct.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  The worker
is single-threaded (OpenBLAS is held to one thread), so its CPU time is its
busy time; the timings are CPU time, which unlike wall time leaves out the
time the host gives to other processes.

* ``setup_s`` — worker start to the first item: interpreter start,
  ``import sympair`` with numpy, and building the inputs (wall time).  The
  median over every pass and ``SETUPS_PER_PASS`` set-up-only workers after
  each, so the samples span the whole run.
* ``cpu_s`` — CPU seconds of the whole item loop of one pass, median over
  passes.
* ``item_cpu_p50_ms``, ``item_cpu_p90_ms`` — percentiles over the items of
  each item's median CPU time over passes, so one slow pass of one item
  does not move them.
* ``peak_rss_mb`` — ``ru_maxrss`` of the worker, median over passes.

The run record keeps the median wall seconds of a pass (``wall_s``) and each
item's median CPU seconds, for diagnosis.

``attempted`` and ``failed`` count items over all passes, so
failed / attempted is the workload's failed fraction.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of BENCHMARK.json from the traced ones (``worker.TARGETS``
lists the wrapped functions); ``trace.overhead_frac`` is the median traced
wall seconds over the median untraced ones, minus 1.  A layer a workload never
enters reports 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

MIN_PASSES = 3
#: Set-up-only workers after each untraced pass, for a steadier ``setup_s``.
SETUPS_PER_PASS = 2
#: Every pass must end this many seconds after the run started.
RUN_LIMIT_S = 170
STARTED = time.monotonic()


def run_worker(workload: str, seed: int, mode: str) -> dict:
    """Run one worker; ``mode`` is "plain" or "traced" (a pass) or "setup"."""
    env = dict(os.environ, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    argv = [sys.executable, str(BENCH / "worker.py"), workload, str(seed),
            mode, repr(time.monotonic())]
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, STARTED + RUN_LIMIT_S - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sympair").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def commit() -> str | None:
    """HEAD of the checkout when it is a git work tree (never of a parent)."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def check_pass(result: dict, expected: dict[str, dict]) -> list[str]:
    """One message per failed item of a pass."""
    failures = []
    for item in result["items"]:
        if "error" in item:
            failures.append(f"{item['name']}: raised {item['error']}")
            continue
        bad = workloads.problems(expected[item["name"]], item["answer"])
        if bad:
            failures.append(f"{item['name']}: {'; '.join(bad)}")
    return failures


def item_medians(passes: list[dict]) -> dict[str, float]:
    """Each item's median CPU seconds over the passes."""
    seconds: dict[str, list[float]] = {}
    for p in passes:
        for item in p["items"]:
            seconds.setdefault(item["name"], []).append(item["cpu_s"])
    return {name: statistics.median(values) for name, values in seconds.items()}


def end_to_end(passes: list[dict], setups: list[float]) -> dict[str, float]:
    latencies = sorted(1000 * s for s in item_medians(passes).values())
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "item_cpu_p50_ms": statistics.median(latencies),
        "item_cpu_p90_ms": deciles[8],
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    # median_low picks an observed value, so counts stay whole numbers
    names = traced[0]["layers"]
    out = {name: statistics.median_low(p["layers"][name] for p in traced) for name in names}
    out["trace.overhead_frac"] = (statistics.median(p["wall_s"] for p in traced)
                                  / statistics.median(p["wall_s"] for p in plain) - 1)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sympair" / "__init__.py").is_file():
        print(f"run.py: no sympair sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    items = workloads.build_items(args.workload, args.seed)
    expected = workloads.expected_answers(args.workload, items)

    plain: list[dict] = []
    traced: list[dict] = []
    failures: list[str] = []
    setups: list[float] = []
    pass_seeds = random.Random(args.seed)
    deadline = time.monotonic() + args.seconds
    while (time.monotonic() < deadline or len(plain) + len(traced) < MIN_PASSES
           or (args.trace and not traced)):
        as_traced = bool(args.trace) and len(traced) < len(plain)
        result = run_worker(args.workload, pass_seeds.randrange(2**31),
                            "traced" if as_traced else "plain")
        (traced if as_traced else plain).append(result)
        failures += check_pass(result, expected)
        if not args.trace:
            setups.append(result["setup_s"])
            setups += [run_worker(args.workload, pass_seeds.randrange(2**31), "setup")["setup_s"]
                       for _ in range(SETUPS_PER_PASS)]

    values = per_layer(plain, traced) if args.trace else end_to_end(plain, setups)
    attempted = sum(len(p["items"]) for p in plain + traced)
    item_cpu_s = item_medians(plain) if args.workload != "small-sweep" else {}
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "jobs": 1,
        **plain[0]["env"],
        "commit": commit(), "src_sha256": source_digest(),
        "passes": len(plain), "traced_passes": len(traced), "setups": len(setups),
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "items_per_pass": len(items),
        "failed_frac": len(failures) / attempted,
        "item_cpu_s": item_cpu_s,
    }
    for message in failures[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
