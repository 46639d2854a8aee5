"""Run the benchmark on several seeds and summarise the spread of each metric.

    python3 bench/sample.py [--out FILE]

Run from the root of a checkout.  For each workload, ``run.py`` runs once per
seed of ``SEEDS`` untraced and once per seed of ``TRACE_SEEDS`` traced, each
for BENCHMARK.json's ``run_seconds``.  For every end-to-end metric this prints
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, the distance between the quartiles as a share of the median, and
flags a spread above a third of the metric's bound.  ``--out`` writes the
whole summary, with every value, the run records and the per-layer values of
the traced runs, as JSON; ``baseline.json`` is that file for the commit it
names.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


SEEDS = list(range(1, 11))
TRACE_SEEDS = [1]


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The run record and the result of one benchmark run."""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=240)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit code {proc.returncode}")
    *_, record, result = proc.stdout.splitlines()
    return json.loads(record)["record"], json.loads(result)


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    summary = {"run_seconds": spec["run_seconds"], "seeds": SEEDS,
               "trace_seeds": TRACE_SEEDS, "workloads": {}}
    steady = True
    for workload in names:
        runs = [run(workload, seed, spec["run_seconds"], 0) for seed in SEEDS]
        traced = [run(workload, seed, spec["run_seconds"], 1) for seed in TRACE_SEEDS]
        out = summary["workloads"][workload] = {
            "records": [record for record, _ in runs + traced],
            "end_to_end": {},
            "per_layer": {m["name"]: [result["metrics"][m["name"]]["value"] for _, result in traced]
                          for m in spec["per_layer"]},
        }
        print(f"{workload}: {len(runs)} runs, seeds {SEEDS[0]}-{SEEDS[-1]}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            stats = summarise([result["metrics"][name]["value"] for _, result in runs])
            out["end_to_end"][name] = {"unit": metric["unit"], **stats}
            flag = ""
            if stats["spread"] > metric["bound"] / 3:
                flag = "  above bound/3"
                steady = False
            print(f"  {name:15s} median {stats['median']:12.4f} {metric['unit']:3s} "
                  f"quartiles {stats['q1']:.4f}-{stats['q3']:.4f} "
                  f"spread {stats['spread']:.3f} (bound {metric['bound']}){flag}")
    if args.out:
        record = next(iter(summary["workloads"].values()))["records"][0]
        summary = {"commit": record["commit"], "src_sha256": record["src_sha256"], **summary}
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
