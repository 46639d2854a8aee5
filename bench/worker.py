"""One pass of one workload, in a fresh process; prints one JSON line.

Started by ``run.py`` as ``worker.py WORKLOAD SEED MODE SPAWNED_AT`` where
MODE is ``plain`` or ``traced`` (run one pass) or ``setup`` (stop before the
first item), and SPAWNED_AT is the parent's ``time.monotonic()`` just before
the spawn, so ``setup_s`` covers interpreter start, ``import sympair`` (with
numpy) and building the inputs, up to the first item.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(BENCH))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def import_library():
    """``sympair`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "sympair" / "__init__.py").is_file():
        raise SystemExit(f"no sympair sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sympair
    if Path(sympair.__file__).resolve().parent != SRC / "sympair":
        raise SystemExit(f"imported sympair from {sympair.__file__}, not {SRC}")
    return sympair


def _enumeration(args, kwargs, result):
    code = args[0] if args else kwargs["code"]
    return {"encodings": result.enumeration_count, "method": result.method,
            "ext": code.field.base is not None}


#: (label, "module:qualname", annotate) of every traced library function.
TARGETS = (
    ("gf.splitting_field", "poly:root_of_unity_context", None),
    ("gf.splitting_field", "gf:tower_field", None),
    ("poly.factor", "poly:factor", None),
    ("poly.minimal_polynomial", "poly:minimal_polynomial", None),
    ("code.construct", "code:ConstacyclicCode.__init__", None),
    ("code.standard_form", "code:ConstacyclicCode.standard_form", None),
    ("code.min_hamming", "code:min_hamming_distance", _enumeration),
    ("code.min_pair", "code:min_pair_distance", _enumeration),
    ("bounds.bound_report", "bounds:bound_report", None),
    ("bounds.castagnoli", "bounds:castagnoli_details", None),
    ("bounds.repeated_root_shape", "bounds:repeated_root_shape", None),
    ("bounds.hartmann_tzeng", "bounds:hartmann_tzeng_bound", None),
    ("constructions.family", "constructions:mds_3p_6", None),
    ("constructions.family", "constructions:mds_3p_7", None),
    ("constructions.family", "constructions:mds_3p_8", None),
    ("constructions.family", "constructions:mds_n_6", None),
    ("report.analyze", "report:analyze", None),
    ("report.spec_io", "report:code_from_spec_dict", None),
    ("report.spec_io", "report:AnalysisReport.to_json", None),
)


def splitting_field_caches(sympair) -> tuple:
    """The lru caches behind splitting-field builds (taken before patching)."""
    return sympair.poly.root_of_unity_context, sympair.gf.tower_field


def misses(caches) -> int:
    return sum(cache.cache_info().misses for cache in caches)


def layer_metrics(spans, cache_misses: int) -> dict[str, float]:
    """Per-layer numbers of one traced pass (see run.py for their meaning)."""
    selfs = tracing.self_times(spans)

    def calls(label):
        return sum(1 for s in spans if s.label == label)

    def inclusive(label):
        return sum(s.seconds for s in tracing.outermost(spans, label))

    def self_time(label):
        return sum(t for s, t in zip(spans, selfs) if s.label == label)

    enc = {"prime": [0, 0.0], "ext": [0, 0.0]}
    for s, t in zip(spans, selfs):
        if s.attrs is not None and s.attrs["method"] != "castagnoli":
            side = enc["ext" if s.attrs["ext"] else "prime"]
            side[0] += s.attrs["encodings"]
            side[1] += t

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    encodings = enc["prime"][0] + enc["ext"][0]
    return {
        "gf.splitting_field_misses": cache_misses,
        "gf.splitting_field_s": inclusive("gf.splitting_field"),
        "poly.factor_calls": calls("poly.factor"),
        "poly.factor_s": inclusive("poly.factor"),
        "poly.minimal_polynomial_calls": calls("poly.minimal_polynomial"),
        "poly.minimal_polynomial_s": inclusive("poly.minimal_polynomial"),
        "code.construct_calls": calls("code.construct"),
        "code.construct_s": inclusive("code.construct"),
        "code.standard_form_calls": calls("code.standard_form"),
        "code.standard_form_s": inclusive("code.standard_form"),
        "code.min_hamming_s": self_time("code.min_hamming"),
        "code.min_pair_s": self_time("code.min_pair"),
        "code.encodings": encodings,
        "code.encodings_per_s": rate(encodings, enc["prime"][1] + enc["ext"][1]),
        "code.encodings_per_s.prime": rate(*enc["prime"]),
        "code.encodings_per_s.ext": rate(*enc["ext"]),
        "bounds.bound_report_s": inclusive("bounds.bound_report"),
        "bounds.castagnoli_calls": calls("bounds.castagnoli"),
        "bounds.castagnoli_s": inclusive("bounds.castagnoli"),
        "bounds.repeated_root_shape_calls": calls("bounds.repeated_root_shape"),
        "bounds.hartmann_tzeng_s": inclusive("bounds.hartmann_tzeng"),
        "constructions.family_s": self_time("constructions.family"),
        "report.analyze_self_s": self_time("report.analyze"),
        "report.spec_io_s": self_time("report.spec_io"),
        "trace.self_sum_s": sum(selfs),
    }


def environment(sympair) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": openblas_threads(np),
        "sympair": sympair.__version__,
    }


def openblas_threads(np) -> int | None:
    """Thread count of the OpenBLAS bundled with numpy's wheel, if any."""
    for path in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                func.argtypes = []
                return func()
    return None


def run_pass(sympair, workload: str, seed: int, traced: bool, spawned_at: float) -> dict:
    items = workloads.build_items(workload, seed)
    caches = splitting_field_caches(sympair)
    tracer = tracing.Tracer() if traced else None
    if tracer is not None:
        tracer.install("sympair", TARGETS)
    misses0 = misses(caches)
    results = []
    start = time.monotonic()
    t_start, c_start = time.perf_counter(), time.process_time()
    for item in items:
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            if tracer is None:
                raw = workloads.run_item(sympair, item)
            else:
                with tracer.span("bench.item"):
                    raw = workloads.run_item(sympair, item)
        except Exception as exc:  # an item that raises counts as failed
            results.append({"name": item.name, "seconds": time.perf_counter() - t0,
                            "cpu_s": time.process_time() - c0,
                            "error": f"{type(exc).__name__}: {exc}"})
            continue
        results.append({"name": item.name, "seconds": time.perf_counter() - t0,
                        "cpu_s": time.process_time() - c0, "raw": raw})
    wall, cpu = time.perf_counter() - t_start, time.process_time() - c_start
    out = {
        "workload": workload, "seed": seed, "traced": traced,
        "setup_s": start - spawned_at,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": environment(sympair),
    }
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = layer_metrics(tracer.finished(), misses(caches) - misses0)
    by_name = {it.name: it for it in items}
    for r in results:
        if "raw" in r:
            r["answer"] = workloads.answer_of(sympair, by_name[r["name"]], r.pop("raw"))
    out["items"] = results
    return out


def main(argv: list[str]) -> int:
    workload, seed, mode, spawned_at = argv[0], int(argv[1]), argv[2], float(argv[3])
    sympair = import_library()
    if mode == "setup":
        workloads.build_items(workload, seed)
        print(json.dumps({"setup_s": time.monotonic() - spawned_at}))
    else:
        print(json.dumps(run_pass(sympair, workload, seed, mode == "traced", spawned_at)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
