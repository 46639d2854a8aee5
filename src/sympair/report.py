"""Code spec files and machine-readable analysis reports.

A *code spec file* is the JSON interchange format for a single code:

    {"p": 5, "m": 1, "n": 24, "lambda": 1, "generator": [c0, c1, ...]}
    {"p": 5, "m": 1, "n": 24, "defining_set": [0, 1, ...]}

Field elements are canonical integers (sum of c_i * p^i over the base-p
coordinates); polynomial coefficient lists are ascending in the exponent.
The defining-set form implies lambda = 1 and must be closed under
multiplication by q modulo n.

``analyze`` bundles everything the toolkit knows about one code into an
``AnalysisReport``.  Reports serialize to JSON with a stable key order, and
everything outside the "perf" key is deterministic for fixed inputs and
toolkit version — byte-identical across runs.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

from . import gf, poly
from ._version import __version__
from .bounds import BoundReport, bound_report
from .code import (ConstacyclicCode, DistanceResult, check_budget, min_hamming_distance,
                   min_pair_distance)
from .errors import BadParameterError, BudgetExceededError, require_int

_SPEC_KEYS = {"p", "m", "n", "lambda", "generator", "defining_set"}


def _require_int(data: dict, key: str) -> int:
    if key not in data:
        raise BadParameterError(f"code spec is missing required key {key!r}")
    return require_int(data[key], f"code spec key {key!r}")


def code_from_spec_dict(data: dict) -> ConstacyclicCode:
    """Build the code a spec dict describes (strictly validated)."""
    if not isinstance(data, dict):
        raise BadParameterError(f"code spec must be a JSON object, got {type(data).__name__}")
    unknown = set(data) - _SPEC_KEYS
    if unknown:
        raise BadParameterError(f"code spec has unknown keys: {sorted(unknown)}")
    p = _require_int(data, "p")
    m = _require_int(data, "m")
    n = _require_int(data, "n")
    field = gf.extension_field(p, m)
    has_gen = "generator" in data
    has_set = "defining_set" in data
    if has_gen == has_set:
        raise BadParameterError(
            "code spec must carry exactly one of 'generator' (with 'lambda') or 'defining_set'")
    if has_gen:
        lam = _require_int(data, "lambda")
        coeffs = data["generator"]
        if not isinstance(coeffs, list):
            raise BadParameterError("'generator' must be a list of canonical integers")
        return ConstacyclicCode(field, n, lam, poly.Poly(field, coeffs))
    if "lambda" in data and _require_int(data, "lambda") != 1:
        raise BadParameterError("the defining-set form implies lambda = 1")
    exponents = data["defining_set"]
    if not isinstance(exponents, list):
        raise BadParameterError("'defining_set' must be a list of integers")
    return ConstacyclicCode.from_defining_set(field, n, exponents)


def load_code_spec(source) -> ConstacyclicCode:
    """Load a code from a spec file path (or an already-parsed dict)."""
    if isinstance(source, dict):
        return code_from_spec_dict(source)
    if isinstance(source, (str, os.PathLike)):
        try:
            data = json.loads(Path(source).read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:  # deep nesting
            raise BadParameterError(f"code spec {source} is not valid UTF-8 JSON: {exc}") from exc
        return code_from_spec_dict(data)
    raise BadParameterError(f"expected a path or dict, got {type(source).__name__}")


def code_spec_dict(code: ConstacyclicCode) -> dict:
    """Spec dict for a code (generator form: lossless for any lambda)."""
    return {
        "p": code.field.p,
        "m": code.field.m,
        "n": code.n,
        "lambda": code.lam,
        "generator": list(code.g.coeffs),
    }


def save_code_spec(code: ConstacyclicCode, path) -> None:
    Path(path).write_text(json.dumps(code_spec_dict(code), indent=2) + "\n")


# ----------------------------------------------------------------------
# analysis

@dataclass(frozen=True)
class AnalysisReport:
    """Everything the toolkit certifies about one code in one place."""

    code: ConstacyclicCode
    d_hamming: DistanceResult
    d_pair: DistanceResult
    bounds: BoundReport
    mds_hamming: bool
    mds_pair: bool
    version: str
    perf: dict

    def to_dict(self, include_perf: bool = True) -> dict:
        out = {
            "version": self.version,
            "code": _identity_dict(self.code),
            "d_hamming": self.d_hamming.to_dict(),
            "d_pair": self.d_pair.to_dict(),
            "bounds": self.bounds.to_dict(),
            "mds_hamming": self.mds_hamming,
            "mds_pair": self.mds_pair,
        }
        if include_perf:
            out["perf"] = dict(self.perf)
        return out

    def to_json(self, include_perf: bool = True) -> str:
        return json.dumps(self.to_dict(include_perf), indent=2)


def _identity_dict(code: ConstacyclicCode) -> dict:
    T = code.defining_set()
    if code.is_cyclic and code.is_simple_root:
        ext, beta = poly.root_of_unity_context(code.field, code.n)
        beta_info = {"field": repr(ext), "value": beta}
    else:
        beta_info = None
    return {
        "q": code.field.q,
        "p": code.field.p,
        "m": code.field.m,
        "n": code.n,
        "lambda": code.lam,
        "k": code.k,
        "generator": list(code.g.coeffs),
        "defining_set": sorted(T) if T is not None else None,
        "beta": beta_info,
    }


def _partial_report(exc: BudgetExceededError, code: ConstacyclicCode, stage: str,
                    found: dict[str, DistanceResult]) -> dict:
    partial = {
        "version": __version__,
        "code": _identity_dict(code),
        "budget_exhausted": stage,
        "d_hamming": found["d_hamming"].to_dict() if "d_hamming" in found else None,
        "d_pair": found["d_pair"].to_dict() if "d_pair" in found else None,
    }
    partial[stage] = {
        "value": exc.lower_bound,
        "certified": False,
        "is_lower_bound": True,
        "upper_bound": exc.upper_bound,
        "enumeration_count": exc.enumerated,
    }
    return partial


def analyze(code: ConstacyclicCode, strategy: str = "auto", *,
            budget: int | None = None) -> AnalysisReport:
    """Certify both distances, attach every applicable bound, set MDS flags.

    ``strategy`` ("auto", "exhaustive", "bounded" or "dependency") applies
    to both distances.  ``budget`` caps the total work (encodings and column
    reductions) of both distances and, for a repeated-root code whose
    Hamming side did not use it, of the product formula the bound report
    quotes; exceeding it raises
    BudgetExceededError with the partial report dict attached as ``partial``,
    whose ``budget_exhausted`` names the stage: "d_hamming", "d_pair" or
    "bounds".
    """
    check_budget(budget)
    t0 = time.perf_counter()
    found: dict[str, DistanceResult] = {}

    def stages():  # lazy: whether "bounds" runs depends on the Hamming result
        yield "d_hamming", min_hamming_distance, strategy
        yield "d_pair", min_pair_distance, strategy
        if code.repeated_root_split is not None and found["d_hamming"].method != "castagnoli":
            # the bound report quotes the product formula ("auto" here): run it within budget
            yield "bounds", min_hamming_distance, "auto"

    spent = 0
    for stage, engine, how in stages():
        try:
            found[stage] = engine(code, how, budget=None if budget is None else budget - spent)
        except BudgetExceededError as exc:
            raise BudgetExceededError(
                str(exc), lower_bound=exc.lower_bound, upper_bound=exc.upper_bound,
                enumerated=spent + exc.enumerated,
                partial=_partial_report(exc, code, stage, found)) from exc
        spent += found[stage].enumeration_count
    d_h, d_p = found["d_hamming"], found["d_pair"]
    return AnalysisReport(
        code=code,
        d_hamming=d_h,
        d_pair=d_p,
        bounds=bound_report(code, d_hamming=d_h.value),
        mds_hamming=code.k == code.n - d_h.value + 1,
        mds_pair=code.k == code.n - d_p.value + 2,
        version=__version__,
        perf={
            "seconds": round(time.perf_counter() - t0, 6),
            "encodings": spent,
        },
    )
