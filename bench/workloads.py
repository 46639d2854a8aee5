"""The benchmark's three workloads: their items, how one item runs, and the
checks its answer must pass.

Every workload is a closed loop of one caller: the next item starts when the
previous one returns, each call with the library default ``jobs=1``.

* ``mds-families`` — the paper's high-rate MDS symbol-pair families, built
  with ``certify="full"``.  Nearly all time is bounded-weight pair
  enumeration over the prime-field float path and the GF(4)/GF(9)
  table-gather path.
* ``low-rate`` — spec dict -> ``code_from_spec_dict`` -> ``analyze`` ->
  ``to_json`` on low-rate codes with large d_p, including lambda != 1 and
  extension-field codes.  The message side is cheap and the parity side is
  huge, so an engine or cost model choosing the wrong side shows here.
* ``small-sweep`` — the same spec -> analyze -> JSON path on divisor codes of
  x^n - lambda for every nonzero lambda and q in {2, 3, 4, 5, 7, 8, 9} at
  small n.  The work is per-code overhead (fields, factoring, bounds,
  reports), not enumeration.

``build_items`` needs neither numpy nor sympair; ``run_item`` and
``answer_of`` run inside the worker process, ``problems`` in the parent.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

import oracle

WORKLOADS = ("mds-families", "low-rate", "small-sweep")


@dataclass(frozen=True)
class Item:
    name: str
    call: tuple          # ("family", name, args) or ("spec", spec dict)
    expected: dict = field(default_factory=dict)  # frozen n, k, d_hamming, d_pair


def _family(func: str, args: tuple, n: int, k: int, d_h: int, d_p: int,
            verify_key: str | None) -> Item:
    name = f"{func}({', '.join(map(str, args))})"
    expected = {"n": n, "k": k, "d_hamming": d_h, "d_pair": d_p, "verify_key": verify_key}
    return Item(name, ("family", func, args), expected)


#: The paper's families; (n, k, d_H, d_p) from Chen-Lin-Liu, and the name of
#: the matching entry of ``sympair.verify.EXPECTED`` where one exists.
MDS_FAMILIES = (
    _family("mds_3p_6", (5,), 15, 11, 3, 6, "family-3p6-p5"),
    _family("mds_3p_6", (7,), 21, 17, 3, 6, "family-3p6-p7"),
    _family("mds_3p_7", (5,), 15, 10, 4, 7, "family-3p7-p5"),
    _family("mds_n_6", (4, 15), 15, 11, 4, 6, None),
    _family("mds_n_6", (5, 24), 24, 20, 4, 6, "family-n6-q5-n24"),
    _family("mds_n_6", (7, 16), 16, 12, 4, 6, "family-n6-q7-n16"),
    _family("mds_n_6", (9, 16), 16, 12, 4, 6, None),
)


def _spec(p: int, m: int, n: int, lam: int, generator: list[int], d_h: int, d_p: int) -> Item:
    spec = {"p": p, "m": m, "n": n, "lambda": lam, "generator": generator}
    k = n - (len(generator) - 1)
    return Item(f"q{p ** m}-n{n}-l{lam}-k{k}", ("spec", spec),
                {"n": n, "k": k, "d_hamming": d_h, "d_pair": d_p})


#: Low-rate codes with frozen (d_H, d_p), each cross-checked once against
#: ``strategy="exhaustive"`` on both distances.
LOW_RATE = (
    _spec(7, 1, 24, 3, [6, 0, 0, 5, 0, 0, 1, 0, 0, 5, 0, 0, 5, 0, 0, 6, 0, 0, 1], 7, 14),
    _spec(5, 1, 24, 2, [4, 0, 0, 0, 3, 0, 0, 0, 4, 0, 0, 0, 4, 0, 0, 0, 1], 5, 10),
    _spec(2, 2, 17, 1, [1, 3, 3, 0, 2, 2, 0, 3, 3, 1], 8, 11),
    _spec(2, 2, 17, 1, [1, 3, 0, 3, 3, 3, 0, 3, 1], 7, 9),
    _spec(3, 1, 26, 2, [1, 0, 0, 0, 2, 0, 1, 0, 2, 0, 0, 0, 1], 5, 10),
    _spec(2, 1, 31, 1, [1, 1, 1, 0, 0, 1, 1, 0, 0, 0, 0, 1], 6, 9),
    _spec(7, 1, 20, 1, [1, 6, 0, 0, 1, 0, 6, 0, 1, 0, 0, 6, 1], 4, 8),
)


def sweep_specs() -> list[dict]:
    """Every code of the small sweep, as spec dicts, in file order."""
    data = json.loads(oracle.DATA.read_text())
    return [{"p": p, "m": m, "n": n, "lambda": lam, "generator": g}
            for p, m, n, lam, g in data["codes"]]


def build_items(workload: str, seed: int) -> list[Item]:
    """The items of one pass; the seed fixes their order."""
    rng = random.Random(seed)
    if workload == "mds-families":
        items = list(MDS_FAMILIES)
    elif workload == "low-rate":
        items = list(LOW_RATE)
    elif workload == "small-sweep":
        items = [Item(f"sweep-{i}", ("spec", spec)) for i, spec in enumerate(sweep_specs())]
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng.shuffle(items)
    return items


# ----------------------------------------------------------------------
# running one item (worker process)

def run_item(sympair, item: Item):
    """The user-facing call the item times; returns its raw result."""
    if item.call[0] == "family":
        _, func, args = item.call
        return getattr(sympair.constructions, func)(*args, certify="full")
    _, spec = item.call
    code = sympair.report.code_from_spec_dict(spec)
    return sympair.report.analyze(code).to_json()


def answer_of(sympair, item: Item, raw) -> dict:
    """What the checks compare, taken from the raw result after timing."""
    if item.call[0] == "family":
        verify_key = item.expected["verify_key"]
        return {
            "n": raw.code.n, "k": raw.code.k,
            "d_hamming": raw.d_hamming.value, "d_pair": raw.d_pair.value,
            "certified": raw.d_hamming.certified and raw.d_pair.certified,
            "lower_bound": raw.d_hamming.is_lower_bound or raw.d_pair.is_lower_bound,
            "mds_pair": raw.is_mds_pair,
            "family": raw.family.to_dict(),
            "verify": sympair.verify.EXPECTED.get(verify_key) if verify_key else None,
        }
    report = json.loads(raw)
    code, d_h, d_p, bounds = report["code"], report["d_hamming"], report["d_pair"], report["bounds"]
    return {
        "n": code["n"], "k": code["k"],
        "d_hamming": d_h["value"], "d_pair": d_p["value"],
        "certified": d_h["certified"] and d_p["certified"],
        "lower_bound": d_h["is_lower_bound"] or d_p["is_lower_bound"],
        "mds_pair": report["mds_pair"], "mds_hamming": report["mds_hamming"],
        "singleton_pair_max_dp": bounds["singleton_pair_max_dp"],
        "floor": bounds["constacyclic_floor"],
    }


# ----------------------------------------------------------------------
# checks (parent process)

def expected_answers(workload: str, items: list[Item]) -> dict[str, dict]:
    """Frozen answers, or brute-force ones for the small sweep."""
    if workload != "small-sweep":
        return {it.name: it.expected for it in items}
    fields = {}
    out = {}
    for it in items:
        spec = it.call[1]
        q = spec["p"] ** spec["m"]
        F = fields.setdefault(q, oracle.Field(q))
        n, g = spec["n"], spec["generator"]
        d_h, d_p = oracle.distances(F, g, n, spec["lambda"])
        out[it.name] = {"n": n, "k": n - (len(g) - 1), "d_hamming": d_h, "d_pair": d_p}
    return out


def problems(expected: dict, answer: dict) -> list[str]:
    """Every way an answer disagrees with the oracle or with a theorem."""
    bad = [f"{key}: expected {expected[key]}, got {answer[key]}"
           for key in ("n", "k", "d_hamming", "d_pair") if answer[key] != expected[key]]
    if not answer["certified"] or answer["lower_bound"]:
        bad.append("not certified exactly")
    n, k, d_h, d_p = answer["n"], answer["k"], answer["d_hamming"], answer["d_pair"]
    if answer["mds_pair"] != (k == n - d_p + 2):
        bad.append(f"mds_pair flag {answer['mds_pair']} is wrong")
    bad += [f"theorem: {name}" for name in oracle.theorem_violations(n, k, d_h, d_p)]
    if "family" in answer:
        spec = answer["family"]
        got = {"n": n, "k": k, "d_hamming": d_h, "d_pair": d_p}
        for key, value in got.items():
            if spec[f"expected_{key}"] != value:
                bad.append(f"FamilySpec expected_{key} = {spec[f'expected_{key}']}, got {value}")
        if answer["verify"] is not None:
            for key, value in {**got, "is_mds_pair": answer["mds_pair"]}.items():
                if answer["verify"][key] != value:
                    bad.append(f"verify.EXPECTED {key} = {answer['verify'][key]}, got {value}")
    if "mds_hamming" in answer:
        if answer["mds_hamming"] != (k == n - d_h + 1):
            bad.append(f"mds_hamming flag {answer['mds_hamming']} is wrong")
        if answer["singleton_pair_max_dp"] != n - k + 2:
            bad.append(f"singleton_pair_max_dp = {answer['singleton_pair_max_dp']}")
        floor = answer["floor"]
        if floor["applicable"] and (floor["lower_bound"] > d_p
                                    or floor["exact"] != (d_p == floor["lower_bound"] == d_h + 1)):
            bad.append(f"constacyclic floor {floor} contradicts d_p = {d_p}")
    return bad
