"""Input fuzz: every integer argument of the public API, fed a fixed set of
awkward values, either raises a SymPairError or returns the right answer.

``CASES`` is the fuzz table, one row per (callable, integer parameter).
``test_fuzz_table_covers_every_integer_parameter`` walks ``sympair.__all__``
so that a new integer parameter cannot be left out of it.

The command line gets the same treatment: every key of a spec file and
every integer flag of ``construct`` and ``search``, fed awkward values
through ``cli.main``, exits 2 with ``error:`` on stderr unless the value is
valid, and never raises.
"""

import dataclasses
import inspect
import json
import re

import pytest

import sympair
from sympair import bounds, cli, code, constructions, errors, gf, poly, report
from sympair.code import ConstacyclicCode
from sympair.poly import Poly

F2 = gf.prime_field(2)
F5 = gf.prime_field(5)

#: label -> value.  Results are keyed by label: True == 1 and False == 0,
#: so the values themselves cannot tell a bool from an int in a dict.
VALUES = {"True": True, "False": False, "1.5": 1.5, "2.0": 2.0, "'3'": "3", "None": None,
          "-1": -1, "0": 0, "10**30": 10**30}


def _c15():
    """A fresh [15, 11, 3] repeated-root cyclic code over GF(5), g = (x-1)^2 (x^2+x+1)."""
    x, one = Poly.x(F5), Poly.one(F5)
    return ConstacyclicCode(F5, 15, 1, (x - one) * (x**3 - one))


def _x_minus_1(field):
    return Poly(field, (field.neg(1), 1))


# both distances from engines that "auto" does not pick for this code
_D_H = code.min_hamming_distance(_c15(), "dependency")
_D_P = code.min_pair_distance(_c15(), "bounded")
_REPORT = report.analyze(_c15()).to_dict(include_perf=False)
_BOUNDS = bounds.bound_report(_c15()).to_dict()
_SEARCH = constructions.search_optimal_cyclic(2, 7)
_CUBE_MINUS_1 = ConstacyclicCode(F5, 3, 1, poly.binomial(F5, 3, 1))


def _members(cosets):
    return [c.members for c in cosets]


#: (callable, parameter, call with the value, {label: expected result}).
#: A value whose label is listed must give that result; every other value
#: must raise a SymPairError.  A budget of 0 is valid, but the work it
#: caps is not free, so it raises BudgetExceededError unless listed.
CASES = [
    ("gf.prime_field", "p", gf.prime_field, {}),
    ("gf.extension_field", "p", lambda v: gf.extension_field(v, 2), {}),
    ("gf.extension_field", "m", lambda v: gf.extension_field(2, v), {}),
    ("gf.nth_roots_of_unity", "n", lambda v: gf.nth_roots_of_unity(F5, v), {}),
    ("gf.primitive_root_of_unity", "n", lambda v: gf.primitive_root_of_unity(F5, v), {}),
    ("gf.primitive_cube_root", "p", gf.primitive_cube_root, {}),
    ("poly.Poly.__pow__", "e", lambda v: Poly.x(F5) ** v, {"0": Poly.one(F5)}),
    ("poly.Poly.scale", "c", lambda v: Poly(F5, (1, 2)).scale(v), {"0": Poly.zero(F5)}),
    ("poly.Poly.coeff", "i", lambda v: Poly(F5, (1, 2)).coeff(v), {"0": 1, "10**30": 0}),
    ("poly.binomial", "n", lambda v: poly.binomial(F5, v, 1), {}),
    ("poly.binomial", "lam", lambda v: poly.binomial(F5, 3, v),
     {"0": Poly(F5, (0, 0, 0, 1))}),
    ("poly.cyclotomic_cosets", "n", lambda v: poly.cyclotomic_cosets(v, 2), {}),
    # q acts modulo n: 10**30 = 8 = 1 mod 7
    ("poly.cyclotomic_cosets", "q", lambda v: _members(poly.cyclotomic_cosets(7, v)),
     {"10**30": [(j,) for j in range(7)]}),
    ("poly.cyclotomic_coset", "n", lambda v: poly.cyclotomic_coset(v, 2, 1), {}),
    ("poly.cyclotomic_coset", "q", lambda v: poly.cyclotomic_coset(7, v, 3).members,
     {"10**30": (3,)}),
    ("poly.cyclotomic_coset", "exponent", lambda v: poly.cyclotomic_coset(7, 2, v).members,
     {"-1": (3, 5, 6), "0": (0,), "10**30": (1, 2, 4)}),
    ("poly.multiplicative_order_mod", "q", lambda v: poly.multiplicative_order_mod(v, 7),
     {"-1": 2, "10**30": 1}),  # -1 = 6 has order 2 mod 7
    ("poly.multiplicative_order_mod", "n", lambda v: poly.multiplicative_order_mod(2, v), {}),
    ("code.ConstacyclicCode", "n", lambda v: ConstacyclicCode(F5, v, 1, _x_minus_1(F5)), {}),
    ("code.ConstacyclicCode", "lam", lambda v: ConstacyclicCode(F5, 4, v, _x_minus_1(F5)), {}),
    ("code.ConstacyclicCode.from_generator", "n",
     lambda v: ConstacyclicCode.from_generator(F5, v, 1, _x_minus_1(F5)), {}),
    ("code.ConstacyclicCode.from_generator", "lam",
     lambda v: ConstacyclicCode.from_generator(F5, 4, v, _x_minus_1(F5)), {}),
    ("code.ConstacyclicCode.from_defining_set", "n",
     lambda v: ConstacyclicCode.from_defining_set(F2, v, ()), {}),
    ("code.constacyclic_shift", "lam", lambda v: code.constacyclic_shift(F5, v, (1, 2, 3)), {}),
    ("code.divisor_codes", "n", lambda v: list(code.divisor_codes(F5, v, 1)), {}),
    ("code.divisor_codes", "lam", lambda v: list(code.divisor_codes(F5, 4, v)), {}),
    ("code.min_hamming_distance", "budget",
     lambda v: code.min_hamming_distance(_c15(), budget=v).value,
     {"None": _D_H.value, "10**30": _D_H.value}),
    ("code.min_pair_distance", "budget",
     lambda v: code.min_pair_distance(_c15(), budget=v).value,
     {"None": _D_P.value, "10**30": _D_P.value}),
    ("bounds.singleton_pair_max", "n", lambda v: bounds.singleton_pair_max(v, 5, 3),
     {"10**30": 10**30 - 1}),
    ("bounds.singleton_pair_max", "q", lambda v: bounds.singleton_pair_max(5, v, 3),
     {"10**30": 4}),
    ("bounds.singleton_pair_max", "k", lambda v: bounds.singleton_pair_max(5, 5, v), {}),
    # n - d_H >= 2k - 1 with k > 1 lifts the floor to d_H + 3
    ("bounds.pair_distance_floor", "n", lambda v: bounds.pair_distance_floor(v, 2, 4),
     {"10**30": bounds.PairDistanceFloor(True, 7, False)}),
    ("bounds.pair_distance_floor", "k", lambda v: bounds.pair_distance_floor(10, v, 4), {}),
    ("bounds.pair_distance_floor", "d_hamming",
     lambda v: bounds.pair_distance_floor(10, 2, v), {}),
    ("bounds.repeated_root_pair_floor", "d_hamming",
     lambda v: bounds.repeated_root_pair_floor(_c15(), v), {}),
    # t = 0 keeps every factor of multiplicity >= 1: g = x^3 - 1, the zero code
    ("bounds.residue_code", "t", lambda v: bounds.residue_code(_c15(), v),
     {"0": _CUBE_MINUS_1}),
    # P_t over base 2 is 2 to the number of one bits of t
    ("bounds.radix_p_product", "t", lambda v: bounds.radix_p_product(v, 2),
     {"0": 1, "10**30": 2 ** bin(10**30).count("1")}),
    ("bounds.radix_p_product", "p", lambda v: bounds.radix_p_product(3, v), {}),
    ("bounds.castagnoli_details", "budget",
     lambda v: bounds.castagnoli_details(_c15(), budget=v)[0],
     {"None": _D_H.value, "10**30": _D_H.value}),
    ("bounds.bch_bound", "n", lambda v: bounds.bch_bound((), v), {}),
    ("bounds.hartmann_tzeng_bound", "n", lambda v: bounds.hartmann_tzeng_bound([0], v, 2), {}),
    # T = {0}: one run of length 1, so BCH = HT = 2
    ("bounds.hartmann_tzeng_bound", "q", lambda v: bounds.hartmann_tzeng_bound([0], 3, v),
     {"10**30": 2}),
    ("bounds.bound_report", "d_hamming",
     lambda v: bounds.bound_report(_c15(), v).to_dict(), {"None": _BOUNDS}),
    ("constructions.mds_3p_7", "p", constructions.mds_3p_7, {}),
    ("constructions.mds_3p_7", "budget",
     lambda v: constructions.mds_3p_7(5, "bounds", budget=v),
     {"None": constructions.mds_3p_7(5, "bounds"), "10**30": constructions.mds_3p_7(5, "bounds")}),
    ("constructions.mds_3p_8", "p", constructions.mds_3p_8, {}),
    ("constructions.mds_3p_8", "budget",
     lambda v: constructions.mds_3p_8(7, "bounds", budget=v),
     {"None": constructions.mds_3p_8(7, "bounds"), "10**30": constructions.mds_3p_8(7, "bounds")}),
    ("constructions.mds_3p_6", "p", constructions.mds_3p_6, {}),
    ("constructions.mds_3p_6", "budget",
     lambda v: constructions.mds_3p_6(5, "bounds", budget=v),
     {"None": constructions.mds_3p_6(5, "bounds"), "10**30": constructions.mds_3p_6(5, "bounds")}),
    ("constructions.mds_n_6", "q", lambda v: constructions.mds_n_6(v, 24), {}),
    ("constructions.mds_n_6", "n", lambda v: constructions.mds_n_6(5, v), {}),
    # the "bounds" level of mds_n_6 enumerates nothing, so a budget of 0 suffices
    ("constructions.mds_n_6", "budget",
     lambda v: constructions.mds_n_6(5, 24, "bounds", budget=v),
     {label: constructions.mds_n_6(5, 24, "bounds") for label in ("None", "0", "10**30")}),
    ("constructions.search_optimal_cyclic", "q",
     lambda v: constructions.search_optimal_cyclic(v, 7), {}),
    ("constructions.search_optimal_cyclic", "n",
     lambda v: constructions.search_optimal_cyclic(2, v), {}),
    ("constructions.search_optimal_cyclic", "max_codes",
     lambda v: constructions.search_optimal_cyclic(2, 7, max_codes=v),
     {"None": _SEARCH, "10**30": _SEARCH}),
    ("constructions.search_optimal_cyclic", "budget",
     lambda v: constructions.search_optimal_cyclic(2, 7, budget=v),
     {"None": _SEARCH, "10**30": _SEARCH}),
    ("report.analyze", "budget",
     lambda v: report.analyze(_c15(), budget=v).to_dict(include_perf=False),
     {"None": _REPORT, "10**30": _REPORT}),
]

#: Integer parameters the table leaves out on purpose, with the reason.
EXEMPT = {
    ("gf.Field", "p"): "internal constructor: prime_field, extension_field and "
                       "tower_field validate their arguments before they build a Field",
}
# Field's arithmetic methods (add, mul, pow, ...) are not walked either:
# they are hot, documented to take canonical ints on trust, and Field.check
# is their validator; it is fuzzed above through every argument that is a
# field element (the lam rows).

_INT = re.compile(r"int( \| None)?")


def _integer_parameters():
    """(callable, parameter) for every int or int | None parameter of the
    module-level functions, constructors and public classmethods that
    ``sympair.__all__`` exports.  Dataclasses and exceptions carry results,
    they are not entry points, and are skipped."""
    found = set()

    def add(name, func, skip_first):
        params = list(inspect.signature(func).parameters.values())[skip_first:]
        found.update((name, p.name) for p in params
                     if isinstance(p.annotation, str) and _INT.fullmatch(p.annotation))

    for export in sympair.__all__:
        obj = getattr(sympair, export)
        if not callable(obj) or not getattr(obj, "__module__", "").startswith("sympair."):
            continue
        name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__qualname__}"
        if not inspect.isclass(obj):  # a function, perhaps behind a cache
            add(name, inspect.unwrap(obj), 0)
        elif not (dataclasses.is_dataclass(obj) or issubclass(obj, BaseException)):
            add(name, obj.__init__, 1)
            for attr, raw in vars(obj).items():
                if isinstance(raw, classmethod) and not attr.startswith("_"):
                    add(f"{name}.{attr}", raw.__func__, 1)
    return found


def test_fuzz_table_covers_every_integer_parameter():
    found = _integer_parameters()
    # the walk sees constructors, classmethods and functions behind a cache
    assert {("code.ConstacyclicCode", "n"), ("code.ConstacyclicCode.from_defining_set", "n"),
            ("gf.prime_field", "p")} <= found
    table = {(target, param) for target, param, _call, _ok in CASES}
    missing = found - table - set(EXEMPT)
    assert not missing, f"add these to the fuzz table: {sorted(missing)}"


@pytest.mark.parametrize("target, param, call, accepted", CASES,
                         ids=[f"{t}-{p}" for t, p, _c, _a in CASES])
def test_integer_arguments_raise_or_answer(target, param, call, accepted):
    assert set(accepted) <= set(VALUES)
    for label, value in VALUES.items():
        try:
            result = call(value)
        except errors.SymPairError:
            assert label not in accepted, f"{target}({param}={label}) raised"
        else:
            assert label in accepted, f"{target}({param}={label}) returned {result!r}"
            assert result == accepted[label], f"{target}({param}={label})"


# ----------------------------------------------------------------------
# spec files and command-line flags

#: label -> JSON value for a spec key: VALUES' scalars, a nested list, and
#: a one-element list of each of those.
SPEC_SCALARS = {label: value for label, value in VALUES.items() if label not in ("False", "2.0")}
SPEC_SCALARS["[[1, [2]]]"] = [[1, [2]]]
SPEC_VALUES = dict(SPEC_SCALARS)
SPEC_VALUES.update({f"[{label}]": [value] for label, value in SPEC_SCALARS.items()})

#: The two spec forms, each valid as it stands.
SPEC_FORMS = {
    "generator": {"p": 5, "m": 1, "n": 15, "lambda": 1, "generator": [1, 4, 0, 4, 1]},
    "defining_set": {"p": 5, "m": 1, "n": 24,
                     "defining_set": sorted(set(range(24)) - {0, 19, 23})},
}

#: (form, key) -> labels of the values that make a valid spec: under
#: ``--budget 0`` its analysis exits 3.  Every other value must exit 2.
SPEC_CASES = {(form, key): set() for form, spec in SPEC_FORMS.items()
              for key in dict.fromkeys([*spec, "lambda"])}
SPEC_CASES["defining_set", "defining_set"] = {"[0]"}  # {0}: the code generated by x - 1


def _cli(capsys, argv):
    """Exit code and stderr of one ``cli.main`` run.  Any exception other
    than argparse's SystemExit propagates and fails the test."""
    try:
        rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects a flag value that is not an int
        rc = exc.code
    return rc, capsys.readouterr().err


def _check_exit(rc, err, expected, what):
    assert rc == expected, f"{what}: exit {rc}, {err!r}"
    if expected == cli.EXIT_INPUT:
        assert "error: " in err, f"{what}: {err!r}"  # ours, or argparse's usage error


def test_spec_fuzz_cases_cover_every_spec_key():
    assert {key for _form, key in SPEC_CASES} == report._SPEC_KEYS


@pytest.mark.parametrize("form, key", SPEC_CASES, ids=[f"{f}-{k}" for f, k in SPEC_CASES])
def test_spec_file_values_exit_2_unless_valid(tmp_path, capsys, form, key):
    path = tmp_path / "code.json"
    valid = SPEC_CASES[form, key]
    assert valid <= set(SPEC_VALUES)
    for label, value in SPEC_VALUES.items():
        path.write_text(json.dumps({**SPEC_FORMS[form], key: value}))
        rc, err = _cli(capsys, ["analyze", str(path), "--budget", "0"])
        expected = cli.EXIT_BUDGET if label in valid else cli.EXIT_INPUT
        _check_exit(rc, err, expected, f"{form} spec, {key} = {label}")


@pytest.mark.parametrize("text", ["[]", json.dumps([SPEC_FORMS["generator"]]), "1", "1.5",
                                  '"code"', "null", "true", "", "{", '{"p": 5,}'])
def test_spec_file_that_is_not_an_object_exits_2(tmp_path, capsys, text):
    path = tmp_path / "code.json"
    path.write_text(text)
    rc, err = _cli(capsys, ["analyze", str(path)])
    _check_exit(rc, err, cli.EXIT_INPUT, f"spec file {text!r}")


#: Command-line values for an integer flag; only an int string gets past argparse.
FLAG_VALUES = ["True", "1.5", "3.0", "abc", "None", "", "[1, [2]]", "-1", "0", str(10**30)]

#: (argv with FLAG in place of the fuzzed value, {valid value: exit code}); every
#: other value must exit 2.  ``--budget 0`` makes a valid run exit 3 at its
#: first unit of work; a fuzzed ``--budget`` of 10**30 is a full run.
FLAG_CASES = [
    (["construct", "mds_3p_6", "--p", "FLAG", "--budget", "0"], {}),
    (["construct", "mds_3p_7", "--p", "FLAG", "--budget", "0"], {}),
    (["construct", "mds_3p_8", "--p", "FLAG", "--budget", "0"], {}),
    (["construct", "mds_n_6", "--q", "FLAG", "--n", "8", "--budget", "0"], {}),
    (["construct", "mds_n_6", "--q", "3", "--n", "FLAG", "--budget", "0"], {}),
    (["construct", "mds_3p_6", "--p", "5", "--budget", "FLAG"], {"0": 3, str(10**30): 0}),
    (["search", "--q", "FLAG", "--n", "6", "--budget", "0"], {}),
    (["search", "--q", "2", "--n", "FLAG", "--budget", "0"], {}),
    (["search", "--q", "2", "--n", "6", "--max-codes", "FLAG", "--budget", "0"],
     {str(10**30): 3}),
    (["search", "--q", "2", "--n", "6", "--budget", "FLAG"], {"0": 3, str(10**30): 0}),
]


@pytest.mark.parametrize("argv, valid", FLAG_CASES, ids=[
    "-".join(a for a in argv if a not in ("FLAG", "--budget", "0")) for argv, _v in FLAG_CASES])
def test_integer_flag_values_exit_2_unless_valid(capsys, argv, valid):
    assert set(valid) <= set(FLAG_VALUES)
    for value in FLAG_VALUES:
        args = [value if a == "FLAG" else a for a in argv]
        rc, err = _cli(capsys, args)
        _check_exit(rc, err, valid.get(value, cli.EXIT_INPUT), " ".join(args))
