"""The two number rules, ``check_int`` and ``check_real``, and the values
their call sites now refuse."""

import json
import math
import pathlib
from fractions import Fraction

import numpy as np
import pytest

from banddim.cli import main
from banddim.cover import brick_cover, min_colors_search
from banddim.cpmaps import order_zero_check, transpose_map
from banddim.errors import InvalidParameterError
from banddim.fdalg import FiniteDimAlgebra, Summand
from banddim.operators import BandOperator, diagonal_membership
from banddim.space import check_int, check_real, generate_space
from banddim.witness import build_upper_witness, check_witness, permanence_combine

from conftest import interval_witness

REFUSED = object()

# value, check_int(value, "n", 1), check_real(value, "x", 0)
NUMBER_TABLE = [
    (True, REFUSED, REFUSED),
    (np.True_, REFUSED, REFUSED),
    (np.int64(3), 3, np.int64(3)),
    (np.float64(2.0), REFUSED, np.float64(2.0)),
    (Fraction(3, 2), REFUSED, Fraction(3, 2)),
    (2.0, REFUSED, 2.0),
    (math.nan, REFUSED, REFUSED),
    (math.inf, REFUSED, REFUSED),
    (-math.inf, REFUSED, REFUSED),
    ("2", REFUSED, REFUSED),
    (None, REFUSED, REFUSED),
    (0, REFUSED, 0),
    (-1, REFUSED, REFUSED),
    (10 ** 400, 10 ** 400, 10 ** 400),
]


@pytest.mark.parametrize("value, as_int, as_real", NUMBER_TABLE,
                         ids=[repr(row[0]) for row in NUMBER_TABLE])
def test_number_rules(value, as_int, as_real):
    """An integer is never a bool or a float, however whole; a real number
    is finite and never a bool; both hold a lower bound and name the value
    they refuse."""
    for rule, args, expected in ((check_int, ("n", 1), as_int),
                                 (check_real, ("x", 0), as_real)):
        if expected is REFUSED:
            with pytest.raises(InvalidParameterError, match=f"^{args[0]} must be an? "):
                rule(value, *args)
        else:
            got = rule(value, *args)
            assert got == expected and type(got) is type(expected)


def test_real_rule_without_bound():
    assert check_real(-2.5, "x") == -2.5
    with pytest.raises(InvalidParameterError, match=r"^x must be a finite real number, got"):
        check_real(math.nan, "x")
    with pytest.raises(InvalidParameterError, match=r"^x must be a finite real number >= 1"):
        check_real(0.5, "x", 1)


def _small_witness():
    return interval_witness(length=24, r=2, side=8)


def _build(r):
    space = generate_space("interval", length=24)
    return build_upper_witness(space, brick_cover(space, 2, 8), r, 1)


# Each call used to pass a value through silently (truncated, coerced or
# kept as given) or end in a TypeError or ValueError traceback.
API_CASES = {
    "algebra-fiber-float": lambda: FiniteDimAlgebra([Summand(0, "a", 2)], 2.7),
    "algebra-fiber-string": lambda: FiniteDimAlgebra([Summand(0, "a", 2)], "2"),
    "algebra-size-float": lambda: FiniteDimAlgebra([Summand(0, "a", 2.5)], 1),
    "build-r-bool": lambda: _build(True),
    "build-r-whole-float": lambda: _build(2.0),
    "build-r-string": lambda: _build("x"),
    "tensor-n-float": lambda: permanence_combine("tensor_matrix", _small_witness(), 2.7),
    "tensor-n-bool": lambda: permanence_combine("tensor_matrix", _small_witness(), True),
    "order-zero-trials-float": lambda: order_zero_check(transpose_map(2), trials=2.5),
    "min-colors-float": lambda: min_colors_search(
        generate_space("interval", length=6), 1, 1, 2.5),
    "diagonal-tol-string": lambda: diagonal_membership(
        BandOperator.identity(generate_space("interval", length=4), 1), "x"),
    "check-tol-bool": lambda: check_witness(_small_witness(), tol=True),
}


@pytest.mark.parametrize("case", ["run-r-whole-float"] + sorted(API_CASES))
def test_refused_numbers(tmp_path, capsys, case):
    """Every value the number rules now refuse raises
    ``InvalidParameterError``, or exits 3 under ``run`` at the stage that
    reads it with nothing of that stage written: ``"r": 1.0`` used to run
    and write ``"r": 1.0`` into the bundle's meta."""
    if case != "run-r-whole-float":
        with pytest.raises(InvalidParameterError):
            API_CASES[case]()
        return
    out = tmp_path / "out"
    cfg = {"space": {"family": "interval", "length": 24}, "cover": {"brick_side": 8},
           "r": 1.0, "fiber": 1, "stages": ["space", "cover", "witness"],
           "out_dir": str(out)}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main(["run", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert ("stage 'witness' failed: the enlargement scale r must be an integer >= 1, "
            "got 1.0") in err, err
    assert sorted(p.name for p in pathlib.Path(out).iterdir()) == ["cover.json", "space.json"]
