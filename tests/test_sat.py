import random

import pytest
from hypothesis import given, settings, strategies as st

from coloredcut import (
    CnfFormula,
    FormatError,
    dpll_solve,
    nae_satisfies,
    parse_dimacs,
    satisfies,
    serialize_dimacs,
)
from helpers import oracle_nae, oracle_sat, random_3cnf


def test_formula_validation():
    CnfFormula(2, ((1, -2),))
    with pytest.raises(ValueError):
        CnfFormula(2, ((0,),))
    with pytest.raises(ValueError):
        CnfFormula(2, ((3,),))
    with pytest.raises(ValueError):
        CnfFormula(2, ((),))


def test_satisfies():
    f = CnfFormula(2, ((1, -2),))
    assert satisfies(f, {1: True, 2: True})
    assert not satisfies(f, {1: False, 2: True})


def test_nae_satisfies_needs_both_values():
    f = CnfFormula(2, ((1, 2),))
    assert nae_satisfies(f, {1: True, 2: False})
    assert not nae_satisfies(f, {1: True, 2: True})


def test_parse_dimacs():
    f = parse_dimacs("p cnf 1 1\n1 0\n")
    assert f == CnfFormula(1, ((1,),))
    f2 = parse_dimacs("c hi\np cnf 3 2\n1 -2 3 0\nc mid\n-1 2 -3 0\n")
    assert f2 == CnfFormula(3, ((1, -2, 3), (-1, 2, -3)))


def test_parse_dimacs_errors():
    with pytest.raises(FormatError):
        parse_dimacs("p cnf 1 1\n2 0\n")  # literal out of range
    with pytest.raises(FormatError):
        parse_dimacs("p cnf 1 1\n1\n")  # missing terminator
    with pytest.raises(FormatError):
        parse_dimacs("p cnf 1 2\n1 0\n")  # fewer clauses than declared
    with pytest.raises(FormatError):
        parse_dimacs("p cnf 1 1\n0\n")  # empty clause
    with pytest.raises(FormatError):
        parse_dimacs("p sat 1 1\n1 0\n")
    with pytest.raises(FormatError):
        parse_dimacs("p cnf 3_0 1\n1 -2 3 0\n")  # `int` takes `_` separators
    with pytest.raises(FormatError):
        parse_dimacs("p cnf 3 1\n1 -\u0662 3 0\n")  # and non-ASCII digits


def test_dimacs_roundtrip():
    f = CnfFormula(3, ((1, -2, 3), (-1, 2, -3)))
    assert parse_dimacs(serialize_dimacs(f)) == f


def test_dpll_unit_propagation_chain():
    f = CnfFormula(2, ((1,), (-1, 2)))
    assert dpll_solve(f) == {1: True, 2: True}


def test_dpll_detects_unsat():
    square = CnfFormula(2, ((1, 2), (-1, 2), (1, -2), (-1, -2)))
    assert dpll_solve(square) is None
    assert dpll_solve(CnfFormula(1, ((1,), (-1,)))) is None


def test_dpll_agrees_with_brute_on_random_formulas():
    rng = random.Random(31)
    for _ in range(300):
        f = random_3cnf(rng, rng.randint(3, 6), rng.randint(1, 10))
        brute = oracle_sat(f)
        model = dpll_solve(f)
        assert (model is None) == (brute is None), f
        if model is not None:
            assert satisfies(f, model)


def test_dpll_on_wider_formulas():
    rng = random.Random(32)
    for _ in range(20):
        f = random_3cnf(rng, 15, rng.randint(10, 40))
        brute = oracle_sat(f)
        model = dpll_solve(f)
        assert (model is None) == (brute is None)


@st.composite
def formulas(draw):
    var_count = draw(st.integers(min_value=1, max_value=6))
    lit = st.integers(min_value=1, max_value=var_count).flatmap(
        lambda v: st.sampled_from((v, -v))
    )
    clauses = draw(
        st.lists(
            st.lists(lit, min_size=1, max_size=4).map(tuple),
            min_size=1,
            max_size=8,
        )
    )
    return CnfFormula(var_count, tuple(clauses))


@given(formulas())
def test_dpll_model_always_satisfies(f):
    model = dpll_solve(f)
    assert (model is None) == (oracle_sat(f) is None)
    if model is not None:
        assert satisfies(f, model)
        assert set(model) == set(range(1, f.var_count + 1))


@st.composite
def nae_formulas(draw):
    var_count = draw(st.integers(min_value=1, max_value=5))
    lit = st.integers(min_value=1, max_value=var_count).flatmap(
        lambda v: st.sampled_from((v, -v))
    )
    clauses = draw(
        st.lists(
            st.lists(lit, min_size=2, max_size=4).map(tuple),
            min_size=1,
            max_size=6,
        )
    )
    return CnfFormula(var_count, tuple(clauses))


@settings(max_examples=60)
@given(nae_formulas())
def test_nae_closed_under_literal_complement(f):
    flipped = CnfFormula(f.var_count, tuple(tuple(-l for l in cl) for cl in f.clauses))
    assert (oracle_nae(f) is None) == (oracle_nae(flipped) is None)
