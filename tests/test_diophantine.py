import math

import pytest
from hypothesis import given, strategies as st

from tsproject import (
    ConeTuple,
    SolvabilityInstance,
    ValidationError,
    bounded_representable,
    case_number,
    cone_contains,
    has_nonneg_solution,
)
from tsproject.cli import run

coeff_lists = st.lists(st.integers(min_value=1, max_value=15), max_size=4)


def inst(lhs_a0, lhs_coeffs, rhs_a0, rhs_coeffs):
    return SolvabilityInstance(
        ConeTuple(lhs_a0, tuple(lhs_coeffs)), ConeTuple(rhs_a0, tuple(rhs_coeffs))
    )


class TestCaseSplit:
    def test_both_empty(self):
        assert case_number(inst(3, (), 3, ())) == 1
        assert has_nonneg_solution(inst(3, (), 3, ()))
        assert not has_nonneg_solution(inst(3, (), 4, ()))

    def test_empty_lhs(self):
        assert case_number(inst(5, (), 0, (2,))) == 2
        assert case_number(inst(0, (), 5, (2,))) == 3

    def test_empty_rhs(self):
        assert case_number(inst(0, (2,), 5, ())) == 4
        assert case_number(inst(5, (2,), 0, ())) == 3

    def test_both_nonempty(self):
        assert case_number(inst(0, (2,), 0, (3,))) == 5


def test_case3_requires_exact_equality():
    assert has_nonneg_solution(inst(4, (), 4, (2, 3)))
    assert not has_nonneg_solution(inst(4, (), 5, (2, 3)))
    assert has_nonneg_solution(inst(4, (2, 3), 4, ()))


def test_case2_search():
    # 7 = 2a + 3b has the solution (2, 1)
    assert has_nonneg_solution(inst(7, (), 0, (2, 3)))
    # 1 is not representable by {2, 3}
    assert not has_nonneg_solution(inst(1, (), 0, (2, 3)))
    # parity obstruction
    assert not has_nonneg_solution(inst(7, (), 0, (2, 4)))


def test_case4_mirrors_case2():
    assert has_nonneg_solution(inst(0, (2, 3), 7, ()))
    assert not has_nonneg_solution(inst(0, (2, 4), 7, ()))


def test_case5_is_a_gcd_test():
    # worked instance: heads 0 vs 1, shared coefficients {2, 3}, gcd 1
    assert has_nonneg_solution(inst(0, (2, 3), 1, (2, 3)))
    # both sides even, offset odd
    assert not has_nonneg_solution(inst(0, (2, 4), 1, (2, 6)))


def test_bounded_representable_small_cases():
    assert bounded_representable(7, (2, 3))
    assert not bounded_representable(1, (2, 3))
    assert bounded_representable(12, (4,))
    assert not bounded_representable(13, (4,))


@pytest.mark.parametrize("c, coeffs", [(5, [0]), (5, [0, 2, 3]), (5, [-2, 3, 4]), (1, [-4, 6, 9])])
def test_bounded_representable_rejects_a_coefficient_below_one(c, coeffs):
    """Checked before any arithmetic, which would divide by zero or build an
    empty residue table."""
    with pytest.raises(ValueError, match="requires c > 0 and positive coefficients"):
        bounded_representable(c, coeffs)


@pytest.mark.parametrize("a, b", [(8760, 8761), (100000, 100001)])
def test_sylvester_frobenius_number(a, b):
    """For coprime a, b the largest non-representable integer is ab - a - b."""
    frobenius = a * b - a - b
    assert not bounded_representable(frobenius, (a, b))
    assert all(bounded_representable(frobenius + k, (a, b)) for k in range(1, 6))


def test_dioph_cli_past_the_reachable_sums_range(capsys):
    # 10^9 = 10000 * 100000; the cost depends on min(coeffs), not on c
    assert run(["dioph", "--lhs", "1000000000;", "--rhs", "0;100000,100001"]) == 0
    assert capsys.readouterr().out == "true\n"


def test_dioph_cli_target_below_smallest_coefficient(capsys):
    # c = 5 is settled before any table of 10^10 entries is built
    assert run(["dioph", "--lhs", "5;", "--rhs", "0;10000000000"]) == 0
    assert capsys.readouterr().out == "false\n"


def test_common_factor_is_divided_out():
    assert bounded_representable(7 * 10**10, (2 * 10**10, 3 * 10**10))
    assert not bounded_representable(10**10 + 1, (10**10,))
    assert not bounded_representable(10**10, (2 * 10**10, 3 * 10**10))


def test_dioph_cli_single_large_coefficient(capsys):
    # the gcd reduction leaves the coefficient 1, so no table of 10^10 entries
    assert run(["dioph", "--lhs", "10000000000;", "--rhs", "0;10000000000"]) == 0
    assert capsys.readouterr().out == "true\n"


def test_dioph_cli_coprime_coefficients_past_the_table_limit(capsys):
    argv = ["dioph", "--lhs", "100000000;", "--rhs", "0;100000000,100000001,100000002"]
    assert run(argv) == 1
    assert "residue table limit" in capsys.readouterr().err
    with pytest.raises(ValidationError):
        bounded_representable(10**8, (10**8, 10**8 + 1, 10**8 + 2))


def test_dioph_cli_two_coefficients_need_no_table(capsys):
    # two coprime coefficients are settled by the closed form, at any size
    assert run(["dioph", "--lhs", "100000000;", "--rhs", "0;100000000,100000001"]) == 0
    assert capsys.readouterr().out == "true\n"
    frobenius = 10**8 * (10**8 + 1) - 10**8 - (10**8 + 1)
    assert not bounded_representable(frobenius, (10**8, 10**8 + 1))
    assert bounded_representable(frobenius + 1, (10**8, 10**8 + 1))


@given(
    st.integers(min_value=1, max_value=10**4),
    st.integers(min_value=1, max_value=10**4),
    st.data(),
)
def test_two_coefficient_closed_form_matches_definition(a, b, data):
    """Targets up to a*b + max(a, b) cover the Frobenius number of a, b
    divided by their gcd; the definition tries every multiple of the larger."""
    c = data.draw(st.integers(min_value=1, max_value=a * b + max(a, b)))
    small, big = sorted((a, b))
    expected = any((c - big * y) % small == 0 for y in range(c // big + 1))
    assert bounded_representable(c, (a, b)) == expected


@given(
    st.integers(min_value=1, max_value=200),
    st.lists(st.integers(min_value=1, max_value=15), min_size=1, max_size=4),
)
def test_bounded_representable_matches_definition(c, coeffs):
    reachable = {0}
    for a in coeffs:
        for base in sorted(reachable):
            k = base
            while k + a <= c:
                k += a
                reachable.add(k)
    assert bounded_representable(c, coeffs) == (c in reachable)


@given(
    st.lists(st.integers(min_value=0, max_value=8), min_size=0, max_size=4),
    st.lists(st.integers(min_value=0, max_value=8), min_size=0, max_size=4),
    st.lists(st.integers(min_value=1, max_value=15), max_size=4),
    st.lists(st.integers(min_value=1, max_value=15), max_size=4),
    st.integers(min_value=0, max_value=30),
)
def test_forward_constructed_instances_are_solvable(ns, ms, lhs_coeffs, rhs_coeffs, extra):
    """Plug random non-negative multipliers into both sides; the solver must say yes."""
    ns, ms = ns[: len(lhs_coeffs)], ms[: len(rhs_coeffs)]
    left = sum(n * a for n, a in zip(ns, lhs_coeffs))
    right = sum(m * a for m, a in zip(ms, rhs_coeffs))
    rhs_a0 = max(0, left - right) + extra
    lhs_a0 = rhs_a0 + right - left
    assert has_nonneg_solution(inst(lhs_a0, lhs_coeffs, rhs_a0, rhs_coeffs))


@given(
    st.lists(st.integers(min_value=1, max_value=15), min_size=1, max_size=4),
    st.lists(st.integers(min_value=1, max_value=15), min_size=1, max_size=4),
    st.integers(min_value=0, max_value=100),
)
def test_case5_gcd_criterion_is_exact(lhs_coeffs, rhs_coeffs, c):
    g = math.gcd(math.gcd(*lhs_coeffs), math.gcd(*rhs_coeffs))
    assert has_nonneg_solution(inst(c, lhs_coeffs, 0, rhs_coeffs)) == (c % g == 0)


@given(
    st.integers(min_value=1, max_value=400),
    st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=4),
)
def test_shortcut_agrees_with_search(c, coeffs):
    """When the reduced target clears the Schur-Brauer bound, the search must agree."""
    g = math.gcd(*coeffs)
    if c % g != 0:
        return
    reduced = [a // g for a in coeffs]
    if c // g >= (min(reduced) - 1) * (max(reduced) - 1):
        assert bounded_representable(c, coeffs)


def test_cone_contains():
    t = ConeTuple(5, (2, 7))
    assert cone_contains(t, 5)
    assert cone_contains(t, 9)
    assert cone_contains(t, 5 + 2 + 7)
    assert not cone_contains(t, 6)
    assert not cone_contains(t, 4)
    assert cone_contains(ConeTuple(3, ()), 3)
    assert not cone_contains(ConeTuple(3, ()), 4)
