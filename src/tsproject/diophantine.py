"""Decide solvability of a0 + sum(n_a * a_a) = a0' + sum(n_b' * a_b') over
non-negative integers.

The decision is split into five mutually exclusive cases on (mu, nu, c) with
c = a0 - a0'.  Cases 1 and 3 are an equality test and case 5 is a gcd test.
Cases 2 and 4 ask whether |c| is a non-negative integer combination of the
one non-empty coefficient list; after dividing c and the coefficients by
their gcd, two coprime coefficients have a closed form, and more are one
lookup in the residue table of the coefficients (Böcker & Lipták, "A fast
and simple algorithm for the money changing problem", Algorithmica 2007),
whose size is the smallest reduced coefficient and does not depend on c.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

from .graph_model import ValidationError
from .summary_mwdg import ConeTuple

_MAX_TABLE_ENTRIES = 10**6  # up to about 40 bytes an entry, kept in the cache


@dataclass(frozen=True)
class SolvabilityInstance:
    lhs: ConeTuple
    rhs: ConeTuple

    @property
    def c(self) -> int:
        return self.lhs.a0 - self.rhs.a0


def _case(mu: int, nu: int, c: int) -> int:
    if mu == 0 and nu == 0:
        return 1
    if mu == 0 and nu != 0:
        return 2 if c > 0 else 3
    if mu != 0 and nu == 0:
        return 3 if c >= 0 else 4
    return 5


def case_number(inst: SolvabilityInstance) -> int:
    """Which of the five decision cases applies; 2 and 4 are the search cases."""
    return _case(len(inst.lhs.coeffs), len(inst.rhs.coeffs), inst.c)


@functools.lru_cache
def _residue_table(coeffs: tuple[int, ...]) -> tuple[float, ...]:
    """Entry r: the least non-negative combination of the sorted, distinct
    ``coeffs`` that is congruent to r modulo m = coeffs[0], or infinity.

    Round-robin construction: each further coefficient a walks the cycles of
    r -> r + a (mod m), starting each cycle at its least entry, so that one
    pass per cycle suffices.
    """
    m = coeffs[0]
    table = [0] + [math.inf] * (m - 1)
    for a in coeffs[1:]:
        d = math.gcd(m, a)
        for r in range(d):
            n = min(table[r::d])
            if n == math.inf:
                continue
            for _ in range(m // d - 1):
                n += a
                p = n % m
                if table[p] < n:
                    n = table[p]
                else:
                    table[p] = n
    return tuple(table)


def bounded_representable(c: int, coeffs: Sequence[int]) -> bool:
    """Whether c > 0 is a non-negative integer combination of positive ``coeffs``.

    After dividing c and ``coeffs`` by the gcd of ``coeffs`` (c must be a
    multiple of it), let m = min(coeffs): c is representable iff c >= m and the
    residue table entry for c mod m is at most c, since adding m to a
    combination stays in its residue class.  The table is built once per
    coefficient set in O(k * m) time and O(m) space for k coefficients; each
    lookup is O(1), whatever c is.  A reduced m above ``_MAX_TABLE_ENTRIES``
    raises ``ValidationError`` when c >= m.  Two reduced coefficients a < b
    are coprime and need no table: c = a*x + b*y with x, y >= 0 iff the least
    x >= 0 with a*x = c (mod b), x = c * a^-1 mod b, has a*x <= c.
    """
    if c <= 0 or not coeffs or min(coeffs) < 1:
        raise ValueError("bounded_representable requires c > 0 and positive coefficients")
    g = math.gcd(*coeffs)
    if c % g:
        return False
    c, coeffs = c // g, sorted({a // g for a in coeffs})
    m = coeffs[0]
    # checked first, so the table never has more than c entries
    if c < m:
        return False
    if len(coeffs) == 2:
        a, b = coeffs
        return a * (c * pow(a, -1, b) % b) <= c
    if m > _MAX_TABLE_ENTRIES:
        raise ValidationError(
            f"smallest coefficient {m} (coefficients divided by their gcd {g}) exceeds "
            f"the residue table limit of {_MAX_TABLE_ENTRIES} entries"
        )
    return _residue_table(tuple(coeffs))[c % m] <= c


def solvable(c: int, lhs_coeffs: Sequence[int], rhs_coeffs: Sequence[int]) -> bool:
    """Whether c + sum(n_a * lhs_coeffs[a]) = sum(n_b * rhs_coeffs[b]) has a
    solution in non-negative integers: the instance a0 + ... = a0' + ... with
    c = a0 - a0'."""
    case = _case(len(lhs_coeffs), len(rhs_coeffs), c)
    if case in (1, 3):
        return c == 0
    if case == 2:
        return bounded_representable(c, rhs_coeffs)
    if case == 4:
        return bounded_representable(-c, lhs_coeffs)
    return c % math.gcd(*lhs_coeffs, *rhs_coeffs) == 0


def has_nonneg_solution(inst: SolvabilityInstance) -> bool:
    return solvable(inst.c, inst.lhs.coeffs, inst.rhs.coeffs)


def cone_contains(t: ConeTuple, value: int) -> bool:
    """Membership of an integer in the affine cone indexed by ``t``."""
    if value == t.a0:
        return True
    if value < t.a0 or not t.coeffs:
        return False
    return bounded_representable(value - t.a0, t.coeffs)
