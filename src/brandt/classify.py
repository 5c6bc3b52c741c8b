"""Exhaustive definition-checking of structural properties."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .core import FiniteSemigroup, idempotent_order
from .search import (
    DEFAULT_CONGRUENCE_BOUND,
    excludes_b2,
    is_congruence_free,
    matrix_unit_exclusion,
)


@dataclass(frozen=True)
class PropertyReport:
    """Boolean structure flags, all computed by brute force over the table.

    ``congruence_free`` is None when the order exceeds the congruence bound.
    ``blambda_free`` holds the rank-dependent matrix-unit exclusion per
    queried rank (None when the semigroup has no zero).
    ``classifiable_target`` marks the monoids with zero for which the
    homomorphism classification of Brandt extensions is complete: central
    idempotents and no embedded rank-2 matrix units.
    """

    monoid_with_zero: bool
    regular: bool
    inverse: bool
    clifford: bool
    idempotents_central: bool
    primitive_inverse: bool
    congruence_free: Optional[bool]
    b2_free: bool
    blambda_free: dict = field(default_factory=dict)
    classifiable_target: bool = False
    primitivity_no_zero_caveat: bool = False


def _inverses_of(S: FiniteSemigroup, x: int) -> list[int]:
    t = S.table
    return [
        y
        for y in range(S.order)
        if t[t[x][y]][x] == x and t[t[y][x]][y] == y
    ]


def is_regular(S: FiniteSemigroup) -> bool:
    t = S.table
    n = S.order
    return all(
        any(t[t[x][y]][x] == x for y in range(n)) for x in range(n)
    )


def is_inverse(S: FiniteSemigroup) -> bool:
    return all(len(_inverses_of(S, x)) == 1 for x in range(S.order))


def inverse_element(S: FiniteSemigroup, x: int) -> Optional[int]:
    ys = _inverses_of(S, x)
    return ys[0] if len(ys) == 1 else None


def idempotents_central(S: FiniteSemigroup) -> bool:
    t = S.table
    n = S.order
    return all(
        t[e][x] == t[x][e] for e in S.idempotents for x in range(n)
    )


def is_primitive_inverse(S: FiniteSemigroup) -> bool:
    """Inverse, with a zero, and every non-zero idempotent minimal."""
    if S.zero is None or not is_inverse(S):
        return False
    order = idempotent_order(S)
    nonzero = [e for e in order.idempotents if e != S.zero]
    return set(order.primitives) == set(nonzero)


def classify(S: FiniteSemigroup, lambdas=()) -> PropertyReport:
    """Compute every structure flag of the report by exhaustive checking."""
    t = S.table

    regular = is_regular(S)
    inverse = is_inverse(S) if regular else False
    clifford = False
    if inverse:
        clifford = all(
            t[x][inverse_element(S, x)] == t[inverse_element(S, x)][x]
            for x in range(S.order)
        )
    central = idempotents_central(S)

    primitive_inverse = inverse and is_primitive_inverse(S)

    congruence_free = (
        is_congruence_free(S) if S.order <= DEFAULT_CONGRUENCE_BOUND else None
    )

    b2 = excludes_b2(S)
    blambda = {}
    for lam in lambdas:
        if S.zero is None or lam < 2:
            blambda[lam] = None  # the exclusion is defined for rank >= 2 only
        else:
            blambda[lam] = matrix_unit_exclusion(S, lam)

    monoid_with_zero = S.identity is not None and S.zero is not None
    return PropertyReport(
        monoid_with_zero=monoid_with_zero,
        regular=regular,
        inverse=inverse,
        clifford=clifford,
        idempotents_central=central,
        primitive_inverse=primitive_inverse,
        congruence_free=congruence_free,
        b2_free=b2,
        blambda_free=blambda,
        classifiable_target=monoid_with_zero and central and b2,
        primitivity_no_zero_caveat=S.zero is None,
    )
