"""Structural properties of a finite semigroup, decided from its table."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .core import BudgetExceeded, FiniteSemigroup, _memoized
from .search import excludes_b2, is_congruence_free, matrix_unit_exclusion


@dataclass(frozen=True)
class PropertyReport:
    """Boolean structure flags of a finite semigroup.

    ``inverse`` and ``clifford`` come from two characterizations (J. M.
    Howie, *Fundamentals of Semigroup Theory*, 1995, Thm 5.1.1 and §4.2):
    a semigroup is inverse iff it is regular and its idempotents commute,
    and Clifford iff it is regular and its idempotents are central.
    ``congruence_free`` is None when ``is_congruence_free`` runs out of budget.
    ``blambda_free`` holds the rank-dependent matrix-unit exclusion per
    queried rank (None when the semigroup has no zero).
    ``classifiable_target`` marks the monoids with zero for which the
    homomorphism classification of Brandt extensions is complete: those
    with central idempotents.  Such a T holds no copy of the rank-2 matrix
    units B2: an injective homomorphism phi: B2 -> T would give
    phi(1,2) = phi(1,1)·phi(1,2) = phi(1,2)·phi(1,1) = phi(0), since the
    idempotent phi(1,1) is central.  So ``b2_free``, which runs its own
    search, holds on every classifiable target.
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


def is_regular(S: FiniteSemigroup) -> bool:
    t = S.table
    n = S.order
    return all(
        any(t[t[x][y]][x] == x for y in range(n)) for x in range(n)
    )


def _idempotents_commute(S: FiniteSemigroup) -> bool:
    t = S.table
    idem = S.idempotents
    return all(t[e][f] == t[f][e] for e in idem for f in idem)


def idempotents_central(S: FiniteSemigroup) -> bool:
    t = S.table
    n = S.order
    return all(
        t[e][x] == t[x][e] for e in S.idempotents for x in range(n)
    )


def _nonzero_idempotents_primitive(S: FiniteSemigroup) -> bool:
    """S has a zero and no non-zero idempotent lies below another.  Only
    for commuting idempotents, where f <= e iff ef = f."""
    t = S.table
    nonzero = [e for e in S.idempotents if e != S.zero]
    return S.zero is not None and all(
        t[e][f] != f for e in nonzero for f in nonzero if e != f
    )


def _structure_flags(S: FiniteSemigroup) -> dict:
    """Every flag of the report but ``blambda_free``, by field name, each
    predicate once; inverse and Clifford by the characterizations on
    ``PropertyReport``, primitive inverse as inverse with a zero and every
    non-zero idempotent primitive.  No other function decides these three."""
    regular = is_regular(S)
    central = idempotents_central(S)
    inverse = regular and _idempotents_commute(S)
    clifford = regular and central
    primitive_inverse = inverse and _nonzero_idempotents_primitive(S)

    try:
        congruence_free = is_congruence_free(S)
    except BudgetExceeded:
        congruence_free = None

    monoid_with_zero = S.identity is not None and S.zero is not None
    return dict(
        monoid_with_zero=monoid_with_zero,
        regular=regular,
        inverse=inverse,
        clifford=clifford,
        idempotents_central=central,
        primitive_inverse=primitive_inverse,
        congruence_free=congruence_free,
        b2_free=excludes_b2(S),
        classifiable_target=monoid_with_zero and central,
        primitivity_no_zero_caveat=S.zero is None,
    )


def classify(S: FiniteSemigroup, lambdas=()) -> PropertyReport:
    """The structure flags of S, with ``blambda_free`` at each rank in
    ``lambdas``.

    The flags that do not depend on a rank are computed once per table by
    ``_structure_flags`` and kept under ("structure_flags",) in S's memo,
    which equal extension carriers share, so a sweep that classifies one
    target at many ranks computes them once.  ``blambda_free`` reads the
    memoized ``matrix_unit_exclusion`` per rank.  Each call returns a new
    report with a dict of its own.
    """
    flags = _memoized(S, ("structure_flags",), _structure_flags, S)
    blambda = {}
    for lam in lambdas:
        if S.zero is None or lam < 2:
            blambda[lam] = None  # the exclusion is defined for rank >= 2 only
        else:
            blambda[lam] = matrix_unit_exclusion(S, lam)
    return PropertyReport(blambda_free=blambda, **flags)
