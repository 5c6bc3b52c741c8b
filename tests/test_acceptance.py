"""Acceptance suite: one test per criterion, each printing a verdict line.

Criterion 6, the completeness sweep, is asserted literally over the whole
index grid, rank-one sources included: the brute-force set must equal the
disjoint union of the triple-induced maps and, at rank-one sources, the
zero-moving maps (a base homomorphism that moves the zero, placed on one
diagonal block).  Triples always fix the zero; the split along zero
preservation is also asserted in
test_category.py::test_rank_one_sources_split_along_zero_preservation.
"""

import random

import pytest

from brandt import (
    BadZero,
    NonAssociative,
    ParseError,
    congruence_lattice,
    image_decomposition,
    is_congruence,
    is_congruence_free,
    parse_sgp,
    write_sgp,
)
from brandt.construct import brandt_extension, matrix_units
from brandt.corpus import acceptance_corpus, chain
from brandt.fixtures import (
    _homs_between_extensions,
    run_cor1_10,
    run_ex2_12,
    run_ex2_13,
    run_ex2_14,
    run_ex2_5,
    run_ex2_6,
    run_prop1_3,
    run_prop1_9,
    run_prop2_16,
    run_prop3_3,
    run_thm2_10,
)


def report(number, result):
    print(f"criterion {number}: {'PASS' if result.passed else 'FAIL'} ({result.name})")
    if not result.passed:
        detail = "\n".join(result.lines)
        pytest.fail(f"criterion {number} failed:\n{detail}")


def test_criterion_01_embedded_unit_map():
    report(1, run_ex2_5())


def test_criterion_02_band_target_unclassifiable():
    report(2, run_ex2_13())


def test_criterion_03_function_backed_codomain():
    report(3, run_ex2_12())


def test_criterion_04_collapsing_square():
    report(4, run_ex2_14())


def test_criterion_05_zero_moves_when_hypotheses_fail():
    report(5, run_ex2_6())


def test_criterion_06_completeness_sweep():
    report(6, run_thm2_10())


def test_criterion_07_double_extension():
    report(7, run_prop1_3())


def test_criterion_08_orthogonal_sum_extension():
    report(8, run_prop1_9())


def test_criterion_09_structure_preservation():
    report(9, run_cor1_10())


def test_criterion_10_congruence_freeness():
    assert is_congruence_free(matrix_units(2))
    assert is_congruence_free(matrix_units(3))
    assert len(congruence_lattice(matrix_units(2))) == 2
    ext = brandt_extension(chain(3), 2).carrier
    assert not is_congruence_free(ext)
    lattice = congruence_lattice(ext)
    assert len(lattice) > 2
    assert all(is_congruence(ext, p) for p in lattice)
    print("criterion 10: PASS (congruence-freeness)")


def test_criterion_11_triple_injectivity_on_semilattices():
    report(11, run_prop3_3())


def test_criterion_12_composition_predicate():
    report(12, run_prop2_16())


def test_criterion_13_image_decomposition_sweep():
    # the maps of the completeness grid, searched once for criterion 6 too
    names = list(acceptance_corpus())
    checked = 0
    for s_name in names:
        for t_name in names:
            for l1, l2 in ((1, 1), (1, 2), (2, 2)):
                src, _, homs = _homs_between_extensions(s_name, t_name, l1, l2)
                for h in homs:
                    T0, witness = image_decomposition(h, src)
                    assert (
                        witness.target.order
                        == l1 * l1 * (T0.order - 1) + 1
                    )
                    assert witness.is_injective and witness.is_surjective
                    checked += 1
    assert checked > 50
    print(f"criterion 13: PASS (image decomposition on {checked} maps)")


def test_criterion_14_format_roundtrip_and_malformations():
    corpus = list(acceptance_corpus().values())
    rng = random.Random(20240817)
    for _ in range(1000):
        S = rng.choice(corpus)
        lam = rng.randint(1, 3)
        carrier = brandt_extension(S, lam).carrier
        assert parse_sgp(write_sgp(carrier)) == carrier

    with pytest.raises(ParseError):
        parse_sgp("sgp 1\nn 3\nrow 0 1 2\nrow 1 1 2\n")  # missing row
    with pytest.raises(ParseError):
        parse_sgp("sgp 1\nn 2\nrow 0 7\nrow 1 1\n")  # out-of-range index
    with pytest.raises(ParseError):
        parse_sgp("sgp 1\nn 2\nlabels a a\nrow 0 1\nrow 1 1\n")  # duplicates
    with pytest.raises(NonAssociative):
        parse_sgp("sgp 1\nn 2\nrow 1 0\nrow 0 0\n")  # not associative
    with pytest.raises(BadZero):
        parse_sgp("sgp 1\nn 2\nrow 0 1\nrow 1 1\nzero 0\n")  # wrong zero
    print("criterion 14: PASS (1000 round trips, 5 malformations)")
