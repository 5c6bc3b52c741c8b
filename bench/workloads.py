"""The three benchmark workloads: inputs, one pass of ops, and output checks.

Every input is a seeded relabeling of a fixed table; the library only ever
receives the relabeled tables.  ``setup(rng, tiny)`` builds a pass's inputs
(this is the set-up the benchmark times), and ``run(runner, inputs,
expected)`` makes one pass of ops through a ``Runner``.  Each library call
goes through ``runner.call`` so it is timed; every check runs between calls,
outside the timed spans, and a failed check fails only its op.
"""

from __future__ import annotations

from dataclasses import asdict

from brandt import (
    HypothesisUnmet,
    MorphismTriple,
    brandt_extension,
    build_semigroup,
    check_block_separation,
    check_homomorphism,
    classify,
    congruence_lattice,
    double_extension_witness,
    enumerate_homs,
    enumerate_triples,
    image_decomposition,
    induced_hom,
    iso_search,
    read_extension,
    recover_triple,
    write_extension,
)


def _chain(n):
    return [[max(i, j) for j in range(n)] for i in range(n)]


def _cyclic_with_zero(n):
    return [[n if n in (i, j) else (i + j) % n for j in range(n + 1)] for i in range(n + 1)]


def _rect_band_with_unit_and_zero():
    # 0..3 are the band pairs (1,1) (1,2) (2,1) (2,2); 4 is the unit, 5 the zero.
    def mul(x, y):
        if 5 in (x, y):
            return 5
        if x == 4:
            return y
        if y == 4:
            return x
        return (x & 2) | (y & 1)

    return [[mul(x, y) for y in range(6)] for x in range(6)]


def _b2_with_identity():
    # 0 is the zero, 1..4 the units (1,1) (1,2) (2,1) (2,2), 5 the identity.
    units = [None, (0, 0), (0, 1), (1, 0), (1, 1)]

    def mul(x, y):
        if x == 5:
            return y
        if y == 5:
            return x
        if 0 in (x, y) or units[x][1] != units[y][0]:
            return 0
        return units.index((units[x][0], units[y][1]))

    return [[mul(x, y) for y in range(6)] for x in range(6)]


# Canonical monoids with zero.  "two" is {1, 0}; its extensions are the
# matrix units.  "rect" and "b2i" are the two non-classifiable targets.
BASES = {
    "two": [[0, 1], [1, 1]],
    "chain3": _chain(3),
    "chain4": _chain(4),
    "z2": _cyclic_with_zero(2),
    "c3": _cyclic_with_zero(3),
    "c8": _cyclic_with_zero(8),
    "rect": _rect_band_with_unit_and_zero(),
    "b2i": _b2_with_identity(),
}


def permutation(n, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def relabel(table, perm):
    """The table of the same semigroup with element i renamed perm[i]."""
    out = [[0] * len(table) for _ in table]
    for i, row in enumerate(table):
        dst = out[perm[i]]
        for j, v in enumerate(row):
            dst[perm[j]] = perm[v]
    return out


def seeded_base(name, rng):
    table = BASES[name]
    return build_semigroup(relabel(table, permutation(len(table), rng)))


def extension_order(base_order, lam):
    return lam * lam * (base_order - 1) + 1


# --- hom-search ------------------------------------------------------------
# Large hom searches: time goes into the two hand-written propagate loops
# (enumerate_homs, iso_search); tables are validated only in set-up.  The
# pairs are every ordered pair of the extensions of order <= 28 plus the
# rank-3 rectangular-band anchor R3 -> R3 (892 maps, order 46), and each
# extension is searched for an isomorphism to a second relabeling of itself.
# Every op gets relabelings of its own: a search's time depends on the
# labels, so ops that shared one relabeling would be slow or fast together
# and a pass would sample fewer independent labelings.  The small pairs and
# the iso searches run HOM_REPEATS times per pass, so that R3 -> R3 (one op
# but a third of a pass) does not leave the percentiles few samples.
HOM_EXTENSIONS = (
    ("two", 3), ("chain3", 2), ("chain3", 3), ("chain4", 2), ("chain4", 3),
    ("z2", 2), ("z2", 3), ("c3", 2), ("c3", 3), ("rect", 2), ("b2i", 2),
    ("rect", 3),
)
HOM_ANCHOR = "rect^3"
HOM_REPEATS = 2
TINY_MAX_ORDER = 10


def hom_search_plan(tiny=False):
    names = [
        f"{b}^{lam}"
        for b, lam in HOM_EXTENSIONS
        if not tiny or extension_order(len(BASES[b]), lam) <= TINY_MAX_ORDER
    ]
    small = [k for k in names if k != HOM_ANCHOR]
    pairs = [(a, b) for a in small for b in small] * HOM_REPEATS
    if HOM_ANCHOR in names:
        pairs.append((HOM_ANCHOR, HOM_ANCHOR))
    return names, pairs


def setup_hom_search(rng, tiny=False):
    names, pairs = hom_search_plan(tiny)
    carriers = {}
    for key in names:
        base, lam = key.split("^")
        carriers[key] = brandt_extension(seeded_base(base, rng), int(lam)).carrier

    def relabeled(key):
        carrier = carriers[key]
        return build_semigroup(relabel(carrier.table, permutation(carrier.order, rng)))

    return {
        "pairs": [(a, b, relabeled(a), relabeled(b)) for a, b in pairs],
        "isos": [(key, relabeled(key), relabeled(key)) for key in names * HOM_REPEATS],
    }


def run_hom_search(runner, inputs, expected):
    counts = expected["hom-search"]
    for a, b, A, B in inputs["pairs"]:
        with runner.op():
            maps = runner.call("homs.enumerate_homs", enumerate_homs, A, B)
            runner.count("homs.enumerate_homs.maps", len(maps))
            want = counts[f"{a}|{b}"]
            if len(maps) != want:
                runner.fail(f"{a} -> {b}: {len(maps)} maps, expected {want}")
            tables = [h.mapping for h in maps]
            if tables != sorted(tables):
                runner.fail(f"{a} -> {b}: maps are not sorted")
            for t in tables:
                check_homomorphism(t, A, B)
    for key, A, B in inputs["isos"]:
        with runner.op():
            witness = runner.call("search.iso_search", iso_search, A, B)
            if witness is None:
                runner.fail(f"{key}: no isomorphism to its relabeling")
                continue
            runner.count("search.iso_search.found")
            if len(set(witness)) != A.order:
                runner.fail(f"{key}: isomorphism witness is not bijective")
            check_homomorphism(witness, A, B)


# --- build-validate --------------------------------------------------------
# Building large tables: the O(n^3) associativity scan and O(n^2)
# construction, with no hom search.  C8^0 at rank 6 is order 289; the
# two-element base gives the matrix units, whose congruence-free scan in
# classify has no early exit.  Congruence lattices stop at order 40 (the
# library's bound) and double extensions run on the bases of order <= 3.
BUILD_BASES = ("two", "chain3", "z2", "rect", "c8")
BUILD_LAMBDAS = (1, 2, 3, 4, 5, 6)
DOUBLE_BASES = ("two", "chain3", "z2")
CONGRUENCE_MAX_ORDER = 40


def build_validate_plan(tiny=False):
    lambdas = BUILD_LAMBDAS[:2] if tiny else BUILD_LAMBDAS
    return [(b, lam) for b in BUILD_BASES for lam in lambdas]


def setup_build_validate(rng, tiny=False):
    plan = build_validate_plan(tiny)
    bases = {b: seeded_base(b, rng) for b in BUILD_BASES}
    perms = {
        (b, lam): permutation(extension_order(bases[b].order, lam), rng)
        for b, lam in plan
    }
    return {"bases": bases, "plan": plan, "perms": perms}


def report_flags(rep):
    """Classification flags as JSON-shaped data, for comparison with expected.json."""
    flags = asdict(rep)
    flags["blambda_free"] = {str(k): v for k, v in rep.blambda_free.items()}
    return flags


def run_build_validate(runner, inputs, expected):
    golden = expected["build-validate"]
    for name, lam in inputs["plan"]:
        S = inputs["bases"][name]
        key = f"{name}^{lam}"
        with runner.op():
            ext = runner.call("construct.brandt_extension", brandt_extension, S, lam)
            runner.count("construct.brandt_extension.elements", ext.carrier.order)
            if ext.carrier.order != extension_order(S.order, lam):
                runner.fail(f"{key}: carrier order {ext.carrier.order}")
        if not runner.last_ok:
            continue
        with runner.op():
            text = runner.call("sgpfile.write_extension", write_extension, ext)
            runner.count("sgpfile.write_extension.bytes", len(text.encode()))
        if not runner.last_ok:
            continue
        with runner.op():
            back = runner.call("sgpfile.read_extension", read_extension, text)
            if (
                back is None
                or back.lam != lam
                or back.carrier.table != ext.carrier.table
                or back.carrier.labels != ext.carrier.labels
            ):
                runner.fail(f"{key}: write/read round trip changed the table")
        perm = inputs["perms"][(name, lam)]
        table = relabel(ext.carrier.table, perm)
        with runner.op():
            R = runner.call("core.build_semigroup", build_semigroup, table)
            n = len(table)
            runner.count("core.build_semigroup.cells", n * n)
            runner.count("core.build_semigroup.assoc_triples", n * n * n)
            if R.table != tuple(map(tuple, table)) or R.zero != perm[0]:
                runner.fail(f"{key}: build_semigroup changed the relabeled table")
        if not runner.last_ok:
            continue
        with runner.op():
            rep = runner.call("classify.classify", classify, R, lambdas=(lam,))
            if report_flags(rep) != golden["classify"][key]:
                runner.fail(f"{key}: classification flags differ")
        if R.order <= CONGRUENCE_MAX_ORDER:
            with runner.op():
                lattice = runner.call("search.congruence_lattice", congruence_lattice, R)
                runner.count("search.congruence_lattice.congruences", len(lattice))
                if len(lattice) != golden["congruences"][key]:
                    runner.fail(f"{key}: {len(lattice)} congruences")
        if name in DOUBLE_BASES:
            for l1 in range(1, lam + 1):
                if lam % l1:
                    continue
                l2 = lam // l1
                with runner.op():
                    w = runner.call(
                        "construct.double_extension_witness",
                        double_extension_witness, S, l1, l2,
                    )
                    if not (w.is_injective and w.is_surjective) or (
                        w.source.order != extension_order(S.order, lam)
                    ):
                        runner.fail(f"{name} ({l1},{l2}): witness is not a bijection")


# --- triple-sweep ----------------------------------------------------------
# The Theorem 2.10 sweep: hundreds of small searches and thousands of
# calculus calls, so per-call set-up and redundant triples add up.  Every
# ordered pair of distinct bases with lam1 <= lam2 <= 3; "two" is the
# rank-one-capable source, "rect" and "b2i" are non-classifiable targets
# only (as sources they would add large searches, which hom-search covers),
# and "b2i" also fails the block-separation hypothesis.
SWEEP_SOURCES = ("two", "chain3", "z2", "c3")
SWEEP_TARGETS = SWEEP_SOURCES + ("rect", "b2i")
SWEEP_RANKS = tuple((l1, l2) for l2 in (1, 2, 3) for l1 in range(1, l2 + 1))


def triple_sweep_plan(tiny=False):
    ranks = [r for r in SWEEP_RANKS if not tiny or r[1] <= 2]
    return [
        (s, t, l1, l2)
        for s in SWEEP_SOURCES
        for t in SWEEP_TARGETS
        if s != t
        for l1, l2 in ranks
    ]


def setup_triple_sweep(rng, tiny=False):
    return {
        "bases": {b: seeded_base(b, rng) for b in SWEEP_TARGETS},
        "plan": triple_sweep_plan(tiny),
    }


def run_triple_sweep(runner, inputs, expected):
    golden = expected["triple-sweep"]
    classifiable = set(golden["classifiable"])
    bases = inputs["bases"]
    call = runner.call
    for s, t, l1, l2 in inputs["plan"]:
        S, T = bases[s], bases[t]
        tag = f"{s} -> {t} ({l1},{l2})"
        with runner.op():
            e1 = call("construct.brandt_extension", brandt_extension, S, l1)
            e2 = call("construct.brandt_extension", brandt_extension, T, l2)
            brute = call(
                "homs.enumerate_homs", enumerate_homs,
                e1.carrier, e2.carrier, nontrivial_only=True,
            )
            rep = call("classify.classify", classify, T, lambdas=(l1,))
            triples = call("category.enumerate_triples", enumerate_triples, S, T, l1, l2)
            generated = {
                call("category.induced_hom", induced_hom, tr, e1, e2).mapping
                for tr in triples
            }
            runner.count("homs.enumerate_homs.maps", len(brute))
            runner.count("category.enumerate_triples.triples", len(triples))
            runner.count("category.induced_hom.distinct", len(generated))

            zero_fixing = [h for h in brute if h.mapping[0] == 0]
            recovered = unmet = 0
            for h in zero_fixing:
                got = call("category.recover_triple", recover_triple, h, e1, e2)
                recovered += isinstance(got, MorphismTriple)
                _, w = call("category.image_decomposition", image_decomposition, h, e1)
                if not (w.is_injective and w.is_surjective) or (
                    w.target.order != len(h.image)
                ):
                    runner.fail(f"{tag}: image decomposition is not a bijection")
                if l1 >= 2:
                    try:
                        call(
                            "category.check_block_separation", check_block_separation,
                            h, e1, e2, expect=HypothesisUnmet,
                        )
                    except HypothesisUnmet:
                        unmet += 1
            runner.count("category.recover_triple.recovered", recovered)
            runner.count("category.check_block_separation.hypothesis_unmet", unmet)

            brute_maps = {h.mapping for h in brute}
            if len(brute) != golden["maps"][f"{s}|{t}|{l1}|{l2}"]:
                runner.fail(f"{tag}: {len(brute)} maps")
            if not generated <= brute_maps:
                runner.fail(f"{tag}: a triple induced a map brute force missed")
            if rep.classifiable_target != (t in classifiable):
                runner.fail(f"{tag}: target classifiability differs")
            if t in classifiable:
                # Theorem 2.10 with the known rank-one gap stated exactly:
                # the only maps no triple induces move the zero, at lam1 = 1.
                moving = {m for m in brute_maps if m[0] != 0}
                if brute_maps - generated != moving or (moving and l1 != 1):
                    runner.fail(f"{tag}: brute minus generated is not the zero-moving maps")
                if recovered != len(zero_fixing):
                    runner.fail(f"{tag}: a zero-fixing map was not recovered")
            if l1 >= 2 and unmet != (0 if rep.blambda_free[l1] else len(zero_fixing)):
                runner.fail(f"{tag}: block-separation hypothesis disagrees with classify")


WORKLOADS = {
    "hom-search": (setup_hom_search, run_hom_search),
    "build-validate": (setup_build_validate, run_build_validate),
    "triple-sweep": (setup_triple_sweep, run_triple_sweep),
}
