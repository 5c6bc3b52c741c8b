"""Regenerate bench/expected.json, the reference outputs the checks compare to.

    python3 bench/expected.py

Every value is an isomorphism invariant (a map count, a congruence count, the
classification flags), so it is computed once on the canonical tables and
holds for every seeded relabeling.  Two values match earlier measurements:
R3 -> R3 has 892 maps and B3(chain4) -> B3(chain4) has 124.  Takes about
fifteen seconds.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from brandt import (  # noqa: E402
    brandt_extension,
    build_semigroup,
    classify,
    congruence_lattice,
    enumerate_homs,
)
from workloads import (  # noqa: E402
    BASES,
    CONGRUENCE_MAX_ORDER,
    report_flags,
    build_validate_plan,
    hom_search_plan,
    triple_sweep_plan,
)


def extension(name, lam):
    return brandt_extension(build_semigroup(BASES[name]), lam).carrier


def main():
    names, pairs = hom_search_plan()
    carriers = {k: extension(k.split("^")[0], int(k.split("^")[1])) for k in names}
    homs = {
        f"{a}|{b}": len(enumerate_homs(carriers[a], carriers[b]))
        for a, b in dict.fromkeys(pairs)
    }

    flags, congruences = {}, {}
    for name, lam in build_validate_plan():
        key = f"{name}^{lam}"
        C = extension(name, lam)
        flags[key] = report_flags(classify(C, lambdas=(lam,)))
        if C.order <= CONGRUENCE_MAX_ORDER:
            congruences[key] = len(congruence_lattice(C))

    maps, classifiable = {}, set()
    for s, t, l1, l2 in triple_sweep_plan():
        found = enumerate_homs(extension(s, l1), extension(t, l2), nontrivial_only=True)
        maps[f"{s}|{t}|{l1}|{l2}"] = len(found)
        if classify(build_semigroup(BASES[t])).classifiable_target:
            classifiable.add(t)

    out = {
        "hom-search": homs,
        "build-validate": {"classify": flags, "congruences": congruences},
        "triple-sweep": {"classifiable": sorted(classifiable), "maps": maps},
    }
    with open(os.path.join(HERE, "expected.json"), "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
