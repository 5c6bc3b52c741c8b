#!/usr/bin/env python3
"""Census of homomorphisms between corpus extensions.

For every ordered pair of corpus monoids and every index-size pair, counts
the non-trivial homomorphisms found by brute force, and the triple-induced
and the zero-moving maps that extension_homs builds from one search for the
base homomorphisms (zero-moving maps exist at rank-one sources only; the
list is empty at rank two).  The closing line reports whether the
brute-force set equals the disjoint union of the triple-induced and the
zero-moving maps at every grid point, the decomposition the thm2-10 fixture
asserts.
"""

import argparse

from brandt.fixtures import completeness_rows


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--rank-two-only",
        action="store_true",
        help="restrict the grid to lam1 = lam2 = 2",
    )
    args = parser.parse_args()
    pairs = ((2, 2),) if args.rank_two_only else ((1, 1), (1, 2), (2, 2))
    rows = [
        (s, t, l1, l2, len(brute), len(triples), len(moved),
         not (triples & moved) and brute == triples | moved)
        for s, t, l1, l2, brute, triples, moved in completeness_rows(pairs)
    ]
    header = ("source", "target", "l1", "l2", "brute", "triples", "zero-moved")
    widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(7)]
    print("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    for r in rows:
        print("  ".join(str(v).ljust(w) for v, w in zip(r, widths)))
    mismatched = [r for r in rows if not r[7]]
    print()
    print(
        f"{len(rows)} grid points, {len(mismatched)} with brute != triples + zero-moving"
    )
    if not mismatched:
        print("brute = triples + zero-moving at every grid point")


if __name__ == "__main__":
    main()
