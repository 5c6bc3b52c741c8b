#!/usr/bin/env python3
"""Survey structural flags of corpus monoids and their extensions.

Prints, for each corpus member and each index size, the order of the
extension and the flags that transfer between base and extension.
"""

import argparse

from brandt import brandt_extension, classify
from brandt.corpus import acceptance_corpus


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-lambda", type=int, default=3)
    args = parser.parse_args(argv)

    corpus = acceptance_corpus()
    header = (
        "semigroup",
        "lam",
        "order",
        "regular",
        "inverse",
        "clifford",
        "prim-inv",
        "congr-free",
    )
    rows = []
    for name, S in corpus.items():
        base = classify(S)
        rows.append(
            (
                name,
                "-",
                S.order,
                base.regular,
                base.inverse,
                base.clifford,
                base.primitive_inverse,
                base.congruence_free,
            )
        )
        for lam in range(1, args.max_lambda + 1):
            ext = brandt_extension(S, lam).carrier
            r = classify(ext)
            rows.append(
                (
                    name,
                    lam,
                    ext.order,
                    r.regular,
                    r.inverse,
                    r.clifford,
                    r.primitive_inverse,
                    r.congruence_free,
                )
            )
    widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(len(header))]
    print("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    for r in rows:
        print("  ".join(str(v).ljust(w) for v, w in zip(r, widths)))


if __name__ == "__main__":
    main()
