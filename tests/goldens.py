"""One recipe per golden file in tests/data/: what a CLI or script run prints,
or the .sgp file it writes, byte for byte.

    PYTHONPATH=src python tests/goldens.py

rewrites every file, so ``git diff tests/data`` shows what a change did to
them; test_cli.py compares each recipe with its file.  A recipe builds its
inputs in the directory it is handed and runs ``brandt.cli.main`` or a
script's ``main`` in-process; a run that exits nonzero raises.  Standard
library only.  calculus_grid.txt is generated in test_category.py, since it
needs conftest, which imports Hypothesis.
"""

import contextlib
import hashlib
import io
import runpy
import tempfile
from pathlib import Path

from brandt import cli
from brandt.construct import brandt_extension as ext, matrix_units_extension, orthogonal_sum
from brandt.corpus import (
    b2_with_identity,
    chain,
    cyclic_group_with_zero,
    example_e,
    rect_band_with_unit_and_zero,
    two_element,
)
from brandt.fixtures import FIXTURES
from brandt.sgpfile import write_extension, write_sgp

DATA = Path(__file__).parent / "data"
SCRIPTS = Path(__file__).parent.parent / "scripts"
# C8^0 at rank 6 (order 289), the largest build-validate table, is pinned by
# the hash of its 582-line .sgp text rather than checked in
C8X6_SHA256 = "1a9d1c81e3b74dc51c98cae15ed73dc44b87992e6cdcbfa3239c1cad9cb9d4a5"


def _run(*argv, main=cli.main) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(a) for a in argv])
    if code:
        raise AssertionError(f"{' '.join(map(str, argv))}: exit {code}")
    return out.getvalue()


def _script(name, *argv) -> str:
    return _run(*argv, main=runpy.run_path(str(SCRIPTS / name))["main"])


def _write(tmp, texts) -> None:
    for name, text in texts.items():
        (tmp / f"{name}.sgp").write_text(text, encoding="utf-8")


def verify(tmp):
    outs = {name: _run("verify", name) for name in sorted(FIXTURES)}
    for name, out in outs.items():
        if f"PASS: {name}\n" not in out:
            raise AssertionError(f"verify {name}: no PASS line")
    return "".join(outs.values())


def props(tmp):
    """``props --lambda 2`` of nine bases, of their rank-2 extensions written
    by ``extend``, and of C8^0 at rank 6, each after a ``# name`` line."""
    bases = {"two_element": two_element(), "chain3": chain(3), "chain4": chain(4),
             "example_e": example_e(), "c2": cyclic_group_with_zero(2),
             "c3": cyclic_group_with_zero(3), "c8": cyclic_group_with_zero(8),
             "rect": rect_band_with_unit_and_zero(), "b2one": b2_with_identity()}
    _write(tmp, {name: write_sgp(S) for name, S in bases.items()})
    for base, lam in [*((name, 2) for name in bases), ("c8", 6)]:
        _run("extend", tmp / f"{base}.sgp", "--lambda", lam, "-o", tmp / f"{base}x{lam}.sgp")
    if hashlib.sha256((tmp / "c8x6.sgp").read_bytes()).hexdigest() != C8X6_SHA256:
        raise AssertionError("c8x6.sgp does not match its pinned sha256")
    names = [*bases, *(f"{name}x2" for name in bases), "c8x6"]
    return "".join(f"# {n}\n" + _run("props", tmp / f"{n}.sgp", "--lambda", 2) for n in names)


def _homs(tmp, files, runs):
    _write(tmp, {name: write_extension(e) for name, e in files.items()})
    return "".join(_run("homs", "--classify", *flags, tmp / f"{s}.sgp", tmp / f"{t}.sgp")
                   for s, t, *flags in runs)


def homs_classify(tmp):
    """Recovered triples next to each NotClassifiable reason a real
    homomorphism can get, over four legend-carrying pairs."""
    files = {"b2x2": matrix_units_extension(2), "rect2": ext(rect_band_with_unit_and_zero(), 2),
             "b2one2": ext(b2_with_identity(), 2), "c2x1": ext(cyclic_group_with_zero(2), 1),
             "chain3x2": ext(chain(3), 2)}
    pairs = ["b2x2 rect2", "b2x2 b2one2", "c2x1 chain3x2", "chain3x2 rect2"]
    return _homs(tmp, files, [(*p.split(), "--nontrivial") for p in pairs])


def homs_preconditions(tmp):
    """The verdicts recover_triple raises rather than returns: trivial maps,
    lam1 > lam2, and a source or a target base without identity."""
    files = {"two1": ext(two_element(), 1), "two2": ext(two_element(), 2),
             "b2one1": ext(b2_with_identity(), 1),
             "glued2": ext(orthogonal_sum([two_element(), two_element()])[0], 2)}
    runs = [("two1", "two1"), *((*p.split(), "--nontrivial")
                                for p in ["two2 b2one1", "glued2 two2", "two2 glued2"])]
    return _homs(tmp, files, runs)


def _written(tmp, *argv):
    _run(*argv, "-o", tmp / "out.sgp")
    return (tmp / "out.sgp").read_bytes().decode()


def extension_chain3x3(tmp):
    _write(tmp, {"chain3": write_sgp(chain(3))})
    return _written(tmp, "extend", tmp / "chain3.sgp", "--lambda", 3)


RECIPES = {
    "verify.txt": verify,
    "props.txt": props,
    "homs_classify.txt": homs_classify,
    "homs_preconditions.txt": homs_preconditions,
    "units3.sgp": lambda tmp: _written(tmp, "units", "--lambda", 3),
    "extension_chain3x3.sgp": extension_chain3x3,
    "hom_census.txt": lambda tmp: _script("hom_census.py"),
    "hom_census_rank_two.txt": lambda tmp: _script("hom_census.py", "--rank-two-only"),
    "extension_survey.txt": lambda tmp: _script("extension_survey.py"),
    "extension_survey_rank_six.txt": lambda tmp: _script("extension_survey.py", "--max-lambda", 6),
}


if __name__ == "__main__":
    for name, recipe in RECIPES.items():
        with tempfile.TemporaryDirectory() as tmp:
            (DATA / name).write_bytes(recipe(Path(tmp)).encode())
