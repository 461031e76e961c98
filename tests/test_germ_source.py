"""The seeded test germs of ``germ_source``: labels decided without
germforge, the golden gallery of 13 exact germs pinned byte for byte, and
the weighted scaling relations on the verify stream and the gallery.

After a deliberate change to a gallery report, rewrite the pins with
``PYTHONPATH=src python tests/test_germ_source.py``.
"""

import ast
import contextlib
import functools
import io
import json
import pathlib
import random
import re
from fractions import Fraction
from itertools import groupby, islice

import pytest

import germ_source
from germforge import mond
from germforge.cli import main, verify_probes
from germforge.distance import (
    ProbePoint,
    classify_distance,
    distance_jet,
    focal_locus,
    versality_rank_test,
)
from germforge.oracle import K_EQUIV, R_PLUS, split_and_type

from conftest import make_nf
from source_scan import nodes, parse_file

TESTS = pathlib.Path(__file__).resolve().parent
GALLERY = TESTS / "data" / "gallery"
COMMANDS = {
    "classify": ["classify"],
    "geometry16": ["geometry", "--theta-samples", "16"],
    "distance": ["distance"],
    "focal": ["focal"],
}


@functools.lru_cache(maxsize=None)
def gallery():
    """{file stem: (label, pre-normal form, probes, pairs)} of the gallery,
    one germ per label of ``germ_source.GALLERY``; every second germ is tuned
    to reach case 4a at its focal/cubic-line intersection."""
    draws = islice(germ_source.gallery_draws(germ_source.draw("gallery")), len(germ_source.GALLERY))
    return {label.lower().replace("+", "_plus").replace("-", "_minus"): (label, g, probes, pairs)
            for label, g, probes, pairs in draws}


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _scan(path):
    """(imported module names, string constants) of a Python file."""
    modules, strings = [], []
    for node in nodes(parse_file(path)):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules.append(node.module or "")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            strings.append(node.value)
    return modules, strings


def test_labels_are_decided_without_germforge():
    # the module and the corpus it loads import nothing from the program,
    # and no other test file loads the corpus: none names corpus.py or
    # imports from perfbench (this one names it to look for it); a file
    # without either word is not parsed
    scans = {path.name: _scan(path) for path in sorted(TESTS.glob("*.py"))
             if {"corpus", "perfbench"} & set(re.findall(r"\w+", path.read_text(encoding="utf-8")))}
    for modules, _ in (scans["germ_source.py"], _scan(germ_source.CORPUS_FILE)):
        assert [m for m in modules if m.split(".")[0] == "germforge"] == []
    assert [name for name, (modules, strings) in scans.items()
            if any(s.endswith("corpus.py") for s in strings)
            or any("perfbench" in m or "corpus" in m for m in modules)] == [
        "germ_source.py", pathlib.Path(__file__).name]


class TestGallery:
    def test_germ_files_are_the_module_draws(self):
        assert sorted(path.name for path in GALLERY.glob("*_germ.json")) == sorted(
            stem + "_germ.json" for stem in gallery())
        for stem, (label, g, probes, pairs) in gallery().items():
            doc = json.loads((GALLERY / (stem + "_germ.json")).read_text())
            assert doc == g.doc(probes, pairs), stem
            assert g.label()[0] == label

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    @pytest.mark.parametrize("stem", sorted(gallery()))
    def test_report_pinned(self, stem, name):
        code, out, err = run(COMMANDS[name] + ["--input", str(GALLERY / (stem + "_germ.json"))])
        assert code == 0, err
        assert out == (GALLERY / ("%s_%s.json" % (stem, name))).read_text()
        assert json.loads(out)["class"]["label"] == gallery()[stem][0]


MUS = (Fraction(3, 2), Fraction(-2), Fraction(1, 8), Fraction(-5, 3))


def _answers(nf, p):
    """Type, case and both versality answers of the decision tree, both rank
    tests and the splitting oracle's label at probe p."""
    verdict = classify_distance(nf, p)
    return (verdict.sing_type, verdict.case, verdict.r_plus_versal, verdict.k_versal,
            versality_rank_test(nf, p, R_PLUS), versality_rank_test(nf, p, K_EQUIV),
            split_and_type(distance_jet(nf, p, 6), 6).label)


class TestWeightedScaling:
    """The normal form of mu^2 g (``germ_source.weighted_scaling``) answers
    at mu^2 p what the form answers at p, has the focal intersection scaled
    by mu^2 and keeps the class label and sign; exact forms only."""

    @staticmethod
    def forms():
        """(exact normal form, probes) of the first 200 verify-stream pairs,
        grouped by form, and of the gallery germs."""
        pairs = islice(verify_probes(random.Random(5)), 200)
        for _, group in groupby(pairs, key=lambda pair: id(pair[0])):
            group = list(group)
            yield group[0][0], [p for _, p in group]
        for _, g, probes, _ in gallery().values():
            yield make_nf(order=7, a=g.a, b=g.b), [ProbePoint(*p) for p in probes]

    def test_answers_follow_the_scaling(self):
        count = 0
        for nf, probes in self.forms():
            answers = [_answers(nf, p) for p in probes]
            locus, label = focal_locus(nf), mond.classify(nf).mond
            for mu in MUS:
                scaled = make_nf(nf.order, nf.mode, *germ_source.weighted_scaling(nf.a, nf.b, mu))
                scaled_locus = focal_locus(scaled)
                assert scaled_locus.kind is locus.kind
                assert scaled_locus.intersection == (locus.intersection and (
                    locus.intersection[0], mu**2 * locus.intersection[1]))
                assert mond.classify(scaled).mond == label
                for p, want in zip(probes, answers):
                    q = ProbePoint(mu**2 * p.x0, mu**2 * p.y0, mu**2 * p.z0)
                    assert _answers(scaled, q) == want, (nf, p, mu)
                    count += 1
        assert count == 4 * (200 + 5 * len(germ_source.GALLERY))


if __name__ == "__main__":
    GALLERY.mkdir(exist_ok=True)
    for stem, (_, g, probes, pairs) in gallery().items():
        germ = GALLERY / (stem + "_germ.json")
        germ.write_text(json.dumps(g.doc(probes, pairs), indent=2) + "\n")
        for name, argv in COMMANDS.items():
            code, out, err = run(argv + ["--input", str(germ)])
            assert code == 0, err
            (GALLERY / ("%s_%s.json" % (stem, name))).write_text(out)
