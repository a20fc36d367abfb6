"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line so `pytest tests/test_acceptance.py -v -s` reads as a
checklist.  Tolerances are exact (rational equality) except where a
floating-point cross-check is explicitly called for (1e-9)."""

from __future__ import annotations

import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from unmating import parse_file, validate
from unmating.circle import frac
from unmating.laminations import check_planar, depth1, pullback_to_depth
from unmating.parameterize import pullback_parameters, solve_for_spec
from unmating.pipeline import run_pipeline
from unmating.portraits import CriticalPortrait, PreargumentSet, certify, sectors
from unmating.spectral import certify_perron, transition_matrix
from unmating.svg import SvgScene

from .conftest import MEYER, REVERSED, VALID_FIXTURES, critical_connections, meyer_raw
from .oracles import as_fractions, brute_force_pullback, power_iteration

F = Fraction

MEYER_MATRIX = [
    [0, 1, 0, 0, 0, 0],
    [0, 0, 1, 1, 0, 0],
    [0, 0, 0, 0, 1, 0],
    [1, 1, 0, 0, 0, 1],
    [0, 0, 1, 1, 0, 0],
    [1, 0, 0, 0, 1, 1],
]


def report(n: int, text: str):
    print(f"\n[criterion {n}] PASS  {text}")


class TestAcceptance:
    def test_criterion_1_end_to_end_meyer_example(self):
        start = time.monotonic()
        spec = parse_file(MEYER)
        result = run_pipeline(spec, depth=3)
        elapsed = time.monotonic() - start

        assert [list(r) for r in result.matrix.entries] == MEYER_MATRIX
        assert result.lengths.eigenvector == (1, 2, 1, 3, 2, 3)
        assert [frac(x, result.lengths.total) for x in result.lengths.eigenvector] == [
            "1/12", "1/6", "1/12", "1/4", "1/6", "1/4",
        ]
        assert {frac(t, result.params.grid) for t in result.params.t} == {
            "1/12", "1/6", "1/3", "5/12", "2/3", "5/6",
        }
        for p, expected in ((result.white, ["5/24", "17/24"]), (result.black, ["1/24", "13/24"])):
            assert [[frac(a, p.grid) for a in s.angles] for s in p.sets] == [expected]
        assert elapsed < 1.0
        report(1, f"worked example reproduced exactly in {elapsed:.3f}s")

    def test_criterion_2_perron_certificate(self):
        for path in VALID_FIXTURES:
            spec = parse_file(path)
            assert validate(spec).passed
            matrix = transition_matrix(spec)
            lengths = certify_perron(matrix, spec.degree)

            # nullspace dimension checked inside certify_perron; re-check A v = d v
            n = matrix.size
            for i in range(n):
                assert (
                    sum(matrix.entries[i][j] * lengths.eigenvector[j] for j in range(n))
                    == spec.degree * lengths.eigenvector[i]
                )
            assert all(x > 0 for x in lengths.eigenvector)

            approx = power_iteration([list(r) for r in matrix.entries])
            exact = np.array([x / lengths.total for x in lengths.eigenvector])
            assert np.max(np.abs(approx - exact)) < 1e-9, path.name
        report(2, "exact 1-dim positive nullspace; float oracle within 1e-9")

    def test_criterion_3_parameter_consistency(self):
        for path in VALID_FIXTURES:
            spec = parse_file(path)
            matrix = transition_matrix(spec)
            lengths = certify_perron(matrix, spec.degree)
            d = spec.degree
            for branch in range(max(1, d - 1)):
                params = solve_for_spec(spec, lengths, base=0, branch=branch)
                for i, t in enumerate(params.t):
                    assert d * t % params.grid == params.t[params.image[i]]
                assert sum(params.lengths) == params.grid
                t_set = set(params.t)
                assert {d * t % params.grid for t in t_set} <= t_set
                pullback_parameters(params, spec)
                # base independence over all k bases
                for base in range(spec.k):
                    assert solve_for_spec(spec, lengths, base=base, branch=branch).t == params.t
        report(3, "q_d(t_i) = t_image(i), unit total, forward-invariant, base-independent")

    def test_criterion_4_portrait_certification(self):
        spec = parse_file(MEYER)
        result = run_pipeline(spec)
        for portrait in (result.white, result.black):
            cert = portrait.certificate
            for name in ("c1", "c3", "c5", "c7"):
                assert cert[name]["passed"], name
            for name in ("c2", "c4", "c6"):
                assert cert[name]["passed"] and cert[name]["vacuous"], name

        with_periodic = CriticalPortrait(
            color="white",
            grid=24,
            sets=[PreargumentSet.of([5, 17, 8])],  # 5/24, 17/24, 1/3
        )
        assert not certify(with_periodic, 2)["c5"]["passed"]

        with_deleted = CriticalPortrait(
            color="white", grid=24, sets=[PreargumentSet.of([5])]
        )
        assert not certify(with_deleted, 2)["c1"]["passed"]
        report(4, "c1/c3/c5/c7 pass, c2/c4/c6 vacuous; 1/3 breaks c5; deletion breaks c1")

    def test_criterion_5_depth1_agreement(self):
        for path in VALID_FIXTURES:
            spec = parse_file(path)
            result = run_pipeline(spec)
            white, black = depth1(result.pullback, critical_connections(spec))
            for classes, portrait in ((white, result.white), (black, result.black)):
                assert {frozenset(c) for c in as_fractions(classes)} == {
                    frozenset(F(a, portrait.grid) for a in s.angles) for s in portrait.sets
                }, path.name
        report(5, "depth-1 classes equal extracted portrait sets on all fixtures")

    def test_criterion_6_pullback_oracle_equivalence(self):
        spec = parse_file(MEYER)
        result = run_pipeline(spec)
        for cls, portrait in (
            (result.depth1_white, result.white),
            (result.depth1_black, result.black),
        ):
            sec = sectors(portrait)
            cur = cls
            leaf_counts = [len(SvgScene.from_classes([cur], {}).chords)]
            for depth in range(2, 7):
                nxt = pullback_to_depth(cur, portrait, 2, cur.depth + 1)
                oracle = brute_force_pullback(cur, sec, portrait.grid, 2)
                assert as_fractions(nxt) == oracle, (portrait.color, depth)
                assert check_planar(nxt.classes) is None
                leaf_counts.append(len(SvgScene.from_classes([nxt], {}).chords))
                cur = nxt
            assert leaf_counts == sorted(leaf_counts)
        report(6, "depths 2-6 match brute-force lift enumeration; planar; counts nondecreasing")

    def test_criterion_7_negative_paths(self):
        spec = parse_file(REVERSED)
        rep = validate(spec)
        assert not rep.passed
        assert "fully invariant condition violated" in [f.check for f in rep.findings]

        raw = meyer_raw()
        raw["rotation1"]["p0"] = [[3, "in"], [7, "in"], [4, "out"], [8, "out"]]
        from unmating.mapspec import parse

        crossing = parse(raw)
        rep2 = validate(crossing)
        assert not rep2.passed
        assert "curve not oriented" in [f.check for f in rep2.findings]
        report(7, "reversed orientation and crossing chords rejected with named findings")

    def test_criterion_8_infinite_objects_excluded(self):
        # the limit curve and the infinite relations are documented as out of
        # scope; their finite shadows are criteria 3, 5 and 6 above
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        assert "finite" in readme.lower()
        assert "depth" in readme.lower()
        report(8, "limit objects excluded; finite shadows covered by criteria 3, 5, 6")
