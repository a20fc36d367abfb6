from __future__ import annotations

from fractions import Fraction

import pytest

from unmating.circle import frac
from unmating.errors import ParameterizationError
from unmating.parameterize import (
    marker_images,
    pullback_parameters,
    solve_for_spec,
    solve_parameters,
)

HALF = [Fraction(1, 2), Fraction(1, 2)]


class TestMarkerImages:
    def test_meyer(self, meyer_spec):
        assert marker_images(meyer_spec) == [1, 2, 4, 5, 2, 4]

    def test_jordan(self, jordan_spec):
        assert marker_images(jordan_spec) == [0, 2, 0]

    def test_total_function(self, meyer_spec, jordan_spec):
        for spec in (meyer_spec, jordan_spec):
            assert all(0 <= i < spec.k for i in marker_images(spec))

    def test_image_names_consistent(self, meyer_spec):
        # the marker over p2 maps to the marker over its f-image p3
        image = marker_images(meyer_spec)
        p2 = next(i for i in range(meyer_spec.k) if meyer_spec.marker_post(i) == "p2")
        assert meyer_spec.marker_post(image[p2]) == "p3"


class TestSolveParameters:
    def test_meyer_parameters(self, meyer_result):
        assert meyer_result.params.t == tuple(Fraction(*nd) for nd in [(1, 12), (1, 6), (1, 3), (5, 12), (2, 3), (5, 6)])
        assert [str(t) for t in meyer_result.params.t] == [
            "1/12", "1/6", "1/3", "5/12", "2/3", "5/6",
        ]

    def test_two_marker_toy_fixed_base(self):
        # fixed marker: L = 0, so t[0] = 0 and t = {0, 1/2}
        params = solve_parameters(HALF, [0, 0], d=2)
        assert params.t == (Fraction(0), Fraction(1, 2))

    def test_consistency_holds_everywhere(self, meyer_result, jordan_result):
        for result in (meyer_result, jordan_result):
            params = result.params
            d = params.degree
            for i, t in enumerate(params.t):
                assert d * t % 1 == params.t[params.image[i]]
            assert sum(params.lengths) == 1

    def test_base_independence(self, meyer_spec, meyer_result):
        expected = meyer_result.params.t
        for base in range(meyer_spec.k):
            params = solve_for_spec(meyer_spec, meyer_result.lengths, base=base)
            assert params.t == expected

    def test_branch_out_of_range(self):
        with pytest.raises(ParameterizationError, match="branch"):
            solve_parameters(HALF, [0, 0], d=2, branch=1)

    def test_branch_rigid_rotation_degree_three(self):
        # two fixed markers under the 3-fold map admit two parameter branches
        base0 = solve_parameters(HALF, [0, 1], d=3, branch=0)
        base1 = solve_parameters(HALF, [0, 1], d=3, branch=1)
        rot = Fraction(1, 2)  # branch/(d-1)
        assert list(base1.t) == [(t + rot) % 1 for t in base0.t]
        # pairwise gaps preserved
        gaps0 = [(base0.t[(i + 1) % 2] - base0.t[i]) % 1 for i in range(2)]
        gaps1 = [(base1.t[(i + 1) % 2] - base1.t[i]) % 1 for i in range(2)]
        assert gaps0 == gaps1

    def test_inconsistent_image_map(self):
        # lengths force t = {0, 1/2} but the image map demands q(t1) = t1
        with pytest.raises(ParameterizationError, match="inconsistent"):
            solve_parameters(HALF, [0, 1], d=2)

    def test_lengths_must_sum_to_one(self):
        with pytest.raises(ParameterizationError, match="sum to 1"):
            solve_parameters([Fraction(1, 2), Fraction(1, 3)], [0, 0], d=2)


class TestPullbackParameters:
    def test_meyer_values(self, meyer_result):
        pullback = meyer_result.pullback
        assert pullback.grid == 24
        assert [frac(s, pullback.grid) for s in pullback.s] == [
            "1/24", "1/12", "1/6", "5/24", "1/3", "5/12",
            "13/24", "7/12", "2/3", "17/24", "5/6", "11/12",
        ]

    def test_critical_vertex_parameters(self, meyer_spec, meyer_result):
        pullback = meyer_result.pullback
        c1_visits = meyer_spec.visits_at("c1")
        assert sorted(frac(pullback.s[j], pullback.grid) for j in c1_visits) == ["17/24", "5/24"]

    def test_preimage_set_equality(self, meyer_result, jordan_result):
        for result in (meyer_result, jordan_result):
            d = result.spec.degree
            t_set = set(result.params.t)
            expected = {(t + m) / d for t in t_set for m in range(d)}
            assert {Fraction(s, result.pullback.grid) for s in result.pullback.s} == expected

    def test_forward_invariance(self, meyer_result, jordan_result):
        for result in (meyer_result, jordan_result):
            d = result.spec.degree
            t_set = set(result.params.t)
            assert {d * t % 1 for t in t_set} <= t_set

    def test_marked_visits_keep_parameters(self, meyer_spec, meyer_result):
        pullback = meyer_result.pullback
        for i, m in enumerate(meyer_spec.markers):
            assert Fraction(pullback.s[m], pullback.grid) == meyer_result.params.t[i]

    def test_jordan_quarter_structure(self, jordan_result):
        assert jordan_result.pullback.grid == 8
        assert jordan_result.pullback.s == (0, 1, 2, 4, 5, 6)
        assert [frac(s, 8) for s in jordan_result.pullback.s] == [
            "0/1", "1/8", "1/4", "1/2", "5/8", "3/4",
        ]

    def test_misaligned_markers_rejected(self, meyer_spec, meyer_result):
        import dataclasses

        bad = dataclasses.replace(meyer_spec, markers=(2, 4, 5, 8, 10, 11))
        with pytest.raises(ParameterizationError, match="inconsistent"):
            pullback_parameters(meyer_result.params, bad)

    def test_deck_shift_of_markers_is_equivalent(self, meyer_spec, meyer_result):
        # shifting all markers by k selects the other lift branch, which is an
        # equally valid normalization of the pullback parameterization
        import dataclasses

        shifted = dataclasses.replace(
            meyer_spec,
            markers=tuple((m + meyer_spec.k) % meyer_spec.n1 for m in meyer_spec.markers),
        )
        alt = pullback_parameters(meyer_result.params, shifted)
        assert {Fraction(2 * s, alt.grid) % 1 for s in alt.s} == set(meyer_result.params.t)


def test_two_marker_toy_quarter_points():
    # the k=2 symmetric word lifts to the quarter points of the circle
    from unmating.mapspec import parse

    toy = parse(
        {
            "degree": 2,
            "post": ["a", "b"],
            "edges0": ["E1", "E2"],
            "word0": [{"edge": "E1", "to": "b"}, {"edge": "E2", "to": "a"}],
            "vertices1": [
                {"id": "a", "image": "a"},
                {"id": "b", "image": "a"},
                {"id": "c", "image": "b"},
            ],
            "word1": [
                {"image_edge": "E1", "to": "c"},
                {"image_edge": "E2", "to": "b"},
                {"image_edge": "E1", "to": "c"},
                {"image_edge": "E2", "to": "a"},
            ],
            "rotation0": {"a": [[1, "in"], [0, "out"]], "b": [[0, "in"], [1, "out"]]},
            "rotation1": {
                "a": [[3, "in"], [0, "out"]],
                "b": [[1, "in"], [2, "out"]],
                "c": [[0, "in"], [1, "out"], [2, "in"], [3, "out"]],
            },
            "markers": [0, 2],
            "white_anchor": [0, "left"],
        }
    )
    params = solve_parameters(HALF, [0, 0], d=2)
    pullback = pullback_parameters(params, toy)
    assert (pullback.grid, pullback.s) == (4, (0, 1, 2, 3))
