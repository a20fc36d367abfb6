from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from unmating.circle import frac
from unmating.errors import MapfileError, ParameterizationError, SpectralError
from unmating.mapspec import Word0Entry, Word1Entry, faces, parse
from unmating.parameterize import (
    MarkerParameters,
    marker_images,
    pullback_parameters,
    solve_for_spec,
    solve_parameters,
)
from unmating.pipeline import run_pipeline
from unmating.spectral import certify_perron, transition_matrix

from .conftest import meyer_raw, replaced, toy_raw
from .oracles import (
    FractionParameters,
    pullback_parameters_by_fractions,
    solve_parameters_by_fractions,
)

HALF = ([1, 1], 2)  # two intervals of length 1/2: numerators over the grid 2


def toy_spec():
    """The k=2 symmetric word; its pullback visits the quarter points."""
    return parse(toy_raw())


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
        params = meyer_result.params
        assert (params.grid, params.t) == (12, (1, 2, 4, 5, 8, 10))
        assert [frac(t, params.grid) for t in params.t] == [
            "1/12", "1/6", "1/3", "5/12", "2/3", "5/6",
        ]

    def test_two_marker_toy_fixed_base(self):
        # fixed marker: L = 0, so t[0] = 0 and t = {0, 1/2}
        params = solve_parameters(*HALF, [0, 0], d=2)
        assert [frac(t, params.grid) for t in params.t] == ["0/1", "1/2"]

    def test_consistency_holds_everywhere(self, meyer_result, jordan_result):
        for result in (meyer_result, jordan_result):
            params = result.params
            d = result.spec.degree
            for i, t in enumerate(params.t):
                assert d * t % params.grid == params.t[params.image[i]]
            assert sum(params.lengths) == params.grid

    def test_base_independence(self, meyer_spec, meyer_result):
        expected = meyer_result.params.t
        for base in range(meyer_spec.k):
            params = solve_for_spec(meyer_spec, meyer_result.lengths, base=base)
            assert params.t == expected

    def test_branch_out_of_range(self):
        with pytest.raises(ParameterizationError, match="branch"):
            solve_parameters(*HALF, [0, 0], d=2, branch=1)

    def test_branch_rigid_rotation_degree_three(self):
        # two fixed markers under the 3-fold map admit two parameter branches
        base0 = solve_parameters(*HALF, [0, 1], d=3, branch=0)
        base1 = solve_parameters(*HALF, [0, 1], d=3, branch=1)
        grid = base0.grid
        assert base1.grid == grid
        rot = grid // 2  # branch/(d-1) = 1/2
        assert list(base1.t) == [(t + rot) % grid for t in base0.t]
        # pairwise gaps preserved
        gaps0 = [(base0.t[(i + 1) % 2] - base0.t[i]) % grid for i in range(2)]
        gaps1 = [(base1.t[(i + 1) % 2] - base1.t[i]) % grid for i in range(2)]
        assert gaps0 == gaps1

    def test_lengths_must_sum_to_one(self):
        with pytest.raises(ParameterizationError, match="sum to 1"):
            solve_parameters([6, 4], 12, [0, 0], d=2)  # 1/2 + 1/3


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
        c1_visits = faces(meyer_spec, 1).visits["c1"]
        assert sorted(frac(pullback.s[j], pullback.grid) for j in c1_visits) == ["17/24", "5/24"]

    def test_preimage_set_equality(self, meyer_result, jordan_result):
        for result in (meyer_result, jordan_result):
            d = result.spec.degree
            t_set = {Fraction(t, result.params.grid) for t in result.params.t}
            expected = {(t + m) / d for t in t_set for m in range(d)}
            assert {Fraction(s, result.pullback.grid) for s in result.pullback.s} == expected

    def test_forward_invariance(self, meyer_result, jordan_result):
        for result in (meyer_result, jordan_result):
            d = result.spec.degree
            grid = result.params.grid
            t_set = set(result.params.t)
            assert {d * t % grid for t in t_set} <= t_set

    def test_marked_visits_keep_parameters(self, meyer_spec, meyer_result):
        pullback = meyer_result.pullback
        for i, m in enumerate(meyer_spec.markers):
            params = meyer_result.params
            assert Fraction(pullback.s[m], pullback.grid) == Fraction(params.t[i], params.grid)

    def test_jordan_quarter_structure(self, jordan_result):
        assert jordan_result.pullback.grid == 8
        assert jordan_result.pullback.s == (0, 1, 2, 4, 5, 6)
        assert [frac(s, 8) for s in jordan_result.pullback.s] == [
            "0/1", "1/8", "1/4", "1/2", "5/8", "3/4",
        ]

    def test_misaligned_markers_rejected(self):
        # markers off the post points of gamma0's markers never reach the
        # parameters: parse refuses them
        raw = dict(meyer_raw(), markers=[2, 4, 5, 8, 10, 11])
        with pytest.raises(MapfileError) as err:
            parse(raw)
        assert err.value.exit_code == 2
        assert str(err.value) == "marker 0 points at 1-vertex 'p3' but gamma0 marks post point 'p2'"

    def test_deck_shift_of_markers_is_equivalent(self, meyer_spec, meyer_result):
        # shifting all markers by k selects the other lift branch, which is an
        # equally valid normalization of the pullback parameterization
        shifted = replaced(
            meyer_spec,
            markers=tuple((m + meyer_spec.k) % meyer_spec.n1 for m in meyer_spec.markers),
        )
        alt = pullback_parameters(meyer_result.params, shifted)
        params = meyer_result.params
        assert {Fraction(2 * s, alt.grid) % 1 for s in alt.s} == {
            Fraction(t, params.grid) for t in params.t
        }


def test_two_marker_toy_quarter_points():
    # the k=2 symmetric word lifts to the quarter points of the circle
    params = solve_parameters(*HALF, [0, 0], d=2)
    pullback = pullback_parameters(params, toy_spec())
    assert (pullback.grid, pullback.s) == (4, (0, 1, 2, 3))


def _as_fractions(params: MarkerParameters) -> FractionParameters:
    """The integer parameters read as the Fraction record of the oracle."""
    return FractionParameters(
        tuple(Fraction(t, params.grid) for t in params.t),
        params.image,
        tuple(Fraction(x, params.grid) for x in params.lengths),
        params.branch,
    )


def _outcome(f, *args):
    try:
        return f(*args)
    except ParameterizationError as exc:
        return str(exc)


class _Shape:
    """The fields of a MapSpec that `transition_matrix`, `solve_for_spec` and
    `pullback_parameters` read; the image labels read word0 d times."""

    def __init__(self, k: int, degree: int, markers: tuple[int, ...]):
        self.k, self.degree, self.n1, self.markers = k, degree, degree * k, markers
        self.word0 = tuple(Word0Entry(f"E{i}", "") for i in range(k))
        self.word1 = tuple(Word1Entry(f"E{j % k}", "") for j in range(degree * k))


@st.composite
def length_problems(draw):
    """Positive lengths over their sum, an image map, a degree, and marker
    positions m_i = image[i] + k*c_i on a word of d*k visits.

    Half the draws are random, so mostly inconsistent; the other half cut
    the circle at a forward-invariant set of angles x/n, which some branch
    parameterizes consistently.  None of them needs to be certified, so
    the matched visits may miss their markers."""
    d = draw(st.integers(min_value=2, max_value=4))
    if draw(st.booleans()):
        k = draw(st.integers(min_value=1, max_value=5))
        lengths = draw(st.lists(st.integers(min_value=1, max_value=6), min_size=k, max_size=k))
        image = draw(st.lists(st.integers(min_value=0, max_value=k - 1), min_size=k, max_size=k))
    else:
        n = draw(st.integers(min_value=1, max_value=40))
        cut = set()
        x = draw(st.integers(min_value=0, max_value=n - 1))
        while x not in cut:
            cut.add(x)
            x = d * x % n
        t = sorted(cut)
        k = len(t)
        lengths = [(t[(i + 1) % k] - t[i]) % n or n for i in range(k)]
        image = [t.index(d * x % n) for x in t]
    lifts = draw(st.lists(st.integers(min_value=0, max_value=d - 1), min_size=k, max_size=k))
    markers = tuple(image[i] + k * lifts[i] for i in range(k))
    return lengths, image, d, _Shape(k, d, markers)


class TestFractionOracle:
    """Parameters on integer grids against the Fraction code they replaced."""

    def _check(self, lengths, total, image, d, base, branch, spec):
        """Compare with the oracle wherever it accepts.  It keeps the
        consistency checks that certified lengths make redundant, so on
        uncertified lengths it may refuse what the code computes."""
        got = solve_parameters(lengths, total, image, d, base, branch)
        want = _outcome(
            solve_parameters_by_fractions, [Fraction(x, total) for x in lengths], image, d, base, branch
        )
        if isinstance(want, str):
            assert want.startswith("parameterization inconsistent: q_d(")
            return
        assert _as_fractions(got) == want
        assert got.grid == total * (d - 1)
        pullback = pullback_parameters(got, spec)
        oracle = _outcome(pullback_parameters_by_fractions, want, spec)
        if isinstance(oracle, str):
            assert oracle.startswith("parameterization inconsistent: matched visit")
            return
        assert pullback == oracle
        # every visit maps onto its marker: d*s[j] = d*t[j mod k] on d*grid
        fine, k = d * got.grid, len(lengths)
        s = [x * (fine // pullback.grid) for x in pullback.s]
        assert all(d * x % fine == d * got.t[j % k] for j, x in enumerate(s))

    @given(length_problems())
    def test_random_lengths_every_base_and_branch(self, problem):
        lengths, image, d, shape = problem
        for base in range(len(lengths)):
            for branch in range(d - 1):
                self._check(lengths, sum(lengths), image, d, base, branch, shape)

    @pytest.mark.parametrize("name", ["meyer", "jordan"])
    def test_fixtures_under_flip_and_deck_shift(self, name, meyer_spec, jordan_spec):
        base_spec = meyer_spec if name == "meyer" else jordan_spec
        for flip in (False, True):
            spec = base_spec
            if flip:
                side = "right" if spec.white_anchor[1] == "left" else "left"
                spec = replaced(spec, white_anchor=(spec.white_anchor[0], side))
            lv = certify_perron(transition_matrix(spec), spec.degree)
            image = marker_images(spec)
            angles = set(pullback_parameters(solve_for_spec(spec, lv), spec).s)
            for shift in range(spec.degree):
                shifted = replaced(
                    spec,
                    markers=tuple((m + shift * spec.k) % spec.n1 for m in spec.markers)
                )
                for base in range(spec.k):
                    for branch in range(spec.degree - 1):
                        self._check(
                            lv.eigenvector, lv.total, image, spec.degree, base, branch, shifted
                        )
                # another lift branch visits the same preimage angles
                assert set(pullback_parameters(solve_for_spec(spec, lv), shifted).s) == angles


@st.composite
def certified_shapes(draw):
    """A degree d, k strictly increasing markers on a word of d*k visits
    whose image labels read word0 d times, and the Perron certificate of
    its transition matrix; draws that do not certify are rejected."""
    d = draw(st.integers(min_value=2, max_value=4))
    k = draw(st.integers(min_value=1, max_value=6))
    markers = tuple(sorted(draw(st.sets(st.integers(0, d * k - 1), min_size=k, max_size=k))))
    shape = _Shape(k, d, markers)
    try:
        lengths = certify_perron(transition_matrix(shape), d)
    except SpectralError:
        assume(False)
    return shape, lengths


@given(certified_shapes())
def test_certified_lengths_make_parameters_consistent(problem):
    """A v = d v alone makes the markers fully invariant and puts each
    matched visit on its marker, for every base and branch; the Fraction
    oracle, which still checks both, agrees."""
    shape, lengths = problem
    d, image = shape.degree, marker_images(shape)
    for base in range(shape.k):
        for branch in range(d - 1):
            params = solve_for_spec(shape, lengths, base, branch)
            grid, t = params.grid, params.t
            assert all(d * t[i] % grid == t[image[i]] for i in range(shape.k))
            pullback = pullback_parameters(params, shape)
            fine = d * grid
            s = [x * (fine // pullback.grid) for x in pullback.s]
            assert all(s[m] == d * t[i] for i, m in enumerate(shape.markers))
            want = solve_parameters_by_fractions(
                [Fraction(x, lengths.total) for x in lengths.eigenvector], image, d, base, branch
            )
            assert _as_fractions(params) == want
            assert pullback == pullback_parameters_by_fractions(want, shape)


def test_meyer_marker_lists_reach_no_parameterization_error():
    """Every 6-marker list on the Meyer fixture's 12 visits: parse refuses
    all but the fixture's own and one other, and those two run the whole
    pipeline without a parameterization error."""
    accepted = []
    for markers in combinations(range(12), 6):
        try:
            spec = parse(dict(meyer_raw(), markers=list(markers)))
        except MapfileError:
            continue
        accepted.append(markers)
        run_pipeline(spec, depth=1)
    assert accepted == [(1, 2, 4, 5, 8, 10), (1, 2, 4, 7, 8, 10)]
