from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from unmating.circle import frac
from unmating.errors import SpectralError
from unmating.spectral import (
    TransitionMatrix,
    _rational_nullspace,
    certify_perron,
    deformation_words,
    transition_matrix,
)

from .conftest import toy_raw
from .oracles import (
    certify_perron_by_fractions,
    nullspace_by_fractions,
    power_iteration,
    primitive_integers,
)

MEYER_MATRIX = [
    [0, 1, 0, 0, 0, 0],
    [0, 0, 1, 1, 0, 0],
    [0, 0, 0, 0, 1, 0],
    [1, 1, 0, 0, 0, 1],
    [0, 0, 1, 1, 0, 0],
    [1, 0, 0, 0, 1, 1],
]


def tm(rows) -> TransitionMatrix:
    return TransitionMatrix(entries=tuple(tuple(r) for r in rows))


class TestDeformationWords:
    def test_meyer_blocks(self, meyer_spec):
        words = deformation_words(meyer_spec)
        assert words == [[1], [2, 3], [4], [5, 6, 7], [8, 9], [10, 11, 0]]

    def test_partition(self, meyer_spec, jordan_spec):
        for spec in (meyer_spec, jordan_spec):
            words = deformation_words(spec)
            flat = [p for w in words for p in w]
            assert sorted(flat) == list(range(spec.n1))
            # concatenation is a cyclic rotation of word1
            start = words[0][0]
            assert flat == [(start + i) % spec.n1 for i in range(spec.n1)]

    def test_e6_word_content(self, meyer_spec):
        words = deformation_words(meyer_spec)
        labels = {meyer_spec.word1[p].image_edge for p in words[5]}
        assert labels == {"E1", "E5", "E6"}


class TestTransitionMatrix:
    def test_meyer_matrix(self, meyer_spec):
        matrix = transition_matrix(meyer_spec)
        assert [list(r) for r in matrix.entries] == MEYER_MATRIX

    def test_column_sums_equal_degree(self, meyer_spec, jordan_spec):
        for spec in (meyer_spec, jordan_spec):
            rows = transition_matrix(spec).entries
            assert [sum(row[j] for row in rows) for j in range(spec.k)] == [spec.degree] * spec.k

    def test_jordan_matrix(self, jordan_spec):
        matrix = transition_matrix(jordan_spec)
        assert [list(r) for r in matrix.entries] == [[1, 1, 0], [0, 0, 1], [1, 1, 1]]

    def test_two_marker_toy(self):
        # the smallest symmetric word: each edge deforms across both edges once;
        # no degree-2 map realizes it (Riemann-Hurwitz), so it parses and feeds
        # the matrix operations but must not validate
        from unmating.mapspec import parse, validate

        toy = parse(toy_raw())
        words = deformation_words(toy)
        assert [[toy.word1[p].image_edge for p in w] for w in words] == [
            ["E1", "E2"],
            ["E1", "E2"],
        ]
        matrix = transition_matrix(toy)
        assert [list(r) for r in matrix.entries] == [[1, 1], [1, 1]]
        report = validate(toy)
        assert "Riemann-Hurwitz violated" in [f.check for f in report.findings]


class TestCertifyPerron:
    def test_meyer_eigenvector(self):
        lv = certify_perron(tm(MEYER_MATRIX), 2)
        assert lv.eigenvector == (1, 2, 1, 3, 2, 3)
        assert [frac(x, lv.total) for x in lv.eigenvector] == [
            "1/12", "1/6", "1/12", "1/4", "1/6", "1/4",
        ]

    def test_symmetric_two_by_two(self):
        lv = certify_perron(tm([[1, 1], [1, 1]]), 2)
        assert [frac(x, lv.total) for x in lv.eigenvector] == ["1/2", "1/2"]

    def test_non_unit_pivot_rescales(self):
        # A - 2I = [[0, 0], [3, -2]]: back-substitution divides by the pivot 3,
        # so the integer path must scale the vector before it can divide
        lv = certify_perron(tm([[2, 0], [3, 0]]), 2)
        assert (lv.eigenvector, lv.total) == ((2, 3), 5)
        assert [frac(x, lv.total) for x in lv.eigenvector] == ["2/5", "3/5"]

    def test_wrong_degree_is_not_eigenvalue(self):
        with pytest.raises(SpectralError, match="not an eigenvalue"):
            certify_perron(tm(MEYER_MATRIX), 3)

    def test_no_positive_representative(self):
        # 2 is an eigenvalue with mixed-sign eigenvector (2, -1)
        with pytest.raises(SpectralError, match="Perron certification failed"):
            certify_perron(tm([[3, 2], [-1, 0]]), 2)

    def test_exact_eigen_relation(self, meyer_spec):
        matrix = transition_matrix(meyer_spec)
        lv = certify_perron(matrix, 2)
        n = matrix.size
        for i in range(n):
            assert sum(matrix.entries[i][j] * lv.eigenvector[j] for j in range(n)) == 2 * lv.eigenvector[i]
        assert sum(lv.eigenvector) == lv.total

    def test_reducible_with_positive_vector_accepted(self):
        # block diagonal, both blocks carry eigenvalue 2 with positive vectors;
        # nullspace is 2-dimensional, so certification must refuse
        m = [[2, 0], [0, 2]]
        with pytest.raises(SpectralError, match="nullspace dimension"):
            certify_perron(tm(m), 2)

    @given(st.integers(min_value=2, max_value=5))
    def test_uniform_matrix(self, d):
        m = [[1] * d for _ in range(d)]
        lv = certify_perron(tm(m), d)
        assert [frac(x, lv.total) for x in lv.eigenvector] == [f"1/{d}"] * d


class TestPowerIterationOracle:
    def test_matches_exact_lengths(self, meyer_result, jordan_result):
        for result in (meyer_result, jordan_result):
            approx = power_iteration([list(r) for r in result.matrix.entries])
            exact = np.array([x / result.lengths.total for x in result.lengths.eigenvector])
            assert np.max(np.abs(approx - exact)) < 1e-9


@st.composite
def eigen_problems(draw):
    """(A, d) with n <= 6 and d in 2-4: A - dI is a random integer matrix, a
    random low-rank product, or has rows orthogonal to a random integer
    vector, so every outcome of the certificate comes up."""
    n = draw(st.integers(min_value=1, max_value=6))
    d = draw(st.integers(min_value=2, max_value=4))
    small = st.integers(min_value=-3, max_value=3)
    kind = draw(st.sampled_from(["random", "low-rank", "eigenvector"]))
    if kind == "random":
        m = [[draw(small) for _ in range(n)] for _ in range(n)]
    elif kind == "low-rank":
        r = draw(st.integers(min_value=0, max_value=n))
        u = [[draw(small) for _ in range(r)] for _ in range(n)]
        w = [[draw(small) for _ in range(n)] for _ in range(r)]
        m = [[sum(u[i][q] * w[q][j] for q in range(r)) for j in range(n)] for i in range(n)]
    else:
        # rows orthogonal to v, solved through a coordinate where v is 1
        v = [draw(st.integers(min_value=-2, max_value=5)) for _ in range(n)]
        j0 = draw(st.integers(min_value=0, max_value=n - 1))
        v[j0] = 1
        m = []
        for _ in range(n):
            row = [draw(small) for _ in range(n)]
            row[j0] = -sum(row[j] * v[j] for j in range(n) if j != j0)
            m.append(row)
    return [[m[i][j] + (d if i == j else 0) for j in range(n)] for i in range(n)], d


def _outcome(certify, matrix, d):
    try:
        return certify(matrix, d)
    except SpectralError as exc:
        return str(exc)


class TestFractionOracle:
    """The integer back-substitution against the Fraction one it replaced."""

    # A - 2I = [[0, 0], [3, -2]]: a back-substitution pivot that is not +-1
    @given(eigen_problems())
    @example(([[2, 0], [3, 0]], 2))
    def test_nullspace_matches(self, problem):
        a, d = problem
        n = len(a)
        m = [[a[i][j] - (d if i == j else 0) for j in range(n)] for i in range(n)]
        assert _rational_nullspace(m) == [primitive_integers(v) for v in nullspace_by_fractions(m)]

    @given(eigen_problems())
    @example(([[2, 0], [3, 0]], 2))
    def test_certificate_matches(self, problem):
        a, d = problem
        got = _outcome(certify_perron, tm(a), d)
        want = _outcome(certify_perron_by_fractions, tm(a), d)
        if isinstance(want, str):
            assert got == want
        else:
            assert (got.eigenvector, tuple(Fraction(x, got.total) for x in got.eigenvector)) == want

    def test_fixtures_match(self, meyer_spec, jordan_spec):
        for spec in (meyer_spec, jordan_spec):
            matrix = transition_matrix(spec)
            lv = certify_perron(matrix, spec.degree)
            eigenvector, lengths = certify_perron_by_fractions(matrix, spec.degree)
            assert lv.eigenvector == eigenvector
            assert tuple(Fraction(x, lv.total) for x in lv.eigenvector) == lengths
