"""Whole-pipeline orchestration and JSON shaping.

Stages run in order: validate, transition matrix and Perron certificate,
marker parameters, pullback parameters, critical vertices and portraits,
laminations.  All rationals serialize as "p/q" strings; nothing downstream
inherits rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import laminations as lam
from . import mapspec, parameterize, portraits, spectral
from .circle import Angle
from .errors import LaminationError, PortraitError
from .mapspec import BLACK, WHITE, MapSpec


def frac_str(x) -> str:
    f = x.value if isinstance(x, Angle) else Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def matrix_json(matrix: spectral.TransitionMatrix, lengths: spectral.LengthVector) -> dict:
    return {
        "matrix": [list(row) for row in matrix.entries],
        "eigenvector": [frac_str(Fraction(x)) for x in lengths.eigenvector],
        "lengths": [frac_str(l) for l in lengths.lengths],
    }


def parameters_json(
    spec: MapSpec,
    params: parameterize.MarkerParameters,
    pullback: parameterize.PullbackParameters,
    branch: int,
) -> dict:
    # one label per marker: post name tagged with the marker index
    labels = [f"{spec.marker_post(i)}#{i}" for i in range(spec.k)]
    return {
        "t": {label: frac_str(t) for label, t in zip(labels, params.t)},
        "s": [frac_str(s) for s in pullback.s],
        "branch": branch,
    }


@dataclass
class PipelineResult:
    spec: MapSpec
    report: mapspec.ValidationReport
    matrix: spectral.TransitionMatrix
    lengths: spectral.LengthVector
    params: parameterize.MarkerParameters
    pullback: parameterize.PullbackParameters
    criticals: list[mapspec.CriticalVertex]
    white: portraits.CriticalPortrait
    black: portraits.CriticalPortrait
    depth1_white: lam.AngleClasses
    depth1_black: lam.AngleClasses
    lamination_white: lam.AngleClasses
    lamination_black: lam.AngleClasses
    lamination_join: lam.AngleClasses
    moore: dict
    depth: int
    branch: int

    def portrait_json(self, portrait: portraits.CriticalPortrait) -> dict:
        return {
            "sets": [[frac_str(a) for a in s.angles] for s in portrait.sets],
            "certificate": portrait.certificate,
        }

    def lamination_json(self, classes: lam.AngleClasses) -> dict:
        return {
            "depth": classes.depth,
            "classes": [[frac_str(a) for a in c] for c in classes.classes],
        }

    def to_json(self) -> dict:
        return {
            "validation": self.report.to_json(),
            "matrix": matrix_json(self.matrix, self.lengths),
            "parameters": parameters_json(self.spec, self.params, self.pullback, self.branch),
            "criticals": [
                {
                    "vertex": cv.vertex,
                    "local_degree": cv.local_degree,
                    "colors": list(cv.colors),
                    "parameters": [frac_str(self.pullback.s[j]) for j in cv.visits],
                }
                for cv in self.criticals
            ],
            "white": self.portrait_json(self.white),
            "black": self.portrait_json(self.black),
            "laminations": {
                "white": self.lamination_json(self.lamination_white),
                "black": self.lamination_json(self.lamination_black),
                "join": self.lamination_json(self.lamination_join),
                "moore": self.moore,
            },
        }


def certified_lengths(
    spec: MapSpec,
) -> tuple[mapspec.ValidationReport, spectral.TransitionMatrix, spectral.LengthVector]:
    """Validate, build the transition matrix and certify its Perron vector."""
    report = mapspec.validate_or_raise(spec)
    matrix = spectral.transition_matrix(spec)
    return report, matrix, spectral.certify_perron(matrix, spec.degree)


def marker_parameters(
    spec: MapSpec, lengths: spectral.LengthVector, branch: int
) -> tuple[parameterize.MarkerParameters, parameterize.PullbackParameters]:
    """Circle parameters of the markers and of every pullback position."""
    params = parameterize.solve_for_spec(spec, lengths, base=0, branch=branch)
    return params, parameterize.pullback_parameters(params, spec)


def run_pipeline(spec: MapSpec, branch: int = 0, depth: int = 3) -> PipelineResult:
    """Run every stage on a parsed spec; raises the stage's error type."""
    report, matrix, lengths = certified_lengths(spec)
    params, pullback = marker_parameters(spec, lengths, branch)

    criticals = mapspec.critical_vertices(spec, report.levels[1])
    white, black = portraits.extract_portraits(spec, pullback, criticals)
    portraits.certify_portrait(white, spec.degree)
    portraits.certify_portrait(black, spec.degree)

    d1w, d1b = lam.depth1(pullback, criticals)

    # cross-stage consistency: depth-1 classes are exactly the portrait sets
    if {frozenset(c) for c in d1w.classes} != {frozenset(s.angles) for s in white.sets}:
        raise LaminationError("depth-1 white classes disagree with the white portrait")
    if {frozenset(c) for c in d1b.classes} != {frozenset(s.angles) for s in black.sets}:
        raise LaminationError("depth-1 black classes disagree with the black portrait")
    s_set = set(pullback.s)
    for p in (white, black):
        for ps in p.sets:
            if not set(ps.angles) <= s_set:
                raise PortraitError("portrait angles escape the pullback parameters")

    lam_w = lam.pullback_to_depth(d1w, white, spec.degree, depth) if depth > 1 else d1w
    lam_b = lam.pullback_to_depth(d1b, black, spec.degree, depth) if depth > 1 else d1b
    joined = lam.join(lam_w, lam_b)
    moore = lam.moore_check(joined)

    return PipelineResult(
        spec=spec,
        report=report,
        matrix=matrix,
        lengths=lengths,
        params=params,
        pullback=pullback,
        criticals=criticals,
        white=white,
        black=black,
        depth1_white=d1w,
        depth1_black=d1b,
        lamination_white=lam_w,
        lamination_black=lam_b,
        lamination_join=joined,
        moore=moore,
        depth=depth,
        branch=branch,
    )


def lamination_for_side(result: PipelineResult, side: str) -> lam.AngleClasses:
    if side in ("w", WHITE):
        return result.lamination_white
    if side in ("b", BLACK):
        return result.lamination_black
    return result.lamination_join
