"""Whole-pipeline orchestration and JSON shaping.

Stages run in order: validate, transition matrix and Perron certificate,
marker parameters, pullback parameters, critical vertices and portraits,
laminations.  Every rational is an integer on a named grid and serializes
as a reduced "p/q" string through `circle.frac`; nothing downstream
inherits rounding.
"""

from __future__ import annotations

from . import laminations as lam
from . import mapspec, parameterize, portraits, spectral
from .circle import frac
from .errors import LaminationError, PortraitError
from .mapspec import MapSpec


def matrix_json(matrix: spectral.TransitionMatrix, lengths: spectral.LengthVector) -> dict:
    return {
        "matrix": [list(row) for row in matrix.entries],
        "eigenvector": [frac(x, 1) for x in lengths.eigenvector],
        "lengths": [frac(x, lengths.total) for x in lengths.eigenvector],
    }


def parameters_json(
    spec: MapSpec, params: parameterize.MarkerParameters, pullback: parameterize.PullbackParameters
) -> dict:
    # one label per marker: post name tagged with the marker index
    labels = [f"{spec.marker_post(i)}#{i}" for i in range(spec.k)]
    return {
        "t": {label: frac(t, params.grid) for label, t in zip(labels, params.t)},
        "s": [frac(s, pullback.grid) for s in pullback.s],
        "branch": params.branch,
    }


class PipelineResult:
    __slots__ = (
        "spec", "report", "matrix", "lengths", "params", "pullback", "criticals", "white", "black",
        "depth1_white", "depth1_black", "lamination_white", "lamination_black", "lamination_join",
        "moore", "texts",
    )

    def __init__(
        self,
        spec: MapSpec,
        report: mapspec.ValidationReport,
        matrix: spectral.TransitionMatrix,
        lengths: spectral.LengthVector,
        params: parameterize.MarkerParameters,
        pullback: parameterize.PullbackParameters,
        criticals: list[mapspec.CriticalVertex],
        white: portraits.CriticalPortrait,
        black: portraits.CriticalPortrait,
        depth1_white: lam.AngleClasses,
        depth1_black: lam.AngleClasses,
        lamination_white: lam.AngleClasses,
        lamination_black: lam.AngleClasses,
        lamination_join: lam.AngleClasses,
        moore: dict,
        texts: dict,
    ):
        self.spec = spec
        self.report = report
        self.matrix = matrix
        self.lengths = lengths
        self.params = params
        self.pullback = pullback
        self.criticals = criticals
        self.white = white
        self.black = black
        self.depth1_white = depth1_white
        self.depth1_black = depth1_black
        self.lamination_white = lamination_white
        self.lamination_black = lamination_black
        self.lamination_join = lamination_join
        self.moore = moore
        self.texts = texts  # the run's table for `AngleClasses.text`

    def portrait_json(self, portrait: portraits.CriticalPortrait) -> dict:
        return {
            "sets": [[frac(a, portrait.grid) for a in s.angles] for s in portrait.sets],
            "certificate": portrait.certificate,
        }

    def lamination_json(self, classes: lam.AngleClasses) -> dict:
        return {
            "depth": classes.depth,
            "classes": classes.text(self.texts),
        }

    def to_json(self) -> dict:
        return {
            "validation": self.report.to_json(),
            "matrix": matrix_json(self.matrix, self.lengths),
            "parameters": parameters_json(self.spec, self.params, self.pullback),
            "criticals": [
                {
                    "vertex": cv.vertex,
                    "local_degree": cv.local_degree,
                    "colors": list(cv.colors),
                    "parameters": [frac(self.pullback.s[j], self.pullback.grid) for j in cv.visits],
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

    criticals = mapspec.critical_vertices(spec, report.levels[0], report.levels[1])
    white, black = portraits.extract_portraits(spec, pullback, criticals)
    for portrait in (white, black):
        cert = portraits.certify_portrait(portrait, spec.degree).certificate
        if not cert["valid"]:
            failed = "; ".join(
                f"{name} ({c['detail']})"
                for name, c in cert.items()
                if name != "valid" and not c["passed"]
            )
            raise PortraitError(f"{portrait.color} portrait certificate failed: {failed}")

    connections = report.levels[1].connections
    d1w, d1b = lam.depth1(pullback, [c for cv in criticals for c in connections[cv.vertex]])

    # cross-stage consistency: depth-1 classes are exactly the portrait sets
    for classes, portrait in ((d1w, white), (d1b, black)):
        if set(classes.classes) != {s.angles for s in portrait.sets}:
            raise LaminationError(
                f"depth-1 {portrait.color} classes disagree with the {portrait.color} portrait"
            )

    lam_w = lam.pullback_to_depth(d1w, white, spec.degree, depth)
    lam_b = lam.pullback_to_depth(d1b, black, spec.degree, depth)
    joined = lam.join(lam_w, lam_b)
    texts: dict = {}  # each class spelled once, for the Moore report and the JSON sections
    moore = lam.moore_check(joined, texts)

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
        texts=texts,
    )


def lamination_for_side(result: PipelineResult, side: str) -> lam.AngleClasses:
    """The classes of one --side choice: "w", "b" or "join"."""
    if side == "w":
        return result.lamination_white
    if side == "b":
        return result.lamination_black
    return result.lamination_join
