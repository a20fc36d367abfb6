"""Solve for the circle parameters of the marked postcritical visits.

Marker i sits at the start of 0-edge i, so consecutive parameters differ by
the certified interval lengths.  The parameter of the base marker comes from
equating the two routes to its image parameter: multiplying by the degree,
or walking the intervening arc.  The pullback curve inherits parameters by
lifting: matched visits keep their gamma0 parameter and successive visits
advance by the lengths scaled down by the degree.  The pullback parameters
are where the rationals end: every later stage reads them as integers on
their least common grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .circle import arc_sum, frac
from .errors import ParameterizationError
from .mapspec import MapSpec
from .spectral import LengthVector


@dataclass(frozen=True)
class MarkerParameters:
    t: tuple[Fraction, ...]  # each in [0, 1)
    image: tuple[int, ...]
    lengths: tuple[Fraction, ...]
    degree: int
    branch: int


@dataclass(frozen=True)
class PullbackParameters:
    """The parameter of word position j is the angle s[j]/grid, grid being
    the least common denominator of all of them."""

    grid: int
    s: tuple[int, ...]


def marker_images(spec: MapSpec) -> list[int]:
    """image[i] = index of the marker at f(marker i), via the marker matching."""
    return [m % spec.k for m in spec.markers]


def solve_parameters(
    lengths: Sequence[Fraction],
    image: Sequence[int],
    d: int,
    base: int = 0,
    branch: int = 0,
) -> MarkerParameters:
    """Find all marker parameters from the lengths and the image map.

    With L the arc from `base` to its image marker, d*t = t + L mod 1 gives
    t = (L + branch)/(d - 1); the remaining markers follow by adding lengths.
    Every marker must then satisfy q_d(t[i]) = t[image[i]], which witnesses
    full invariance of the parameterized curve.
    """
    k = len(lengths)
    if len(image) != k:
        raise ParameterizationError(f"expected {k} marker images, got {len(image)}")
    if not 0 <= branch < d - 1:
        raise ParameterizationError(f"branch must satisfy 0 <= branch < d-1 = {d - 1}")
    if not 0 <= base < k:
        raise ParameterizationError(f"base marker {base} out of range")
    total = sum(lengths, Fraction(0))
    if total != 1:
        raise ParameterizationError(f"lengths must sum to 1, got {total}")

    big_l = arc_sum(lengths, base, image[base])
    t = [Fraction(0)] * k
    t[base] = Fraction(big_l + branch, d - 1) % 1
    for step in range(1, k):
        i = (base + step) % k
        prev = (base + step - 1) % k
        t[i] = (t[prev] + lengths[prev]) % 1

    for i in range(k):
        got, want = d * t[i] % 1, t[image[i]]
        if got != want:
            raise ParameterizationError(
                f"parameterization inconsistent: q_d(t[{i}]) = {frac(*got.as_integer_ratio())} "
                f"but t[image[{i}]] = {frac(*want.as_integer_ratio())}"
            )
    return MarkerParameters(
        t=tuple(t), image=tuple(image), lengths=tuple(lengths), degree=d, branch=branch
    )


def solve_for_spec(
    spec: MapSpec, lengths: LengthVector, base: int = 0, branch: int = 0
) -> MarkerParameters:
    return solve_parameters(lengths.lengths, marker_images(spec), spec.degree, base, branch)


def pullback_parameters(params: MarkerParameters, spec: MapSpec) -> PullbackParameters:
    """Parameters of all gamma1 word positions, anchored at the first marker.

    The visit matched to gamma0 marker 0 keeps the parameter t[0]; successive
    visits advance by length/degree.  Matched positions must land exactly on
    the marker parameters, or the file's marker data does not describe a lift
    of the parameterized curve.  This is the one place where rationals become
    grid angles.
    """
    k, d, n1 = spec.k, spec.degree, spec.n1
    lengths = params.lengths
    m0 = spec.markers[0]

    cum = [Fraction(0)] * (n1 + 1)
    for j in range(n1):
        cum[j + 1] = cum[j] + lengths[j % k]

    s = [(params.t[0] + (cum[j] - cum[m0]) / d) % 1 for j in range(n1)]
    for i, m in enumerate(spec.markers):
        if s[m] != params.t[i]:
            raise ParameterizationError(
                f"parameterization inconsistent: matched visit {m} carries "
                f"{frac(*s[m].as_integer_ratio())}, marker {i} has {frac(*params.t[i].as_integer_ratio())}"
            )
    for j in range(n1):
        if d * s[j] % 1 != params.t[j % k]:
            raise ParameterizationError(
                f"parameterization inconsistent: q_d(s[{j}]) != t[{j % k}]"
            )
    grid = lcm(*(x.denominator for x in s))
    return PullbackParameters(grid=grid, s=tuple(x.numerator * (grid // x.denominator) for x in s))
