"""Solve for the circle parameters of the marked postcritical visits.

Marker i sits at the start of 0-edge i, so consecutive parameters differ by
the certified interval lengths.  The parameter of the base marker comes from
equating the two routes to its image parameter: multiplying by the degree,
or walking the intervening arc.  The pullback curve inherits parameters by
lifting: matched visits keep their gamma0 parameter and successive visits
advance by the lengths scaled down by the degree.  Every value is an integer
on a named grid: the lengths on the eigenvector's sum `total`, the marker
parameters on total*(d - 1), and the pullback parameters on their least
common grid, which every later stage reads.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple, Sequence

from .circle import arc_sum, frac
from .errors import ParameterizationError
from .mapspec import MapSpec
from .spectral import LengthVector


class MarkerParameters(NamedTuple):
    grid: int
    t: tuple[int, ...]  # marker i at the angle t[i]/grid, 0 <= t[i] < grid
    image: tuple[int, ...]
    lengths: tuple[int, ...]  # interval i has length lengths[i]/grid
    degree: int
    branch: int


class PullbackParameters(NamedTuple):
    """The parameter of word position j is the angle s[j]/grid, grid being
    the least common denominator of all of them."""

    grid: int
    s: tuple[int, ...]


def marker_images(spec: MapSpec) -> list[int]:
    """image[i] = index of the marker at f(marker i), via the marker matching."""
    return [m % spec.k for m in spec.markers]


def solve_parameters(
    lengths: Sequence[int],
    total: int,
    image: Sequence[int],
    d: int,
    base: int = 0,
    branch: int = 0,
) -> MarkerParameters:
    """Find all marker parameters from the lengths and the image map.

    Interval i has length lengths[i]/total.  With L/total the arc from
    `base` to its image marker, d*t = t + L/total mod 1 gives
    t = (L + branch*total)/(total*(d - 1)): the parameters live on the grid
    total*(d - 1), and the remaining markers follow by adding lengths.
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
    if sum(lengths) != total:
        raise ParameterizationError(f"lengths must sum to 1, got {frac(sum(lengths), total)}")

    grid = total * (d - 1)
    steps = [x * (d - 1) for x in lengths]
    t = [0] * k
    t[base] = (arc_sum(lengths, base, image[base]) + branch * total) % grid
    for step in range(1, k):
        i = (base + step) % k
        prev = (base + step - 1) % k
        t[i] = (t[prev] + steps[prev]) % grid

    for i in range(k):
        got, want = d * t[i] % grid, t[image[i]]
        if got != want:
            raise ParameterizationError(
                f"parameterization inconsistent: q_d(t[{i}]) = {frac(got, grid)} "
                f"but t[image[{i}]] = {frac(want, grid)}"
            )
    return MarkerParameters(
        grid=grid, t=tuple(t), image=tuple(image), lengths=tuple(steps), degree=d, branch=branch
    )


def solve_for_spec(
    spec: MapSpec, lengths: LengthVector, base: int = 0, branch: int = 0
) -> MarkerParameters:
    return solve_parameters(
        lengths.eigenvector, lengths.total, marker_images(spec), spec.degree, base, branch
    )


def pullback_parameters(params: MarkerParameters, spec: MapSpec) -> PullbackParameters:
    """Parameters of all gamma1 word positions, anchored at the first marker.

    The visit matched to gamma0 marker 0 keeps the parameter t[0]; successive
    visits advance by length/degree.  Matched positions must land exactly on
    the marker parameters, or the file's marker data does not describe a lift
    of the parameterized curve.  The walk runs on d times the marker grid,
    where length/degree is a whole step; one gcd then reduces the result to
    the least common grid.
    """
    k, d, n1 = spec.k, spec.degree, spec.n1
    grid = params.grid
    fine = d * grid
    t, lengths = params.t, params.lengths
    m0 = spec.markers[0]

    cum = [0] * (n1 + 1)
    for j in range(n1):
        cum[j + 1] = cum[j] + lengths[j % k]

    start = d * t[0] - cum[m0]
    s = [(start + cum[j]) % fine for j in range(n1)]
    for i, m in enumerate(spec.markers):
        if s[m] != d * t[i]:
            raise ParameterizationError(
                f"parameterization inconsistent: matched visit {m} carries "
                f"{frac(s[m], fine)}, marker {i} has {frac(t[i], grid)}"
            )
    g = gcd(fine, *s)
    return PullbackParameters(grid=fine // g, s=tuple(x // g for x in s))
