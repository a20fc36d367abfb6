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

Both functions take lengths certified for a validated spec: the v with
A v = d v that `spectral.certify_perron` returns.  Full invariance of the
parameterized curve follows, and is not checked again.  Let C(a -> b) be
the arc from marker a to marker b, and W(a -> b) the length of word1 from
matched visit m_a to m_b (position j has length lengths[j mod k]).  Block
i of word1 has length (A v)_i = d*v_i, so W(a -> b) = d*C(a -> b); and as
m_i = image[i] mod k, W(a -> b) = C(image[a] -> image[b]) mod 1.  So
d*t[i] = d*t[base] + W(base -> i) = t[image[base]] + C(image[base] ->
image[i]) = t[image[i]] mod 1, and the pullback walk puts m_i at
t[0] + W(0 -> i)/d = t[i].
"""

from __future__ import annotations

from collections.abc import Sequence
from math import gcd

from .circle import arc_sum, frac
from .errors import ParameterizationError
from .mapspec import MapSpec, Record, set_field
from .spectral import LengthVector


class MarkerParameters(Record):
    __slots__ = ("grid", "t", "image", "lengths", "branch")

    def __init__(
        self, grid: int, t: tuple[int, ...], image: tuple[int, ...], lengths: tuple[int, ...], branch: int
    ):
        set_field(self, "grid", grid)
        set_field(self, "t", t)  # marker i at the angle t[i]/grid, 0 <= t[i] < grid
        set_field(self, "image", image)
        set_field(self, "lengths", lengths)  # interval i has length lengths[i]/grid
        set_field(self, "branch", branch)


class PullbackParameters(Record):
    """The parameter of word position j is the angle s[j]/grid, grid being
    the least common denominator of all of them."""

    __slots__ = ("grid", "s")

    def __init__(self, grid: int, s: tuple[int, ...]):
        set_field(self, "grid", grid)
        set_field(self, "s", s)


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

    With certified lengths every marker satisfies q_d(t[i]) = t[image[i]]
    (module docstring), so only the arguments are checked.
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
    return MarkerParameters(
        grid=grid, t=tuple(t), image=tuple(image), lengths=tuple(steps), branch=branch
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
    visits advance by length/degree.  With certified lengths each matched
    visit lands on its marker's parameter (module docstring).  The walk runs
    on d times the marker grid, where length/degree is a whole step; one gcd
    then reduces the result to the least common grid.
    """
    k, d, n1 = spec.k, spec.degree, spec.n1
    fine = d * params.grid
    lengths = params.lengths
    m0 = spec.markers[0]

    cum = [0] * (n1 + 1)
    for j in range(n1):
        cum[j + 1] = cum[j] + lengths[j % k]

    start = d * params.t[0] - cum[m0]
    s = [(start + cum[j]) % fine for j in range(n1)]
    g = gcd(fine, *s)
    return PullbackParameters(grid=fine // g, s=tuple(x // g for x in s))
