"""Solve for the circle parameters of the marked postcritical visits.

Marker i sits at the start of 0-edge i, so consecutive parameters differ by
the certified interval lengths.  The parameter of marker 0 comes from
equating the two routes to its image parameter: multiplying by the degree,
or walking the intervening arc.  The pullback curve inherits parameters by
lifting: matched visits keep their gamma0 parameter and successive visits
advance by the lengths scaled down by the degree.  Every value is an integer
on a named grid: the lengths on the eigenvector's sum `total`, the marker
parameters on total*(d - 1), and the pullback parameters on their least
common grid, which every later stage reads.

Both functions take lengths certified for a validated spec: the v with
A v = d v that `spectral.certify_perron` returns, so the lengths are
positive and sum to `total`.  `marker_images` gives one image per marker,
and the caller passes 0 <= branch < d - 1 (`cli._check_branch` refuses
any other).  Nothing of this is checked again, nor is full invariance of
the parameterized curve, which follows.  Let C(a -> b) be the arc from
marker a to marker b, and W(a -> b) the length of word1 from matched visit
m_a to m_b (position j has length lengths[j mod k]).  Block i of word1 has
length (A v)_i = d*v_i, so W(a -> b) = d*C(a -> b); and as m_i = image[i]
mod k, W(a -> b) = C(image[a] -> image[b]) mod 1.  So d*t[i] = d*t[0] +
W(0 -> i) = t[image[0]] + C(image[0] -> image[i]) = t[image[i]] mod 1, and
the pullback walk puts m_i at t[0] + W(0 -> i)/d = t[i].

Solving at marker 0 loses nothing.  Solving at marker b gives the d - 1
parameter lists whose consecutive differences are the lengths and whose
t[b] satisfies d*t[b] = t[image[b]].  Each of the d - 1 lists solved at
marker 0 is fully invariant, so it is one of them, and both sets have
d - 1 members.  For d >= 3 marker b may number them by other branches.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import gcd

from .mapspec import MapSpec, Record, set_field
from .spectral import LengthVector


class MarkerParameters(Record):
    __slots__ = ("grid", "t", "lengths", "branch")

    def __init__(self, grid: int, t: tuple[int, ...], lengths: tuple[int, ...], branch: int):
        set_field(self, "grid", grid)
        set_field(self, "t", t)  # marker i at the angle t[i]/grid, 0 <= t[i] < grid
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
    lengths: Sequence[int], total: int, image: Sequence[int], d: int, branch: int = 0
) -> MarkerParameters:
    """Find all marker parameters from the lengths and the image map.

    Interval i has length lengths[i]/total.  With L/total the arc from
    marker 0 to its image marker, d*t = t + L/total mod 1 gives
    t = (L + branch*total)/(total*(d - 1)): the parameters live on the grid
    total*(d - 1), and the remaining markers follow by adding lengths.
    With certified lengths every marker satisfies q_d(t[i]) = t[image[i]]
    (module docstring).
    """
    grid = total * (d - 1)
    steps = [x * (d - 1) for x in lengths]
    t = [(sum(lengths[: image[0]]) + branch * total) % grid]
    for step in steps[:-1]:
        t.append((t[-1] + step) % grid)
    return MarkerParameters(grid=grid, t=tuple(t), lengths=tuple(steps), branch=branch)


def solve_for_spec(spec: MapSpec, lengths: LengthVector, branch: int = 0) -> MarkerParameters:
    return solve_parameters(lengths.eigenvector, lengths.total, marker_images(spec), spec.degree, branch)


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
