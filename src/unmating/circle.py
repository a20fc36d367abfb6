"""Exact arithmetic on the circle R/Z and the dynamics of the d-fold cover.

Angles are exact rationals in [0, 1), stored reduced.  Everything here is
pure and allocation-light; no floating point enters any stored value.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence


@dataclass(frozen=True, eq=False)
class Angle:
    """A point of R/Z as a reduced rational number of turns, 0 <= value < 1.

    Hashing and ordering work on the reduced integer pair directly; the
    generic Fraction protocol is too slow for the hot linking loops.
    """

    value: Fraction

    def __post_init__(self):
        v = Fraction(self.value) % 1
        object.__setattr__(self, "value", v)
        object.__setattr__(self, "_n", v.numerator)
        object.__setattr__(self, "_d", v.denominator)
        object.__setattr__(self, "_hash", hash((v.numerator, v.denominator)))

    @classmethod
    def of(cls, numerator, denominator=1) -> "Angle":
        return cls(Fraction(numerator, denominator))

    def __str__(self) -> str:
        return f"{self.value.numerator}/{self.value.denominator}"

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if not isinstance(other, Angle):
            return NotImplemented
        return self._n == other._n and self._d == other._d

    def __lt__(self, other):
        return self._n * other._d < other._n * self._d

    def __le__(self, other):
        return self._n * other._d <= other._n * self._d

    def __gt__(self, other):
        return self._n * other._d > other._n * self._d

    def __ge__(self, other):
        return self._n * other._d >= other._n * self._d

    def __add__(self, other) -> "Angle":
        return Angle(self.value + _as_fraction(other))


def _as_fraction(x) -> Fraction:
    if isinstance(x, Angle):
        return x.value
    return Fraction(x)


@dataclass(frozen=True)
class OrbitSignature:
    """Eventual periodicity data of an angle under the d-fold map."""

    preperiod: int
    period: int

    def __post_init__(self):
        if self.period < 1 or self.preperiod < 0:
            raise ValueError("need preperiod >= 0 and period >= 1")

    @property
    def is_periodic(self) -> bool:
        return self.preperiod == 0


def q_apply(t: Angle, d: int) -> Angle:
    """The d-fold map t -> d*t mod 1."""
    if d < 2:
        raise ValueError(f"degree must be >= 2, got {d}")
    return Angle(d * t.value)


def q_preimages(t: Angle, d: int) -> list[Angle]:
    """The d preimages (t + m)/d for m = 0..d-1, in increasing order."""
    if d < 2:
        raise ValueError(f"degree must be >= 2, got {d}")
    return [Angle((t.value + m) / d) for m in range(d)]


def orbit_signature(t: Angle, d: int) -> OrbitSignature:
    """Iterate t under the d-fold map and report (preperiod, period)."""
    seen: dict[Angle, int] = {}
    cur = t
    step = 0
    while cur not in seen:
        seen[cur] = step
        cur = q_apply(cur, d)
        step += 1
    first = seen[cur]
    return OrbitSignature(preperiod=first, period=step - first)


def sets_linked(xs: Iterable[Angle], ys: Iterable[Angle]) -> bool:
    """Whether the convex hulls of two angle sets cross.

    Unlinked means every angle of ys (shared angles aside) falls in a single
    gap of xs; gap lookup is by bisection on the sorted xs.
    """
    xs_sorted = sorted(set(xs))
    n = len(xs_sorted)
    if n < 2:
        return False
    shared = set(xs_sorted)
    gap = None
    for y in ys:
        if y in shared:
            continue
        g = (bisect_left(xs_sorted, y) - 1) % n
        if gap is None:
            gap = g
        elif g != gap:
            return True
    return False


def arc_sum(lengths: Sequence[Fraction], frm: int, to: int, full_cycle: bool = False) -> Fraction:
    """Sum of interval lengths walked from marker `frm` to marker `to`.

    Marker i sits at the start of interval i, so the walk crosses intervals
    frm, frm+1, ..., to-1 cyclically.  frm == to is the empty walk unless
    full_cycle is set, in which case the whole circle is traversed.
    """
    k = len(lengths)
    if not (0 <= frm < k and 0 <= to < k):
        raise IndexError(f"marker index out of range for {k} intervals")
    if frm == to:
        return sum(lengths, Fraction(0)) if full_cycle else Fraction(0)
    steps = (to - frm) % k
    return sum((lengths[(frm + i) % k] for i in range(steps)), Fraction(0))
