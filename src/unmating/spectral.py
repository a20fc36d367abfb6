"""Edge transition matrix and the exact Perron certificate.

The deformation of each 0-edge is a block of gamma1 between consecutive
matched markers; counting the image labels inside each block gives a
nonnegative integer matrix whose spectral radius must equal the degree.
Rather than computing eigenvalues we certify: the nullspace of (A - dI)
is computed exactly, in integers, and a strictly positive one-dimensional
representative is, by Perron-Frobenius, proof that d is the spectral
radius.  Edge i then has length eigenvector[i]/total: the lengths are
integers on the grid `total`, the sum of the primitive eigenvector.
"""

from __future__ import annotations

from math import gcd

from .errors import SpectralError
from .mapspec import MapSpec, Record, set_field


class TransitionMatrix(Record):
    __slots__ = ("entries",)

    def __init__(self, entries: tuple[tuple[int, ...], ...]):
        set_field(self, "entries", entries)  # rows and columns follow word0 positions

    @property
    def size(self) -> int:
        return len(self.entries)


class LengthVector(Record):
    __slots__ = ("eigenvector", "total")

    def __init__(self, eigenvector: tuple[int, ...], total: int):
        set_field(self, "eigenvector", eigenvector)  # primitive positive integer representative
        set_field(self, "total", total)  # sum(eigenvector); length i is eigenvector[i]/total


def deformation_words(spec: MapSpec) -> list[list[int]]:
    """Word1 positions making up each 0-edge's deformation block.

    Block i runs from matched marker i (inclusive) to matched marker i+1
    (exclusive), cyclically; `parse` makes the markers strictly increasing,
    so the k blocks partition word1.
    """
    k, n1 = spec.k, spec.n1
    markers = spec.markers
    words = []
    for i in range(k):
        a = markers[i]
        b = markers[(i + 1) % k]
        span = (b - a) % n1 or n1  # zero only for k = 1, whose one block is all of word1
        words.append([(a + s) % n1 for s in range(span)])
    return words


def transition_matrix(spec: MapSpec) -> TransitionMatrix:
    """a[i][j] = number of 1-edges over edge j inside the deformation of edge i."""
    words = deformation_words(spec)
    col = {w.edge: j for j, w in enumerate(spec.word0)}
    rows = []
    for block in words:
        counts = [0] * spec.k
        for pos in block:
            counts[col[spec.word1[pos].image_edge]] += 1
        rows.append(tuple(counts))
    return TransitionMatrix(entries=tuple(rows))


def _integer_row_echelon(m: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free (Bareiss) row echelon form of an integer matrix.

    Returns the echelon rows and the pivot columns; every intermediate value
    stays an integer, with growth bounded by minors of the input.
    """
    a = [row[:] for row in m]
    n_rows, n_cols = len(a), len(a[0])
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(n_cols):
        piv = next((i for i in range(r, n_rows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, n_rows):
            for j in range(c + 1, n_cols):
                num = a[r][c] * a[i][j] - a[i][c] * a[r][j]
                q, rem = divmod(num, prev)
                if rem:
                    raise SpectralError("fraction-free elimination lost exactness")
                a[i][j] = q
            a[i][c] = 0
        prev = a[r][c]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return a, pivots


def _rational_nullspace(m: list[list[int]]) -> list[list[int]]:
    """Basis of the right nullspace of an integer matrix over the rationals,
    as primitive integer vectors whose free coordinate is positive.

    Back-substitution stays in the integers: before dividing the running
    sum s by the pivot p, the vector is scaled by |p| / gcd(s, p).
    """
    a, pivots = _integer_row_echelon(m)
    n = len(m[0])
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * n
        v[fc] = 1
        for r in range(len(pivots) - 1, -1, -1):
            row, pc = a[r], pivots[r]
            s = sum(row[c] * v[c] for c in range(pc + 1, n))
            p = row[pc]
            scale = abs(p) // gcd(s, p)
            if scale != 1:
                v = [x * scale for x in v]
            v[pc] = -s * scale // p
        g = gcd(*v)
        basis.append([x // g for x in v])
    return basis


def certify_perron(matrix: TransitionMatrix, d: int) -> LengthVector:
    """Certify that d is the spectral radius of the transition matrix.

    Requires the nullspace of (A - dI) to be one-dimensional with a strictly
    positive representative v; returns the primitive v and its sum.

    No validated mapfile makes the nullspace trivial: each 0-edge labels d
    positions of word1 and the deformation blocks partition word1, so every
    column of A sums to d, the all-ones row vector u has u(A - dI) = 0, and
    d is an eigenvalue.  That refusal guards hand-built matrices.
    """
    n = matrix.size
    m = [
        [matrix.entries[i][j] - (d if i == j else 0) for j in range(n)]
        for i in range(n)
    ]
    basis = _rational_nullspace(m)
    if len(basis) == 0:
        raise SpectralError(f"d is not an eigenvalue: nullspace of (A - {d}I) is trivial")
    if len(basis) > 1:
        raise SpectralError(
            f"Perron certification failed: nullspace dimension {len(basis)} > 1"
        )
    v = basis[0]  # its free coordinate is positive
    if not all(x > 0 for x in v):
        raise SpectralError("Perron certification failed: no strictly positive eigenvector")

    # entrywise exactness check of A v = d v
    for i in range(n):
        lhs = sum(matrix.entries[i][j] * v[j] for j in range(n))
        if lhs != d * v[i]:
            raise SpectralError("Perron certification failed: A v != d v")

    return LengthVector(eigenvector=tuple(v), total=sum(v))
