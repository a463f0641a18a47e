"""Exact arithmetic for torus points, torus automorphisms and polar samples.

Angles are rationals modulo 1 held as ``fractions.Fraction``, so every group
identity below can be asserted with ``==`` instead of tolerances.  A torus
automorphism is an integer matrix with determinant +-1 acting on angle
vectors modulo 1; the group of these is how chart transitions and holonomy
images are represented throughout the package.

Points of the standard local model are kept in polar form: one pair
(r2, theta) per coordinate, where r2 is the squared radius and theta the
angle.  A coordinate sitting at the origin carries the canonical phase
theta = 0, which makes equality of samples decidable.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DimensionError, UnimodularError

#: an angle: Fraction reduced into [0, 1)
Angle = Fraction

#: a point of the n-torus: tuple of angles
TorusPoint = tuple

#: a point of the model space in polar form: tuple of (r2, theta) pairs
PolarPoint = tuple

#: image of the moment map: tuple of nonnegative rationals
CornerPoint = tuple


def mod1(value) -> Fraction:
    """Reduce a rational into the fundamental domain [0, 1)."""
    return Fraction(value) % 1


def angle(value) -> Fraction:
    """Coerce ``value`` ('p/q' string, int, Fraction) to an angle mod 1."""
    return mod1(Fraction(value))


def format_angle(a: Fraction) -> str:
    """Serialize an angle canonically as 'p/q' (zero prints as '0/1')."""
    return "%d/%d" % (a.numerator, a.denominator)


def torus_point(*values) -> TorusPoint:
    return tuple(angle(v) for v in values)


def point_add(u: TorusPoint, v: TorusPoint) -> TorusPoint:
    if len(u) != len(v):
        raise DimensionError("torus points of rank %d and %d" % (len(u), len(v)))
    return tuple(mod1(a + b) for a, b in zip(u, v))


def point_neg(u: TorusPoint) -> TorusPoint:
    return tuple(mod1(-a) for a in u)


def zero_point(n: int) -> TorusPoint:
    return (Fraction(0),) * n


def _int_det(rows) -> int:
    """Determinant of an integer matrix, fraction-free (Bareiss)."""
    n = len(rows)
    if n <= 1:
        return rows[0][0] if n else 1
    a = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


class TorusAut:
    """An automorphism of the n-torus: an integer matrix with det = +-1.

    Instances are immutable and hashable; multiplication is matrix product,
    ``apply`` is the induced map on angle vectors mod 1, and ``apply_mod``
    the induced map on the finite subgroup (Z/m)^n.

    >>> M = TorusAut([[1, 0], [-1, 1]])
    >>> M.apply((Fraction(1, 4), Fraction(0)))
    (Fraction(1, 4), Fraction(3, 4))
    >>> (M * M.inverse()).is_identity()
    True
    """

    __slots__ = ("rows", "_det")

    def __init__(self, rows: Sequence[Sequence[int]]):
        mat = tuple(tuple(int(x) for x in row) for row in rows)
        n = len(mat)
        if n == 0 or any(len(row) != n for row in mat):
            raise DimensionError("torus automorphism must be a square matrix")
        det = _int_det(mat)
        if det not in (1, -1):
            raise UnimodularError(
                "matrix %r has determinant %d; torus automorphisms must be "
                "unimodular (det = +-1)" % (mat, det))
        object.__setattr__(self, "rows", mat)
        object.__setattr__(self, "_det", det)

    def __setattr__(self, name, value):
        raise AttributeError("TorusAut is immutable")

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def det(self) -> int:
        return self._det

    @classmethod
    def identity(cls, n: int) -> "TorusAut":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n))
                         for i in range(n)))

    def is_identity(self) -> bool:
        return all(self.rows[i][j] == (1 if i == j else 0)
                   for i in range(self.n) for j in range(self.n))

    def __mul__(self, other: "TorusAut") -> "TorusAut":
        if not isinstance(other, TorusAut):
            return NotImplemented
        if self.n != other.n:
            raise DimensionError("cannot compose automorphisms of rank %d and %d"
                                 % (self.n, other.n))
        b = other.rows
        return TorusAut(tuple(
            tuple(sum(self.rows[i][k] * b[k][j] for k in range(self.n))
                  for j in range(self.n))
            for i in range(self.n)))

    def inverse(self) -> "TorusAut":
        """Exact integer inverse: det * adjugate, as det = +-1."""
        n = self.n

        def minor(i, j):
            return [row[:j] + row[j + 1:]
                    for r, row in enumerate(self.rows) if r != i]

        return TorusAut(tuple(
            tuple(self._det * (-1) ** (i + j) * _int_det(minor(j, i))
                  for j in range(n))
            for i in range(n)))

    def __pow__(self, e: int) -> "TorusAut":
        if e < 0:
            return self.inverse() ** (-e)
        acc = TorusAut.identity(self.n)
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def apply(self, u: TorusPoint) -> TorusPoint:
        if len(u) != self.n:
            raise DimensionError("automorphism of rank %d applied to point of "
                                 "rank %d" % (self.n, len(u)))
        return tuple(mod1(sum(Fraction(c) * x for c, x in zip(row, u)))
                     for row in self.rows)

    def apply_mod(self, u: Sequence[int], m: int) -> tuple:
        """Induced action on the finite subgroup (Z/m)^n (integer tuples)."""
        if len(u) != self.n:
            raise DimensionError("automorphism of rank %d applied to vector of "
                                 "rank %d" % (self.n, len(u)))
        return tuple(sum(c * x for c, x in zip(row, u)) % m for row in self.rows)

    def __eq__(self, other):
        return isinstance(other, TorusAut) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return "TorusAut(%r)" % (list(list(r) for r in self.rows),)


def polar(pairs: Iterable) -> PolarPoint:
    """Build a polar-form point, enforcing the canonical phase at the origin.

    Each entry is a pair (r2, theta).  r2 must be a nonnegative rational and
    a coordinate with r2 = 0 must carry theta = 0, so that equal points have
    equal representations.
    """
    out = []
    for i, (r2, theta) in enumerate(pairs):
        r2 = Fraction(r2)
        theta = mod1(Fraction(theta))
        if r2 < 0:
            raise ValueError("coordinate %d: squared radius %s is negative"
                             % (i + 1, r2))
        if r2 == 0 and theta != 0:
            raise ValueError("coordinate %d: origin must carry angle 0, got %s"
                             % (i + 1, theta))
        out.append((r2, theta))
    return tuple(out)


def standard_act(u: TorusPoint, z: PolarPoint) -> PolarPoint:
    """Standard torus action on the model: rotate each nonzero coordinate.

    Coordinates at the origin are fixed and keep the canonical phase 0.
    """
    if len(u) != len(z):
        raise DimensionError("torus point of rank %d acting on polar point of "
                             "rank %d" % (len(u), len(z)))
    out = []
    for ui, (r2, theta) in zip(u, z):
        if r2 == 0:
            out.append((r2, theta))
        else:
            out.append((r2, mod1(theta + ui)))
    return tuple(out)


def grid_generators(samples: Sequence[PolarPoint], n: int, m: int) -> list:
    """The order-m subgroup's generators as index maps of a finite sample
    tuple: column j sends i to the index of e_j/m . samples[i], or None
    where that leaves the samples.  The one place where grid angles meet
    polar samples; below it, indices rotate by ``compose_columns``."""
    pos = {z: i for i, z in enumerate(samples)}
    units = [tuple(Fraction(int(i == j), m) for i in range(n))
             for j in range(n)]
    return [[pos.get(standard_act(e, z)) for z in samples] for e in units]


def compose_columns(gens: Sequence[Sequence[int]], w: Sequence[int],
                    size: int) -> list:
    """The index map of w = sum_j w_j e_j: generator column j applied w_j
    times, e_0 first (the identity map of range(size) when w = 0)."""
    col = list(range(size))
    for g, times in zip(gens, w):
        for _ in range(times):
            col = [g[c] for c in col]
    return col


def moment_map(z: PolarPoint) -> CornerPoint:
    """Project a polar point to its squared radii (the orbit coordinates)."""
    return tuple(r2 for r2, _ in z)


def stratum(xi: CornerPoint) -> frozenset:
    """Coordinates (numbered from 1) where the orbit-space point hits zero."""
    return frozenset(i + 1 for i, v in enumerate(xi) if v == 0)
