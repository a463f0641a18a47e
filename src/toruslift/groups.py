"""Fundamental groups, semidirect products, and the fiber-product action.

Supported fundamental groups are the families with a trivially decidable
word problem: the trivial group, free groups, free abelian groups, and
finite cyclic groups.  Words are tuples of (generator index, exponent)
kept in a per-family normal form, so equality of group elements is tuple
equality.

A representation sends generators to torus automorphisms; together with
per-chart corrections it drives the action of the semidirect product
T^n x| pi_1 on the pullback of the space to the universal cover.  Points
of that pullback are modeled as (chart, deck word, chart coordinate)
triples over a finite atlas of samples.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

from .errors import DimensionError, InputError, OutOfModel
from .nerve import ChartCorrections, GLCocycle, Nerve
from .torus import (
    PolarPoint,
    TorusAut,
    TorusPoint,
    compose_columns,
    grid_generators,
    mod1,
    standard_act,
    zero_point,
)

Word = Tuple[Tuple[int, int], ...]   # ((generator index, exponent), ...)

IDENTITY_WORD: Word = ()

_FAMILIES = ("trivial", "free", "free_abelian", "cyclic")


@dataclass(frozen=True)
class FPGroup:
    """A fundamental group from one of the supported families.

    ``modulus`` is the order q for the cyclic family and 0 otherwise.
    Words over the generators normalize to a unique form per family:
    exponent-merged and cancellation-free (free), a sorted exponent vector
    (free abelian), a single exponent mod q (cyclic), or empty (trivial).
    """

    family: str
    generators: Tuple[str, ...]
    modulus: int = 0

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise InputError("unknown group family %r" % (self.family,))
        if self.family == "trivial" and self.generators:
            raise InputError("the trivial group has no generators")
        if self.family == "cyclic":
            if len(self.generators) != 1:
                raise InputError("a cyclic group has exactly one generator")
            if self.modulus < 1:
                raise InputError("cyclic order must be >= 1")
        elif self.modulus:
            raise InputError("modulus only applies to the cyclic family")
        if len(set(self.generators)) != len(self.generators):
            raise InputError("duplicate generator names")

    # -- constructors ------------------------------------------------------

    @classmethod
    def trivial(cls) -> "FPGroup":
        return cls("trivial", ())

    @classmethod
    def free(cls, rank: int, names: Optional[Sequence[str]] = None):
        return cls("free", _names(rank, names))

    @classmethod
    def free_abelian(cls, rank: int, names: Optional[Sequence[str]] = None):
        return cls("free_abelian", _names(rank, names))

    @classmethod
    def cyclic(cls, order: int, name: str = "t"):
        return cls("cyclic", (name,), modulus=order)

    @property
    def rank(self) -> int:
        return len(self.generators)

    # -- word arithmetic ---------------------------------------------------

    def normalize(self, word: Sequence[Tuple[int, int]]) -> Word:
        for i, _ in word:
            if not 0 <= i < self.rank:
                raise InputError("generator index %d out of range" % (i,))
        if self.family == "trivial":
            return ()
        if self.family == "free":
            # stack-based merge; popping re-exposes the previous letter,
            # so cascading cancellations resolve in one pass
            stack = []
            for i, e in word:
                if stack and stack[-1][0] == i:
                    merged = stack[-1][1] + e
                    stack.pop()
                    if merged:
                        stack.append((i, merged))
                elif e:
                    stack.append((i, e))
            return tuple(stack)
        exps = [0] * self.rank
        for i, e in word:
            exps[i] += e
        if self.family == "cyclic":
            exps[0] %= self.modulus
        return tuple((i, e) for i, e in enumerate(exps) if e)

    def mul(self, a: Word, b: Word) -> Word:
        return self.normalize(tuple(a) + tuple(b))

    def inv(self, a: Word) -> Word:
        return self.normalize(tuple((i, -e) for i, e in reversed(a)))

    def power(self, a: Word, k: int) -> Word:
        if k < 0:
            return self.power(self.inv(a), -k)
        out: Word = ()
        for _ in range(k):
            out = self.mul(out, a)
        return out

    def generator(self, i: int) -> Word:
        return self.normalize(((i, 1),))

    def word_length(self, a: Word) -> int:
        """Length in the generators: distance from the identity."""
        a = self.normalize(a)
        if self.family == "cyclic":
            e = a[0][1] if a else 0
            return min(e, self.modulus - e)
        return sum(abs(e) for _, e in a)

    def ball(self, radius: int) -> Tuple[Word, ...]:
        """All elements of word length <= radius, in a deterministic order
        (by length, then by word)."""
        if radius < 0:
            raise InputError("radius must be >= 0")
        if self.family == "trivial":
            return ((),)
        if self.family == "cyclic":
            elems = [((0, e),) if e else ()
                     for e in range(self.modulus)
                     if min(e, self.modulus - e) <= radius]
            return tuple(sorted(elems, key=lambda w: (self.word_length(w), w)))
        seen = {(): 0}
        queue = deque([()])
        while queue:
            w = queue.popleft()
            depth = seen[w]
            if depth == radius:
                continue
            for i in range(self.rank):
                for e in (1, -1):
                    nxt = self.mul(w, ((i, e),))
                    if nxt not in seen:
                        seen[nxt] = depth + 1
                        queue.append(nxt)
        return tuple(sorted(seen, key=lambda w: (seen[w], w)))


def _names(rank, names):
    if rank < 0:
        raise InputError("rank must be >= 0")
    if names is None:
        names = ("t",) if rank == 1 else tuple("t%d" % (i + 1)
                                               for i in range(rank))
    if len(names) != rank:
        raise InputError("expected %d generator name(s), got %d"
                         % (rank, len(names)))
    return tuple(names)


class Representation:
    """A homomorphism from an FPGroup into torus automorphisms.

    Family relations are verified at construction: free-abelian images must
    commute pairwise, cyclic images must have the right order.
    """

    def __init__(self, group: FPGroup, generator_images: Sequence[TorusAut],
                 n: Optional[int] = None):
        if len(generator_images) != group.rank:
            raise InputError("expected %d image(s), got %d"
                             % (group.rank, len(generator_images)))
        images = tuple(generator_images)
        ranks = {im.n for im in images}
        if n is not None:
            ranks.add(n)
        if len(ranks) > 1:
            raise DimensionError("images act on different tori: %s"
                                 % sorted(ranks))
        if not ranks:
            raise InputError(
                "torus rank required for a generator-free representation")
        self._n = ranks.pop()
        if group.family == "free_abelian":
            for i in range(len(images)):
                for j in range(i + 1, len(images)):
                    if images[i] * images[j] != images[j] * images[i]:
                        raise InputError(
                            "images of %s and %s do not commute"
                            % (group.generators[i], group.generators[j]))
        if group.family == "cyclic":
            if images[0] ** group.modulus != TorusAut.identity(images[0].n):
                raise InputError(
                    "image of %s does not have order dividing %d"
                    % (group.generators[0], group.modulus))
        self.group = group
        self.generator_images = images
        self._of: Dict[Word, TorusAut] = {}

    def of(self, word: Word) -> TorusAut:
        """rho(word) as a single automorphism (memoized per normal form)."""
        word = self.group.normalize(word)
        out = self._of.get(word)
        if out is None:
            out = TorusAut.identity(self._n)
            for i, e in word:
                out = out * self.generator_images[i] ** e
            self._of[word] = out
        return out

    @property
    def n(self) -> int:
        return self._n

    def __eq__(self, other):
        return (isinstance(other, Representation)
                and self.group == other.group
                and self.generator_images == other.generator_images)

    def __repr__(self):
        return "Representation(%s, %d generator(s))" % (
            self.group.family, self.group.rank)


@dataclass(frozen=True)
class SemidirectElement:
    """(u, a) in T^n x| pi_1 — a torus part and a deck word."""

    u: TorusPoint
    a: Word


def semidirect_identity(n: int) -> SemidirectElement:
    return SemidirectElement(u=zero_point(n), a=IDENTITY_WORD)


def semidirect_mul(g1: SemidirectElement, g2: SemidirectElement,
                   rho: Representation) -> SemidirectElement:
    """(u1, a1)(u2, a2) = (u1 + rho(a1)(u2), a1 a2)."""
    if len(g1.u) != len(g2.u):
        raise DimensionError("torus parts have ranks %d and %d"
                             % (len(g1.u), len(g2.u)))
    rotated = rho.of(g1.a).apply(g2.u)
    u = tuple(mod1(x + y) for x, y in zip(g1.u, rotated))
    return SemidirectElement(u=u, a=rho.group.mul(g1.a, g2.a))


def semidirect_inv(g: SemidirectElement,
                   rho: Representation) -> SemidirectElement:
    """(u, a)^-1 = (rho(a^-1)(-u), a^-1)."""
    a_inv = rho.group.inv(g.a)
    u = rho.of(a_inv).apply(tuple(mod1(-x) for x in g.u))
    return SemidirectElement(u=tuple(mod1(x) for x in u), a=a_inv)


@dataclass(frozen=True)
class FiberedPoint:
    """A point of the pulled-back space in one chart's presentation.

    ``deck`` is the word a_alpha attached to the point by the chart's
    trivialization of the universal cover; it must be in normal form.
    ``x`` is the chart coordinate, a polar point.
    """

    chart: str
    deck: Word
    x: PolarPoint


class AtlasModel:
    """A finite sampled atlas: charts, samples, and overlap identifications.

    ``samples`` maps each chart to an ordered list of polar points, closed
    under the order-m torus subgroup acting coordinatewise.  ``matches``
    gives, per oriented overlap (alpha, beta), pairs (z_alpha, z_beta) of
    identified samples; angle coordinates of identified samples must be
    related by the transition automorphism, and the identification must
    commute with the subgroup action — that exactness is what makes
    chart-independent evaluation possible downstream.

    The one class that knows what a sample is: ``samples[chart]`` keeps
    the polar points for parse, emit and reports; below it a sample is its
    index there, moved by ``rotation`` and matched by ``match_indices``.
    """

    def __init__(self, nerve: Nerve, cocycle: GLCocycle, torus_order: int,
                 samples: Mapping[str, Sequence[PolarPoint]],
                 matches: Mapping[Tuple[str, str],
                                  Sequence[Tuple[PolarPoint, PolarPoint]]]
                 = ()):
        if torus_order < 1:
            raise InputError("torus order must be >= 1")
        self.nerve = nerve
        self.cocycle = cocycle
        self.torus_order = torus_order
        self.rank = cocycle.rank
        self.samples: Dict[str, tuple] = {}
        self._index: Dict[str, Dict[PolarPoint, int]] = {}
        for chart in nerve.vertices:
            pts = tuple(samples.get(chart, ()))
            for z in pts:
                if len(z) != self.rank:
                    raise InputError(
                        "chart %s: sample %r has rank %d, expected %d"
                        % (chart, z, len(z), self.rank))
            index = {z: i for i, z in enumerate(pts)}
            if len(index) != len(pts):
                raise InputError("chart %s: duplicate samples" % (chart,))
            self.samples[chart] = pts
            self._index[chart] = index
        unknown = set(samples) - set(nerve.vertices)
        if unknown:
            raise InputError("samples for unknown chart(s): %s"
                             % ", ".join(sorted(unknown)))
        # the generator permutations of each chart's samples; building
        # them is the closure check
        m = torus_order
        self._gens = {}
        for chart, pts in self.samples.items():
            gens = grid_generators(pts, self.rank, m)
            for i, z in enumerate(pts):
                for j, col in enumerate(gens):
                    if col[i] is None:
                        raise InputError(
                            "chart %s: samples not closed under the order-%d "
                            "subgroup (rotate %r by e_%d)" % (chart, m, z, j))
            self._gens[chart] = gens
        self._perms: Dict[tuple, list] = {}
        # per oriented overlap (to, from): from-sample index -> to-sample
        # index, None where unmatched
        self._match: Dict[Tuple[str, str], list] = {
            (x, y): [None] * len(self.samples[y])
            for a, b in nerve.edges for x, y in ((a, b), (b, a))}
        self._ingest_matches(dict(matches) if matches else {})
        self._check_match_equivariance()

    def _ingest_matches(self, matches):
        for (a, b), pairs in matches.items():
            if not self.nerve.has_edge(a, b):
                raise InputError("match on (%s, %s): not an overlap" % (a, b))
            g = self.cocycle.get(a, b)
            fwd, rev = self._match[(a, b)], self._match[(b, a)]
            for za, zb in pairs:
                ia, ib = self._index[a].get(za), self._index[b].get(zb)
                for chart, z, i in ((a, za, ia), (b, zb, ib)):
                    if i is None:
                        raise InputError(
                            "match on (%s, %s): %r is not a sample of %s"
                            % (a, b, z, chart))
                if fwd[ib] not in (None, ia) or rev[ia] not in (None, ib):
                    raise InputError(
                        "match on (%s, %s): sample identified twice" % (a, b))
                want = tuple(mod1(v) for v in
                             g.apply(tuple(theta for _, theta in zb)))
                got = tuple(theta for _, theta in za)
                if want != got:
                    raise InputError(
                        "match on (%s, %s): angles of %r are not the "
                        "transition image of %r" % (a, b, za, zb))
                fwd[ib], rev[ia] = ia, ib

    def _check_match_equivariance(self):
        m = self.torus_order
        for (a, b), fwd in self._match.items():
            g = self.cocycle.get(a, b)
            images = [tuple(v % m for v in col) for col in zip(*g.rows)]
            for ib, ia in enumerate(fwd):
                if ia is None:
                    continue
                for col, w in zip(self._gens[b], images):
                    moved = fwd[col[ib]]
                    if moved is None:
                        raise InputError(
                            "overlap (%s, %s): identified samples not closed "
                            "under the subgroup action at %r"
                            % (a, b, self.samples[b][ib]))
                    if moved != self.rotation(a, w)[ia]:
                        raise InputError(
                            "overlap (%s, %s): identification does not "
                            "commute with the subgroup action at %r"
                            % (a, b, self.samples[b][ib]))

    def rotation(self, chart: str, w: Tuple[int, ...]) -> list:
        """The rotation by w/m, w in (Z/m)^n reduced mod m, as a map of the
        chart's sample indices (memoized per chart and w)."""
        perm = self._perms.get((chart, w))
        if perm is None:
            perm = self._perms[(chart, w)] = compose_columns(
                self._gens[chart], w, len(self.samples[chart]))
        return perm

    def match_indices(self, to_chart: str, from_chart: str) -> list:
        """Per sample index of ``from_chart``, the index of the identified
        sample of ``to_chart``, or None (the charts must overlap)."""
        return self._match[(to_chart, from_chart)]

    def has_sample(self, chart: str, z: PolarPoint) -> bool:
        return z in self._index[chart]

    def matched(self, to_chart: str, from_chart: str, z: PolarPoint):
        """The sample of ``to_chart`` identified with z, or None."""
        col = self._match.get((to_chart, from_chart))
        i = None if col is None else self._index[from_chart].get(z)
        j = None if i is None else col[i]
        return None if j is None else self.samples[to_chart][j]

    def translate(self, pt: FiberedPoint, to_chart: str, group: FPGroup,
                  corrections: ChartCorrections) -> FiberedPoint:
        """Re-present a point in an adjacent chart across one overlap.

        The deck word picks up the edge's transition element: identity on
        tree edges, the matching holonomy generator otherwise.
        """
        if pt.chart == to_chart:
            return pt
        if not self.nerve.has_edge(to_chart, pt.chart):
            raise OutOfModel("charts %s and %s do not overlap"
                             % (pt.chart, to_chart))
        target = self.matched(to_chart, pt.chart, pt.x)
        if target is None:
            raise OutOfModel(
                "sample %r of chart %s is not identified with any sample "
                "of chart %s" % (pt.x, pt.chart, to_chart))
        gen = corrections.edge_generator(to_chart, pt.chart)
        word = pt.deck if gen is None else \
            group.mul(group.normalize((gen,)), pt.deck)
        return FiberedPoint(chart=to_chart, deck=word, x=target)


def act_fiber_product(g: SemidirectElement, pt: FiberedPoint,
                      model: AtlasModel, rho: Representation,
                      corrections: ChartCorrections) -> FiberedPoint:
    """The semidirect-product action on the pulled-back space.

    (u, a) sends (chart alpha, deck a_alpha, x) to deck a_alpha a^-1 and
    rotates the chart coordinate by rho_alpha(rho(a_alpha a^-1)(u)).
    """
    if len(g.u) != model.rank:
        raise DimensionError("torus part has rank %d, model has rank %d"
                             % (len(g.u), model.rank))
    if not model.has_sample(pt.chart, pt.x):
        raise OutOfModel("%r is not a declared sample of chart %s"
                         % (pt.x, pt.chart))
    group = rho.group
    word = group.mul(pt.deck, group.inv(g.a))
    w = (corrections.rho_alpha[pt.chart] * rho.of(word)).apply(g.u)
    moved = standard_act(w, pt.x)
    if not model.has_sample(pt.chart, moved):
        raise OutOfModel("rotated sample %r leaves the declared samples of "
                         "chart %s" % (moved, pt.chart))
    return FiberedPoint(chart=pt.chart, deck=word, x=moved)


def transport_rep(f: TorusAut, rho: Representation) -> Representation:
    """Conjugate a representation: rho'(a) = f rho(a) f^-1."""
    f_inv = f.inverse()
    return Representation(rho.group,
                          tuple(f * im * f_inv
                                for im in rho.generator_images))


def transport_corrections(f: TorusAut,
                          corrections: ChartCorrections) -> ChartCorrections:
    """Chart corrections compatible with a conjugated representation.

    If rho_alpha reconciles the cocycle with rho, then rho_alpha o f^-1
    reconciles it with f rho f^-1: the f's cancel in
    (rho_alpha f^-1)(f rho(w) f^-1)(rho_beta f^-1)^-1.
    """
    f_inv = f.inverse()
    return ChartCorrections(
        basepoint=corrections.basepoint,
        rho_alpha={v: aut * f_inv
                   for v, aut in corrections.rho_alpha.items()},
        tree=corrections.tree,
        generators=corrections.generators)
