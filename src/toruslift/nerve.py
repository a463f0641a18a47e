"""Nerves of chart covers and nonabelian Cech 1-cocycles.

A cover of the orbit space is recorded combinatorially: chart names, the
pairs that overlap, and the triples with common intersection.  Transition
data lives on edges as torus automorphisms.  The three questions answered
here are (1) is the edge data a genuine cocycle, (2) is it trivial up to
coboundary — equivalently, does the local action come from a global one at
the nerve level — and (3) which per-chart automorphisms reconcile the
cocycle with a representation of the fundamental group.

Triviality is decided through holonomy: a deterministic spanning tree
flattens the tree edges, and each remaining edge contributes one loop
automorphism.  The cocycle is trivial iff every loop automorphism is the
identity; the loop images are exactly the holonomy representation of the
nerve's edge-path group.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple

from .errors import (
    DisconnectedNerve,
    IncompleteCocycle,
    InputError,
    NoCorrection,
)
from .torus import TorusAut

Edge = Tuple[str, str]


class Nerve:
    """Charts, overlapping pairs, and triple overlaps of a cover.

    Edges and triangles keep their input order — spanning trees, generator
    lists, and reports are deterministic because of it.  Overlap pairs are
    unordered as sets but stored with their given orientation.
    """

    def __init__(self, vertices: Sequence[str], edges: Sequence[Edge] = (),
                 triangles: Sequence[Tuple[str, str, str]] = ()):
        self.vertices = tuple(vertices)
        self.edges = tuple((a, b) for a, b in edges)
        self.triangles = tuple((a, b, c) for a, b, c in triangles)
        if not self.vertices:
            raise InputError("a nerve needs at least one chart")
        if len(set(self.vertices)) != len(self.vertices):
            raise InputError("duplicate chart names")
        vset = set(self.vertices)
        seen = set()
        self._adjacency: Dict[str, list] = {v: [] for v in self.vertices}
        for a, b in self.edges:
            if a not in vset or b not in vset:
                raise InputError("overlap (%s, %s) references unknown chart"
                                 % (a, b))
            if a == b:
                raise InputError("self-overlap (%s, %s) is not allowed"
                                 % (a, b))
            key = frozenset((a, b))
            if key in seen:
                raise InputError("duplicate overlap (%s, %s)" % (a, b))
            seen.add(key)
            self._adjacency[a].append(b)
            self._adjacency[b].append(a)
        self._edge_keys = seen
        tri_seen = set()
        for a, b, c in self.triangles:
            if len({a, b, c}) != 3:
                raise InputError("degenerate triple overlap (%s, %s, %s)"
                                 % (a, b, c))
            key = frozenset((a, b, c))
            if key in tri_seen:
                raise InputError("duplicate triple overlap (%s, %s, %s)"
                                 % (a, b, c))
            tri_seen.add(key)
            for x, y in ((a, b), (b, c), (a, c)):
                if frozenset((x, y)) not in seen:
                    raise InputError(
                        "triple overlap (%s, %s, %s) missing pair (%s, %s)"
                        % (a, b, c, x, y))

    def has_edge(self, a: str, b: str) -> bool:
        return frozenset((a, b)) in self._edge_keys

    def neighbors(self, v: str) -> Tuple[str, ...]:
        return tuple(self._adjacency[v])

    def is_connected(self) -> bool:
        seen = {self.vertices[0]}
        queue = deque(seen)
        while queue:
            v = queue.popleft()
            for w in self._adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return len(seen) == len(self.vertices)

    def require_connected(self):
        if not self.is_connected():
            raise DisconnectedNerve("the chart cover is not connected")

    def __eq__(self, other):
        return (isinstance(other, Nerve)
                and self.vertices == other.vertices
                and self.edges == other.edges
                and self.triangles == other.triangles)

    def __repr__(self):
        return "Nerve(%d charts, %d overlaps, %d triples)" % (
            len(self.vertices), len(self.edges), len(self.triangles))


class GLCocycle:
    """Edge-indexed torus automorphisms: candidate Cech transition data.

    Values are stored for both orientations of every overlap.  Whether the
    algebraic identities (antisymmetry, triangle) actually hold is the job
    of ``check_cocycle`` — construction only enforces completeness, so that
    broken data can be diagnosed rather than rejected opaquely.
    """

    def __init__(self, nerve: Nerve, values: Mapping[Edge, TorusAut],
                 rank: Optional[int] = None):
        self.nerve = nerve
        self._values = dict(values)
        for (a, b), aut in self._values.items():
            if not nerve.has_edge(a, b):
                raise InputError("value on (%s, %s): not an overlap" % (a, b))
            if rank is None:
                rank = aut.n
            elif aut.n != rank:
                raise InputError(
                    "matrix on (%s, %s) has size %d, expected %d"
                    % (a, b, aut.n, rank))
        missing = [e for e in nerve.edges
                   if e not in self._values
                   or (e[1], e[0]) not in self._values]
        if missing:
            raise IncompleteCocycle(
                "no transition value on overlap(s): %s"
                % ", ".join("(%s, %s)" % e for e in missing))
        if rank is None:
            raise InputError("rank required for a cocycle with no overlaps")
        self.rank = rank

    @classmethod
    def from_one_sided(cls, nerve: Nerve, values: Mapping[Edge, TorusAut],
                       rank: Optional[int] = None) -> "GLCocycle":
        """Build from one orientation per edge; the other is the inverse."""
        full: Dict[Edge, TorusAut] = {}
        for (a, b), aut in values.items():
            if not nerve.has_edge(a, b):
                raise InputError("value on (%s, %s): not an overlap" % (a, b))
        for a, b in nerve.edges:
            fwd, rev = values.get((a, b)), values.get((b, a))
            if fwd is None and rev is None:
                raise IncompleteCocycle(
                    "no transition value on overlap (%s, %s)" % (a, b))
            if fwd is not None and rev is not None \
                    and fwd * rev != TorusAut.identity(fwd.n):
                raise InputError(
                    "both orientations of (%s, %s) given and inconsistent"
                    % (a, b))
            if fwd is None:
                fwd = rev.inverse()
            full[(a, b)] = fwd
            full[(b, a)] = fwd.inverse()
        return cls(nerve, full, rank=rank)

    def get(self, a: str, b: str) -> TorusAut:
        if a == b:
            return TorusAut.identity(self.rank)
        try:
            return self._values[(a, b)]
        except KeyError:
            raise IncompleteCocycle(
                "no transition value on overlap (%s, %s)" % (a, b)) from None

    def __eq__(self, other):
        return (isinstance(other, GLCocycle)
                and self.nerve == other.nerve
                and self._values == other._values)

    def __repr__(self):
        return "GLCocycle(rank %d on %r)" % (self.rank, self.nerve)


@dataclass(frozen=True)
class CocycleReport:
    """Outcome of ``check_cocycle``: empty violations means valid data."""

    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def check_cocycle(nerve: Nerve, cocycle: GLCocycle) -> CocycleReport:
    """Verify antisymmetry on every overlap and the triangle identity
    g(a,b) g(b,c) = g(a,c) on every triple overlap."""
    violations = []
    ident = TorusAut.identity(cocycle.rank)
    for a, b in nerve.edges:
        if cocycle.get(a, b) * cocycle.get(b, a) != ident:
            violations.append(("antisymmetry", a, b))
    for a, b, c in nerve.triangles:
        if cocycle.get(a, b) * cocycle.get(b, c) != cocycle.get(a, c):
            violations.append(("triangle", a, b, c))
    return CocycleReport(violations=tuple(violations))


def apply_coboundary(cocycle: GLCocycle,
                     h: Mapping[str, TorusAut]) -> GLCocycle:
    """Twist by per-chart automorphisms: g'(a,b) = h_a g(a,b) h_b^-1."""
    nerve = cocycle.nerve
    missing = [v for v in nerve.vertices if v not in h]
    if missing:
        raise InputError("coboundary data missing chart(s): %s"
                         % ", ".join(missing))
    new = {}
    for a, b in nerve.edges:
        new[(a, b)] = h[a] * cocycle.get(a, b) * h[b].inverse()
        new[(b, a)] = h[b] * cocycle.get(b, a) * h[a].inverse()
    return GLCocycle(nerve, new, rank=cocycle.rank)


@dataclass(frozen=True)
class HolonomyReport:
    """Spanning-tree flattening of a cocycle.

    ``generators`` are the non-tree overlaps in input order and input
    orientation; ``images`` are their loop automorphisms (tree path in,
    edge, tree path back).  ``relations`` lists, per triple overlap, the
    boundary word in the generators — tree edges contribute nothing.
    ``tree_products`` maps each chart to the ordered product of transition
    values along its tree path from the basepoint.
    """

    basepoint: str
    tree: tuple                  # (parent, child) in discovery order
    generators: tuple            # non-tree edges
    images: tuple                # TorusAut per generator
    relations: tuple             # ((generator index, +-1), ...) per triangle
    tree_products: dict

    @property
    def trivial(self) -> bool:
        return all(im.is_identity() for im in self.images)


def holonomy(nerve: Nerve, cocycle: GLCocycle,
             basepoint: Optional[str] = None) -> HolonomyReport:
    """Flatten a valid cocycle along a BFS spanning tree.

    The tree is grown from the basepoint (default: lexicographically
    smallest chart), visiting neighbours in input-edge order, so identical
    inputs always give identical reports.  The cocycle is trivial up to
    coboundary iff every generator image is the identity.
    """
    if basepoint is None:
        basepoint = min(nerve.vertices)
    elif basepoint not in nerve.vertices:
        raise InputError("basepoint %r is not a chart" % (basepoint,))
    nerve.require_connected()
    report = check_cocycle(nerve, cocycle)
    if not report.ok:
        raise InputError("transition data fails validation: %s"
                         % (report.violations,))

    products = {basepoint: TorusAut.identity(cocycle.rank)}
    tree = []
    tree_keys = set()
    queue = deque([basepoint])
    while queue:
        v = queue.popleft()
        for w in nerve.neighbors(v):
            if w not in products:
                products[w] = products[v] * cocycle.get(v, w)
                tree.append((v, w))
                tree_keys.add(frozenset((v, w)))
                queue.append(w)

    generators = tuple((a, b) for a, b in nerve.edges
                       if frozenset((a, b)) not in tree_keys)
    gen_index = {frozenset(e): i for i, e in enumerate(generators)}
    images = tuple(products[a] * cocycle.get(a, b) * products[b].inverse()
                   for a, b in generators)

    relations = []
    for a, b, c in nerve.triangles:
        word = []
        for x, y in ((a, b), (b, c), (c, a)):
            key = frozenset((x, y))
            if key in tree_keys:
                continue
            i = gen_index[key]
            word.append((i, 1 if generators[i] == (x, y) else -1))
        relations.append(tuple(word))

    return HolonomyReport(basepoint=basepoint, tree=tuple(tree),
                          generators=generators, images=images,
                          relations=tuple(relations), tree_products=products)


@dataclass(frozen=True)
class ChartCorrections:
    """Per-chart automorphisms reconciling a cocycle with a representation.

    On every overlap, g(a,b) = rho_a * rho(word(a,b)) * rho_b^-1, where
    word(a,b) is the identity on tree edges and the matching generator on
    the rest.  ``edge_generator`` exposes that assignment.
    """

    basepoint: str
    rho_alpha: dict              # chart -> TorusAut
    tree: tuple
    generators: tuple
    _edge_words: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        words = {}
        for i, (a, b) in enumerate(self.generators):
            words.setdefault((a, b), (i, 1))
            words.setdefault((b, a), (i, -1))
        for parent, child in self.tree:
            words[(parent, child)] = words[(child, parent)] = None
        object.__setattr__(self, "_edge_words", words)

    def edge_generator(self, a: str, b: str):
        """(generator index, exponent) for a non-tree overlap, else None."""
        try:
            return self._edge_words[(a, b)]
        except KeyError:
            raise InputError("(%s, %s) is not an overlap" % (a, b))


def chart_corrections(nerve: Nerve, cocycle: GLCocycle, rho,
                      basepoint: Optional[str] = None) -> ChartCorrections:
    """Per-chart automorphisms exhibiting the cocycle in the class of rho.

    ``rho`` supplies one automorphism per holonomy generator — either a
    plain sequence in generator order or anything with a
    ``generator_images`` attribute.  Raises NoCorrection when the supplied
    images disagree with the holonomy, i.e. when no such per-chart data
    exists.  The defining relation is re-verified on every overlap before
    returning.
    """
    report = holonomy(nerve, cocycle, basepoint=basepoint)
    images = getattr(rho, "generator_images", None)
    if images is None:
        images = tuple(rho)
    if len(images) != len(report.generators):
        raise InputError("expected %d generator image(s), got %d"
                         % (len(report.generators), len(images)))

    for edge, given, found in zip(report.generators, images, report.images):
        if given != found:
            raise NoCorrection(
                "representation image on overlap (%s, %s) does not match "
                "the holonomy of the transition data" % edge)

    rho_alpha = {v: t.inverse() for v, t in report.tree_products.items()}

    corrections = ChartCorrections(basepoint=report.basepoint,
                                   rho_alpha=rho_alpha, tree=report.tree,
                                   generators=report.generators)
    # generators keep the input orientation, so nerve.edges hits each one
    # exactly as listed; tree edges carry the identity word
    gen_of = {e: im for e, im in zip(report.generators, images)}
    for a, b in nerve.edges:
        middle = gen_of.get((a, b), TorusAut.identity(cocycle.rank))
        expected = rho_alpha[a] * middle * rho_alpha[b].inverse()
        if cocycle.get(a, b) != expected:
            raise NoCorrection(
                "defining relation fails on overlap (%s, %s)" % (a, b))
    return corrections
