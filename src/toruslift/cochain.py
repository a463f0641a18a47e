"""Finite cochain modules over the sampled fiber product.

The coefficient module of the obstruction theory is the group of maps from
the pulled-back space into the fiber torus.  Here both are finite: points
are (chart, deck word, sample) triples within a deck-word window, glued
along the declared overlap identifications, and the fiber torus is the
subgroup Z_{m'}^k.  Cochains become finite tables; the coboundary operator
and the pi_1-action become exact table computations.

Windowing makes the deck action tables partial: entries whose image leaves
the window are flagged undefined rather than guessed.  Identifications
whose partner falls outside the window are simply not applied — the two
presentations then count as separate points.  Both truncations only ever
split or drop information, which is the direction that keeps infeasibility
certificates sound (a function on the true space restricts to one on the
truncated model, never the reverse).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import InputError, OutOfModel
from .groups import AtlasModel, FPGroup, Representation, Word
from .nerve import ChartCorrections
from .torus import TorusAut, compose_columns

UKey = Tuple[int, ...]          # element of (Z/m)^n as integers mod m
Vec = Tuple[int, ...]           # element of Z_{m'}^k


def u_keys(n: int, m: int):
    """All of (Z/m)^n in lexicographic order."""
    return itertools.product(range(m), repeat=n)


class BranchTables:
    """Per branch (chart, deck word) of the pulled-back atlas, the table
    u -> w = rho_alpha(rho(deck)(u)) mod m over (Z/m)^n: the argument of
    the rotation that the torus element u makes on that branch's samples.
    A branch's table is computed on its first lookup and kept by this
    instance."""

    def __init__(self, corrections: ChartCorrections, rho: Representation,
                 n: int, m: int):
        self._rho_alpha = corrections.rho_alpha
        self._rho = rho
        self._n = n
        self._m = m
        self._tables: Dict[tuple, Dict[UKey, UKey]] = {}

    def __getitem__(self, branch) -> Dict[UKey, UKey]:
        table = self._tables.get(branch)
        if table is None:
            chart, deck = branch
            aut = self._rho_alpha[chart] * self._rho.of(deck)
            table = self._tables[branch] = {
                u: aut.apply_mod(u, self._m) for u in u_keys(self._n, self._m)}
        return table


class FiniteModule:
    """Finite model of the coefficient module: points plus action tables.

    ``points`` are opaque ids (canonical fiber-product representatives when
    built from an atlas, any hashable labels for synthetic modules).  The
    torus table is total; deck tables carry None where the action leaves
    the window.  ``rho_images`` are the torus automorphisms attached to the
    deck generators — the module remembers them because the pi_1-action on
    cochains twists torus arguments by them.
    """

    def __init__(self, n: int, m: int, k: int, m_prime: int,
                 points: Sequence, torus_table: Dict[UKey, Sequence[int]],
                 deck_tables: Dict[Tuple[int, int], Sequence[Optional[int]]],
                 rho_images: Sequence[TorusAut], window: int = 0,
                 pi1_group: Optional[FPGroup] = None, class_of=None):
        self.n = n
        self.m = m
        self.k = k
        self.m_prime = m_prime
        self.points = tuple(points)
        self.window = window
        self.pi1_group = pi1_group
        self.rho_images = tuple(rho_images)
        #: presentation -> class index, for every enumerated node
        self.class_of = dict(class_of) if class_of else \
            {p: i for i, p in enumerate(self.points)}
        size = len(self.points)
        self._torus = {tuple(u): list(col) for u, col in torus_table.items()}
        self._deck = {key: list(col) for key, col in deck_tables.items()}
        for u in u_keys(n, m):
            if u not in self._torus:
                raise InputError("torus table missing %r" % (u,))
            if len(self._torus[u]) != size:
                raise InputError("torus table at %r has wrong length" % (u,))
        for (i, e), col in self._deck.items():
            if not (0 <= i < len(self.rho_images) and e in (1, -1)):
                raise InputError("bad deck table key %r" % ((i, e),))
            if len(col) != size:
                raise InputError("deck table %r has wrong length" % ((i, e),))
        for i in range(len(self.rho_images)):
            for e in (1, -1):
                if (i, e) not in self._deck:
                    raise InputError("deck table missing for generator "
                                     "%d^%d" % (i, e))

    @property
    def size(self) -> int:
        return len(self.points)

    @property
    def pi1_rank(self) -> int:
        return len(self.rho_images)

    def torus_act(self, u: UKey, c: int) -> int:
        return self._torus[u][c]

    def torus_column(self, u: UKey) -> List[int]:
        return self._torus[u]

    def deck_act_gen(self, i: int, e: int, c: int) -> Optional[int]:
        return self._deck[(i, e)][c]

    def deck_act(self, word: Word, c: Optional[int]) -> Optional[int]:
        """Apply the point action of phi_pi1(word), letter by letter.

        None in, or any out-of-window step, gives None out.
        """
        if c is None:
            return None
        for i, e in word:
            step = 1 if e > 0 else -1
            for _ in range(abs(e)):
                c = self._deck[(i, step)][c]
                if c is None:
                    return None
        return c

    def rho_of(self, word: Word) -> TorusAut:
        out = None
        for i, e in word:
            aut = self.rho_images[i] ** e
            out = aut if out is None else out * aut
        if out is None:
            return TorusAut.identity(self.n)
        return out

    def rho_u(self, word: Word, u: UKey) -> UKey:
        return self.rho_of(word).apply_mod(u, self.m)

    def add_u(self, u: UKey, v: UKey) -> UKey:
        return tuple((a + b) % self.m for a, b in zip(u, v))

    def generator_u(self, j: int) -> UKey:
        return tuple(1 if i == j else 0 for i in range(self.n))

    def zero_vec(self) -> Vec:
        return (0,) * self.k

    def reduce_vec(self, vec: Sequence[int]) -> Vec:
        if len(vec) != self.k:
            raise InputError("fiber vector has rank %d, expected %d"
                             % (len(vec), self.k))
        return tuple(v % self.m_prime for v in vec)

    # -- honesty checks ----------------------------------------------------

    def validate_actions(self) -> list:
        """Check the tables really encode commuting group actions.

        Verifies: the torus table is the abelian action generated by its
        e_j columns (including m-torsion), deck generator tables are
        mutually inverse where defined, the torus/deck commutation
        phi_T(rho(a)(u)) o phi_pi1(a) = phi_pi1(a) o phi_T(u) holds on
        every defined entry, and deck tables satisfy the pi_1 family
        relations where visible.  Returns a list of violation descriptions;
        the vanishing test refuses modules that fail.
        """
        bad = []
        size = self.size
        gens = [self._torus[self.generator_u(j)] for j in range(self.n)]
        for j, col in enumerate(gens):
            if sorted(v for v in col) != list(range(size)):
                bad.append(("torus-not-bijective", j))
                continue
            if compose_columns([col], (self.m,), size) != list(range(size)):
                bad.append(("torus-torsion", j))
        for i in range(self.n):
            for j in range(i + 1, self.n):
                for c in range(size):
                    if gens[i][gens[j][c]] != gens[j][gens[i][c]]:
                        bad.append(("torus-noncommuting", i, j, c))
                        break
        for u in u_keys(self.n, self.m):
            if compose_columns(gens, u, size) != self._torus[u]:
                bad.append(("torus-not-generated", u))
        for i in range(self.pi1_rank):
            fwd, rev = self._deck[(i, 1)], self._deck[(i, -1)]
            for c in range(size):
                if fwd[c] is not None and rev[fwd[c]] not in (None, c):
                    bad.append(("deck-not-inverse", i, c))
                if rev[c] is not None and fwd[rev[c]] not in (None, c):
                    bad.append(("deck-not-inverse", i, c))
        for i in range(self.pi1_rank):
            for e in (1, -1):
                aut = self.rho_images[i] ** e
                col = self._deck[(i, e)]
                for u in u_keys(self.n, self.m):
                    ru = aut.apply_mod(u, self.m)
                    tu, tru = self._torus[u], self._torus[ru]
                    for c in range(size):
                        if col[c] is None:
                            continue
                        if tru[col[c]] != col[tu[c]]:
                            bad.append(("torus-deck-commutation", i, e, u, c))
                            break
        bad.extend(self._family_relation_violations())
        return bad

    def _family_relation_violations(self):
        bad = []
        group = self.pi1_group
        if group is None:
            return bad
        if group.family == "free_abelian":
            for i in range(self.pi1_rank):
                for j in range(i + 1, self.pi1_rank):
                    for c in range(self.size):
                        a = self.deck_act(((i, 1), (j, 1)), c)
                        b = self.deck_act(((j, 1), (i, 1)), c)
                        if a is not None and b is not None and a != b:
                            bad.append(("deck-noncommuting", i, j, c))
                            break
        if group.family == "cyclic":
            q = group.modulus
            for c in range(self.size):
                out = self.deck_act(((0, q),), c)
                if out is not None and out != c:
                    bad.append(("deck-order", c))
        return bad


def build_finite_module(model: AtlasModel, rho: Representation,
                        corrections: ChartCorrections, window: int,
                        fiber_rank: int, fiber_order: int) -> FiniteModule:
    """Enumerate the windowed fiber product of an atlas and tabulate actions.

    Points are (chart, deck word, sample index) triples with deck words in
    the ball of the given radius, identified across overlaps whenever both
    presentations fall inside the window.  Canonical representatives are
    minimal by (deck length, deck word, chart position, sample index).
    """
    if window < 0:
        raise InputError("window must be >= 0")
    group = rho.group
    ball = group.ball(window)
    ball_set = set(ball)
    nerve = model.nerve

    chart_pos = {v: i for i, v in enumerate(nerve.vertices)}
    nodes = [(chart, deck, z) for chart in nerve.vertices for deck in ball
             for z in range(len(model.samples[chart]))]
    node_index = {node: i for i, node in enumerate(nodes)}

    parent = list(range(len(nodes)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    for a, b in nerve.edges:
        for to_chart, from_chart in ((a, b), (b, a)):
            gen = corrections.edge_generator(to_chart, from_chart)
            trans = () if gen is None else group.normalize((gen,))
            mates = model.match_indices(to_chart, from_chart)
            for z_from, z_to in enumerate(mates):
                if z_to is None:
                    continue
                for deck in ball:
                    lifted = group.mul(trans, deck)
                    if lifted not in ball_set:
                        continue
                    union(node_index[(from_chart, deck, z_from)],
                          node_index[(to_chart, lifted, z_to)])

    def node_key(idx):
        chart, deck, z = nodes[idx]
        return (group.word_length(deck), deck, chart_pos[chart], z)

    roots: Dict[int, list] = {}
    for i in range(len(nodes)):
        roots.setdefault(find(i), []).append(i)
    reps = sorted((min(members, key=node_key) for members in roots.values()),
                  key=node_key)
    class_of_node = {}
    for cls, rep in enumerate(reps):
        for member in roots[find(rep)]:
            class_of_node[nodes[member]] = cls
    points = tuple(nodes[rep] for rep in reps)

    n, m = model.rank, model.torus_order
    branches = BranchTables(corrections, rho, n, m)
    branch_keys = {point[:2] for point in points}
    torus_table = {}
    for u in u_keys(n, m):
        perms = {branch: model.rotation(branch[0], branches[branch][u])
                 for branch in branch_keys}
        torus_table[u] = [
            class_of_node[(chart, deck, perms[(chart, deck)][z])]
            for chart, deck, z in points]

    deck_tables = {}
    for i in range(group.rank):
        for e in (1, -1):
            shift = ((i, -e),)
            column = []
            for chart, deck, z in points:
                word = group.mul(deck, shift)
                column.append(class_of_node.get((chart, word, z))
                              if word in ball_set else None)
            deck_tables[(i, e)] = column

    return FiniteModule(n=n, m=m, k=fiber_rank, m_prime=fiber_order,
                        points=points, torus_table=torus_table,
                        deck_tables=deck_tables,
                        rho_images=rho.generator_images, window=window,
                        pi1_group=group, class_of=class_of_node)


@dataclass
class CochainTable:
    """A degree-q cochain on the torus direction, as a finite table.

    ``values`` maps a q-tuple of torus arguments to a column of fiber
    vectors indexed by point class; a None entry marks a point where the
    cochain is undefined (it referenced an out-of-window deck image).
    Degree 0 uses the single key ().  ``domain`` names the argument group
    (always the torus here; deck-direction data lives in its own type).
    """

    q: int
    values: Dict[tuple, list]
    domain: str = "torus"

    def value(self, us: tuple, c: int):
        return self.values[us][c]


def zero_cochain(module: FiniteModule, q: int) -> CochainTable:
    zero = module.zero_vec()
    keys = itertools.product(u_keys(module.n, module.m), repeat=q)
    return CochainTable(q=q, values={us: [zero] * module.size
                                     for us in keys})


def cochain_add(a: CochainTable, b: CochainTable,
                module: FiniteModule) -> CochainTable:
    if a.q != b.q:
        raise InputError("cannot add cochains of degrees %d and %d"
                         % (a.q, b.q))
    out = {}
    for us, col in a.values.items():
        other = b.values[us]
        out[us] = [None if x is None or y is None
                   else module.reduce_vec([p + q_ for p, q_ in zip(x, y)])
                   for x, y in zip(col, other)]
    return CochainTable(q=a.q, values=out)


def _column(sigma: CochainTable, us: tuple):
    try:
        return sigma.values[us]
    except KeyError:
        raise OutOfModel("cochain has no entry at arguments %r" % (us,))


def coboundary(sigma: CochainTable, module: FiniteModule) -> CochainTable:
    """The explicit coboundary on torus-direction cochains.

    delta s(u_1,...,u_{q+1}, x) = s(u_2,...,u_{q+1}, x)
        + sum_i (-1)^i s(u_1, ..., u_i + u_{i+1}, ..., u_{q+1}, x)
        + (-1)^{q+1} s(u_1,...,u_q, u_{q+1} . x)

    where the last term acts on the point through the torus table.  Works
    in any degree; an undefined entry in any referenced term leaves the
    result undefined there.
    """
    q = sigma.q
    mp = module.m_prime
    keys = list(u_keys(module.n, module.m))
    last_sign = 1 if (q + 1) % 2 == 0 else -1
    out = {}
    for us in itertools.product(keys, repeat=q + 1):
        terms = [(1, _column(sigma, us[1:]), None)]
        sign = 1
        for i in range(1, q + 1):
            sign = -sign
            merged = (us[:i - 1] + (module.add_u(us[i - 1], us[i]),)
                      + us[i + 1:])
            terms.append((sign, _column(sigma, merged), None))
        terms.append((last_sign, _column(sigma, us[:q]),
                      module.torus_column(us[q])))
        column = []
        for c in range(module.size):
            total = [0] * module.k
            for sgn, col, perm in terms:
                entry = col[c] if perm is None else col[perm[c]]
                if entry is None:
                    total = None
                    break
                for idx, v in enumerate(entry):
                    total[idx] += sgn * v
            column.append(None if total is None
                          else tuple(v % mp for v in total))
        out[us] = column
    return CochainTable(q=q + 1, values=out)


# -- the presentation of (Z/m)^n: a degree-1 torus cocycle is fixed by its
# generator values tau(e_j, x) subject to the torsion and commutation
# relators.  ``relation_rows`` and ``generator_terms`` code this once; their
# only input about the action is the generator columns gens[j][x] = e_j . x.

def generator_columns(module: FiniteModule) -> List[List[int]]:
    return [module.torus_column(module.generator_u(j))
            for j in range(module.n)]


def relation_rows(gens: Sequence[Sequence[int]], m: int):
    """The relators as (label, coeffs) rows, coeffs a dict over (j, x):
    ("torsion", j, x) is sum_{t<m} tau(e_j, e_j^t.x) and ("commutes", i, j,
    x) is tau(e_i, e_j.x) + tau(e_j, x) - tau(e_j, e_i.x) - tau(e_i, x).
    Zero coefficients and empty rows are dropped."""
    for j, col in enumerate(gens):
        for x in range(len(col)):
            coeffs = {}
            cur = x
            for _ in range(m):
                coeffs[(j, cur)] = coeffs.get((j, cur), 0) + 1
                cur = col[cur]
            yield ("torsion", j, x), coeffs
    for i, gi in enumerate(gens):
        for j in range(i + 1, len(gens)):
            gj = gens[j]
            for x in range(len(gi)):
                coeffs = {}
                for key, delta in (((i, gj[x]), 1), ((j, x), 1),
                                   ((j, gi[x]), -1), ((i, x), -1)):
                    coeffs[key] = coeffs.get(key, 0) + delta
                coeffs = {key: v for key, v in coeffs.items() if v}
                if coeffs:
                    yield ("commutes", i, j, x), coeffs


def generator_terms(gens: Sequence[Sequence[int]], u: UKey) -> list:
    """tau(l_1 + ... + l_L, x) = sum_t tau(l_t, (suffix after t).x) with
    letters e_0 (u_0 times), then e_1, ...; u is reduced mod m.  Returns
    the terms, last letter first, as (j, column): column[x] is the point
    whose e_j value the term reads."""
    cur = list(range(len(gens[0]))) if gens else []
    terms = []
    for j in reversed(range(len(u))):
        for _ in range(u[j]):
            terms.append((j, cur))
            cur = [gens[j][c] for c in cur]
    return terms


def expansion_columns(gens: Sequence[Sequence[int]], m: int, m_prime: int,
                      values: Sequence[Sequence], size: int,
                      k: int) -> Dict[UKey, list]:
    """u -> column over (Z/m)^n in ``u_keys`` order, where column[x] is
    the generator expansion of tau(u, x) by ``generator_terms``' letters,
    summed from the values values[j][y] = tau(e_j, y) and reduced mod
    m_prime; None where a value it reads is None.  With j0 the first
    nonzero coordinate of u, the first letter is e_j0, so

        tau(u, x) = tau(e_j0, (u - e_j0).x) + tau(u - e_j0, x)
        u.x = e_j0.((u - e_j0).x)

    and each entry extends the already built column of u - e_j0 by one
    value."""
    keys = u_keys(len(gens), m)
    origin = next(keys)
    moved = {origin: range(size)}
    totals = {origin: [(0,) * k] * size}
    for u in keys:
        j0 = next(j for j, v in enumerate(u) if v)
        prev = u[:j0] + (u[j0] - 1,) + u[j0 + 1:]
        before, gen = moved[prev], values[j0]
        moved[u] = [gens[j0][y] for y in before]
        totals[u] = [
            None if total is None or gen[y] is None
            else tuple((a + b) % m_prime for a, b in zip(total, gen[y]))
            for total, y in zip(totals[prev], before)]
    return totals


def _nonzero(coeffs, values, mp: int) -> bool:
    """sum a * values[j][x] over coeffs != 0 mod mp; False when a value
    read is undefined (None)."""
    total = None
    for (j, x), a in coeffs.items():
        vec = values[j][x]
        if vec is None:
            return False
        total = [a * v for v in vec] if total is None \
            else [t + a * v for t, v in zip(total, vec)]
    return any(t % mp for t in total)


def cocycle_violations(gens: Sequence[Sequence[int]], m: int, m_prime: int,
                       columns: Dict[UKey, Sequence], k: int) -> list:
    """Where the table u -> columns[u] of rank-k vectors breaks the cocycle
    identity: its generator values must satisfy every relation row and
    each tau(u, x) equal its generator expansion (tau(0, x) = 0), checked
    only where every entry read is defined (not None)."""
    n = len(gens)
    values = [columns[tuple(1 % m if i == j else 0 for i in range(n))]
              for j in range(n)]
    bad = [label for label, coeffs in relation_rows(gens, m)
           if _nonzero(coeffs, values, m_prime)]
    origin = (0,) * n
    expected = expansion_columns(gens, m, m_prime, values,
                                 len(columns[origin]), k)
    for u, want in expected.items():
        for x, (vec, exp) in enumerate(zip(columns[u], want)):
            if vec is not None and exp is not None and vec != exp and any(
                    (a - b) % m_prime for a, b in zip(vec, exp)):
                bad.append(("cocycle", u, x) if u != origin else ("zero", x))
    return bad


@dataclass(frozen=True)
class CocycleCheck:
    ok: bool
    violations: tuple      # relation labels, ("zero", x), ("cocycle", u, x)


def is_cocycle(sigma: CochainTable, module: FiniteModule) -> CocycleCheck:
    """True iff tau(u1 + u2, x) = tau(u1, u2.x) + tau(u2, x) holds on
    every defined entry of the degree-1 table (``cocycle_violations``)."""
    if sigma.q != 1:
        raise InputError("is_cocycle takes a degree-1 table, not degree %d"
                         % sigma.q)
    columns = {u: _column(sigma, (u,)) for u in u_keys(module.n, module.m)}
    bad = cocycle_violations(generator_columns(module), module.m,
                             module.m_prime, columns, module.k)
    return CocycleCheck(ok=not bad, violations=tuple(bad))


def expand_witness(module: FiniteModule, gen_values) -> CochainTable:
    """Total degree-1 table generated by values on (e_j, x) pairs."""
    values = [[gen_values[(j, c)] for c in range(module.size)]
              for j in range(module.n)]
    totals = expansion_columns(generator_columns(module), module.m,
                               module.m_prime, values, module.size, module.k)
    return CochainTable(q=1, values={(u,): col for u, col in totals.items()})


def pi1_act(sigma: CochainTable, word: Word,
            module: FiniteModule) -> CochainTable:
    """Right pi_1-action on cochains:
    (s . a)(u_1,...,u_q, x) = s(rho(a)(u_1),...,rho(a)(u_q), phi_pi1(a)(x)).

    Entries whose point image leaves the window become None.
    """
    moved = [module.deck_act(word, c) for c in range(module.size)]
    out = {}
    for us, _ in sigma.values.items():
        twisted = tuple(module.rho_u(word, u) for u in us)
        src = sigma.values[twisted]
        out[us] = [None if moved[c] is None else src[moved[c]]
                   for c in range(module.size)]
    return CochainTable(q=sigma.q, values=out)
