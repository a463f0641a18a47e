"""Chart liftings, equivariant gluing, the obstruction table, and its
vanishing test.

A chart lifting extends the standard torus action on a chart to the
trivialized bundle over it: phi(u)(z, t) = (u.z, t + c(u, z)), with the
fiber shift table c satisfying a cocycle identity that makes phi a group
action.  Gluing data carries the fiber components of the bundle
transitions between charts.  Once every chart lifting is valid and every
gluing is equivariant, the data assembles into evaluators for the lifted
torus action and the deck action on the pulled-back bundle.

The failure of the assembled lifting to commute with the deck action is
measured by a table sigma(a, u, x); it vanishes up to a coboundary exactly
when an equivariant lifting exists at the modeled scale.  The vanishing
test turns that coboundary equation into an exact linear system over
Z_{m'} and hands it to the modular solver.  Windowed truncation keeps
one direction sound: an infeasibility certificate survives any
enlargement of the model, while a solution is only an at-scale witness.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Mapping, Optional, Sequence, Tuple

from .cochain import (
    BranchTables,
    CochainTable,
    FiniteModule,
    cochain_add,
    cocycle_violations,
    expand_witness,
    generator_columns,
    generator_terms,
    is_cocycle,
    relation_rows,
    u_keys,
)
from .errors import (
    AssemblyError,
    DimensionError,
    InputError,
    InvalidSigma,
    OutOfModel,
    ReconstructionError,
)
from .groups import Representation
from .nerve import ChartCorrections
from .smith import solve_verified
from .torus import PolarPoint, grid_generators

Vec = Tuple[int, ...]


def _vadd(a: Vec, b: Vec, mod: int) -> Vec:
    return tuple((x + y) % mod for x, y in zip(a, b))


def _vsub(a: Vec, b: Vec, mod: int) -> Vec:
    return tuple((x - y) % mod for x, y in zip(a, b))


@dataclass(frozen=True)
class LiftingReport:
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


class ChartLifting:
    """Fiber-shift table of one chart's lifted torus action.

    ``table`` maps (u, z) to a vector in Z_{m'}^k, u an integer tuple mod
    m and z a polar sample of the chart; it is read-only once built, as
    the construction also indexes it by sample position.  Validity (the
    action identity) is a separate check so invalid tables can be
    constructed and reported.
    """

    def __init__(self, chart: str, m: int, m_prime: int,
                 table: Mapping[Tuple[tuple, PolarPoint], Sequence[int]],
                 n: int = None, k: int = None):
        if m < 1 or m_prime < 1:
            raise InputError("orders must be >= 1")
        self.chart = chart
        self.m = m
        self.m_prime = m_prime
        self.table: Dict[Tuple[tuple, PolarPoint], Vec] = {}
        self.n = n
        self.k = k
        first_seen: Dict[PolarPoint, int] = {}
        entries = []
        for (u, z), vec in table.items():
            u = tuple(int(v) for v in u)
            if self.n is None:
                self.n = len(u)
            if len(u) != self.n or any(not 0 <= v < m for v in u):
                raise InputError(
                    "chart %s: key %r is not an element of (Z/%d)^%d"
                    % (chart, u, m, self.n))
            vec = tuple(int(v) % m_prime for v in vec)
            if self.k is None:
                self.k = len(vec)
            if len(vec) != self.k:
                raise InputError("chart %s: mixed fiber ranks" % chart)
            self.table[(u, z)] = vec
            entries.append((u, first_seen.setdefault(z, len(first_seen)),
                            vec))
        if self.n is None or self.k is None:
            # a chart with no samples carries an empty table; its ranks
            # cannot be inferred and must be given
            raise InputError("chart %s: lifting table is empty and n/k "
                             "were not supplied" % chart)
        ordered = sorted(first_seen.items())
        self.samples = tuple(z for z, _ in ordered)
        #: sample -> its position in ``samples``
        self._position = {z: pos for pos, (z, _) in enumerate(ordered)}
        position_of = [0] * len(ordered)
        for pos, (_, seen) in enumerate(ordered):
            position_of[seen] = pos
        #: u -> per position in ``samples``: the table entry or None
        self._columns = {u: [None] * len(ordered) for u in u_keys(self.n, m)}
        for u, seen, vec in entries:
            self._columns[u][position_of[seen]] = vec


def _table_columns(lifting: ChartLifting, samples, n: int, m: int) -> dict:
    """u in (Z/m)^n -> the table entries at ``samples``, None if absent
    (the lifting's own index when ``samples`` and (n, m) are its own)."""
    positions = [lifting._position.get(z) for z in samples]
    if (n, m) == (lifting.n, lifting.m) and \
            positions == list(range(len(lifting.samples))):
        return lifting._columns
    absent = [None] * len(lifting.samples)
    columns = {}
    for u in u_keys(n, m):
        col = lifting._columns.get(u, absent)
        columns[u] = [None if pos is None else col[pos] for pos in positions]
    return columns


def check_chart_lifting(lifting: ChartLifting) -> LiftingReport:
    """Validate the action identity c(u1+u2, z) = c(u1, u2.z) + c(u2, z)
    together with c(0, z) = 0 on the generator rotations of the samples
    (``cocycle_violations``), listing every violation.  An absent entry, or
    a rotation that leaves the samples, is listed as missing."""
    m, n = lifting.m, lifting.n
    samples = lifting.samples
    gens = grid_generators(samples, n, m)
    violations = [("missing", tuple(int(i == j) % m for i in range(n)),
                   samples[x]) for j, col in enumerate(gens)
                  for x, moved in enumerate(col) if moved is None]
    columns = _table_columns(lifting, samples, n, m)
    for u, col in columns.items():
        violations.extend(("missing", u, z)
                          for z, vec in zip(samples, col) if vec is None)
    if all(x is not None for col in gens for x in col):
        violations.extend(
            v[:-1] + (samples[v[-1]],)
            for v in cocycle_violations(gens, m, lifting.m_prime, columns,
                                        lifting.k))
    return LiftingReport(violations=tuple(violations))


class GluingData:
    """Fiber components of the bundle transitions, per oriented overlap.

    The table for (alpha, beta) is keyed by beta-side overlap samples:
    moving a presentation from beta to alpha shifts the fiber coordinate
    by g(alpha, beta)(z_beta).
    """

    def __init__(self, m_prime: int,
                 tables: Mapping[Tuple[str, str],
                                 Mapping[PolarPoint, Sequence[int]]]):
        if m_prime < 1:
            raise InputError("fiber order must be >= 1")
        self.m_prime = m_prime
        self.k = None
        self.tables: Dict[Tuple[str, str], Dict[PolarPoint, Vec]] = {}
        for edge, table in tables.items():
            out = {}
            for z, vec in table.items():
                vec = tuple(int(v) % m_prime for v in vec)
                if self.k is None:
                    self.k = len(vec)
                if len(vec) != self.k:
                    raise InputError("gluing on %r: mixed fiber ranks"
                                     % (edge,))
                out[z] = vec
            self.tables[(edge[0], edge[1])] = out

    def get_table(self, a: str, b: str) -> Dict[PolarPoint, Vec]:
        return self.tables.get((a, b), {})

    def value(self, a: str, b: str, z: PolarPoint) -> Vec:
        try:
            return self.tables[(a, b)][z]
        except KeyError:
            raise OutOfModel("no gluing value on (%s, %s) at %r" % (a, b, z))


def check_gluing(model, gluing: GluingData) -> LiftingReport:
    """Antisymmetry, totality on matched samples, and triangle additivity."""
    mp = gluing.m_prime
    violations = []
    for a, b in model.nerve.edges:
        for to_chart, from_chart in ((a, b), (b, a)):
            table = gluing.get_table(to_chart, from_chart)
            opposite = gluing.get_table(from_chart, to_chart)
            for z in model.samples[from_chart]:
                mate = model.matched(to_chart, from_chart, z)
                if mate is None:
                    continue
                if z not in table:
                    violations.append(("missing", to_chart, from_chart, z))
                    continue
                back = opposite.get(mate)
                if back is None or \
                        back != tuple((-v) % mp for v in table[z]):
                    violations.append(
                        ("antisymmetry", to_chart, from_chart, z))
    for a, b, c in model.nerve.triangles:
        for z_c in model.samples[c]:
            z_b = model.matched(b, c, z_c)
            z_a = model.matched(a, c, z_c)
            if z_b is None or z_a is None:
                continue
            if model.matched(a, b, z_b) != z_a:
                violations.append(("incoherent-overlap", a, b, c, z_c))
                continue
            try:
                direct = gluing.value(a, c, z_c)
                step1 = gluing.value(b, c, z_c)
                step2 = gluing.value(a, b, z_b)
            except OutOfModel:
                continue    # totality reported above
            if direct != _vadd(step1, step2, mp):
                violations.append(("triangle", a, b, c, z_c))
    return LiftingReport(violations=tuple(violations))


def check_equivariant_gluing(model, a: str, b: str, lift_a: ChartLifting,
                             lift_b: ChartLifting,
                             gluing: GluingData) -> LiftingReport:
    """The transition must intertwine the two chart liftings:

    c_b(u, z) + g(a,b)(u.z) = g(a,b)(z) + c_a(rho_ab(u), matched z)

    for every matched sample z of chart b and every u.  This is exactly
    chart-independence of the assembled lifted action on the overlap.
    """
    m, mp = model.torus_order, gluing.m_prime
    aut = model.cocycle.get(a, b)
    samples_a, samples_b = model.samples[a], model.samples[b]
    mates = model.match_indices(a, b)
    violations = []
    if all(mate is None for mate in mates):
        return LiftingReport(violations=())
    cols_a = _table_columns(lift_a, samples_a, model.rank, m)
    cols_b = _table_columns(lift_b, samples_b, model.rank, m)
    glue = [gluing.get_table(a, b).get(z) for z in samples_b]
    for zi, mate in enumerate(mates):
        if mate is None:
            continue
        for u in u_keys(model.rank, m):
            terms = (cols_b[u][zi], glue[model.rotation(b, u)[zi]],
                     glue[zi], cols_a[aut.apply_mod(u, m)][mate])
            if None in terms:
                violations.append(("missing", a, b, u, samples_b[zi]))
            elif _vadd(*terms[:2], mp) != _vadd(*terms[2:], mp):
                violations.append(("equivariance", a, b, u, samples_b[zi]))
    return LiftingReport(violations=tuple(violations))


class GlobalLifting:
    """Evaluators for the lifted torus action and the deck action.

    Points are presentations (chart, deck word, sample index) paired with
    a fiber coordinate in Z_{m'}^k.  The lifted torus action rotates the
    sample by rho_alpha(rho(deck)(u)) and shifts the fiber by the chart
    table at the source sample; the deck action multiplies the deck word
    on the right by the inverse and leaves the fiber coordinate alone
    (fiber coordinates live in the chart trivialization downstairs, which
    deck translation does not change).  An optional twist adds a cochain
    value at the source point class and is how non-equivariant liftings
    are produced and repaired.
    """

    def __init__(self, model, corrections: ChartCorrections,
                 rho: Representation, liftings: Mapping[str, ChartLifting],
                 gluing: GluingData, twist=None):
        self.model = model
        self.corrections = corrections
        self.rho = rho
        self.liftings = dict(liftings)
        self.gluing = gluing
        self.m = model.torus_order
        self.n = model.rank
        some = next(iter(self.liftings.values()))
        self.m_prime = some.m_prime
        self.k = some.k
        self.twist = twist          # (FiniteModule, CochainTable) or None
        self._branches = BranchTables(corrections, rho, self.n, self.m)
        # w -> -w mod m, the argument of the inverse rotation
        self._negated = {w: tuple((-v) % self.m for v in w)
                         for w in u_keys(self.n, self.m)}
        # (deck, word) -> deck . word^-1
        self._deck_moves = {}
        # chart -> u -> per sample index: fiber shift or None
        self._shift = {
            chart: _table_columns(lifting, model.samples[chart], self.n,
                                  self.m)
            for chart, lifting in self.liftings.items()
            if chart in model.samples}
        # (to, from) -> per from-sample index: gluing shift or None
        self._glue = {
            (x, y): [gluing.get_table(x, y).get(z)
                     for z in model.samples[y]]
            for a, b in model.nerve.edges for x, y in ((a, b), (b, a))}

    def _branch_w(self, u, chart: str, deck) -> Tuple[Vec, Vec]:
        """u reduced mod m, and w = rho_alpha(rho(deck)(u)) mod m read from
        the branch table.  Only a u that is not already a reduced key
        takes the slow path; a u of the wrong rank raises DimensionError."""
        table = self._branches[chart, deck]
        try:
            return u, table[u]
        except (KeyError, TypeError):
            pass
        if len(u) != self.n:
            raise DimensionError("torus element of rank %d acting on a "
                                 "rank-%d lifting" % (len(u), self.n))
        try:
            u = tuple(operator.index(v) % self.m for v in u)
        except TypeError:
            raise InputError("torus element %r is not an integer vector"
                             % (u,))
        return u, table[u]

    def _shift_at(self, u: Vec, w: Vec, node) -> Vec:
        """Fiber shift of the lifted action of the reduced u, whose branch
        argument at ``node`` is w."""
        chart, _, z = node
        shift = self._shift[chart][w][z]
        if shift is None:
            raise OutOfModel("chart %s has no lifting entry at (%r, %r)"
                             % (chart, w, self.model.samples[chart][z]))
        if self.twist is not None:
            module, table = self.twist
            cls = module.class_of.get(node)
            if cls is None:
                raise OutOfModel("presentation %r is outside the twist "
                                 "window" % (node,))
            extra = table.values[(u,)][cls]
            if extra is None:
                raise OutOfModel("twist undefined at %r" % (node,))
            shift = _vadd(shift, extra, self.m_prime)
        return shift

    def source_shift(self, u: tuple, node) -> Vec:
        """Fiber shift of the lifted action of u at the given presentation."""
        u, w = self._branch_w(u, node[0], node[1])
        return self._shift_at(u, w, node)

    def act_T(self, u: tuple, node, t: Vec):
        chart, deck, z = node
        u, w = self._branch_w(u, chart, deck)
        moved = (chart, deck, self.model.rotation(chart, w)[z])
        return moved, _vadd(t, self._shift_at(u, w, node), self.m_prime)

    def act_T_inv(self, u: tuple, node, t: Vec):
        chart, deck, z = node
        u, w = self._branch_w(u, chart, deck)
        source = (chart, deck,
                  self.model.rotation(chart, self._negated[w])[z])
        return source, _vsub(t, self._shift_at(u, w, source), self.m_prime)

    def act_pi1(self, word, node, t: Vec):
        chart, deck, z = node
        moved = self._deck_moves.get((deck, word))
        if moved is None:
            group = self.rho.group
            moved = self._deck_moves[(deck, word)] = \
                group.mul(deck, group.inv(word))
        return (chart, moved, z), t

    def transition(self, node_from, node_to, t: Vec) -> Vec:
        """Fiber coordinate of the same bundle point in another
        presentation, accumulated along overlap hops.

        Presentations reachable by chains of single-overlap identifications
        are supported; a revisit with a conflicting shift means the gluing
        has holonomy around an overlap cycle and raises AssemblyError.
        """
        group = self.rho.group
        seen = {node_from: t}
        frontier = [node_from]
        while frontier:
            nxt = []
            for node in frontier:
                chart, deck, z = node
                for other in self.model.nerve.neighbors(chart):
                    mate = self.model.match_indices(other, chart)[z]
                    if mate is None:
                        continue
                    shift = self._glue[(other, chart)][z]
                    if shift is None:
                        raise OutOfModel(
                            "no gluing value on (%s, %s) at %r"
                            % (other, chart, self.model.samples[chart][z]))
                    gen = self.corrections.edge_generator(other, chart)
                    trans = () if gen is None else group.normalize((gen,))
                    target = (other, group.mul(trans, deck), mate)
                    t_new = _vadd(seen[node], shift, self.m_prime)
                    if target in seen:
                        if seen[target] != t_new:
                            raise AssemblyError(
                                "gluing holonomy around an overlap "
                                "cycle at %r" % (target,))
                        continue
                    seen[target] = t_new
                    nxt.append(target)
            frontier = nxt
        if node_to not in seen:
            raise OutOfModel("presentations %r and %r are not identified "
                             "within the model" % (node_from, node_to))
        return seen[node_to]

    def with_twist(self, module: FiniteModule,
                   table: CochainTable) -> "GlobalLifting":
        if table.q != 1:
            raise InputError("twist must be a degree-1 table")
        if self.twist is not None:
            old_module, old_table = self.twist
            if old_module is not module:
                raise InputError("cannot compose twists over different "
                                 "windows")
            table = cochain_add(old_table, table, module)
        return GlobalLifting(self.model, self.corrections, self.rho,
                             self.liftings, self.gluing,
                             twist=(module, table))


def assemble_global_lifting(model, corrections: ChartCorrections,
                            rho: Representation,
                            liftings: Mapping[str, ChartLifting],
                            gluing: GluingData) -> GlobalLifting:
    """Re-run every validity check and return the evaluators.

    Raises AssemblyError naming the first violated identity: chart tables
    must be total and satisfy the action identity, gluing must be
    antisymmetric and triangle-additive, and every overlap must satisfy
    the equivariance identity (which is chart-independence of the lifted
    action on all declared overlap samples).
    """
    m = model.torus_order
    for chart in model.nerve.vertices:
        if chart not in liftings:
            raise AssemblyError("no lifting table for chart %s" % chart)
        lifting = liftings[chart]
        if lifting.chart != chart:
            raise AssemblyError("lifting labeled %r attached to chart %s"
                               % (lifting.chart, chart))
        if lifting.m != m or lifting.n != model.rank:
            raise AssemblyError("chart %s: lifting orders disagree with "
                                "the model" % chart)
        declared = set(lifting.samples)
        wanted = set(model.samples[chart])
        if declared != wanted:
            raise AssemblyError(
                "chart %s: lifting table domain differs from the chart "
                "samples" % chart)
        report = check_chart_lifting(lifting)
        if not report.ok:
            raise AssemblyError("chart %s violates the lifting identity: "
                                "%r" % (chart, report.violations[0]))
    ks = {l.k for l in liftings.values()}
    if gluing.k is not None:
        ks.add(gluing.k)
    mps = {l.m_prime for l in liftings.values()} | {gluing.m_prime}
    if len(ks) > 1 or len(mps) > 1:
        raise AssemblyError("fiber shapes disagree across charts/gluing")
    report = check_gluing(model, gluing)
    if not report.ok:
        raise AssemblyError("gluing data invalid: %r" % (report.violations[0],))
    for a, b in model.nerve.edges:
        for to_chart, from_chart in ((a, b), (b, a)):
            report = check_equivariant_gluing(
                model, to_chart, from_chart, liftings[to_chart],
                liftings[from_chart], gluing)
            if not report.ok:
                raise AssemblyError(
                    "overlap (%s, %s) is not equivariant: %r"
                    % (to_chart, from_chart, report.violations[0]))
    return GlobalLifting(model, corrections, rho, liftings, gluing)


@dataclass(frozen=True)
class SigmaTable:
    """Per-generator obstruction tables: sigma(a, u, x) in Z_{m'}^k.

    ``tables[i]`` is the degree-1 torus table of the i-th deck generator;
    None entries mark evaluations that left the window.
    """

    tables: Tuple[CochainTable, ...]

    @property
    def num_generators(self) -> int:
        return len(self.tables)

    def entry(self, i: int, u: tuple, c: int):
        return self.tables[i].values[(u,)][c]

    def is_zero(self) -> bool:
        return all(v is None or all(x == 0 for x in v)
                   for table in self.tables
                   for col in table.values.values() for v in col)


def _sigma_entry(lifting, module, word, inv, ru, u, cls):
    node = module.points[cls]
    results = []
    for start in ((0,) * lifting.k, (1,) + (0,) * (lifting.k - 1)):
        cur, t = lifting.act_pi1(word, node, start)
        try:
            cur, t = lifting.act_T(ru, cur, t)
        except OutOfModel:
            return None
        cur, t = lifting.act_pi1(inv, cur, t)
        try:
            cur, t = lifting.act_T_inv(u, cur, t)
        except OutOfModel:
            return None
        if cur != node:
            raise AssemblyError(
                "obstruction loop did not return to its base point: "
                "%r vs %r" % (cur, node))
        results.append(_vsub(t, start, lifting.m_prime))
    if results[0] != results[1]:
        raise AssemblyError("obstruction value depends on the fiber "
                            "coordinate at %r" % (node,))
    return results[0]


def sigma_word(lifting: GlobalLifting, module: FiniteModule,
               word) -> CochainTable:
    """The obstruction table of one deck word (generators give sigma)."""
    aut = lifting.rho.of(word)
    inv = lifting.rho.group.inv(word)
    values = {}
    for u in u_keys(lifting.n, lifting.m):
        ru = aut.apply_mod(u, lifting.m)
        values[(u,)] = [_sigma_entry(lifting, module, word, inv, ru, u, c)
                        for c in range(module.size)]
    return CochainTable(q=1, values=values)


def compute_sigma(lifting: GlobalLifting,
                  module: FiniteModule) -> SigmaTable:
    group = lifting.rho.group
    return SigmaTable(tables=tuple(
        sigma_word(lifting, module, ((i, 1),))
        for i in range(group.rank)))


def deck_coboundary(tau: CochainTable, module: FiniteModule) -> SigmaTable:
    """The deck-direction coboundary of a torus cochain:

        (cob tau)(a, u, x) = tau(u, x) - tau(rho(a)(u), phi_pi1(a)(x))

    per generator a.  The vanishing test solves sigma = cob tau; twisting
    a lifting by tau changes its sigma by -(cob tau), so the solved tau
    is exactly the twist that repairs equivariance.
    """
    if tau.q != 1:
        raise InputError("deck coboundary takes a degree-1 table")
    mp = module.m_prime
    tables = []
    for i in range(module.pi1_rank):
        aut = module.rho_images[i]
        values = {}
        for u in u_keys(module.n, module.m):
            ru = aut.apply_mod(u, module.m)
            src = tau.values[(u,)]
            twisted = tau.values[(ru,)]
            col = []
            for c in range(module.size):
                moved = module.deck_act_gen(i, 1, c)
                if moved is None or src[c] is None \
                        or twisted[moved] is None:
                    col.append(None)
                else:
                    col.append(_vsub(src[c], twisted[moved], mp))
            values[(u,)] = col
        tables.append(CochainTable(q=1, values=values))
    return SigmaTable(tables=tuple(tables))


@dataclass(frozen=True)
class Certificate:
    """Integer row combination proving infeasibility in one fiber
    coordinate: vector . A = 0 and vector . b != 0 (mod m')."""

    fiber_coordinate: int
    vector: Tuple[int, ...]


@dataclass(frozen=True)
class ObstructionReport:
    verdict: str       # vanishing-at-scale | certified-nonvanishing |
    #                    indeterminate
    witness: Optional[CochainTable]
    certificate: Optional[Certificate]
    m: int
    m_prime: int
    n: int
    k: int
    window: int
    num_points: int
    unknowns: int
    rows: tuple                 # sparse rows: tuples of (column, coeff)
    row_labels: tuple
    rhs: tuple                  # per fiber coordinate, tuple over rows
    sigma_rows_total: int
    sigma_rows_dropped: int
    threshold: Fraction

    @property
    def dropped_ratio(self) -> Fraction:
        if self.sigma_rows_total == 0:
            return Fraction(0)
        return Fraction(self.sigma_rows_dropped, self.sigma_rows_total)


def test_vanishing(sigma: SigmaTable, module: FiniteModule,
                   threshold: Fraction = Fraction(1, 4)
                   ) -> ObstructionReport:
    """Decide whether sigma is a deck coboundary at the modeled scale.

    Unknowns are the generator values g_j(x) = tau(e_j, x); the
    torus-cocycle identity determines tau everywhere else, so it is
    enforced through torsion and commutation rows, and the coboundary
    equation sigma = cob tau is imposed at u = e_j only (sufficient
    because both sides are torus cocycles in u — guaranteed by the
    InvalidSigma gate and the module honesty check).  An infeasibility
    certificate is sound regardless of windowing; a solution yields
    vanishing-at-scale only while the dropped-constraint ratio stays
    within the threshold.
    """
    bad = module.validate_actions()
    if bad:
        raise InputError("module action tables are not honest group "
                         "actions: %r" % (bad[0],))
    if sigma.num_generators != module.pi1_rank:
        raise InvalidSigma("obstruction table covers %d generators, module "
                           "has %d" % (sigma.num_generators,
                                       module.pi1_rank))
    for i, table in enumerate(sigma.tables):
        check = is_cocycle(table, module)
        if not check.ok:
            raise InvalidSigma(
                "generator %d: torus cocycle identity fails at %r"
                % (i, check.violations[0]))
    n, size, m, mp = module.n, module.size, module.m, module.m_prime

    def var(j, c):
        return j * size + c

    rows, labels, rhs_columns = [], [], [[] for _ in range(module.k)]

    def add_row(coeffs, label, vec):
        rows.append(coeffs)
        labels.append(label)
        for coord in range(module.k):
            rhs_columns[coord].append(vec[coord])

    zero = module.zero_vec()
    gens = generator_columns(module)
    for label, coeffs in relation_rows(gens, m):
        add_row({var(j, x): a for (j, x), a in coeffs.items()}, label, zero)
    dropped = 0
    total = module.pi1_rank * n * size
    for i in range(module.pi1_rank):
        aut = module.rho_images[i]
        for j in range(n):
            ej = module.generator_u(j)
            terms = generator_terms(gens, aut.apply_mod(ej, m))
            for c in range(size):
                moved = module.deck_act_gen(i, 1, c)
                value = sigma.tables[i].values[(ej,)][c]
                if moved is None or value is None:
                    dropped += 1
                    continue
                coeffs = {var(j, c): 1}
                for jj, col in terms:
                    key = var(jj, col[moved])
                    coeffs[key] = coeffs.get(key, 0) - 1
                coeffs = {key: v for key, v in coeffs.items() if v}
                add_row(coeffs, ("deck", i, j, c), value)

    unknowns = n * size
    sparse_rows = tuple(tuple(sorted(r.items())) for r in rows)
    results = solve_verified(rows, unknowns, rhs_columns, mp)
    witness = certificate = None
    if results and not results[-1].solvable:
        verdict = "certified-nonvanishing"
        certificate = Certificate(fiber_coordinate=len(results) - 1,
                                  vector=results[-1].certificate)
    else:
        witness = expand_witness(module, {
            (j, c): tuple(result.solution[var(j, c)] for result in results)
            for j in range(n) for c in range(size)})
        cob = deck_coboundary(witness, module)
        for i in range(module.pi1_rank):
            for u in u_keys(n, m):
                got = cob.tables[i].values[(u,)]
                want = sigma.tables[i].values[(u,)]
                for c in range(size):
                    if got[c] is not None and want[c] is not None \
                            and got[c] != want[c]:
                        raise AssemblyError(
                            "witness coboundary disagrees with the "
                            "obstruction at generator %d, u=%r, point %d"
                            % (i, u, c))
        ratio = Fraction(dropped, total) if total else Fraction(0)
        verdict = ("vanishing-at-scale" if ratio <= threshold
                   else "indeterminate")
    return ObstructionReport(
        verdict=verdict, witness=witness, certificate=certificate, m=m,
        m_prime=mp, n=n, k=module.k, window=module.window,
        num_points=size, unknowns=unknowns, rows=sparse_rows,
        row_labels=tuple(labels),
        rhs=tuple(tuple(col) for col in rhs_columns),
        sigma_rows_total=total, sigma_rows_dropped=dropped,
        threshold=threshold)


def reconstruct_lifting(lifting: GlobalLifting, module: FiniteModule,
                        tau: CochainTable) -> GlobalLifting:
    """Twist by a solved witness and re-verify equivariance.

    The returned lifting satisfies the commutation identity with the deck
    action on every in-window evaluation; any residue raises
    ReconstructionError (the window was too small to trust the witness).
    """
    if not is_cocycle(tau, module).ok:
        raise ReconstructionError("witness is not a torus cocycle")
    repaired = lifting.with_twist(module, tau)
    residue = compute_sigma(repaired, module)
    if not residue.is_zero():
        raise ReconstructionError(
            "twisted lifting still fails equivariance inside the window")
    return repaired
