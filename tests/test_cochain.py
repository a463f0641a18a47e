"""Tests for finite cochain modules, the coboundary, and the pi_1-action."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import quotient_orbit_module
from toruslift.cochain import (
    CochainTable,
    FiniteModule,
    build_finite_module,
    coboundary,
    cochain_add,
    cocycle_violations,
    expand_witness,
    generator_columns,
    generator_terms,
    is_cocycle,
    pi1_act,
    relation_rows,
    u_keys,
    zero_cochain,
)
from toruslift.errors import InputError, OutOfModel
from toruslift.groups import AtlasModel, FPGroup, Representation
from toruslift.nerve import GLCocycle, Nerve, chart_corrections
from toruslift.smith import SmithNF, verify_solution
from toruslift.torus import TorusAut, polar, standard_act

F = Fraction
I1 = TorusAut.identity(1)
I2 = TorusAut.identity(2)
M = TorusAut([[1, 0], [-1, 1]])


def shift_module(d, m, c=(1,), m_prime=2, k=1, rho=None, shift=1):
    """Synthetic module: X = Z/d, torus u.x = x + c*u, deck x -> x + shift.

    An honest pair of actions whenever d | m*c_j and c*rho = c mod d.
    """
    n = len(c)
    if rho is None:
        rho = TorusAut.identity(n)
    torus = {u: [(x + sum(ci * ui for ci, ui in zip(c, u))) % d
                 for x in range(d)]
             for u in u_keys(n, m)}
    deck = {(0, 1): [(x + shift) % d for x in range(d)],
            (0, -1): [(x - shift) % d for x in range(d)]}
    return FiniteModule(n=n, m=m, k=k, m_prime=m_prime,
                        points=tuple(range(d)), torus_table=torus,
                        deck_tables=deck, rho_images=[rho],
                        pi1_group=FPGroup.free(1))


def fill_cochain(module, q, seed):
    rng = random.Random(seed)
    keys = itertools.product(list(u_keys(module.n, module.m)), repeat=q)
    values = {us: [tuple(rng.randrange(module.m_prime)
                         for _ in range(module.k))
                   for _ in range(module.size)]
              for us in keys}
    return CochainTable(q=q, values=values)


def seam_model(m=2):
    """Three charts on a circle of charts; only the (c1, c2) seam carries
    samples, glued by the shear M.  A miniature of the bundle-over-cylinder
    setup used throughout the later tests."""
    nerve = Nerve(["c0", "c1", "c2"],
                  edges=[("c0", "c1"), ("c0", "c2"), ("c1", "c2")])
    cocycle = GLCocycle.from_one_sided(
        nerve, {("c0", "c1"): I2, ("c0", "c2"): I2, ("c1", "c2"): M})
    half = F(1, 2)
    grid = [(F(i, m), F(j, m)) for i in range(m) for j in range(m)]
    s2 = [polar(((half, x), (half, y))) for x, y in grid]
    pairs = []
    for x, y in grid:
        a, b = M.apply((x, y))
        pairs.append((polar(((half, a), (half, b))),
                      polar(((half, x), (half, y)))))
    s1 = [za for za, _ in pairs]
    model = AtlasModel(nerve, cocycle, m,
                       {"c0": [], "c1": s1, "c2": s2},
                       {("c1", "c2"): pairs})
    rho = Representation(FPGroup.free_abelian(1), [M])
    corrections = chart_corrections(nerve, cocycle, rho)
    return model, rho, corrections


def seam_module(m=2, window=1):
    model, rho, corrections = seam_model(m)
    module = build_finite_module(model, rho, corrections, window=window,
                                 fiber_rank=1, fiber_order=m)
    return module, model, rho, corrections


class TestFiniteModule:
    def test_shift_module_is_honest(self):
        assert shift_module(4, 4).validate_actions() == []
        assert shift_module(2, 4, rho=TorusAut([[-1]])).validate_actions() \
            == []

    def test_missing_torsion_detected(self):
        # x -> x + u on Z/3 is not an action of Z/2
        bad = shift_module(3, 2).validate_actions()
        assert ("torus-torsion", 0) in bad

    def test_broken_deck_inverse_detected(self):
        mod = shift_module(4, 4)
        mod._deck[(0, -1)][0] = 2
        assert any(v[0] == "deck-not-inverse" for v in mod.validate_actions())

    def test_twist_commutation_detected(self):
        # rho = -1 but c * (-1) != c mod 3
        bad = shift_module(3, 3, rho=TorusAut([[-1]])).validate_actions()
        assert any(v[0] == "torus-deck-commutation" for v in bad)

    def test_noncommuting_torus_detected(self):
        rot = [1, 2, 0]
        swp = [1, 0, 2]
        torus = {(0, 0): [0, 1, 2], (1, 0): rot, (0, 1): swp,
                 (1, 1): [swp[c] for c in rot]}
        deck = {(0, 1): [0, 1, 2], (0, -1): [0, 1, 2]}
        mod = FiniteModule(n=2, m=2, k=1, m_prime=2, points=(0, 1, 2),
                           torus_table=torus, deck_tables=deck,
                           rho_images=[I2])
        assert any(v[0] == "torus-noncommuting"
                   for v in mod.validate_actions())

    def test_table_shape_validated(self):
        with pytest.raises(InputError):
            FiniteModule(n=1, m=2, k=1, m_prime=2, points=(0,),
                         torus_table={(0,): [0]}, deck_tables={},
                         rho_images=[])


class TestBuildModule:
    def test_class_counts_by_window(self):
        # seam nodes: 2 charts x |ball| x 4 samples, minus one merge per
        # seam identification whose lifted deck word stays in the window
        for window, size in ((0, 8), (1, 16), (2, 24)):
            module = seam_module(window=window)[0]
            assert module.size == size

    def test_all_nodes_classified(self):
        module = seam_module(window=1)[0]
        assert len(module.class_of) == 2 * 3 * 4
        assert set(module.class_of.values()) == set(range(module.size))

    def test_representatives_are_minimal(self):
        module, _, rho, _ = seam_module(window=2)
        group = rho.group
        for chart, deck, _ in module.points:
            assert group.word_length(deck) <= 2
        lengths = [group.word_length(d) for _, d, _ in module.points]
        assert sorted(lengths) == lengths

    def test_torus_action_chart_independent(self):
        module, model, rho, corrections = seam_module(window=1)
        m = model.torus_order
        for node, cls in module.class_of.items():
            chart, deck, zi = node
            samples = model.samples[chart]
            aut = corrections.rho_alpha[chart] * rho.of(deck)
            for u in u_keys(2, m):
                w = aut.apply_mod(u, m)
                moved = standard_act(tuple(F(v, m) for v in w), samples[zi])
                assert module.class_of[(chart, deck, samples.index(moved))] \
                    == module.torus_act(u, cls)

    def test_deck_tables_truncate_at_window(self):
        module = seam_module(window=1)[0]
        for e in (1, -1):
            undefined = [c for c in range(module.size)
                         if module.deck_act_gen(0, e, c) is None]
            assert len(undefined) == 4
        for c in range(module.size):
            assert module.deck_act((), c) == c
            fwd = module.deck_act_gen(0, 1, c)
            if fwd is not None:
                assert module.deck_act_gen(0, -1, fwd) == c

    def test_built_module_validates(self):
        module = seam_module(window=1)[0]
        assert module.validate_actions() == []

    def test_empty_chart_contributes_nothing(self):
        module = seam_module(window=1)[0]
        assert all(chart != "c0" for chart, _, _ in module.points)


class TestCoboundary:
    def test_constant_trivial_action(self):
        mod = shift_module(4, 4, c=(0,), m_prime=4)
        tau = CochainTable(q=0, values={(): [(3,)] * 4})
        delta = coboundary(tau, mod)
        assert delta == zero_cochain(mod, 1)
        assert is_cocycle(delta, mod).ok

    def test_degree0_values(self):
        mod = shift_module(4, 4, m_prime=4)
        tau = CochainTable(q=0, values={(): [(x,) for x in range(4)]})
        delta = coboundary(tau, mod)
        # tau(x) - tau(x + u) == -u for every x
        for u in range(4):
            assert delta.values[((u,),)] == [((-u) % 4,)] * 4

    def test_homomorphism_on_point_is_cocycle(self):
        mod = shift_module(1, 4, c=(0,), m_prime=4)
        sigma = CochainTable(q=1, values={((u,),): [(u,)] for u in range(4)})
        assert is_cocycle(sigma, mod).ok

    def test_non_homomorphism_violations_listed(self):
        mod = shift_module(1, 4, c=(0,), m_prime=4)
        bump = CochainTable(
            q=1, values={((u,),): [(1 if u == 3 else 0,)] for u in range(4)})
        check = is_cocycle(bump, mod)
        assert not check.ok
        # the generator value bump(1) = 0 satisfies the torsion row and
        # expands to bump(3) = 0 + 0 + 0; the table says 1 at u = 3
        assert check.violations == (("cocycle", (3,), 0),)

    def test_failed_relation_named(self):
        # tau(u) = u mod 3 on one point: the generator value 1 meets the
        # torsion row 4 * 1 = 0 mod 4, but not mod 8
        table = CochainTable(q=1, values={((u,),): [(u % 3,)]
                                          for u in range(4)})
        mod4 = shift_module(1, 4, c=(0,), m_prime=4)
        mod8 = shift_module(1, 4, c=(0,), m_prime=8)
        assert is_cocycle(table, mod4).violations == (("cocycle", (3,), 0),)
        assert is_cocycle(table, mod8).violations \
            == (("torsion", 0, 0), ("cocycle", (3,), 0))

    def test_zero_cochain_is_cocycle(self):
        mod = shift_module(4, 2)
        assert is_cocycle(zero_cochain(mod, 1), mod).ok
        for q in (0, 2):
            with pytest.raises(InputError):
                is_cocycle(zero_cochain(mod, q), mod)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([(2, 2), (2, 4), (4, 4), (3, 3), (4, 8)]),
           st.sampled_from([2, 3, 4, 8]), st.integers(0, 1),
           st.integers(0, 10**6))
    def test_delta_delta_is_zero(self, dm, m_prime, q, seed):
        # d | m keeps the shift an honest (Z/m)-action on Z/d
        d, m = dm
        mod = shift_module(d, m, m_prime=m_prime)
        tau = fill_cochain(mod, q, seed)
        twice = coboundary(coboundary(tau, mod), mod)
        assert twice == zero_cochain(mod, q + 2)
        if q == 0:
            assert is_cocycle(coboundary(tau, mod), mod).ok

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([((1,), 2, 2), ((1,), 3, 3), ((1,), 4, 4),
                            ((2,), 8, 4), ((1, 0), 2, 2), ((0, 1), 3, 3),
                            ((1, 1), 4, 2), ((1, 2), 4, 4)]),
           st.sampled_from([2, 3, 4, 6]), st.sampled_from([1, 2]),
           st.sampled_from(["random", "delta", "bumped"]),
           st.integers(0, 10**6))
    def test_agrees_with_coboundary(self, shape, m_prime, k, kind, seed):
        # differential check of the generator presentation against the
        # generic coboundary on total tables: tau is a cocycle iff delta tau
        # vanishes on every defined entry
        c, m, d = shape
        mod = shift_module(d, m, c=c, m_prime=m_prime, k=k)
        rng = random.Random(seed)
        if kind == "random":
            tau = fill_cochain(mod, 1, seed)
        else:
            # delta f plus a homomorphism u -> g . u, m g = 0 mod m'
            step = m_prime // math.gcd(m, m_prime)
            g = [[step * rng.randrange(m_prime) for _ in range(k)]
                 for _ in c]
            delta = coboundary(fill_cochain(mod, 0, seed), mod)
            tau = CochainTable(q=1, values={
                (u,): [tuple((v + sum(gj[i] * uj for gj, uj in zip(g, u)))
                             % m_prime for i, v in enumerate(vec))
                       for vec in col]
                for (u,), col in delta.values.items()})
            assert kind == "bumped" or is_cocycle(tau, mod).ok
        if kind == "bumped":
            col = tau.values[rng.choice(sorted(tau.values))]
            x, i = rng.randrange(d), rng.randrange(k)
            col[x] = tuple((v + rng.randrange(1, m_prime)) % m_prime
                           if idx == i else v
                           for idx, v in enumerate(col[x]))
        delta_zero = all(v is None or not any(v)
                         for col in coboundary(tau, mod).values.values()
                         for v in col)
        assert is_cocycle(tau, mod).ok == delta_zero

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 1), st.integers(0, 10**6), st.integers(0, 10**6))
    def test_additive(self, q, seed1, seed2):
        mod = shift_module(4, 4, m_prime=4)
        s1, s2 = fill_cochain(mod, q, seed1), fill_cochain(mod, q, seed2)
        lhs = coboundary(cochain_add(s1, s2, mod), mod)
        rhs = cochain_add(coboundary(s1, mod), coboundary(s2, mod), mod)
        assert lhs == rhs

    def test_missing_entry_raises(self):
        mod = shift_module(2, 2)
        sigma = fill_cochain(mod, 1, 0)
        del sigma.values[((1,),)]
        with pytest.raises(OutOfModel):
            coboundary(sigma, mod)


def straight_violations(gens, m, m_prime, columns):
    """``cocycle_violations`` as first written: each u's generator
    expansion summed from scratch with ``generator_terms``.  The oracle for
    the one-letter-at-a-time walk of ``expansion_columns``."""
    n = len(gens)
    values = [columns[tuple(1 % m if i == j else 0 for i in range(n))]
              for j in range(n)]

    def nonzero(terms):
        if any(vec is None for _, vec in terms):
            return False
        return any(sum(coeff * vec[idx] for coeff, vec in terms) % m_prime
                   for idx in range(len(terms[0][1])))

    bad = [label for label, coeffs in relation_rows(gens, m)
           if nonzero([(a, values[j][x]) for (j, x), a in coeffs.items()])]
    for u in u_keys(n, m):
        terms = generator_terms(gens, u)
        for x, vec in enumerate(columns[u]):
            if vec is not None and nonzero(
                    [(1, vec)] + [(-1, values[j][col[x]])
                                  for j, col in terms]):
                bad.append(("cocycle", u, x) if any(u) else ("zero", x))
    return bad


@st.composite
def orbit_modules(draw):
    """Translation modules on one or two orbits (Z/m)^n / <h>, so that
    points may have stabilizers."""
    n = draw(st.sampled_from([1, 2]))
    m = draw(st.sampled_from([2, 3, 4] if n == 2 else [2, 3, 4, 6]))
    h = st.tuples(*[st.integers(0, m - 1)] * n)
    return quotient_orbit_module(
        n, m, draw(st.lists(h, min_size=1, max_size=2)),
        k=draw(st.sampled_from([1, 2])),
        m_prime=draw(st.sampled_from([m, 2 * m])))


def relation_solution(module, rng):
    """Random generator values tau(e_j, x) that satisfy every relation
    row: a random point of the rows' kernel mod m', V y with d_i y_i = 0
    in the Smith coordinates."""
    size, mp = module.size, module.m_prime
    rows = [{j * size + x: a for (j, x), a in coeffs.items()}
            for _, coeffs in relation_rows(generator_columns(module),
                                           module.m)]
    nf = SmithNF(rows, ncols=module.n * size)
    diagonal = nf.diagonal + [0] * nf.ncols
    coords = []
    for _ in range(module.k):
        y = [mp // math.gcd(diagonal[i], mp) * rng.randrange(mp)
             for i in range(nf.ncols)]
        x = [v % mp for v in nf.apply_v(y)]
        assert verify_solution([tuple(r.items()) for r in rows],
                               [0] * len(rows), mp, x)
        coords.append(x)
    return {(j, c): tuple(x[j * size + c] for x in coords)
            for j in range(module.n) for c in range(size)}


class TestExpansionWalk:
    """``expand_witness`` and ``cocycle_violations`` walk one recurrence;
    the vanishing test relies on it instead of re-checking its witness."""

    @given(orbit_modules(), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_relation_solutions_expand_to_cocycles(self, module, seed):
        values = relation_solution(module, random.Random(seed))
        table = expand_witness(module, values)
        assert is_cocycle(table, module).ok
        for j in range(module.n):
            assert table.values[(module.generator_u(j),)] == \
                [values[(j, c)] for c in range(module.size)]

    @given(orbit_modules(), st.integers(0, 10**6),
           st.sampled_from(["cocycle", "bumped", "holes", "random"]))
    @settings(max_examples=120, deadline=None)
    def test_violations_match_straight_sums(self, module, seed, kind):
        rng = random.Random(seed)
        if kind == "random":
            table = fill_cochain(module, 1, seed)
        else:
            table = expand_witness(module, relation_solution(module, rng))
        columns = {u: list(col) for (u,), col in table.values.items()}
        keys = sorted(columns)
        for _ in range(rng.randrange(4) if kind in ("bumped", "holes")
                       else 0):
            col = columns[rng.choice(keys)]
            x = rng.randrange(module.size)
            if kind == "holes" and rng.random() < 0.5:
                col[x] = None
            elif col[x] is not None:
                col[x] = tuple(v + rng.randrange(1, module.m_prime)
                               for v in col[x])
        gens = generator_columns(module)
        assert cocycle_violations(gens, module.m, module.m_prime, columns,
                                  module.k) == \
            straight_violations(gens, module.m, module.m_prime, columns)


class TestPi1Action:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 1), st.integers(0, 10**6),
           st.sampled_from([((0, 1),), ((0, -1),), ((0, 2),)]))
    def test_commutes_with_coboundary(self, q, seed, word):
        mod = shift_module(2, 4, rho=TorusAut([[-1]]), m_prime=4)
        assert mod.validate_actions() == []
        sigma = fill_cochain(mod, q, seed)
        assert pi1_act(coboundary(sigma, mod), word, mod) \
            == coboundary(pi1_act(sigma, word, mod), mod)

    def test_commutes_on_windowed_module(self):
        # partial deck tables: undefined entries must line up on both sides
        module = seam_module(window=1)[0]
        for seed in range(3):
            sigma = fill_cochain(module, 1, seed)
            lhs = pi1_act(coboundary(sigma, module), ((0, 1),), module)
            rhs = coboundary(pi1_act(sigma, ((0, 1),), module), module)
            assert lhs == rhs
            assert any(v is None for v in lhs.values[((0, 0), (0, 0))])

    def test_point_action_direction(self):
        module = seam_module(window=1)[0]
        marker = module.points.index(("c2", (), module.points[0][2]))
        tau = zero_cochain(module, 0)
        tau.values[()][marker] = (1,)
        acted = pi1_act(tau, ((0, 1),), module)
        hits = [c for c in range(module.size)
                if acted.values[()][c] == (1,)]
        # (tau . a)(x) = tau(x . a^-1): the marker moves one deck level up
        assert hits == [c for c in range(module.size)
                        if module.deck_act_gen(0, 1, c) == marker]

    def test_torus_arguments_twisted(self):
        module = seam_module(window=1)[0]
        sigma = fill_cochain(module, 1, 7)
        acted = pi1_act(sigma, ((0, 1),), module)
        u = (1, 0)
        ru = M.apply_mod(u, 2)
        for c in range(module.size):
            moved = module.deck_act_gen(0, 1, c)
            want = None if moved is None else sigma.values[(ru,)][moved]
            assert acted.values[(u,)][c] == want

    def test_identity_word_is_identity(self):
        module = seam_module(window=1)[0]
        sigma = fill_cochain(module, 1, 3)
        assert pi1_act(sigma, (), module) == sigma
