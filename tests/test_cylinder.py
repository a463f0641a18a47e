"""Cylinder family: canonical gauge, group action, lifts, scenario."""

import random
from fractions import Fraction

import pytest

import toruslift.lifting as ob
from toruslift.cochain import build_finite_module, u_keys
from toruslift.cylinder import (
    CylParams,
    SHEAR,
    base_of,
    build_scenario,
    canonicalize,
    compose,
    deck_translate,
    g_act,
    lift_act,
    seam_point,
    torus_act,
)
from toruslift.errors import InputError, NotOnSpace
from toruslift.groups import (
    Representation,
    SemidirectElement,
    semidirect_mul,
)
from toruslift.nerve import check_cocycle, holonomy
from toruslift.torus import TorusAut, mod1, polar

F = Fraction
ZERO2 = (F(0), F(0))


def raw_gauge(v, xi, u, z, t=None):
    """The defining two-torus action on raw representatives."""
    new_u = (u[0], mod1(u[1] + v[0] - v[1]))
    new_z = tuple((r, mod1(th - vi) if r > 0 else F(0))
                  for (r, th), vi in zip(z, v))
    if t is None:
        return xi, new_u, new_z
    return xi, new_u, new_z, mod1(t + v[1])


def random_raw(rng, denom=8, bundle=False):
    xi2 = F(rng.choice([0, 1, 2, 3, 4]), 4)
    xi1 = F(rng.randrange(-2 * denom, 2 * denom), denom)
    ang = lambda: F(rng.randrange(denom), denom)
    u = (ang(), ang())
    z = ((xi2, ang() if xi2 > 0 else F(0)),
         (1 - xi2, ang() if xi2 < 1 else F(0)))
    if bundle:
        return (xi1, xi2), u, z, ang()
    return (xi1, xi2), u, z


class TestCanonicalize:
    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(50):
            xi, u, z = random_raw(rng)
            p = canonicalize(xi, u, z)
            again = canonicalize(p.xi, p.u, p.z)
            assert again == p

    def test_interior_gauge_moves_phase_to_u2(self):
        p = canonicalize((F(0), F(1, 2)), ZERO2,
                         ((F(1, 2), F(1, 8)), (F(1, 2), F(0))))
        assert p.xi == (F(0), F(1, 2))
        assert p.u == (F(0), F(1, 8))
        assert p.z == ((F(1, 2), F(0)), (F(1, 2), F(0)))

    def test_bottom_stratum_zeroes_u2(self):
        p = canonicalize((F(0), F(0)), (F(0), F(1, 3)),
                         ((F(0), F(0)), (F(1), F(1, 5))))
        assert p.u == (F(0), F(0))
        assert p.z == ((F(0), F(0)), (F(1), F(0)))

    def test_bottom_stratum_keeps_fiber(self):
        bp = canonicalize((F(0), F(0)), (F(0), F(1, 3)),
                          ((F(0), F(0)), (F(1), F(1, 5))), t=F(0))
        assert bp.u == (F(0), F(0))
        assert bp.t == F(1, 5)

    def test_top_stratum_shifts_fiber_by_u2(self):
        # v2 is the free component here and it moves t
        bp = canonicalize((F(0), F(1)), (F(0), F(1, 4)),
                          ((F(1), F(1, 7)), (F(0), F(0))), t=F(0))
        assert bp.u == (F(0), F(0))
        assert bp.t == F(1, 4) + F(1, 7)

    def test_constraint_violations(self):
        with pytest.raises(NotOnSpace):
            canonicalize((F(0), F(1, 2)), ZERO2,
                         ((F(1, 4), F(0)), (F(1, 2), F(0))))
        with pytest.raises(NotOnSpace):
            canonicalize((F(0), F(1, 2)), ZERO2,
                         ((F(1, 2), F(0)), (F(1, 4), F(0))))
        with pytest.raises(NotOnSpace):
            canonicalize((F(0), F(3, 2)), ZERO2,
                         ((F(3, 2), F(0)), (-F(1, 2), F(0))))

    def test_constant_on_gauge_orbits(self):
        rng = random.Random(11)
        for _ in range(40):
            raw = random_raw(rng)
            v = (F(rng.randrange(8), 8), F(rng.randrange(8), 8))
            assert canonicalize(*raw_gauge(v, *raw)) == canonicalize(*raw)

    def test_bundle_constant_on_gauge_orbits(self):
        rng = random.Random(13)
        for _ in range(40):
            raw = random_raw(rng, bundle=True)
            v = (F(rng.randrange(8), 8), F(rng.randrange(8), 8))
            assert canonicalize(*raw_gauge(v, *raw)) == canonicalize(*raw)


def random_element(rng, denom=8):
    return ((F(rng.randrange(denom), denom),
             F(rng.randrange(denom), denom)),
            rng.randrange(-2, 3))


class TestGroupAction:
    def test_identity(self):
        p = seam_point(8, 1, 3)
        assert g_act((ZERO2, 0), p) == p

    def test_deck_translates_and_shears(self):
        p = seam_point(8, 1, 3)
        q = g_act((ZERO2, 1), p)
        assert q.xi == (F(3, 2), F(1, 2))
        assert q.u == SHEAR.apply(p.u) == (F(1, 8), F(1, 4))
        assert q.z == p.z

    def test_action_law(self):
        rng = random.Random(3)
        for _ in range(100):
            g1, g2 = random_element(rng), random_element(rng)
            p = canonicalize(*random_raw(rng))
            assert g_act(compose(g1, g2), p) == g_act(g1, g_act(g2, p))

    def test_compose_matches_semidirect_mul(self):
        from toruslift.groups import FPGroup
        rho = Representation(FPGroup.free_abelian(1), [SHEAR])
        rng = random.Random(5)
        for _ in range(50):
            (v, n), (w, p) = random_element(rng), random_element(rng)
            got = compose((v, n), (w, p))
            ref = semidirect_mul(
                SemidirectElement(v, ((0, n),) if n else ()),
                SemidirectElement(w, ((0, p),) if p else ()), rho)
            exp = sum(e for _, e in ref.a)
            assert got == (ref.u, exp)

    def test_torus_deck_equivariance(self):
        # (v . p) . n = shear^-n(v) . (p . n)
        rng = random.Random(17)
        for _ in range(100):
            p = canonicalize(*random_raw(rng))
            v = (F(rng.randrange(8), 8), F(rng.randrange(8), 8))
            n = rng.randrange(-2, 3)
            lhs = deck_translate(torus_act(v, p), n)
            rhs = torus_act((SHEAR ** -n).apply(v), deck_translate(p, n))
            assert lhs == rhs

    def test_free_on_interior_samples(self):
        m = 4
        grid = [(F(i, m), F(j, m)) for i in range(m) for j in range(m)]
        for i in range(m):
            for j in range(m):
                p = seam_point(m, i, j)
                fixed = [v for v in grid if torus_act(v, p) == p]
                assert fixed == [(F(0), F(0))]

    def test_boundary_has_stabilizer(self):
        p = canonicalize((F(0), F(0)), (F(1, 4), F(0)),
                         ((F(0), F(0)), (F(1), F(0))))
        assert torus_act((F(0), F(1, 3)), p) == p


class TestLiftAct:
    def params(self, s=F(1, 8), m=8, window=2):
        return CylParams(s=s, m=m, window=window)

    def test_identity(self):
        bp = seam_point(8, 1, 3, t=F(1, 8))
        assert lift_act(self.params(), (ZERO2, 0), bp) == bp

    def test_fiber_shift_frozen(self):
        bp = seam_point(8, 0, 0, t=F(0))
        out = lift_act(self.params(s=F(1, 8)), ((F(1, 4), F(0)), 1), bp)
        assert out.t == F(3, 8)
        assert base_of(out) == g_act(((F(1, 4), F(0)), 1),
                                     base_of(bp))

    def test_homomorphism(self):
        params = self.params()
        rng = random.Random(23)
        for _ in range(100):
            g1, g2 = random_element(rng), random_element(rng)
            bp = canonicalize(*random_raw(rng, bundle=True))
            assert lift_act(params, compose(g1, g2), bp) \
                == lift_act(params, g1, lift_act(params, g2, bp))

    def test_covers_base_action(self):
        params = self.params()
        rng = random.Random(29)
        for _ in range(50):
            g = random_element(rng)
            bp = canonicalize(*random_raw(rng, bundle=True))
            assert base_of(lift_act(params, g, bp)) \
                == g_act(g, base_of(bp))

    def test_commutes_with_principal_circle(self):
        params = self.params()
        rng = random.Random(31)
        for _ in range(50):
            g = random_element(rng)
            bp = canonicalize(*random_raw(rng, bundle=True))
            c = F(rng.randrange(8), 8)
            shifted = canonicalize(bp.xi, bp.u, bp.z, t=mod1(bp.t + c))
            out = lift_act(params, g, bp)
            out_shifted = lift_act(params, g, shifted)
            assert out_shifted.t == mod1(out.t + c)
            assert base_of(out_shifted) == base_of(out)


def scenario_module(scn):
    return build_finite_module(scn.model, scn.rho, scn.corrections,
                               window=scn.params.window, fiber_rank=1,
                               fiber_order=scn.params.m)


class TestScenario:
    def test_shape_and_holonomy(self):
        scn = build_scenario(CylParams(s=F(0), m=4, window=2))
        assert len(scn.nerve.vertices) == 3
        assert check_cocycle(scn.nerve, scn.cocycle).ok
        report = holonomy(scn.nerve, scn.cocycle)
        assert report.generators == (("c1", "c2"),)
        assert report.images == (SHEAR,)
        assert not report.images[0].is_identity()

    def test_unrepresentable_s_rejected(self):
        with pytest.raises(InputError):
            build_scenario(CylParams(s=F(1, 3), m=4, window=1))

    def test_module_shape(self):
        scn = build_scenario(CylParams(s=F(0), m=4, window=2))
        module = scenario_module(scn)
        # 2 charts x 5 deck words x 16 samples, seam-identified: 6 levels
        assert module.size == 6 * 16

    def test_sigma_vanishes_for_all_s(self):
        for s in (F(0), F(1, 4)):
            scn = build_scenario(CylParams(s=s, m=4, window=2))
            lifting = ob.assemble_global_lifting(
                scn.model, scn.corrections, scn.rho, scn.liftings,
                scn.gluing)
            module = scenario_module(scn)
            sigma = ob.compute_sigma(lifting, module)
            assert sigma.is_zero()
            report = ob.test_vanishing(sigma, module)
            assert report.verdict == "vanishing-at-scale"
            assert report.dropped_ratio == F(1, 6)

    def test_seam_transition_carries_s(self):
        scn = build_scenario(CylParams(s=F(1, 4), m=4, window=1))
        lifting = ob.assemble_global_lifting(
            scn.model, scn.corrections, scn.rho, scn.liftings, scn.gluing)
        za = scn.model.matched("c1", "c2", scn.model.samples["c2"][0])
        za_index = scn.model.samples["c1"].index(za)
        out = lifting.transition(("c2", (), 0), ("c1", ((0, 1),), za_index),
                                 (0,))
        assert out == (1,)   # s in fiber units = s * m

    def test_correspondence_with_closed_form(self):
        params = CylParams(s=F(1, 8), m=8, window=2)
        scn = build_scenario(params)
        lifting = ob.assemble_global_lifting(
            scn.model, scn.corrections, scn.rho, scn.liftings, scn.gluing)
        m = params.m
        samples = scn.model.samples["c2"]

        def phi(node, t_units):
            # c2 presentations only: deck exponent -d acts on the seam rep
            chart, deck, zi = node
            assert chart == "c2"
            z = samples[zi]
            d = sum(e for _, e in deck)
            i = int(z[0][1] * m) % m
            j = int(z[1][1] * m) % m
            bp = seam_point(m, i, j, t=F(t_units, m))
            return lift_act(params, (ZERO2, -d), bp)

        rng = random.Random(41)
        decks = [(), ((0, 1),), ((0, -1),), ((0, 2),)]
        for _ in range(60):
            deck = rng.choice(decks)
            i, j, t_units = (rng.randrange(m) for _ in range(3))
            z = polar(((F(1, 2), F(i, m)), (F(1, 2), F(j, m))))
            zi = samples.index(z)
            node = ("c2", deck, zi)
            u = tuple(rng.randrange(m) for _ in range(2))
            moved, t_new = lifting.act_T(u, node, (t_units,))
            want = lift_act(params,
                            ((F(u[0], m), F(u[1], m)), 0),
                            phi(node, t_units))
            assert phi(moved, t_new[0]) == want
            # deck generator: presentation shifts, fiber units fixed
            stepped = ("c2", scn.rho.group.mul(deck, ((0, -1),)), zi)
            assert phi(stepped, t_units) \
                == lift_act(params, (ZERO2, 1), phi(node, t_units))
