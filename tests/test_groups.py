"""Tests for fundamental groups, semidirect products, and the atlas action."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from _helpers import unimodular_2x2
from toruslift.errors import DimensionError, InputError, OutOfModel
from toruslift.groups import (
    AtlasModel,
    FiberedPoint,
    FPGroup,
    Representation,
    SemidirectElement,
    act_fiber_product,
    semidirect_identity,
    semidirect_inv,
    semidirect_mul,
    transport_corrections,
    transport_rep,
)
from toruslift.nerve import (
    ChartCorrections,
    GLCocycle,
    Nerve,
    chart_corrections,
)
from toruslift.torus import TorusAut, polar, standard_act

I2 = TorusAut.identity(2)
M = TorusAut([[1, 0], [-1, 1]])
SWAP = TorusAut([[0, 1], [1, 0]])
F = Fraction


def frac_point(*nums, den):
    return tuple(F(v, den) for v in nums)


class TestFPGroup:
    def test_free_reduction_cascades(self):
        g = FPGroup.free(2)
        assert g.normalize([(0, 1), (1, 1), (1, -1), (0, -1)]) == ()
        assert g.normalize([(0, 1), (0, 1), (1, 2)]) == ((0, 2), (1, 2))

    def test_free_abelian_sorts(self):
        g = FPGroup.free_abelian(2)
        assert g.normalize([(1, 2), (0, 1)]) == ((0, 1), (1, 2))
        assert g.mul(((0, 1),), ((0, -1),)) == ()

    def test_cyclic_wraps(self):
        g = FPGroup.cyclic(4)
        assert g.normalize([(0, 7)]) == ((0, 3),)
        assert g.power(((0, 1),), 4) == ()

    def test_trivial_group(self):
        g = FPGroup.trivial()
        assert g.normalize([]) == ()
        assert g.ball(3) == ((),)

    def test_inverse_against_multiplication(self):
        for g in (FPGroup.free(2), FPGroup.free_abelian(2), FPGroup.cyclic(5)):
            w = g.normalize([(0, 2)] if g.rank == 1 else [(0, 2), (1, -1)])
            assert g.mul(w, g.inv(w)) == ()
            assert g.inv(g.inv(w)) == w

    def test_word_length_cyclic_goes_both_ways(self):
        g = FPGroup.cyclic(4)
        assert g.word_length(((0, 3),)) == 1
        assert g.word_length(((0, 2),)) == 2
        assert g.word_length(()) == 0

    def test_ball_sizes(self):
        assert len(FPGroup.free(1).ball(2)) == 5
        assert len(FPGroup.free(2).ball(1)) == 5
        assert len(FPGroup.free_abelian(2).ball(2)) == 13
        assert len(FPGroup.cyclic(4).ball(1)) == 3
        assert len(FPGroup.cyclic(4).ball(2)) == 4

    def test_ball_is_deterministic_and_bounded(self):
        g = FPGroup.free(2)
        ball = g.ball(3)
        assert ball == g.ball(3)
        assert all(g.word_length(w) <= 3 for w in ball)
        assert len(set(ball)) == len(ball)

    def test_family_validation(self):
        with pytest.raises(InputError):
            FPGroup("dihedral", ("r", "s"))
        with pytest.raises(InputError):
            FPGroup("free", ("a", "a"))
        with pytest.raises(InputError):
            FPGroup.cyclic(0)


class TestRepresentation:
    def test_free_abelian_requires_commuting_images(self):
        g = FPGroup.free_abelian(2)
        shear1 = TorusAut([[1, 1], [0, 1]])
        shear2 = TorusAut([[1, 0], [1, 1]])
        with pytest.raises(InputError):
            Representation(g, [shear1, shear2])
        Representation(g, [M, M * M])  # powers commute

    def test_cyclic_requires_finite_order(self):
        rot = TorusAut([[0, -1], [1, 0]])
        Representation(FPGroup.cyclic(4), [rot])
        with pytest.raises(InputError):
            Representation(FPGroup.cyclic(4), [M])

    def test_word_evaluation(self):
        rho = Representation(FPGroup.free(1), [M])
        assert rho.of(((0, 2),)) == M * M
        assert rho.of(((0, -1),)) == M.inverse()
        assert rho.of(()) == I2

    def test_trivial_group_needs_explicit_rank(self):
        with pytest.raises(InputError):
            Representation(FPGroup.trivial(), [])
        rho = Representation(FPGroup.trivial(), [], n=2)
        assert rho.of(()) == I2

    def test_mixed_ranks_rejected(self):
        with pytest.raises(DimensionError):
            Representation(FPGroup.free(2), [M, TorusAut([[1]])])


def z_rep():
    return Representation(FPGroup.free(1), [M])


class TestSemidirect:
    def test_torus_subgroup_adds(self):
        rho = z_rep()
        g1 = SemidirectElement(frac_point(1, 0, den=4), ())
        g2 = SemidirectElement(frac_point(2, 3, den=4), ())
        out = semidirect_mul(g1, g2, rho)
        assert out == SemidirectElement(frac_point(3, 3, den=4), ())

    def test_twisted_product(self):
        rho = z_rep()
        g1 = SemidirectElement(frac_point(0, 0, den=4), ((0, 1),))
        g2 = SemidirectElement(frac_point(1, 0, den=4), ())
        out = semidirect_mul(g1, g2, rho)
        assert out.u == (F(1, 4), F(3, 4))
        assert out.a == ((0, 1),)

    def test_inverse_formula(self):
        rho = z_rep()
        g = SemidirectElement(frac_point(1, 0, den=4), ((0, 1),))
        inv = semidirect_inv(g, rho)
        assert inv == SemidirectElement((F(3, 4), F(3, 4)), ((0, -1),))
        assert semidirect_mul(g, inv, rho) == semidirect_identity(2)
        assert semidirect_mul(inv, g, rho) == semidirect_identity(2)

    def test_rank_mismatch(self):
        rho = z_rep()
        with pytest.raises(DimensionError):
            semidirect_mul(SemidirectElement((F(0),), ()),
                           semidirect_identity(2), rho)

    def test_normal_form_output(self):
        rho = z_rep()
        sloppy = SemidirectElement(frac_point(0, 0, den=4), ((0, 1), (0, 1)))
        out = semidirect_mul(sloppy, semidirect_identity(2), rho)
        assert out.a == ((0, 2),)

    @given(st.lists(st.tuples(
        st.tuples(st.integers(0, 7), st.integers(0, 7)),
        st.integers(-2, 2)), min_size=3, max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_group_axioms(self, raw):
        rho = z_rep()
        elems = [SemidirectElement(frac_point(*u, den=8),
                                   rho.group.normalize(((0, k),)))
                 for u, k in raw]
        e = semidirect_identity(2)
        g1, g2, g3 = elems
        left = semidirect_mul(semidirect_mul(g1, g2, rho), g3, rho)
        right = semidirect_mul(g1, semidirect_mul(g2, g3, rho), rho)
        assert left == right
        for g in elems:
            assert semidirect_mul(g, e, rho) == g
            assert semidirect_mul(e, g, rho) == g
            inv = semidirect_inv(g, rho)
            assert semidirect_mul(g, inv, rho) == e
            assert semidirect_mul(inv, g, rho) == e
            assert semidirect_inv(inv, rho) == g


def single_chart_model(m=4):
    nerve = Nerve(["c"])
    cocycle = GLCocycle(nerve, {}, rank=2)
    samples = [polar(((1, F(i, m)), (2, F(j, m))))
               for i in range(m) for j in range(m)]
    model = AtlasModel(nerve, cocycle, m, {"c": samples})
    corrections = ChartCorrections(basepoint="c", rho_alpha={"c": I2},
                                   tree=(), generators=())
    return model, corrections


def two_chart_model(m=2):
    """Two charts glued by the coordinate swap on all samples."""
    nerve = Nerve(["a", "b"], edges=[("a", "b")])
    cocycle = GLCocycle.from_one_sided(nerve, {("a", "b"): SWAP})
    grid = [(F(i, m), F(j, m)) for i in range(m) for j in range(m)]
    sa = [polar(((2, y), (1, x))) for x, y in grid]
    sb = [polar(((1, x), (2, y))) for x, y in grid]
    pairs = [(polar(((2, y), (1, x))), polar(((1, x), (2, y))))
             for x, y in grid]
    model = AtlasModel(nerve, cocycle, m, {"a": sa, "b": sb},
                       {("a", "b"): pairs})
    corrections = chart_corrections(nerve, cocycle, [])
    return model, corrections


def circle_pair_model(pairs, m=2):
    """Two rank-one charts over the identity transition, each sampling two
    circles (r2 = 1, 2) at m angles; ``pairs`` lists matched (i_a, i_b)
    sample indices."""
    nerve = Nerve(["a", "b"], edges=[("a", "b")])
    cocycle = GLCocycle.from_one_sided(nerve, {("a", "b"): TorusAut([[1]])})
    pts = [polar(((r, F(i, m)),)) for r in (1, 2) for i in range(m)]
    return AtlasModel(nerve, cocycle, m, {"a": pts, "b": pts},
                      {("a", "b"): [(pts[i], pts[j]) for i, j in pairs]})


class TestAtlasModel:
    def test_closure_is_enforced(self):
        nerve = Nerve(["c"])
        cocycle = GLCocycle(nerve, {}, rank=2)
        lone = [polar(((1, 0), (2, 0)))]
        with pytest.raises(InputError, match="not closed under the order-4"):
            AtlasModel(nerve, cocycle, 4, {"c": lone})

    def test_rotation_is_the_grid_action(self):
        model = single_chart_model(m=4)[0]
        samples = model.samples["c"]
        for w in itertools.product(range(4), repeat=2):
            perm = model.rotation("c", w)
            frac = tuple(F(v, 4) for v in w)
            assert [samples[i] for i in perm] == \
                [standard_act(frac, z) for z in samples]

    def test_match_indices_agree_with_matched(self):
        model = two_chart_model(m=3)[0]
        for to_chart, from_chart in (("a", "b"), ("b", "a")):
            mates = model.match_indices(to_chart, from_chart)
            for i, z in enumerate(model.samples[from_chart]):
                assert model.samples[to_chart][mates[i]] == \
                    model.matched(to_chart, from_chart, z)

    def test_identified_samples_must_be_closed(self):
        with pytest.raises(InputError, match="not closed under the "
                                             "subgroup action"):
            circle_pair_model([(0, 0)])
        circle_pair_model([(0, 0), (1, 1)])

    def test_identification_must_commute(self):
        # same angles, but the rotation of a's first circle lands on its
        # second circle
        with pytest.raises(InputError, match="does not commute"):
            circle_pair_model([(0, 0), (3, 1)])

    def test_sample_identified_twice(self):
        with pytest.raises(InputError, match="identified twice"):
            circle_pair_model([(0, 0), (2, 0)])

    def test_duplicate_samples_rejected(self):
        nerve = Nerve(["c"])
        cocycle = GLCocycle(nerve, {}, rank=1)
        dup = [polar(((1, 0),)), polar(((1, 0),))]
        with pytest.raises(InputError):
            AtlasModel(nerve, cocycle, 1, {"c": dup})

    def test_match_angle_relation_enforced(self):
        nerve = Nerve(["a", "b"], edges=[("a", "b")])
        cocycle = GLCocycle.from_one_sided(nerve, {("a", "b"): SWAP})
        sa = [polar(((1, F(i, 2)), (1, F(j, 2)))) for i in range(2)
              for j in range(2)]
        bad = [(sa[1], sa[1])]  # angles (0,1/2) vs swap-image (1/2,0)
        with pytest.raises(InputError):
            AtlasModel(nerve, cocycle, 2, {"a": sa, "b": sa},
                       {("a", "b"): bad})

    def test_translate_swaps_presentation(self):
        model, corrections = two_chart_model()
        group = FPGroup.trivial()
        zb = polar(((1, F(1, 2)), (2, 0)))
        pt = FiberedPoint("b", (), zb)
        out = model.translate(pt, "a", group, corrections)
        assert out.chart == "a"
        assert out.x == polar(((2, 0), (1, F(1, 2))))
        assert out.deck == ()

    def test_translate_requires_overlap(self):
        model, corrections = two_chart_model()
        pt = FiberedPoint("b", (), polar(((1, 0), (2, 0))))
        with pytest.raises(OutOfModel):
            model.translate(pt, "missing", FPGroup.trivial(), corrections)


class TestFiberProductAction:
    def test_identity_acts_trivially(self):
        model, corrections = single_chart_model()
        rho = Representation(FPGroup.trivial(), [], n=2)
        pt = FiberedPoint("c", (), polar(((1, F(1, 4)), (2, 0))))
        out = act_fiber_product(semidirect_identity(2), pt, model, rho,
                                corrections)
        assert out == pt

    def test_pure_torus_rotation(self):
        model, corrections = single_chart_model()
        rho = Representation(FPGroup.trivial(), [], n=2)
        pt = FiberedPoint("c", (), polar(((1, 0), (2, 0))))
        g = SemidirectElement(frac_point(1, 3, den=4), ())
        out = act_fiber_product(g, pt, model, rho, corrections)
        assert out.x == polar(((1, F(1, 4)), (2, F(3, 4))))
        assert out.deck == ()

    def test_deck_shift(self):
        model, _ = single_chart_model()
        group = FPGroup.free(1)
        rho = Representation(group, [M])
        corrections = ChartCorrections(basepoint="c", rho_alpha={"c": I2},
                                       tree=(), generators=())
        pt = FiberedPoint("c", ((0, 1),), polar(((1, 0), (2, 0))))
        g = SemidirectElement(frac_point(0, 0, den=4), ((0, 1),))
        out = act_fiber_product(g, pt, model, rho, corrections)
        assert out.deck == ()
        assert out.x == pt.x

    def test_off_grid_rotation_is_out_of_model(self):
        model, corrections = single_chart_model()
        rho = Representation(FPGroup.trivial(), [], n=2)
        pt = FiberedPoint("c", (), polar(((1, 0), (2, 0))))
        g = SemidirectElement((F(1, 8), F(0)), ())
        with pytest.raises(OutOfModel):
            act_fiber_product(g, pt, model, rho, corrections)

    @given(st.tuples(st.integers(0, 1), st.integers(0, 1)),
           st.tuples(st.integers(0, 1), st.integers(0, 1)))
    @settings(max_examples=40, deadline=None)
    def test_chart_independence(self, u_num, theta):
        model, corrections = two_chart_model()
        group = FPGroup.trivial()
        rho = Representation(group, [], n=2)
        u = frac_point(*u_num, den=2)
        zb = polar(((1, F(theta[0], 2)), (2, F(theta[1], 2))))
        pt_b = FiberedPoint("b", (), zb)
        pt_a = model.translate(pt_b, "a", group, corrections)
        g = SemidirectElement(u, ())
        through_b = model.translate(
            act_fiber_product(g, pt_b, model, rho, corrections),
            "a", group, corrections)
        through_a = act_fiber_product(g, pt_a, model, rho, corrections)
        assert through_a == through_b

    def test_action_axiom_on_samples(self):
        model, _ = single_chart_model(m=4)
        group = FPGroup.free(1)
        rho = Representation(group, [M])
        corrections = ChartCorrections(basepoint="c", rho_alpha={"c": I2},
                                       tree=(), generators=())
        pt = FiberedPoint("c", (), polar(((1, F(1, 4)), (2, F(1, 2)))))
        g1 = SemidirectElement(frac_point(1, 2, den=4), ((0, 1),))
        g2 = SemidirectElement(frac_point(3, 1, den=4), ((0, -2),))
        combined = act_fiber_product(semidirect_mul(g1, g2, rho), pt,
                                     model, rho, corrections)
        stepwise = act_fiber_product(
            g1, act_fiber_product(g2, pt, model, rho, corrections),
            model, rho, corrections)
        assert combined == stepwise


class TestTransport:
    def test_identity_transport(self):
        rho = z_rep()
        assert transport_rep(I2, rho) == rho

    def test_swap_conjugation(self):
        rho = z_rep()
        out = transport_rep(SWAP, rho)
        assert out.generator_images == (TorusAut([[1, -1], [0, 1]]),)

    @given(unimodular_2x2())
    @settings(max_examples=40, deadline=None)
    def test_transported_corrections_still_reconcile(self, f):
        nerve = Nerve("012", edges=[("0", "1"), ("1", "2"), ("2", "0")])
        values = {("0", "1"): I2, ("1", "2"): M, ("2", "0"): I2}
        cocycle = GLCocycle.from_one_sided(nerve, values)
        corr = chart_corrections(nerve, cocycle, [M])
        rho = Representation(FPGroup.free(1), [M])
        rho2 = transport_rep(f, rho)
        corr2 = transport_corrections(f, corr)
        gen_word = ((0, 1),)
        for a, b in nerve.edges:
            gen = corr2.edge_generator(a, b)
            middle = rho2.of(gen_word) if gen == (0, 1) else \
                rho2.of(((0, -1),)) if gen == (0, -1) else I2
            assert cocycle.get(a, b) == (corr2.rho_alpha[a] * middle
                                         * corr2.rho_alpha[b].inverse())

    @given(unimodular_2x2(),
           st.tuples(st.integers(0, 7), st.integers(0, 7)),
           st.integers(-2, 2),
           st.tuples(st.integers(0, 7), st.integers(0, 7)),
           st.integers(-2, 2))
    @settings(max_examples=60, deadline=None)
    def test_action_equality_after_transport(self, f, u_num, k, theta, deck):
        model, corrections = single_chart_model(m=8)
        group = FPGroup.free(1)
        rho = Representation(group, [M])
        corrections = ChartCorrections(basepoint="c", rho_alpha={"c": I2},
                                       tree=(), generators=())
        rho2 = transport_rep(f, rho)
        corr2 = transport_corrections(f, corrections)
        u = frac_point(*u_num, den=8)
        word = group.normalize(((0, k),))
        pt = FiberedPoint("c", group.normalize(((0, deck),)),
                          polar(((1, F(theta[0], 8)), (2, F(theta[1], 8)))))
        g = SemidirectElement(u, word)
        g_mapped = SemidirectElement(tuple(f.apply(u)), word)
        left = act_fiber_product(g, pt, model, rho, corrections)
        right = act_fiber_product(g_mapped, pt, model, rho2, corr2)
        assert left == right
