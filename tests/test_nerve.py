"""Tests for nerves, Cech cocycles, holonomy, and chart corrections."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from _helpers import SIGNED_PERMS_2, unimodular_2x2
from toruslift.errors import (
    DisconnectedNerve,
    IncompleteCocycle,
    InputError,
    NoCorrection,
)
from toruslift.nerve import (
    GLCocycle,
    Nerve,
    apply_coboundary,
    chart_corrections,
    check_cocycle,
    holonomy,
)
from toruslift.torus import TorusAut

I2 = TorusAut.identity(2)
M = TorusAut([[1, 0], [-1, 1]])
A = TorusAut([[0, 1], [1, 0]])
B = TorusAut([[1, 0], [-1, 1]])


def cycle_nerve():
    return Nerve("012", edges=[("0", "1"), ("1", "2"), ("2", "0")])


def triangle_nerve():
    return Nerve("012", edges=[("0", "1"), ("1", "2"), ("0", "2")],
                 triangles=[("0", "1", "2")])


def trivial_on(nerve):
    return GLCocycle.from_one_sided(nerve, {e: I2 for e in nerve.edges})


class TestNerve:
    def test_unknown_chart_in_edge(self):
        with pytest.raises(InputError):
            Nerve(["a"], edges=[("a", "b")])

    def test_self_overlap_rejected(self):
        with pytest.raises(InputError):
            Nerve(["a", "b"], edges=[("a", "a")])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(InputError):
            Nerve(["a", "b"], edges=[("a", "b"), ("b", "a")])

    def test_triangle_requires_all_edges(self):
        with pytest.raises(InputError):
            Nerve("012", edges=[("0", "1"), ("1", "2")],
                  triangles=[("0", "1", "2")])

    def test_neighbors_follow_input_order(self):
        n = Nerve("0123", edges=[("0", "2"), ("0", "1"), ("3", "0")])
        assert n.neighbors("0") == ("2", "1", "3")

    def test_connectivity(self):
        assert cycle_nerve().is_connected()
        assert not Nerve(["a", "b"]).is_connected()


class TestGLCocycle:
    def test_one_sided_fills_inverses(self):
        g = GLCocycle.from_one_sided(cycle_nerve(), {
            ("0", "1"): M, ("1", "2"): I2, ("2", "0"): I2})
        assert g.get("1", "0") == M.inverse()
        assert g.get("0", "0") == I2

    def test_missing_edge(self):
        with pytest.raises(IncompleteCocycle):
            GLCocycle.from_one_sided(cycle_nerve(), {("0", "1"): M})

    def test_both_orientations_must_agree(self):
        n = Nerve(["a", "b"], edges=[("a", "b")])
        with pytest.raises(InputError):
            GLCocycle.from_one_sided(n, {("a", "b"): M, ("b", "a"): M})
        g = GLCocycle.from_one_sided(
            n, {("a", "b"): M, ("b", "a"): M.inverse()})
        assert g.get("a", "b") == M

    def test_value_on_non_overlap(self):
        n = Nerve(["a", "b", "c"], edges=[("a", "b"), ("b", "c")])
        with pytest.raises(InputError):
            GLCocycle.from_one_sided(
                n, {("a", "b"): I2, ("b", "c"): I2, ("a", "c"): I2})

    def test_empty_cocycle_needs_rank(self):
        n = Nerve(["only"])
        with pytest.raises(InputError):
            GLCocycle(n, {})
        assert GLCocycle(n, {}, rank=2).get("only", "only") == I2


class TestCheckCocycle:
    def test_trivial_triangle_valid(self):
        report = check_cocycle(triangle_nerve(), trivial_on(triangle_nerve()))
        assert report.ok

    def test_compatible_triangle_valid(self):
        g = GLCocycle.from_one_sided(triangle_nerve(), {
            ("0", "1"): A, ("1", "2"): B, ("0", "2"): A * B})
        assert check_cocycle(triangle_nerve(), g).ok

    def test_incompatible_triangle_invalid(self):
        g = GLCocycle.from_one_sided(triangle_nerve(), {
            ("0", "1"): A, ("1", "2"): B, ("0", "2"): B * A})
        report = check_cocycle(triangle_nerve(), g)
        assert report.violations == (("triangle", "0", "1", "2"),)

    def test_antisymmetry_violation_reported(self):
        n = Nerve(["a", "b"], edges=[("a", "b")])
        g = GLCocycle(n, {("a", "b"): M, ("b", "a"): M})
        report = check_cocycle(n, g)
        assert report.violations == (("antisymmetry", "a", "b"),)


class TestApplyCoboundary:
    def test_identity_leaves_cocycle_alone(self):
        g = trivial_on(cycle_nerve())
        h = {v: I2 for v in "012"}
        assert apply_coboundary(g, h) == g

    def test_single_chart_twist(self):
        g = trivial_on(cycle_nerve())
        out = apply_coboundary(g, {"0": M, "1": I2, "2": I2})
        assert out.get("0", "1") == M
        assert out.get("2", "0") == M.inverse()
        assert out.get("1", "2") == I2

    def test_missing_chart(self):
        with pytest.raises(InputError):
            apply_coboundary(trivial_on(cycle_nerve()), {"0": M})

    @given(st.tuples(unimodular_2x2(), unimodular_2x2(), unimodular_2x2()))
    @settings(max_examples=60, deadline=None)
    def test_validity_is_preserved(self, hs):
        nerve = triangle_nerve()
        g = GLCocycle.from_one_sided(nerve, {
            ("0", "1"): A, ("1", "2"): B, ("0", "2"): A * B})
        h = dict(zip("012", hs))
        assert check_cocycle(nerve, apply_coboundary(g, h)).ok


class TestHolonomy:
    def test_trivial_cycle(self):
        report = holonomy(cycle_nerve(), trivial_on(cycle_nerve()))
        assert report.basepoint == "0"
        assert report.generators == (("1", "2"),)
        assert report.images == (I2,)
        assert report.trivial

    @pytest.mark.parametrize("edge", [("0", "1"), ("1", "2"), ("2", "0")])
    def test_single_twisted_edge_gives_bare_loop_image(self, edge):
        values = {e: I2 for e in cycle_nerve().edges}
        values[edge] = M
        g = GLCocycle.from_one_sided(cycle_nerve(), values)
        report = holonomy(cycle_nerve(), g)
        assert report.images == (M,)
        assert not report.trivial

    def test_filled_triangle_is_trivial(self):
        g = GLCocycle.from_one_sided(triangle_nerve(), {
            ("0", "1"): A, ("1", "2"): B, ("0", "2"): A * B})
        report = holonomy(triangle_nerve(), g)
        assert report.trivial
        assert report.relations == (((0, 1),),)

    def test_relation_orientation(self):
        nerve = Nerve("012", edges=[("0", "1"), ("2", "1"), ("0", "2")],
                      triangles=[("0", "1", "2")])
        g = trivial_on(nerve)
        report = holonomy(nerve, g)
        assert report.generators == (("2", "1"),)
        assert report.relations == (((0, -1),),)

    @given(unimodular_2x2())
    @settings(max_examples=40, deadline=None)
    def test_images_conjugate_under_coboundary(self, h0):
        values = {("0", "1"): I2, ("1", "2"): M, ("2", "0"): I2}
        g = GLCocycle.from_one_sided(cycle_nerve(), values)
        h = {"0": h0, "1": I2, "2": I2}
        before = holonomy(cycle_nerve(), g)
        after = holonomy(cycle_nerve(), apply_coboundary(g, h))
        assert after.images == tuple(h0 * im * h0.inverse()
                                     for im in before.images)

    def test_deterministic(self):
        g = trivial_on(cycle_nerve())
        assert holonomy(cycle_nerve(), g) == holonomy(cycle_nerve(), g)

    def test_disconnected(self):
        n = Nerve(["a", "b"])
        with pytest.raises(DisconnectedNerve):
            holonomy(n, GLCocycle(n, {}, rank=2))

    def test_invalid_cocycle_rejected(self):
        n = Nerve(["a", "b"], edges=[("a", "b")])
        g = GLCocycle(n, {("a", "b"): M, ("b", "a"): M})
        with pytest.raises(InputError):
            holonomy(n, g)

    def test_default_basepoint_is_smallest(self):
        n = Nerve(["b", "a"], edges=[("b", "a")])
        report = holonomy(n, trivial_on(n))
        assert report.basepoint == "a"

    def test_triviality_matches_brute_force_search(self):
        # small exhaustive oracle: trivial iff some per-chart assignment
        # of signed permutations turns the trivial cocycle into this one
        nerve = cycle_nerve()
        trivial = trivial_on(nerve)
        cases = itertools.islice(
            itertools.product(SIGNED_PERMS_2, repeat=3), 0, None, 9)
        for assignment in cases:
            values = dict(zip(nerve.edges, assignment))
            g = GLCocycle.from_one_sided(nerve, values)
            found = any(
                apply_coboundary(trivial, dict(zip("012", hs))) == g
                for hs in itertools.product(SIGNED_PERMS_2, repeat=3))
            assert holonomy(nerve, g).trivial == found


class TestChartCorrections:
    def test_trivial_everything(self):
        out = chart_corrections(cycle_nerve(), trivial_on(cycle_nerve()),
                                [I2])
        assert all(v == I2 for v in out.rho_alpha.values())

    def test_cylinder_style_cocycle(self):
        values = {("0", "1"): I2, ("1", "2"): M, ("2", "0"): I2}
        g = GLCocycle.from_one_sided(cycle_nerve(), values)
        out = chart_corrections(cycle_nerve(), g, [M])
        assert all(v == I2 for v in out.rho_alpha.values())
        assert out.edge_generator("0", "1") is None
        assert out.edge_generator("1", "2") == (0, 1)
        assert out.edge_generator("2", "1") == (0, -1)

    def test_edge_generator_agrees_with_scan(self):
        values = {("0", "1"): I2, ("1", "2"): M, ("2", "0"): I2}
        g = GLCocycle.from_one_sided(cycle_nerve(), values)
        out = chart_corrections(cycle_nerve(), g, [M])
        for a, b in itertools.permutations("012", 2):
            key = frozenset((a, b))
            if any(frozenset(e) == key for e in out.tree):
                want = None
            else:
                i = next(i for i, e in enumerate(out.generators)
                         if frozenset(e) == key)
                want = (i, 1 if out.generators[i] == (a, b) else -1)
            assert out.edge_generator(a, b) == want
        for a, b in (("0", "0"), ("0", "x")):
            with pytest.raises(InputError):
                out.edge_generator(a, b)

    def test_mismatched_representation(self):
        values = {("0", "1"): I2, ("1", "2"): M, ("2", "0"): I2}
        g = GLCocycle.from_one_sided(cycle_nerve(), values)
        with pytest.raises(NoCorrection):
            chart_corrections(cycle_nerve(), g, [I2])

    def test_twist_on_tree_edge_moves_into_corrections(self):
        values = {("0", "1"): M, ("1", "2"): I2, ("2", "0"): I2}
        g = GLCocycle.from_one_sided(cycle_nerve(), values)
        out = chart_corrections(cycle_nerve(), g, [M])
        assert out.rho_alpha["0"] == I2
        assert out.rho_alpha["1"] == M.inverse()
        assert out.rho_alpha["2"] == I2

    def test_wrong_generator_count(self):
        with pytest.raises(InputError):
            chart_corrections(cycle_nerve(), trivial_on(cycle_nerve()),
                              [I2, I2])

    @given(st.tuples(unimodular_2x2(), unimodular_2x2(), unimodular_2x2()))
    @settings(max_examples=40, deadline=None)
    def test_relation_holds_on_every_edge(self, hs):
        nerve = cycle_nerve()
        g = apply_coboundary(trivial_on(nerve), dict(zip("012", hs)))
        report = holonomy(nerve, g)
        out = chart_corrections(nerve, g, report.images)
        gen_im = dict(zip(report.generators, report.images))
        for a, b in nerve.edges:
            middle = gen_im.get((a, b), I2)
            assert g.get(a, b) == (out.rho_alpha[a] * middle
                                   * out.rho_alpha[b].inverse())
