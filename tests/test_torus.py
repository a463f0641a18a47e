from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from toruslift.errors import DimensionError, UnimodularError
from toruslift.torus import (
    TorusAut, angle, compose_columns, format_angle, grid_generators, mod1,
    moment_map, point_add, point_neg, polar, standard_act, stratum,
    torus_point, zero_point,
)


angles = st.fractions(min_value=-4, max_value=4, max_denominator=64).map(mod1)
small_m = st.sampled_from([[1, 0], [0, 1]])


def unimodular_2x2():
    # products of elementary shears and the swap generate GL(2,Z); a short
    # random word keeps entries small
    shear_l = [[1, 0], [1, 1]]
    shear_u = [[1, 1], [0, 1]]
    swap = [[0, 1], [1, 0]]
    neg = [[-1, 0], [0, 1]]
    return st.lists(st.sampled_from([shear_l, shear_u, swap, neg]),
                    min_size=0, max_size=5).map(
        lambda ws: [TorusAut(w) for w in ws]).map(
        lambda ms: _prod(ms))


@st.composite
def unimodular(draw):
    """A random word in negations and elementary transvections: these
    generate GL(n, Z) for n in {1, 2, 3}."""
    n = draw(st.sampled_from([1, 2, 3]))
    M = TorusAut.identity(n)
    for _ in range(draw(st.integers(0, 6))):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        rows = [[int(r == c) for c in range(n)] for r in range(n)]
        rows[i][j] = -1 if i == j else draw(st.sampled_from([-2, -1, 1, 2]))
        M = M * TorusAut(rows)
    return M


def _prod(ms):
    acc = TorusAut.identity(2)
    for m in ms:
        acc = acc * m
    return acc


class TestAngles:
    def test_mod1_wraps(self):
        assert mod1(F(5, 4)) == F(1, 4)
        assert mod1(F(-1, 4)) == F(3, 4)
        assert mod1(3) == 0

    def test_parse_and_format(self):
        assert angle("3/8") == F(3, 8)
        assert format_angle(F(0)) == "0/1"
        assert format_angle(F(1, 2)) == "1/2"

    @given(angles, angles)
    def test_addition_commutes(self, a, b):
        assert mod1(a + b) == mod1(b + a)

    @given(angles)
    def test_negation_inverts(self, a):
        assert mod1(a + mod1(-a)) == 0


class TestTorusAut:
    def test_rejects_non_unimodular(self):
        with pytest.raises(UnimodularError):
            TorusAut([[2, 0], [0, 1]])
        with pytest.raises(UnimodularError):
            TorusAut([[1, 1], [1, 1]])

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            TorusAut([[1, 0]])

    def test_apply_example(self):
        M = TorusAut([[1, 0], [-1, 1]])
        assert M.apply(torus_point("1/4", "0/1")) == (F(1, 4), F(3, 4))

    def test_composition_example(self):
        M1 = TorusAut([[0, 1], [1, 0]])
        M2 = TorusAut([[1, 0], [-1, 1]])
        u = torus_point("1/8", "1/8")
        assert M1.apply(M2.apply(u)) == (F(0), F(1, 8))

    @given(unimodular_2x2())
    def test_inverse_is_exact(self, M):
        assert (M * M.inverse()).is_identity()
        assert (M.inverse() * M).is_identity()

    @given(unimodular())
    def test_inverse_is_integer_adjugate(self, M):
        identity = TorusAut.identity(M.n)
        assert M * M.inverse() == identity
        assert M.inverse() * M == identity

    @given(unimodular_2x2(), st.tuples(angles, angles))
    def test_apply_is_homomorphism(self, M, u):
        v = torus_point("1/3", "5/8")
        assert M.apply(point_add(u, v)) == point_add(M.apply(u), M.apply(v))

    @given(unimodular_2x2(), unimodular_2x2(), st.tuples(angles, angles))
    def test_apply_respects_product(self, A, B, u):
        assert (A * B).apply(u) == A.apply(B.apply(u))

    def test_powers(self):
        M = TorusAut([[1, 0], [-1, 1]])
        assert (M ** 3).rows == ((1, 0), (-3, 1))
        assert (M ** -2).rows == ((1, 0), (2, 1))
        assert (M ** 0).is_identity()

    def test_apply_mod(self):
        M = TorusAut([[1, 0], [-1, 1]])
        assert M.apply_mod((1, 0), 8) == (1, 7)
        assert M.apply_mod((3, 5), 8) == (3, 2)

    def test_hashable(self):
        M = TorusAut([[1, 0], [0, 1]])
        assert M == TorusAut.identity(2)
        assert len({M, TorusAut.identity(2)}) == 1

    def test_rank_three(self):
        M = TorusAut([[1, 0, 0], [2, 1, 0], [0, -1, 1]])
        assert (M * M.inverse()).is_identity()


class TestPolar:
    def test_origin_phase_enforced(self):
        with pytest.raises(ValueError):
            polar([(0, F(1, 2))])
        with pytest.raises(ValueError):
            polar([(-1, 0)])
        assert polar([(0, 0), (1, "1/4")]) == ((F(0), F(0)), (F(1), F(1, 4)))

    def test_standard_act_example(self):
        u = torus_point("1/4", "1/2")
        z = polar([(1, 0), (4, "1/4")])
        assert standard_act(u, z) == ((F(1), F(1, 4)), (F(4), F(3, 4)))

    def test_origin_fixed(self):
        u = torus_point("1/3", "1/3")
        z = polar([(0, 0), (2, "1/2")])
        assert standard_act(u, z)[0] == (F(0), F(0))

    @given(st.tuples(angles, angles), st.tuples(angles, angles))
    def test_action_composes(self, u, v):
        z = polar([(1, "1/8"), (0, 0)])
        assert standard_act(u, standard_act(v, z)) == \
            standard_act(point_add(u, v), z)

    @given(st.tuples(angles, angles))
    def test_moment_map_invariant(self, u):
        z = polar([("1/2", "3/8"), ("1/2", 0)])
        assert moment_map(standard_act(u, z)) == moment_map(z)

    def test_moment_map_values(self):
        z = polar([(0, 0), (3, "1/2")])
        assert moment_map(z) == (F(0), F(3))

    def test_stratum(self):
        assert stratum((F(0), F(3))) == frozenset({1})
        assert stratum((F(1), F(2))) == frozenset()
        assert stratum((F(0), F(0))) == frozenset({1, 2})

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            standard_act(torus_point("1/2"), polar([(1, 0), (1, 0)]))
        with pytest.raises(DimensionError):
            point_add(zero_point(1), zero_point(2))

    def test_point_neg(self):
        u = torus_point("1/4", "0/1")
        assert point_add(u, point_neg(u)) == zero_point(2)


class TestSampleIndices:
    """Grid rotations of a finite sample tuple, as index maps."""

    def grid(self, m):
        # one origin coordinate (fixed by every rotation) and one full
        # circle of m angles
        return tuple(polar([(0, 0), (1, F(i, m))]) for i in range(m))

    def test_generators_match_standard_act(self):
        samples = self.grid(4)
        gens = grid_generators(samples, 2, 4)
        assert gens[0] == [0, 1, 2, 3]           # the origin coordinate
        for i, z in enumerate(samples):
            assert samples[gens[1][i]] == \
                standard_act((F(0), F(1, 4)), z)

    def test_rotation_leaving_the_samples_is_none(self):
        samples = self.grid(4)[:3]
        assert grid_generators(samples, 2, 4)[1] == [1, 2, None]

    @given(st.integers(0, 7), st.integers(0, 7))
    def test_compose_is_the_rotation(self, a, b):
        samples = self.grid(8)
        gens = grid_generators(samples, 2, 8)
        col = compose_columns(gens, (a, b), len(samples))
        for i, z in enumerate(samples):
            assert samples[col[i]] == standard_act((F(a, 8), F(b, 8)), z)

    def test_compose_zero_is_identity(self):
        assert compose_columns([[1, 2, 0]], (0,), 3) == [0, 1, 2]
        assert compose_columns([[1, 2, 0]], (3,), 3) == [0, 1, 2]
