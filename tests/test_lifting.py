"""Tests for chart liftings, gluing, the obstruction table and its solver."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toruslift.cochain as cochain
import toruslift.lifting as ob
import toruslift.smith as smith
from _helpers import planted_shear_s, shear_orbit_module, shear_sigma
from toruslift.cochain import (
    CochainTable,
    FiniteModule,
    build_finite_module,
    coboundary,
    cochain_add,
    expand_witness,
    generator_columns,
    generator_terms,
    is_cocycle,
    pi1_act,
    u_keys,
    zero_cochain,
)
from toruslift.errors import (
    AssemblyError,
    InputError,
    InvalidSigma,
    OutOfModel,
    ReconstructionError,
)
from toruslift.groups import AtlasModel, FPGroup, Representation
from toruslift.nerve import ChartCorrections, GLCocycle, Nerve, \
    chart_corrections
from toruslift.smith import verify_certificate
from toruslift.torus import TorusAut, polar, standard_act

F = Fraction
I2 = TorusAut.identity(2)
M = TorusAut([[1, 0], [-1, 1]])


def seam_model(m=2):
    """Cycle of three charts; the (c1, c2) overlap carries all samples and
    the shear M, giving holonomy M around the loop."""
    nerve = Nerve(["c0", "c1", "c2"],
                  edges=[("c0", "c1"), ("c0", "c2"), ("c1", "c2")])
    cocycle = GLCocycle.from_one_sided(
        nerve, {("c0", "c1"): I2, ("c0", "c2"): I2, ("c1", "c2"): M})
    half = F(1, 2)
    grid = [(F(i, m), F(j, m)) for i in range(m) for j in range(m)]
    pairs = []
    for x, y in grid:
        a, b = M.apply((x, y))
        pairs.append((polar(((half, a), (half, b))),
                      polar(((half, x), (half, y)))))
    model = AtlasModel(nerve, cocycle, m,
                       {"c0": [], "c1": [za for za, _ in pairs],
                        "c2": [zb for _, zb in pairs]},
                       {("c1", "c2"): pairs})
    rho = Representation(FPGroup.free_abelian(1), [M])
    corrections = chart_corrections(nerve, cocycle, rho)
    return model, rho, corrections


def make_lifting(model, chart, fn, m_prime, k=1):
    m = model.torus_order
    table = {(u, z): fn(u, z)
             for u in u_keys(model.rank, m)
             for z in model.samples[chart]}
    return ob.ChartLifting(chart, m, m_prime, table, n=model.rank, k=k)


def zero_gluing(model, m_prime, k=1):
    tables = {}
    for a, b in model.nerve.edges:
        for to_chart, from_chart in ((a, b), (b, a)):
            table = {}
            for z in model.samples[from_chart]:
                if model.matched(to_chart, from_chart, z) is not None:
                    table[z] = (0,) * k
            tables[(to_chart, from_chart)] = table
    return ob.GluingData(m_prime, tables)


def assembled(m=2, m_prime=2, fn=None):
    model, rho, corrections = seam_model(m)
    fn = fn or (lambda u, z: (0,))
    liftings = {chart: make_lifting(model, chart, fn, m_prime)
                for chart in model.nerve.vertices}
    lifting = ob.assemble_global_lifting(model, corrections, rho, liftings,
                                         zero_gluing(model, m_prime))
    return lifting, model, rho, corrections


def module_for(model, rho, corrections, window, m_prime, k=1):
    return build_finite_module(model, rho, corrections, window=window,
                               fiber_rank=k, fiber_order=m_prime)


def coord_cochain(module, coord, scale=1):
    """z-independent cochain nu(u, x) = scale * u[coord] mod m'."""
    values = {}
    for u in u_keys(module.n, module.m):
        vec = ((scale * u[coord]) % module.m_prime,)
        values[(u,)] = [vec] * module.size
    return CochainTable(q=1, values=values)


def one_point_module(m=2, m_prime=2, k=1):
    torus = {u: [0] for u in u_keys(1, m)}
    deck = {(0, 1): [0], (0, -1): [0]}
    return FiniteModule(n=1, m=m, k=k, m_prime=m_prime, points=("pt",),
                        torus_table=torus, deck_tables=deck,
                        rho_images=[TorusAut([[1]])],
                        pi1_group=FPGroup.free(1))


def pair_scan_ok(lifting):
    """Brute-force oracle: c(0, z) = 0 and c(u1+u2, z) = c(u1, u2.z) +
    c(u2, z) over all m^{2n} pairs, every entry read present."""
    m, mp, n = lifting.m, lifting.m_prime, lifting.n
    table = lifting.table
    for z in lifting.samples:
        if table.get(((0,) * n, z)) != (0,) * lifting.k:
            return False
    keys = list(u_keys(n, m))
    for u1 in keys:
        for u2 in keys:
            total = tuple((a + b) % m for a, b in zip(u1, u2))
            frac = tuple(F(v, m) for v in u2)
            for z in lifting.samples:
                lhs, rhs = table.get((total, z)), table.get((u2, z))
                at_moved = table.get((u1, standard_act(frac, z)))
                if lhs is None or rhs is None or at_moved is None:
                    return False
                if lhs != tuple((a + b) % mp for a, b in zip(at_moved, rhs)):
                    return False
    return True


class TestChartLifting:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([2, 3, 4]),
           st.sampled_from(["valid", "bumped", "partial", "sample-gone"]),
           st.integers(0, 10**6))
    def test_agrees_with_pair_scan(self, m, kind, seed):
        # valid tables: c(u, z) = f(u.z) - f(z) + g . u, a coboundary plus
        # a homomorphism; the others break them in one place
        rng = random.Random(seed)
        samples = [polar(((1, F(i, m)), (2, F(j, m))))
                   for i in range(m) for j in range(m)]
        f = {z: rng.randrange(m) for z in samples}
        g = (rng.randrange(m), rng.randrange(m))
        table = {}
        for u in u_keys(2, m):
            frac = tuple(F(v, m) for v in u)
            for z in samples:
                table[(u, z)] = ((f[standard_act(frac, z)] - f[z]
                                  + g[0] * u[0] + g[1] * u[1]) % m,)
        key = rng.choice(sorted(table))
        if kind == "bumped":
            table[key] = ((table[key][0] + rng.randrange(1, m)) % m,)
        elif kind == "partial":
            del table[key]
        elif kind == "sample-gone":
            table = {(u, z): v for (u, z), v in table.items() if z != key[1]}
        lifting = ob.ChartLifting("c", m, m, table, n=2, k=1)
        report = ob.check_chart_lifting(lifting)
        assert report.ok == pair_scan_ok(lifting) == (kind == "valid")
        if kind in ("partial", "sample-gone"):
            assert any(v[0] == "missing" for v in report.violations)

    def test_zero_table_valid(self):
        model = seam_model()[0]
        lifting = make_lifting(model, "c2", lambda u, z: (0,), 2)
        assert ob.check_chart_lifting(lifting).ok

    def test_homomorphism_valid(self):
        model = seam_model()[0]
        lifting = make_lifting(model, "c2", lambda u, z: (u[0] % 2,), 2)
        assert ob.check_chart_lifting(lifting).ok

    def test_bump_invalid(self):
        nerve = Nerve(["c"])
        cocycle = GLCocycle(nerve, {}, rank=2)
        samples = [polar(((1, F(i, 4)), (2, F(j, 4))))
                   for i in range(4) for j in range(4)]
        model = AtlasModel(nerve, cocycle, 4, {"c": samples})
        bump = make_lifting(model, "c",
                            lambda u, z: (0,) if u == (0, 0) else (1,), 4)
        report = ob.check_chart_lifting(bump)
        assert not report.ok
        z = samples[0]
        # c(3, 0) = c(1, 0) + c(2, 0) fails, 1 != 1 + 1: the generator
        # expansion of u = (3, 0) gives 3, not the tabulated 1
        assert ("cocycle", (3, 0), z) in report.violations

    def test_nonzero_at_identity_listed(self):
        model = seam_model()[0]
        lifting = make_lifting(model, "c2", lambda u, z: (1,), 4)
        report = ob.check_chart_lifting(lifting)
        assert any(v[0] == "zero" for v in report.violations)

    def test_partial_table_listed(self):
        model = seam_model()[0]
        z0 = model.samples["c2"][0]
        table = {((0, 0), z0): (0,)}
        lifting = ob.ChartLifting("c2", 2, 2, table)
        report = ob.check_chart_lifting(lifting)
        assert any(v[0] == "missing" for v in report.violations)

    def test_empty_chart_needs_ranks(self):
        with pytest.raises(InputError):
            ob.ChartLifting("c0", 2, 2, {})
        lifting = ob.ChartLifting("c0", 2, 2, {}, n=2, k=1)
        assert ob.check_chart_lifting(lifting).ok


def tri_model(m_prime=4):
    """Filled triangle, trivial transitions, all charts share one orbit."""
    nerve = Nerve(["a", "b", "c"],
                  edges=[("a", "b"), ("a", "c"), ("b", "c")],
                  triangles=[("a", "b", "c")])
    I1 = TorusAut.identity(1)
    cocycle = GLCocycle.from_one_sided(
        nerve, {("a", "b"): I1, ("a", "c"): I1, ("b", "c"): I1})
    pts = [polar(((1, F(0)),)), polar(((1, F(1, 2)),))]
    matches = {(x, y): [(z, z) for z in pts]
               for x, y in [("a", "b"), ("a", "c"), ("b", "c")]}
    model = AtlasModel(nerve, cocycle, 2,
                       {"a": pts, "b": pts, "c": pts}, matches)
    return model, m_prime


class TestGluing:
    def test_zero_gluing_valid(self):
        model = seam_model()[0]
        assert ob.check_gluing(model, zero_gluing(model, 2)).ok

    def test_antisymmetry_enforced(self):
        model, mp = tri_model()
        tables = {(x, y): {z: (1,) for z in model.samples[y]}
                  for x, y in itertools.permutations("abc", 2)}
        report = ob.check_gluing(model, ob.GluingData(mp, tables))
        assert any(v[0] == "antisymmetry" for v in report.violations)

    def test_totality_on_matched_samples(self):
        model, mp = tri_model()
        gluing = zero_gluing(model, mp)
        del gluing.tables[("a", "b")][model.samples["b"][0]]
        report = ob.check_gluing(model, gluing)
        assert any(v[0] == "missing" for v in report.violations)

    def test_triangle_additivity(self):
        model, mp = tri_model()

        def const(x, y, v):
            return {z: (v % mp,) for z in model.samples[y]}

        good = ob.GluingData(mp, {
            ("a", "b"): const("a", "b", 1), ("b", "a"): const("b", "a", -1),
            ("b", "c"): const("b", "c", 1), ("c", "b"): const("c", "b", -1),
            ("a", "c"): const("a", "c", 2), ("c", "a"): const("c", "a", -2),
        })
        assert ob.check_gluing(model, good).ok
        bad = ob.GluingData(mp, {
            ("a", "b"): const("a", "b", 1), ("b", "a"): const("b", "a", -1),
            ("b", "c"): const("b", "c", 1), ("c", "b"): const("c", "b", -1),
            ("a", "c"): const("a", "c", 0), ("c", "a"): const("c", "a", 0),
        })
        report = ob.check_gluing(model, bad)
        assert any(v[0] == "triangle" for v in report.violations)


class TestEquivariantGluing:
    def test_trivial_data_valid(self):
        model = seam_model()[0]
        la = make_lifting(model, "c1", lambda u, z: (0,), 2)
        lb = make_lifting(model, "c2", lambda u, z: (0,), 2)
        assert ob.check_equivariant_gluing(
            model, "c1", "c2", la, lb, zero_gluing(model, 2)).ok

    def test_transported_homomorphism_valid(self):
        # c_beta = lambda(u), c_alpha = lambda(rho^-1(v)): the identity
        # telescopes to lambda(u) on both sides
        model = seam_model()[0]
        minv = M.inverse()
        lb = make_lifting(model, "c2", lambda u, z: (u[1] % 2,), 2)
        la = make_lifting(model, "c1",
                          lambda u, z: (minv.apply_mod(u, 2)[1],), 2)
        assert ob.check_equivariant_gluing(
            model, "c1", "c2", la, lb, zero_gluing(model, 2)).ok

    def test_untwisted_homomorphism_invalid(self):
        model = seam_model()[0]
        lam = lambda u, z: (u[1] % 2,)   # lambda o M != lambda
        la = make_lifting(model, "c1", lam, 2)
        lb = make_lifting(model, "c2", lam, 2)
        report = ob.check_equivariant_gluing(
            model, "c1", "c2", la, lb, zero_gluing(model, 2))
        assert any(v[0] == "equivariance" for v in report.violations)


class TestAssembly:
    def test_trivial_rotates_base_fixes_fiber(self):
        lifting, model, rho, _ = assembled()
        samples = model.samples["c2"]
        out, t = lifting.act_T((1, 0), ("c2", (), 0), (0,))
        assert t == (0,)
        moved = standard_act((F(1, 2), F(0)), samples[0])
        assert out == ("c2", (), samples.index(moved))

    def test_missing_chart_rejected(self):
        model, rho, corrections = seam_model()
        liftings = {chart: make_lifting(model, chart, lambda u, z: (0,), 2)
                    for chart in ["c1", "c2"]}
        with pytest.raises(AssemblyError):
            ob.assemble_global_lifting(model, corrections, rho, liftings,
                                       zero_gluing(model, 2))

    def test_invalid_chart_table_rejected(self):
        model, rho, corrections = seam_model()
        liftings = {chart: make_lifting(model, chart, lambda u, z: (0,), 2)
                    for chart in model.nerve.vertices}
        liftings["c2"] = make_lifting(model, "c2", lambda u, z: (1,), 2)
        with pytest.raises(AssemblyError):
            ob.assemble_global_lifting(model, corrections, rho, liftings,
                                       zero_gluing(model, 2))

    def test_non_equivariant_gluing_rejected(self):
        model, rho, corrections = seam_model()
        lam = lambda u, z: (u[1] % 2,)
        liftings = {"c0": make_lifting(model, "c0", lam, 2),
                    "c1": make_lifting(model, "c1", lam, 2),
                    "c2": make_lifting(model, "c2", lam, 2)}
        with pytest.raises(AssemblyError):
            ob.assemble_global_lifting(model, corrections, rho, liftings,
                                       zero_gluing(model, 2))

    def test_lifted_action_is_homomorphism(self):
        minv = M.inverse()

        def fn_c2(u, z):
            return (u[1] % 2,)

        def fn_c1(u, z):
            return (minv.apply_mod(u, 2)[1],)

        model, rho, corrections = seam_model()
        liftings = {"c0": make_lifting(model, "c0", fn_c1, 2),
                    "c1": make_lifting(model, "c1", fn_c1, 2),
                    "c2": make_lifting(model, "c2", fn_c2, 2)}
        lifting = ob.assemble_global_lifting(
            model, corrections, rho, liftings, zero_gluing(model, 2))
        group = rho.group
        decks = [(), ((0, 1),), ((0, -1),)]
        cases = itertools.product(
            ["c1", "c2"], decks, range(4),
            list(u_keys(2, 2)), list(u_keys(2, 2)))
        for chart, deck, zi, u1, u2 in cases:
            node = (chart, deck, zi)
            both = tuple((a + b) % 2 for a, b in zip(u1, u2))
            step, t = lifting.act_T(u2, node, (0,))
            step, t = lifting.act_T(u1, step, t)
            direct, t2 = lifting.act_T(both, node, (0,))
            assert (step, t) == (direct, t2)

    def test_transition_accumulates_gluing(self):
        model, rho, corrections = seam_model()
        tables = zero_gluing(model, 4).tables
        for z in model.samples["c2"]:
            tables[("c1", "c2")][z] = (1,)
        for z in model.samples["c1"]:
            tables[("c2", "c1")][z] = (3,)
        gluing = ob.GluingData(4, tables)
        liftings = {chart: make_lifting(model, chart, lambda u, z: (0,), 4)
                    for chart in model.nerve.vertices}
        lifting = ob.assemble_global_lifting(model, corrections, rho,
                                             liftings, gluing)
        z1 = model.samples["c1"].index(
            model.matched("c1", "c2", model.samples["c2"][0]))
        t = lifting.transition(("c2", (), 0), ("c1", ((0, 1),), z1), (0,))
        assert t == (1,)
        back = lifting.transition(("c1", ((0, 1),), z1), ("c2", (), 0),
                                  (1,))
        assert back == (0,)
        with pytest.raises(OutOfModel):
            lifting.transition(("c2", (), 0), ("c1", (), z1), (0,))


class TestSigma:
    def test_equivariant_lifting_has_zero_sigma(self):
        for fn in (None, lambda u, z: (u[0] % 2,)):
            lifting, model, rho, corrections = assembled(fn=fn)
            module = module_for(model, rho, corrections, 1, 2)
            sigma = ob.compute_sigma(lifting, module)
            assert sigma.is_zero()
            assert all(v == (0,) for table in sigma.tables
                       for col in table.values.values() for v in col)

    def test_twist_shifts_sigma_by_minus_coboundary(self):
        lifting, model, rho, corrections = assembled(m=4, m_prime=4)
        module = module_for(model, rho, corrections, 1, 4)
        nu = coord_cochain(module, coord=1)
        twisted = lifting.with_twist(module, nu)
        sigma = ob.compute_sigma(twisted, module)
        cob = ob.deck_coboundary(nu, module)
        for u in u_keys(2, 4):
            got = sigma.tables[0].values[(u,)]
            want = cob.tables[0].values[(u,)]
            for c in range(module.size):
                assert (got[c] is None) == (want[c] is None)
                if got[c] is not None:
                    assert got[c] == tuple((-v) % 4 for v in want[c])

    def test_twisted_sigma_values_frozen(self):
        # nu(u) = u_2, rho(t) = [[1,0],[-1,1]]: sigma(t, u, x) = -u_1
        lifting, model, rho, corrections = assembled(m=4, m_prime=4)
        module = module_for(model, rho, corrections, 1, 4)
        twisted = lifting.with_twist(module, coord_cochain(module, coord=1))
        sigma = ob.compute_sigma(twisted, module)
        for u in u_keys(2, 4):
            for v in sigma.tables[0].values[(u,)]:
                if v is not None:
                    assert v == ((-u[0]) % 4,)

    def test_out_of_window_entries_match_deck_table(self):
        lifting, model, rho, corrections = assembled(m=2, m_prime=2)
        module = module_for(model, rho, corrections, 1, 2)
        twisted = lifting.with_twist(module, coord_cochain(module, coord=1))
        sigma = ob.compute_sigma(twisted, module)
        for u in u_keys(2, 2):
            col = sigma.tables[0].values[(u,)]
            for c in range(module.size):
                assert (col[c] is None) \
                    == (module.deck_act_gen(0, 1, c) is None)

    def test_twists_compose(self):
        lifting, model, rho, corrections = assembled(m=2, m_prime=2)
        module = module_for(model, rho, corrections, 1, 2)
        nu1 = coord_cochain(module, coord=0)
        nu2 = coord_cochain(module, coord=1)
        once = lifting.with_twist(module, nu1).with_twist(module, nu2)
        both = lifting.with_twist(module, cochain_add(nu1, nu2, module))
        sa = ob.compute_sigma(once, module)
        sb = ob.compute_sigma(both, module)
        assert sa == sb

    def test_sigma_word_cocycle_law(self):
        # sigma(a1 a2) = sigma(a2) + sigma(a1) . a2
        lifting, model, rho, corrections = assembled(m=2, m_prime=2)
        module = module_for(model, rho, corrections, 2, 2)
        twisted = lifting.with_twist(module, coord_cochain(module, coord=1))
        single = ob.sigma_word(twisted, module, ((0, 1),))
        double = ob.sigma_word(twisted, module, ((0, 2),))
        acted = pi1_act(single, ((0, 1),), module)
        total = cochain_add(single, acted, module)
        for u in u_keys(2, 2):
            for c in range(module.size):
                lhs = double.values[(u,)][c]
                rhs = total.values[(u,)][c]
                if lhs is not None and rhs is not None:
                    assert lhs == rhs


class TestDeckCoboundary:
    def test_formula(self):
        lifting, model, rho, corrections = assembled()
        module = module_for(model, rho, corrections, 1, 2)
        tau = coord_cochain(module, coord=0)
        cob = ob.deck_coboundary(tau, module)
        for u in u_keys(2, 2):
            ru = M.apply_mod(u, 2)
            for c in range(module.size):
                moved = module.deck_act_gen(0, 1, c)
                want = None if moved is None else \
                    ((tau.values[(u,)][c][0]
                      - tau.values[(ru,)][moved][0]) % 2,)
                assert cob.tables[0].values[(u,)][c] == want

    def test_coboundary_of_cocycle_is_cocycle(self):
        lifting, model, rho, corrections = assembled()
        module = module_for(model, rho, corrections, 1, 2)
        tau = coord_cochain(module, coord=1)
        assert is_cocycle(tau, module).ok
        cob = ob.deck_coboundary(tau, module)
        assert is_cocycle(cob.tables[0], module).ok

    def test_partial_tables_of_cocycles_pass(self):
        # deck coboundaries of genuine cocycles are partial at the window;
        # the cocycle check reads only their defined entries
        lifting, model, rho, corrections = assembled(m=4, m_prime=4)
        module = module_for(model, rho, corrections, 1, 4)
        rng = random.Random(5)
        for _ in range(3):
            f = [(rng.randrange(4),) for _ in range(module.size)]
            delta = coboundary(CochainTable(q=0, values={(): f}), module)
            tau = cochain_add(delta, coord_cochain(module, coord=1,
                                                   scale=rng.randrange(4)),
                              module)
            assert is_cocycle(tau, module).ok
            cob = ob.deck_coboundary(tau, module).tables[0]
            assert any(v is None for col in cob.values.values() for v in col)
            assert is_cocycle(cob, module).ok


class TestExpand:
    def test_expansion_walks_suffixes(self):
        module = one_point_module(m=4)
        # one point: all classes collapse, terms count u
        terms = generator_terms(generator_columns(module), (3,))
        assert [(j, col[0]) for j, col in terms] == [(0, 0), (0, 0), (0, 0)]

    def test_expand_witness_is_cocycle(self):
        lifting, model, rho, corrections = assembled(m=2, m_prime=4)
        module = module_for(model, rho, corrections, 1, 4)
        gen_values = {(j, c): ((3 * j + c) % 4,)
                      for j in range(2) for c in range(module.size)}
        # arbitrary generator data fails torsion/commutation in general;
        # zero data expands to the zero cocycle
        zeros = {key: (0,) for key in gen_values}
        tab = expand_witness(module, zeros)
        assert tab == zero_cochain(module, 1)


class TestExpansionWork:
    """Tooling guard on the work of the cocycle checks, in counts, not
    time.  ``is_cocycle`` walks the expansion recurrence and calls
    ``generator_terms`` not at all; summing each u from scratch called it
    once per u (100 times at m = 10).  The vanishing test calls it once
    per deck generator and torus generator, for the deck rows; it made
    202 calls when it also summed sigma and the witness from scratch."""

    def test_generator_terms_calls(self, monkeypatch):
        calls = []

        def counted(gens, u):
            calls.append(u)
            return generator_terms(gens, u)

        monkeypatch.setattr(cochain, "generator_terms", counted)
        monkeypatch.setattr(ob, "generator_terms", counted)
        module = shear_orbit_module(10)
        sigma = shear_sigma(module, planted_shear_s(module, random.Random(1)))
        assert is_cocycle(sigma.tables[0], module).ok
        assert calls == []
        report = ob.test_vanishing(sigma, module)
        assert report.verdict == "vanishing-at-scale"
        assert calls == [(1, 9), (0, 1)]      # rho(a)(e_j) = A e_j


class TestVanishing:
    @pytest.mark.parametrize("corruption",
                             ["bump", "added-cocycle", "frozen-point"])
    def test_corrupted_expansion_caught(self, monkeypatch, corruption):
        # the witness table is not re-checked as a cocycle; a wrong
        # expansion still fails the cob(witness) = sigma comparison, even
        # one that is a cocycle ("added-cocycle")
        module = shear_orbit_module(4)
        sigma = shear_sigma(module, planted_shear_s(module, random.Random(3)))
        assert ob.test_vanishing(sigma, module).verdict == \
            "vanishing-at-scale"
        real = ob.expand_witness

        def corrupted(module, gen_values):
            table = real(module, gen_values)
            for (u,), col in table.values.items():
                for x in range(module.size):
                    if corruption == "bump" and (u, x) == ((1, 0), 0):
                        col[x] = ((col[x][0] + 1) % 4,)
                    elif corruption == "added-cocycle":
                        col[x] = ((col[x][0] + u[1]) % 4,)
                    elif corruption == "frozen-point":
                        col[x] = (sum(uj * gen_values[(j, x)][0]
                                      for j, uj in enumerate(u)) % 4,)
            return table

        monkeypatch.setattr(ob, "expand_witness", corrupted)
        with pytest.raises(AssemblyError, match="coboundary disagrees"):
            ob.test_vanishing(sigma, module)

    def test_zero_sigma_vanishes_with_zero_witness(self):
        lifting, model, rho, corrections = assembled()
        module = module_for(model, rho, corrections, 1, 2)
        sigma = ob.compute_sigma(lifting, module)
        report = ob.test_vanishing(sigma, module)
        assert report.verdict == "vanishing-at-scale"
        assert report.witness == zero_cochain(module, 1)
        assert report.certificate is None

    def test_twisted_sigma_round_trips(self):
        lifting, model, rho, corrections = assembled(m=4, m_prime=4)
        module = module_for(model, rho, corrections, 1, 4)
        nu = coord_cochain(module, coord=1)
        twisted = lifting.with_twist(module, nu)
        sigma = ob.compute_sigma(twisted, module)
        report = ob.test_vanishing(sigma, module)
        assert report.verdict == "vanishing-at-scale"
        cob = ob.deck_coboundary(report.witness, module)
        for i, table in enumerate(cob.tables):
            for u in u_keys(2, 4):
                for c in range(module.size):
                    got = table.values[(u,)][c]
                    want = sigma.tables[i].values[(u,)][c]
                    if want is not None:
                        assert got == want
        repaired = ob.reconstruct_lifting(twisted, module, report.witness)
        assert ob.compute_sigma(repaired, module).is_zero()

    def test_synthetic_nonvanishing_certified(self):
        module = one_point_module()
        sigma = ob.SigmaTable(tables=(CochainTable(
            q=1, values={((0,),): [(0,)], ((1,),): [(1,)]}),))
        report = ob.test_vanishing(sigma, module)
        assert report.verdict == "certified-nonvanishing"
        assert report.witness is None
        cert = report.certificate
        assert cert.fiber_coordinate == 0
        assert any(v % 2 for v in cert.vector)
        assert verify_certificate(report.rows, report.rhs[0], 2, cert.vector)
        # brute force: no tau table has this coboundary
        for g in range(2):
            tau = CochainTable(q=1, values={((0,),): [(0,)],
                                            ((1,),): [(g,)]})
            cob = ob.deck_coboundary(tau, module)
            assert cob.tables[0].values[((1,),)][0] == (0,)

    def test_invalid_sigma_rejected(self):
        module = one_point_module(m=4, m_prime=4)
        values = {((u,),): [(1 if u == 3 else 0,)] for u in range(4)}
        sigma = ob.SigmaTable(tables=(CochainTable(q=1, values=values),))
        with pytest.raises(InvalidSigma):
            ob.test_vanishing(sigma, module)

    def test_dishonest_module_rejected(self):
        # swap-without-inverse deck tables break the commutation relations
        dishonest = FiniteModule(
            n=1, m=2, k=1, m_prime=2, points=(0, 1),
            torus_table={(0,): [0, 1], (1,): [1, 0]},
            deck_tables={(0, 1): [0, 0], (0, -1): [0, 0]},
            rho_images=[TorusAut([[1]])])
        sigma = ob.SigmaTable(tables=(zero_cochain(dishonest, 1),))
        with pytest.raises(InputError):
            ob.test_vanishing(sigma, dishonest)

    def test_dropped_ratio_and_threshold(self):
        lifting, model, rho, corrections = assembled(m=4, m_prime=4)
        module = module_for(model, rho, corrections, 1, 4)
        twisted = lifting.with_twist(module, coord_cochain(module, coord=1))
        sigma = ob.compute_sigma(twisted, module)
        report = ob.test_vanishing(sigma, module)
        assert report.dropped_ratio == F(1, 4)
        assert report.verdict == "vanishing-at-scale"
        strict = ob.test_vanishing(sigma, module, threshold=F(1, 5))
        assert strict.verdict == "indeterminate"
        assert strict.witness is not None

    def test_reports_are_deterministic(self):
        lifting, model, rho, corrections = assembled(m=2, m_prime=2)
        module = module_for(model, rho, corrections, 1, 2)
        twisted = lifting.with_twist(module, coord_cochain(module, coord=1))
        sigma = ob.compute_sigma(twisted, module)
        first = ob.test_vanishing(sigma, module)
        second = ob.test_vanishing(sigma, module)
        assert first == second

    def test_zero_sigma_skips_the_smith_form(self, monkeypatch):
        def no_solver(*args, **kwargs):
            raise AssertionError("solver built for a zero sigma")

        monkeypatch.setattr(smith, "ModularEchelon", no_solver)
        monkeypatch.setattr(smith, "SmithNF", no_solver)
        lifting, model, rho, corrections = assembled(m=4, m_prime=4)
        module = module_for(model, rho, corrections, 1, 4)
        report = ob.test_vanishing(ob.compute_sigma(lifting, module), module)
        assert report.verdict == "vanishing-at-scale"
        assert report.witness == zero_cochain(module, 1)

    def test_witness_reverified(self, monkeypatch):
        monkeypatch.setattr(smith, "verify_solution", lambda *args: False)
        lifting, model, rho, corrections = assembled(m=4, m_prime=4)
        module = module_for(model, rho, corrections, 1, 4)
        twisted = lifting.with_twist(module, coord_cochain(module, coord=1))
        with pytest.raises(AssemblyError):
            ob.test_vanishing(ob.compute_sigma(twisted, module), module)

    def test_certificate_reverified(self, monkeypatch):
        monkeypatch.setattr(smith, "verify_certificate", lambda *args: False)
        module = one_point_module()
        sigma = ob.SigmaTable(tables=(CochainTable(
            q=1, values={((0,),): [(0,)], ((1,),): [(1,)]}),))
        with pytest.raises(AssemblyError):
            ob.test_vanishing(sigma, module)

    def test_multicoordinate_certificate_names_fiber_axis(self):
        module = one_point_module(k=2)
        zero = {((0,),): [(0, 0)], ((1,),): [(0, 1)]}
        sigma = ob.SigmaTable(tables=(CochainTable(q=1, values=zero),))
        report = ob.test_vanishing(sigma, module)
        assert report.verdict == "certified-nonvanishing"
        assert report.certificate.fiber_coordinate == 1


class TestReconstruct:
    def test_zero_witness_keeps_action(self):
        lifting, model, rho, corrections = assembled()
        module = module_for(model, rho, corrections, 1, 2)
        repaired = ob.reconstruct_lifting(lifting, module,
                                          zero_cochain(module, 1))
        for c in range(module.size):
            node = module.points[c]
            for u in u_keys(2, 2):
                assert lifting.act_T(u, node, (0,)) \
                    == repaired.act_T(u, node, (0,))

    def test_wrong_witness_rejected(self):
        lifting, model, rho, corrections = assembled(m=4, m_prime=4)
        module = module_for(model, rho, corrections, 1, 4)
        twisted = lifting.with_twist(module, coord_cochain(module, coord=1))
        wrong = coord_cochain(module, coord=0)   # a cocycle, not a witness
        with pytest.raises(ReconstructionError):
            ob.reconstruct_lifting(twisted, module, wrong)

    def test_noncocycle_witness_rejected(self):
        lifting, model, rho, corrections = assembled(m=4, m_prime=4)
        module = module_for(model, rho, corrections, 1, 4)
        bad = zero_cochain(module, 1)
        bad.values[((1, 0),)] = [(1,)] * module.size
        with pytest.raises(ReconstructionError):
            ob.reconstruct_lifting(lifting, module, bad)

    def test_repaired_lifting_is_homomorphism(self):
        lifting, model, rho, corrections = assembled(m=4, m_prime=4)
        module = module_for(model, rho, corrections, 1, 4)
        twisted = lifting.with_twist(module, coord_cochain(module, coord=1))
        sigma = ob.compute_sigma(twisted, module)
        witness = ob.test_vanishing(sigma, module).witness
        repaired = ob.reconstruct_lifting(twisted, module, witness)
        for c in range(0, module.size, 5):
            node = module.points[c]
            for u1 in u_keys(2, 4):
                for u2 in u_keys(2, 4):
                    both = tuple((a + b) % 4 for a, b in zip(u1, u2))
                    step, t = repaired.act_T(u2, node, (0,))
                    step, t = repaired.act_T(u1, step, t)
                    assert (step, t) == repaired.act_T(both, node, (0,))
