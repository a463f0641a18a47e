"""The lifted-action evaluators against a straight-line oracle.

``GlobalLifting`` reads w = rho_alpha(rho(deck)(u)) mod m from per-branch
tables, memoizes deck products and reads chart tables through the index
that ``ChartLifting`` builds.  ``StraightLine`` below evaluates without
any of that: it calls ``apply_mod`` and ``group.mul`` on every call and
reads fiber shifts from its own index of the polar-keyed
``ChartLifting.table``.  Sigma from the library must equal sigma from the
oracle's two-start loop.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toruslift.cochain import CochainTable, build_finite_module, u_keys
from toruslift.cylinder import CylParams, build_scenario
from toruslift.errors import (AssemblyError, DimensionError, InputError,
                              OutOfModel)
from toruslift.groups import FPGroup, transport_corrections, transport_rep
from toruslift.lifting import (ChartLifting, GlobalLifting,
                               assemble_global_lifting, compute_sigma)
from toruslift.torus import TorusAut

F = Fraction


def cylinder(m, window, s):
    scn = build_scenario(CylParams(s=s, m=m, window=window))
    lifting = assemble_global_lifting(scn.model, scn.corrections, scn.rho,
                                      scn.liftings, scn.gluing)
    module = build_finite_module(scn.model, scn.rho, scn.corrections,
                                 window=window, fiber_rank=1, fiber_order=m)
    return lifting, module


M4_W1 = cylinder(4, 1, F(1, 4))


class StraightLine:
    """The evaluators of a ``GlobalLifting``, recomputed on every call."""

    def __init__(self, lifting):
        self.lifting = lifting
        self.model = lifting.model
        self.group = lifting.rho.group
        self.m, self.mp = lifting.m, lifting.m_prime
        self.mats = {}
        # chart -> (w, sample index) -> fiber shift
        self.shifts = {
            chart: {(w, self.model.samples[chart].index(z)): vec
                    for (w, z), vec in table.table.items()}
            for chart, table in lifting.liftings.items()}

    def branch_w(self, u, chart, deck):
        if (chart, deck) not in self.mats:
            image = TorusAut.identity(self.lifting.n)
            for i, e in self.group.normalize(deck):
                image = image * self.lifting.rho.generator_images[i] ** e
            self.mats[(chart, deck)] = \
                self.lifting.corrections.rho_alpha[chart] * image
        return self.mats[(chart, deck)].apply_mod(u, self.m)

    def source_shift(self, u, node):
        chart, deck, z = node
        shift = self.shifts[chart].get((self.branch_w(u, chart, deck), z))
        if shift is None:
            raise OutOfModel("no lifting entry")
        if self.lifting.twist is not None:
            module, table = self.lifting.twist
            cls = module.class_of.get(node)
            if cls is None:
                raise OutOfModel("outside the twist window")
            extra = table.values[(u,)][cls]
            if extra is None:
                raise OutOfModel("twist undefined")
            shift = tuple((a + b) % self.mp for a, b in zip(shift, extra))
        return shift

    def act_T(self, u, node, t):
        chart, deck, z = node
        w = self.branch_w(u, chart, deck)
        moved = (chart, deck, self.model.rotation(chart, w)[z])
        shift = self.source_shift(u, node)
        return moved, tuple((a + b) % self.mp for a, b in zip(t, shift))

    def act_T_inv(self, u, node, t):
        chart, deck, z = node
        w = self.branch_w(u, chart, deck)
        back = tuple((-v) % self.m for v in w)
        source = (chart, deck, self.model.rotation(chart, back)[z])
        shift = self.source_shift(u, source)
        return source, tuple((a - b) % self.mp for a, b in zip(t, shift))

    def act_pi1(self, word, node, t):
        chart, deck, z = node
        return (chart, self.group.mul(deck, self.group.inv(word)), z), t

    def sigma_entry(self, word, inv, ru, u, node):
        results = []
        for start in ((0,) * self.lifting.k,
                      (1,) + (0,) * (self.lifting.k - 1)):
            cur, t = self.act_pi1(word, node, start)
            try:
                cur, t = self.act_T(ru, cur, t)
            except OutOfModel:
                return None
            cur, t = self.act_pi1(inv, cur, t)
            try:
                cur, t = self.act_T_inv(u, cur, t)
            except OutOfModel:
                return None
            if cur != node:
                raise AssemblyError("did not return to its base point")
            results.append(tuple((a - b) % self.mp
                                 for a, b in zip(t, start)))
        if results[0] != results[1]:
            raise AssemblyError("depends on the fiber coordinate")
        return results[0]

    def sigma(self, module):
        tables = []
        for i in range(self.group.rank):
            word = ((i, 1),)
            aut, inv = self.lifting.rho.generator_images[i], \
                self.group.inv(word)
            tables.append({
                (u,): [self.sigma_entry(word, inv, aut.apply_mod(u, self.m),
                                        u, node) for node in module.points]
                for u in u_keys(self.lifting.n, self.m)})
        return tables


def outcome(fn, *args):
    try:
        return "value", fn(*args)
    except OutOfModel:
        return "out-of-model", None


def assert_evaluators_agree(lifting, module):
    oracle = StraightLine(lifting)
    group = lifting.rho.group
    words = [()] + [((i, e),) for i in range(group.rank) for e in (1, -1)]
    for node, u in itertools.product(module.class_of,
                                     u_keys(lifting.n, lifting.m)):
        for t in ((0,), (1,)):
            for name in ("act_T", "act_T_inv"):
                assert outcome(getattr(lifting, name), u, node, t) == \
                    outcome(getattr(oracle, name), u, node, t), (name, u, node)
        assert outcome(lifting.source_shift, u, node) == \
            outcome(oracle.source_shift, u, node)
    for node, word in itertools.product(module.class_of, words):
        assert lifting.act_pi1(word, node, (1,)) == \
            oracle.act_pi1(word, node, (1,))


def sigma_values(sigma):
    return [table.values for table in sigma.tables]


@pytest.mark.parametrize("m, window", [(4, 1), (4, 2), (6, 1), (6, 2)])
def test_sigma_matches_straight_line(m, window):
    for i in range(m):
        lifting, module = cylinder(m, window, F(i, m))
        assert sigma_values(compute_sigma(lifting, module)) == \
            StraightLine(lifting).sigma(module)


def test_evaluators_match_straight_line():
    assert_evaluators_agree(*M4_W1)


def test_evaluators_match_on_scrambled_data():
    """The evaluators are pure lookups, so they must agree with the oracle
    on any data, valid or not: here the m = 4 cylinder conjugated by a
    swap that does not commute with its shear (so the order of rho_alpha
    and rho(deck) matters), with random chart tables that depend on the
    sample, their keys inserted in random order."""
    rng = random.Random(3)
    scn = build_scenario(CylParams(s=F(1, 4), m=4, window=1))
    swap = TorusAut([[0, 1], [1, 0]])
    rho = transport_rep(swap, scn.rho)
    corrections = transport_corrections(swap, scn.corrections)
    liftings = {}
    for chart, samples in scn.model.samples.items():
        keys = [(u, z) for u in u_keys(2, 4) for z in samples]
        rng.shuffle(keys)
        liftings[chart] = ChartLifting(
            chart, 4, 4, {key: (rng.randrange(4),) for key in keys},
            n=2, k=1)
    lifting = GlobalLifting(scn.model, corrections, rho, liftings,
                            scn.gluing)
    module = build_finite_module(scn.model, rho, corrections, window=1,
                                 fiber_rank=1, fiber_order=4)
    assert_evaluators_agree(lifting, module)
    assert sigma_values(compute_sigma(lifting, module)) == \
        StraightLine(lifting).sigma(module)


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from((0, 0.02, 0.3)))
def test_twisted_sigma_matches_straight_line(seed, undefined):
    """Random twist tables over the m = 4 cylinder's module, a share of
    their values undefined (None)."""
    lifting, module = M4_W1
    rng = random.Random(seed)
    twisted = lifting.with_twist(module, CochainTable(q=1, values={
        (u,): [None if rng.random() < undefined else (rng.randrange(4),)
               for _ in range(module.size)] for u in u_keys(2, 4)}))
    sigma = compute_sigma(twisted, module)
    # the deck steps of the loop leave the window: both evaluators must
    # give the same None entries
    assert any(v is None for table in sigma.tables
               for col in table.values.values() for v in col)
    assert sigma_values(sigma) == StraightLine(twisted).sigma(module)
    assert_evaluators_agree(twisted, module)


class TestTorusArgument:
    """u is reduced mod m at the evaluator entry, twisted or not."""

    def liftings(self):
        lifting, module = M4_W1
        tau = CochainTable(q=1, values={
            (u,): [(u[1] % 4,)] * module.size for u in u_keys(2, 4)})
        return lifting, lifting.with_twist(module, tau)

    def test_unreduced_u_agrees_with_its_residue(self):
        node = M4_W1[1].points[0]
        for lifting in self.liftings():
            for u, residue in (((5, 0), (1, 0)), ((-1, 0), (3, 0)),
                               ((4, -6), (0, 2))):
                assert lifting.act_T(u, node, (0,)) == \
                    lifting.act_T(residue, node, (0,))
                assert lifting.act_T_inv(u, node, (0,)) == \
                    lifting.act_T_inv(residue, node, (0,))
                assert lifting.source_shift(u, node) == \
                    lifting.source_shift(residue, node)

    def test_list_u_agrees_with_tuple(self):
        node = M4_W1[1].points[0]
        for lifting in self.liftings():
            assert lifting.act_T([1, 3], node, (0,)) == \
                lifting.act_T((1, 3), node, (0,))

    def test_wrong_rank_raises_dimension_error(self):
        node = M4_W1[1].points[0]
        for lifting in self.liftings():
            for u in ((1,), (1, 0, 0)):
                with pytest.raises(DimensionError):
                    lifting.act_T(u, node, (0,))
                with pytest.raises(DimensionError):
                    lifting.act_T_inv(u, node, (0,))
                with pytest.raises(DimensionError):
                    lifting.source_shift(u, node)

    def test_non_integer_u_raises_input_error(self):
        node = M4_W1[1].points[0]
        for lifting in self.liftings():
            with pytest.raises(InputError):
                lifting.act_T((F(1, 2), 0), node, (0,))


def test_sigma_call_counts(monkeypatch):
    """Work counts of one sigma on the m = 6, window 1 cylinder, taken from
    a fresh lifting so that building the tables is inside the count.

    The 144 class representatives lie on four branches, (c1, 1), (c1, a^-1),
    (c2, 1) and (c2, a); the loop also reaches (c1, a^-2) and (c2, a^-1)
    after its deck step, so six branch tables are built.

    ``apply_mod``: 36 calls for rho(a)(u), one per u in (Z/6)^2, and 36
    per branch table: 36 + 6 * 36 = 252.
    ``normalize``: 2 in ``sigma_word`` (rho(a) and a^-1), 2 per memoized
    deck product (an inverse and a product; six (deck, word) pairs are
    reached) and 1 per branch for rho(deck): 2 + 12 + 6 = 20.

    The straight-line evaluator made 41508 ``apply_mod`` and 41480
    ``normalize`` calls here: two of each per loop step.  The counts are
    exact and repeat, so the bounds are the counts.
    """
    lifting, module = cylinder(6, 1, F(1, 6))
    counts = {"apply_mod": 0, "normalize": 0}

    def counted(cls, name):
        inner = getattr(cls, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(cls, name, wrapper)

    counted(TorusAut, "apply_mod")
    counted(FPGroup, "normalize")
    compute_sigma(lifting, module)
    assert counts["apply_mod"] <= 252
    assert counts["normalize"] <= 20
