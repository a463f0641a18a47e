"""Shared strategies and fixtures for the test suite."""

import itertools

from hypothesis import strategies as st

from toruslift.cochain import CochainTable, FiniteModule, u_keys
from toruslift.groups import FPGroup
from toruslift.lifting import SigmaTable
from toruslift.torus import TorusAut

# generators of GL(2,Z): shears, the swap, and a reflection
_GL2_LETTERS = (
    TorusAut([[1, 1], [0, 1]]),
    TorusAut([[1, 0], [1, 1]]),
    TorusAut([[0, 1], [1, 0]]),
    TorusAut([[-1, 0], [0, 1]]),
)

# the eight signed permutation matrices in GL(2,Z)
SIGNED_PERMS_2 = tuple(
    TorusAut([[a, 0], [0, b]]) for a in (1, -1) for b in (1, -1)
) + tuple(
    TorusAut([[0, a], [b, 0]]) for a in (1, -1) for b in (1, -1)
)


def unimodular_2x2(max_letters=6):
    """Random elements of GL(2,Z) as short words in standard generators."""
    return st.lists(
        st.tuples(st.sampled_from(_GL2_LETTERS), st.booleans()),
        min_size=0, max_size=max_letters,
    ).map(_product)


def _product(letters):
    out = TorusAut.identity(2)
    for aut, invert in letters:
        out = out * (aut.inverse() if invert else aut)
    return out


def _apply(rows, p, m):
    return tuple(sum(a * x for a, x in zip(row, p)) % m for row in rows)


SHEAR_ROWS = ((1, 0), (-1, 1))
SHEAR_INVERSE_ROWS = ((1, 0), (1, 1))


def shear_orbit_module(m):
    """The torus Z_m^2 acting on itself by translation (one free orbit),
    one deck generator acting by the shear A = [[1, 0], [-1, 1]] on the
    points and as rho, fiber Z_m."""
    points = list(itertools.product(range(m), repeat=2))
    index = {p: c for c, p in enumerate(points)}
    torus = {u: [index[((p[0] + u[0]) % m, (p[1] + u[1]) % m)]
                 for p in points] for u in u_keys(2, m)}
    deck = {(0, e): [index[_apply(rows, p, m)] for p in points]
            for e, rows in ((1, SHEAR_ROWS), (-1, SHEAR_INVERSE_ROWS))}
    return FiniteModule(2, m, 1, m, points, torus, deck,
                        [TorusAut(SHEAR_ROWS)],
                        pi1_group=FPGroup.free_abelian(1))


def shear_sigma(module, s):
    """The obstruction table delta s of a function s on the points:
    sigma(u, x) = s(x) - s(u.x)."""
    m = module.m_prime
    return SigmaTable(tables=(CochainTable(q=1, values={
        (u,): [((s[c] - s[module.torus_act(u, c)]) % m,)
               for c in range(module.size)]
        for u in u_keys(module.n, module.m)}),))


def planted_shear_s(module, rng):
    """s = f - f o A + c for random f and c: its delta s vanishes as a
    deck coboundary."""
    mp = module.m_prime
    f = [rng.randrange(mp) for _ in range(module.size)]
    c0 = rng.randrange(mp)
    return [(f[x] - f[module.deck_act_gen(0, 1, x)] + c0) % mp
            for x in range(module.size)]


def quotient_orbit_module(n, m, stabilizers, k=1, m_prime=2):
    """(Z/m)^n acting by translation on the disjoint union of the orbits
    (Z/m)^n / <h>, one per h in ``stabilizers`` (h = 0 gives a free
    orbit); no deck generators."""
    points = []
    for o, h in enumerate(stabilizers):
        for p in u_keys(n, m):
            if p == _coset_rep(p, h, m):
                points.append((o, p))
    index = {pt: c for c, pt in enumerate(points)}
    torus = {u: [index[(o, _coset_rep(tuple((a + b) % m for a, b in
                                                zip(p, u)),
                                          stabilizers[o], m))]
                 for o, p in points] for u in u_keys(n, m)}
    return FiniteModule(n, m, k, m_prime, points, torus, {}, [])


def _coset_rep(p, h, m):
    return min(tuple((a + t * b) % m for a, b in zip(p, h))
               for t in range(m))
