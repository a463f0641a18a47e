"""Tests for the modular echelon solver and the integer Smith normal form
that serves as its reference."""

import itertools
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form

import toruslift.smith as smith
from _helpers import planted_shear_s, shear_orbit_module, shear_sigma
from toruslift.errors import AssemblyError
from toruslift.lifting import test_vanishing as vanishing_test
from toruslift.smith import (
    ModularEchelon,
    SmithNF,
    SmithSystem,
    SolveResult,
    smith_solve,
    solve_verified,
    sparse,
    verify_certificate,
    verify_solution,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def brute_force_solutions(A, b, m, ncols):
    out = []
    for x in itertools.product(range(m), repeat=ncols):
        if all(sum(c * v for c, v in zip(row, x)) % m == bi % m
               for row, bi in zip(A, b)):
            out.append(x)
    return out


def det(rows):
    rows = [list(r) for r in rows]
    n = len(rows)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if swap is None:
                return 0
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                rows[i][j] = (rows[i][j] * rows[k][k]
                              - rows[i][k] * rows[k][j]) // prev
        prev = rows[k][k]
    return sign * rows[-1][-1]


class RescanSmithNF(SmithNF):
    """The pivot search as first written: every remaining row rescanned at
    every pivot.  The oracle for the candidate cache of ``SmithNF``."""

    def _find_pivot(self, p):
        best = None
        best_key = None
        for r in range(p, self.nrows):
            row = self.rows[r]
            if not row:
                continue
            nnz_r = len(row)
            for col, v in row.items():
                if col < p:
                    continue
                if -1 <= v <= 1:
                    score = (nnz_r - 1) * (len(self._colindex[col]) - 1)
                    if score <= 4:
                        return (r, col)
                    key = (0, score, r, col)
                else:
                    key = (1, abs(v), r, col)
                if best_key is None or key < best_key:
                    best_key, best = key, (r, col)
        return best


def reduction(nf):
    return nf._log, nf.diagonal, nf._vcols, nf.rank


def shear_rows(m):
    """The constraint rows of the vanishing test on the shear-orbit module
    at order m, as {column: coefficient} dicts, and their width."""
    module = shear_orbit_module(m)
    report = vanishing_test(shear_sigma(module, [0] * module.size), module)
    return [dict(r) for r in report.rows], report.unknowns


@st.composite
def sparse_matrices(draw):
    """Sparse {column: coefficient} rows with repeated rows, entries that
    are not units and empty rows, and a width."""
    ncols = draw(st.integers(min_value=1, max_value=8))
    entry = st.sampled_from((1, -1, 1, -1, 2, -2, 3, 4, -6, 12))
    row = st.dictionaries(st.integers(min_value=0, max_value=ncols - 1),
                          entry, max_size=ncols)
    rows = draw(st.lists(row, min_size=1, max_size=10))
    copies = draw(st.lists(st.integers(min_value=0, max_value=len(rows) - 1),
                           max_size=3))
    for i in copies:
        rows.insert(draw(st.integers(min_value=0, max_value=len(rows))),
                    dict(rows[i]))
    return rows, ncols


def invariant_factors(A):
    """Nonzero Smith invariants of an integer matrix, by sympy."""
    D = smith_normal_form(Matrix(A), domain=ZZ)
    return [abs(D[i, i]) for i in range(min(D.shape)) if D[i, i]]


def sympy_solvable(A, b, modulus):
    """A x = b (mod modulus) has a solution iff [A | modulus I] y = b has
    one over Z, iff appending b leaves the Smith invariants unchanged."""
    wide = [list(row) + [modulus if i == j else 0 for j in range(len(A))]
            for i, row in enumerate(A)]
    return invariant_factors(wide) == invariant_factors(
        [row + [bi] for row, bi in zip(wide, b)])


small_matrix = st.integers(min_value=1, max_value=4).flatmap(
    lambda nr: st.integers(min_value=1, max_value=3).flatmap(
        lambda nc: st.lists(
            st.lists(st.integers(min_value=-4, max_value=4),
                     min_size=nc, max_size=nc),
            min_size=nr, max_size=nr)))


class TestNormalForm:
    def test_diagonal_of_known_matrix(self):
        snf = SmithNF([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        assert snf.diagonal == [2, 2, 156]

    def test_identity_is_fixed(self):
        snf = SmithNF([[1, 0], [0, 1]])
        assert snf.diagonal == [1, 1]
        assert snf.rank == 2

    def test_zero_matrix(self):
        snf = SmithNF([[0, 0], [0, 0]])
        assert snf.diagonal == [0, 0]
        assert snf.rank == 0

    @given(small_matrix)
    @settings(max_examples=150, deadline=None)
    def test_uav_equals_diagonal(self, A):
        nr, nc = len(A), len(A[0])
        snf = SmithNF(A)
        U = [snf.u_row(i) for i in range(nr)]
        V = [snf.apply_v([1 if j == k else 0 for j in range(nc)])
             for k in range(nc)]  # V columns
        for i in range(nr):
            for j in range(nc):
                ua = [sum(U[i][k] * A[k][c] for k in range(nr))
                      for c in range(nc)]
                uav = sum(ua[c] * V[j][c] for c in range(nc))
                want = snf.diagonal[i] if i == j and i < len(snf.diagonal) \
                    else 0
                assert uav == want

    @given(small_matrix)
    @settings(max_examples=150, deadline=None)
    def test_transforms_are_unimodular(self, A):
        nr, nc = len(A), len(A[0])
        snf = SmithNF(A)
        U = [snf.u_row(i) for i in range(nr)]
        V_cols = [snf.apply_v([1 if j == k else 0 for j in range(nc)])
                  for k in range(nc)]
        V = [[V_cols[j][i] for j in range(nc)] for i in range(nc)]
        assert abs(det(U)) == 1
        assert abs(det(V)) == 1

    @given(small_matrix)
    @settings(max_examples=150, deadline=None)
    def test_divisibility_chain(self, A):
        diag = SmithNF(A).diagonal
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            if b:
                assert a and b % a == 0
            # zeros only at the tail
            if a == 0:
                assert b == 0

    def test_apply_u_matches_u_rows(self):
        A = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
        snf = SmithNF(A)
        b = [3, -1, 7]
        direct = snf.apply_u(b)
        via_rows = [sum(u * v for u, v in zip(snf.u_row(i), b))
                    for i in range(3)]
        assert direct == via_rows

    def test_sparse_dict_input(self):
        dense = SmithNF([[0, 2, 0], [1, 0, 3]])
        sparse = SmithNF([{1: 2}, {0: 1, 2: 3}], ncols=3)
        assert dense.diagonal == sparse.diagonal

    def test_dict_input_requires_ncols(self):
        try:
            SmithNF([{0: 1}])
        except ValueError:
            pass
        else:
            raise AssertionError("expected ValueError")

    def test_deterministic(self):
        A = [[3, 1, 4], [1, 5, 9], [2, 6, 5]]
        first, second = SmithNF(A), SmithNF(A)
        assert first.diagonal == second.diagonal
        assert first._log == second._log


class TestPivotCache:
    """The candidate cache reproduces the rescan rule, so every
    elimination step, transform and invariant is the same."""

    @given(sparse_matrices())
    @settings(max_examples=300, deadline=None)
    def test_matches_rescan_oracle(self, case):
        rows, ncols = case
        assert reduction(SmithNF(rows, ncols=ncols)) == \
            reduction(RescanSmithNF(rows, ncols=ncols))

    @pytest.mark.parametrize("m", [4, 6])
    def test_matches_rescan_oracle_on_shear_systems(self, m):
        rows, ncols = shear_rows(m)
        assert reduction(SmithNF(rows, ncols=ncols)) == \
            reduction(RescanSmithNF(rows, ncols=ncols))

    def test_cache_does_not_outlive_the_reduction(self):
        nf = SmithNF([[2, 1], [1, 1], [0, 3]])
        assert not any(hasattr(nf, name)
                       for name in ("_dirty", "_cand"))

    @given(sparse_matrices(), st.sampled_from([2, 4, 6, 12]),
           st.lists(st.integers(min_value=-6, max_value=6), min_size=10,
                    max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_sympy(self, case, modulus, b):
        rows, ncols = case
        A = [[row.get(j, 0) for j in range(ncols)] for row in rows]
        b = b[:len(A)] + [0] * (len(A) - len(b))
        nf = SmithNF(rows, ncols=ncols)
        assert [d for d in nf.diagonal if d] == invariant_factors(A)
        res = nf.solve_mod(b, modulus)
        assert res.solvable == sympy_solvable(A, b, modulus)


def pivot_row_scans(rows, ncols):
    """How many rows the pivot search reads while one Smith form is
    reduced: each read of a row's entries from inside ``_find_pivot``."""
    scans = []
    searching = []

    class Row(dict):
        def items(self):
            if searching:
                scans.append(1)
            return super().items()

    class Counted(SmithNF):
        def _reduce(self):
            self.rows = [Row(r) for r in self.rows]
            super()._reduce()

        def _find_pivot(self, p):
            searching.append(1)
            try:
                return super()._find_pivot(p)
            finally:
                searching.pop()

    Counted(rows, ncols=ncols)
    return len(scans)


class TestPivotScanCount:
    """Tooling guard on the work of the pivot search, in counts, not time.

    The m = 10 shear system has 500 rows and 200 columns and takes 174
    pivots.  Rescanning every remaining row at each pivot read 62 213
    rows.  With the candidate cache the search reads each row once, then
    only the rows an elementary operation changed or whose columns
    changed their entry counts: 15 383 reads.  The bound leaves no slack,
    so a change that makes the search rescan more shows here first."""

    BOUND = 15383

    def test_shear_system_scans_within_bound(self):
        rows, ncols = shear_rows(10)
        first = pivot_row_scans(rows, ncols)
        assert first == pivot_row_scans(rows, ncols)
        assert first <= self.BOUND


def split_count(echelon):
    """How many times the modulus of an echelon form, or of one of its
    parts, was split into coprime parts."""
    return bool(echelon.parts) + sum(split_count(p) for p in echelon.parts)


def row_operations(echelon):
    """Row operations logged by an echelon form and all its parts."""
    return len(echelon._log) + sum(row_operations(p) for p in echelon.parts)


def check_against_oracles(rows, ncols, b, modulus, use_sympy=True):
    """The echelon form's answer for A x = b (mod modulus) passes its
    verifier, and its solvability is that of the integer Smith form and,
    if asked, of sympy's."""
    res = ModularEchelon(rows, ncols, modulus).solve(b)
    pairs = sparse([[row.get(j, 0) for j in range(ncols)] for row in rows])
    if res.solvable:
        assert verify_solution(pairs, b, modulus, res.solution)
        assert all(0 <= v < modulus for v in res.solution)
    else:
        assert verify_certificate(pairs, b, modulus, res.certificate)
        assert all(0 <= v < modulus for v in res.certificate)
    assert res.solvable == \
        SmithNF(rows, ncols=ncols).solve_mod(b, modulus).solvable
    if use_sympy:
        A = [[row.get(j, 0) for j in range(ncols)] for row in rows]
        assert res.solvable == sympy_solvable(A, b, modulus)
    return res


#: right-hand sides, cut to the row count: enough entries for the 13 rows
#: ``sparse_matrices`` can draw
rhs_entries = st.lists(st.integers(min_value=-40, max_value=40),
                       min_size=13, max_size=13)


@st.composite
def non_unit_matrices(draw, modulus):
    """Sparse rows over Z/modulus whose entries are all non-units: each a
    multiple of 2 or of 3.  For a modulus with both primes, an entry 2
    and an entry 3 make the least gcd fail to divide another, so the
    modulus must split before the first pivot."""
    ncols = draw(st.integers(min_value=1, max_value=5))
    entry = st.sampled_from((2, 3, 4, 6, 8, 9, -2, -3, 10, 15, 12, 18))
    row = st.dictionaries(st.integers(min_value=0, max_value=ncols - 1),
                          entry, max_size=ncols)
    rows = draw(st.lists(row, min_size=1, max_size=7))
    rows.append({draw(st.integers(min_value=0, max_value=ncols - 1)): 2})
    rows.insert(draw(st.integers(min_value=0, max_value=len(rows))),
                {draw(st.integers(min_value=0, max_value=ncols - 1)): 3})
    return rows, ncols


def shear_systems(m):
    """The vanishing test's rows on the shear-orbit module at order m and
    right-hand sides: one planted to vanish, one planted not to, and one
    with a single nonzero entry."""
    module = shear_orbit_module(m)
    s = planted_shear_s(module, random.Random(m))
    moved = list(s)
    moved[1] = (moved[1] + 1) % m
    rhs = [vanishing_test(shear_sigma(module, t), module).rhs[0]
           for t in (s, moved)]
    rows, ncols = shear_rows(m)
    rhs.append([1] + [0] * (len(rows) - 1))
    return rows, ncols, rhs


class TestModularEchelon:
    """The modular solver against sympy's Smith form, the integer Smith
    form and its own verifiers."""

    @given(sparse_matrices(), st.sampled_from([4, 8, 9, 12, 18, 36]),
           rhs_entries)
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_smith_forms(self, case, modulus, b):
        rows, ncols = case
        check_against_oracles(rows, ncols, b[:len(rows)], modulus)

    @given(st.sampled_from([12, 18, 36]).flatmap(
        lambda q: st.tuples(st.just(q), non_unit_matrices(q))), rhs_entries)
    @settings(max_examples=100, deadline=None)
    def test_gcd_split_runs_on_non_units(self, case, b):
        modulus, (rows, ncols) = case
        assert split_count(ModularEchelon(rows, ncols, modulus)) >= 1
        check_against_oracles(rows, ncols, b[:len(rows)], modulus)

    @given(st.sampled_from([4, 8, 9]).flatmap(
        lambda q: st.tuples(st.just(q), non_unit_matrices(q))), rhs_entries)
    @settings(max_examples=100, deadline=None)
    def test_prime_powers_never_split(self, case, b):
        modulus, (rows, ncols) = case
        assert split_count(ModularEchelon(rows, ncols, modulus)) == 0
        check_against_oracles(rows, ncols, b[:len(rows)], modulus)

    def test_split_parts_are_coprime_and_exact(self):
        echelon = ModularEchelon([{0: 2}, {1: 3}, {0: 6, 1: 4}], 2, 36)
        assert [p.modulus for p in echelon.parts] == [4, 9]
        for b in ((1, 0, 0), (0, 1, 0), (2, 3, 1), (4, 9, 0)):
            check_against_oracles([{0: 2}, {1: 3}, {0: 6, 1: 4}], 2, b, 36)

    @pytest.mark.parametrize("m", [4, 6, 10])
    def test_shear_systems(self, m):
        rows, ncols, rhs = shear_systems(m)
        verdicts = [check_against_oracles(rows, ncols, b, m,
                                          use_sympy=m == 4).solvable
                    for b in rhs]
        assert verdicts[:2] == [True, False]

    @pytest.mark.parametrize("modulus", [2 ** 61 - 1, 4 * (2 ** 31 - 1)])
    def test_large_moduli_return_promptly(self, modulus):
        # No factorization of the modulus: a trial division of either
        # would run for minutes.
        p = 2 ** 61 - 1 if modulus % 4 else 2 ** 31 - 1
        rows = [{0: 2, 1: p}, {0: p, 2: 2}, {1: 2 * p, 2: 4}, {0: 1, 1: 1}]
        start = time.perf_counter()
        for b in ((1, 2, 3, 4), (0, 0, 1, 0), (2, p, 0, 1),
                  (modulus - 1, 1, 2, 0)):
            check_against_oracles(rows, 3, b, modulus, use_sympy=False)
        rows, ncols, rhs = shear_systems(4)
        for b in rhs:
            check_against_oracles(rows, ncols, b, modulus, use_sympy=False)
        assert time.perf_counter() - start < 10

    @given(sparse_matrices(), st.sampled_from([2 ** 61 - 1,
                                               4 * (2 ** 31 - 1)]),
           rhs_entries)
    @settings(max_examples=40, deadline=None)
    def test_large_moduli_agree_with_smith_forms(self, case, modulus, b):
        rows, ncols = case
        check_against_oracles(rows, ncols, b[:len(rows)], modulus)

    def test_solve_is_repeatable(self):
        echelon = ModularEchelon([{0: 2, 1: 1}, {0: 1, 1: 1}], 2, 6)
        first = [echelon.solve(b) for b in ((1, 2), (3, 3), (0, 1))]
        assert first == [echelon.solve(b) for b in ((1, 2), (3, 3), (0, 1))]

    def test_rejects_out_of_range_column(self):
        with pytest.raises(ValueError):
            ModularEchelon([{2: 1}], 2, 5)

    def test_rejects_rhs_of_wrong_length(self):
        with pytest.raises(ValueError):
            ModularEchelon([{0: 1}], 1, 5).solve((1, 2))


class TestRowOperationCount:
    """Tooling guard on the work of the modular elimination, in counts,
    not time.  On the m = 10 shear system (500 rows, 200 columns, 174
    unit pivots) the echelon form takes 3910 row operations; the integer
    Smith form logs 4398 row operations and column operations besides.
    The bound leaves no slack, so a pivot order that fills in more shows
    here first."""

    BOUND = 3910

    def test_shear_system_operations_within_bound(self):
        rows, ncols = shear_rows(10)
        first = ModularEchelon(rows, ncols, 10)
        assert row_operations(first) == \
            row_operations(ModularEchelon(rows, ncols, 10))
        assert split_count(first) == 0
        assert row_operations(first) <= self.BOUND


class TestModularSolve:
    def test_infeasible_congruence_has_certificate(self):
        # 2x = 1 (mod 4) has no solution; the certificate doubles the row
        res = smith_solve(SmithSystem(A=((2,),), b=(1,), modulus=4))
        assert not res.solvable
        assert res.certificate == (2,)
        assert verify_certificate(sparse([[2]]), [1], 4, res.certificate)

    def test_feasible_congruence(self):
        res = smith_solve(SmithSystem(A=((2,),), b=(2,), modulus=4))
        assert res.solution == (1,)

    def test_homogeneous_shortcut(self):
        res = smith_solve(SmithSystem(A=((3, 5), (7, 11)), b=(0, 8),
                                      modulus=4))
        assert res.solution == (0, 0)

    def test_empty_system(self):
        res = smith_solve(SmithSystem(A=(), b=(), modulus=2))
        assert res.solution == ()

    def test_no_unknowns_infeasible(self):
        res = smith_solve(SmithSystem(A=((), ()), b=(0, 1), modulus=2))
        assert not res.solvable
        assert res.certificate == (0, 1)

    def test_multiple_rhs_reuse(self):
        snf = SmithNF([[1, 2], [3, 4]])
        for b in ([1, 1], [0, 2], [5, 3]):
            res = snf.solve_mod(b, 6)
            assert res.solvable
            assert verify_solution(sparse([[1, 2], [3, 4]]), b, 6,
                                   res.solution)

    @given(small_matrix,
           st.lists(st.integers(min_value=-4, max_value=4), min_size=1,
                    max_size=4),
           st.sampled_from([2, 3, 4, 6, 8]))
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_brute_force(self, A, b, m):
        b = (b * 4)[:len(A)]
        nc = len(A[0])
        system = SmithSystem(A=tuple(tuple(r) for r in A), b=tuple(b),
                             modulus=m)
        res = smith_solve(system)
        brute = brute_force_solutions(A, b, m, nc)
        if brute:
            assert res.solvable
            assert verify_solution(sparse(A), b, m, res.solution)
        else:
            assert not res.solvable
            assert verify_certificate(sparse(A), b, m, res.certificate)

    def test_solution_entries_are_reduced(self):
        res = smith_solve(SmithSystem(A=((1, 0), (0, 1)), b=(-1, 9),
                                      modulus=4))
        assert res.solution == (3, 1)

    def test_result_shape(self):
        res = smith_solve(SmithSystem(A=((2,),), b=(1,), modulus=4))
        assert isinstance(res, SolveResult)
        assert res.pivot_row == 0


class TestVerifierShapes:
    """A length that does not match the rows, or a solution that misses a
    referenced column, is a failed check, not a pass or a crash."""

    ROWS = sparse([[1, 0], [0, 1]])

    def test_short_rhs_fails_solution_check(self):
        assert not verify_solution(self.ROWS, [1], 5, (1, 0))
        assert not verify_solution(self.ROWS, [1, 0, 0], 5, (1, 0))

    def test_short_solution_fails(self):
        assert not verify_solution(self.ROWS, [1, 0], 5, (1,))
        assert verify_solution(self.ROWS, [1, 0], 5, (1, 0))

    def test_certificate_lengths_must_match_rows(self):
        rows = sparse([[2], [0]])
        assert verify_certificate(rows, [1, 0], 4, (2, 0))
        assert not verify_certificate(rows, [1, 0], 4, (2,))
        assert not verify_certificate(rows, [1], 4, (2, 0))

    def test_solve_verified_rejects_short_answers(self, monkeypatch):
        real = ModularEchelon.solve

        def truncated(self, b):
            res = real(self, b)
            if res.solvable:
                return SolveResult(solution=res.solution[:-1],
                                   certificate=None)
            return SolveResult(solution=None,
                               certificate=res.certificate[:-1])

        monkeypatch.setattr(ModularEchelon, "solve", truncated)
        for b in ((2, 1), (1, 0)):
            with pytest.raises(AssemblyError):
                solve_verified([{0: 2}, {0: 1, 1: 1}], 2, [b], 4)


class TestReverification:
    """smith_solve re-checks its answer with explicit raises, not assert."""

    FEASIBLE = SmithSystem(A=((2,),), b=(2,), modulus=4)
    INFEASIBLE = SmithSystem(A=((2,),), b=(1,), modulus=4)

    def test_failed_witness_check_raises(self, monkeypatch):
        monkeypatch.setattr(smith, "verify_solution", lambda *args: False)
        with pytest.raises(AssemblyError):
            smith_solve(self.FEASIBLE)

    def test_failed_certificate_check_raises(self, monkeypatch):
        monkeypatch.setattr(smith, "verify_certificate", lambda *args: False)
        with pytest.raises(AssemblyError):
            smith_solve(self.INFEASIBLE)

    def test_raises_under_optimize(self):
        code = (
            "import toruslift.smith as s\n"
            "from toruslift.errors import AssemblyError\n"
            "s.verify_solution = s.verify_certificate = lambda *a: False\n"
            "for b in ((2,), (1,)):\n"
            "    try:\n"
            "        s.smith_solve(s.SmithSystem(A=((2,),), b=b, modulus=4))\n"
            "    except AssemblyError:\n"
            "        print('raised')\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["raised", "raised"]


class TestSolveVerified:
    """The one solve-and-reverify routine behind smith_solve and the
    vanishing test."""

    ROWS = [{0: 2}, {0: 1, 1: 1}]

    def counting(self, monkeypatch):
        """Record each echelon form built; the Smith form is on no solve
        path, so building one fails the test."""
        built = []
        real = smith.ModularEchelon

        def counted(*args, **kwargs):
            built.append(1)
            return real(*args, **kwargs)

        def no_smith_form(*args, **kwargs):
            raise AssertionError("Smith form built on the solve path")

        monkeypatch.setattr(smith, "ModularEchelon", counted)
        monkeypatch.setattr(smith, "SmithNF", no_smith_form)
        return built

    def test_zero_rhs_needs_no_smith_form(self, monkeypatch):
        built = self.counting(monkeypatch)
        results = solve_verified(self.ROWS, 2, [(0, 0), (4, 8)], 4)
        assert [r.solution for r in results] == [(0, 0), (0, 0)]
        assert built == []

    def test_one_smith_form_for_all_rhs(self, monkeypatch):
        built = self.counting(monkeypatch)
        rhs = [(2, 1), (0, 0), (2, 3)]
        results = solve_verified(self.ROWS, 2, rhs, 4)
        assert built == [1]
        for b, result in zip(rhs, results):
            assert verify_solution(sparse(((2, 0), (1, 1))), b, 4,
                                   result.solution)

    def test_stops_at_first_infeasible(self):
        results = solve_verified(self.ROWS, 2, [(2, 0), (1, 0), (0, 0)], 4)
        assert len(results) == 2
        assert results[0].solvable and not results[1].solvable
        assert verify_certificate(sparse(((2, 0), (1, 1))), (1, 0), 4,
                                  results[1].certificate)

    def test_smith_solve_agrees(self):
        for b in ((2, 1), (1, 0), (0, 0)):
            system = SmithSystem(A=((2, 0), (1, 1)), b=b, modulus=4)
            assert smith_solve(system) == \
                solve_verified(self.ROWS, 2, [b], 4)[0]
