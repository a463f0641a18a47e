"""Integer linear algebra: Smith normal form and modular solving.

The vanishing test reduces to systems  A x = b (mod m')  over Z_{m'}.  We
diagonalize A over the integers, U A V = D with U, V unimodular, and then
solve the decoupled congruences d_i y_i = (U b)_i (mod m').  A solution maps
back through V; an unsolvable congruence yields a row vector y (built from a
row of U) with

    y A = 0 (mod m')   and   y b != 0 (mod m'),

which certifies infeasibility of the whole system and is returned as an
independently checkable certificate.

Everything runs on exact Python integers.  Row operations are kept in a log
so rows of U can be replayed on demand; V is tracked explicitly because
solutions need it.  Pivoting is deterministic (Markowitz-style preference
for +-1 pivots), so repeated runs produce byte-identical results.

The pivot search keeps one candidate key per row while the matrix is
reduced and takes the least.  A row's candidate depends only on its
entries, their dict order, its index and the entry counts of its columns,
so an elementary operation marks dirty just the rows it changed and the
rows holding a column whose count it changed; the next search rescans
only those (Markowitz 1957; Davis, Direct Methods for Sparse Linear
Systems, 2006, ch. 7).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import List, Optional, Sequence

from .errors import AssemblyError


@dataclass(frozen=True)
class SmithSystem:
    """A modular linear system: solve  A x = b  (mod modulus)."""

    A: tuple          # rows, each a tuple of ints
    b: tuple          # ints, one per row
    modulus: int

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError("modulus must be >= 2, got %r" % (self.modulus,))
        if len(self.A) != len(self.b):
            raise ValueError("A has %d rows but b has %d entries"
                             % (len(self.A), len(self.b)))
        width = {len(r) for r in self.A}
        if len(width) > 1:
            raise ValueError("ragged matrix: row widths %s" % sorted(width))

    @property
    def ncols(self):
        return len(self.A[0]) if self.A else 0


@dataclass(frozen=True)
class SolveResult:
    """Outcome of ``smith_solve``: exactly one of solution / certificate set.

    ``certificate`` is a row vector y with y A = 0 and y b != 0 mod m';
    ``pivot_row`` records which diagonal congruence failed.
    """

    solution: Optional[tuple]
    certificate: Optional[tuple]
    pivot_row: Optional[int] = None

    @property
    def solvable(self):
        return self.solution is not None


def sparse(A) -> tuple:
    """Dense rows as sparse rows of (column, coefficient) pairs."""
    return tuple(tuple((j, v) for j, v in enumerate(row) if v) for row in A)


def verify_solution(rows, b, modulus, x) -> bool:
    """x solves every sparse row: sum coeff * x[col] = b (mod modulus).
    False when b has not one entry per row or x misses a column."""
    if len(b) != len(rows) or any(not 0 <= col < len(x)
                                  for row in rows for col, _ in row):
        return False
    return all(sum(coeff * x[col] for col, coeff in row) % modulus
               == bi % modulus for row, bi in zip(rows, b))


def verify_certificate(rows, b, modulus, y) -> bool:
    """y . A = 0 and y . b != 0 (mod modulus), A given as sparse rows.
    False when y or b has not one entry per row."""
    if not len(y) == len(b) == len(rows):
        return False
    acc = {}
    for coeff, row in zip(y, rows):
        for col, val in row:
            acc[col] = acc.get(col, 0) + coeff * val
    if any(v % modulus for v in acc.values()):
        return False
    return sum(yr * br for yr, br in zip(y, b)) % modulus != 0


#: the pivot key of a row with no entries: above every real key
_EMPTY_ROW = (2,)


class SmithNF:
    """Smith normal form of an integer matrix with replayable transforms.

    The diagonalization is computed once; ``solve_mod`` can then be called
    for many right-hand sides (the vanishing test solves one system per
    fiber component against the same matrix).
    """

    def __init__(self, rows: Sequence, ncols: Optional[int] = None):
        self.nrows = len(rows)
        if self.nrows and isinstance(rows[0], dict):
            if ncols is None:
                raise ValueError("dict-shaped rows need an explicit ncols")
            self.rows = [{j: v for j, v in r.items() if v} for r in rows]
            self.ncols = ncols
        else:
            self.rows = [{j: v for j, v in enumerate(r) if v} for r in rows]
            self.ncols = len(rows[0]) if self.nrows else (ncols or 0)
        self._log: List[tuple] = []          # row ops, applied left to right
        self._vcols = {}                     # V, column major, sparse
        self._colindex = {}
        for i, row in enumerate(self.rows):
            for j in row:
                if j >= self.ncols:
                    raise ValueError("entry in column %d >= ncols %d"
                                     % (j, self.ncols))
                self._colindex.setdefault(j, set()).add(i)
        for j in range(self.ncols):
            self._vcols[j] = {j: 1}
            self._colindex.setdefault(j, set())
        self.diagonal: List[int] = []
        self._reduce()

    # -- elementary operations, all logged / mirrored ----------------------

    def _row_add(self, i, j, c):
        ri, rj = self.rows[i], self.rows[j]
        dirty = self._dirty
        for col, v in rj.items():
            new = ri.get(col, 0) + c * v
            rows_at = self._colindex[col]
            if new:
                if col not in ri:
                    rows_at.add(i)
                    dirty.update(rows_at)
                ri[col] = new
            elif col in ri:
                del ri[col]
                rows_at.discard(i)
                dirty.update(rows_at)
        dirty.add(i)
        self._log.append(("add", i, j, c))

    def _row_swap(self, i, j):
        if i == j:
            return
        self.rows[i], self.rows[j] = self.rows[j], self.rows[i]
        for col in set(self.rows[i]) | set(self.rows[j]):
            idx = self._colindex[col]
            has_i, has_j = col in self.rows[i], col in self.rows[j]
            (idx.add if has_i else idx.discard)(i)
            (idx.add if has_j else idx.discard)(j)
        self._dirty.update((i, j))
        self._log.append(("swap", i, j))

    def _row_neg(self, i):
        for col in self.rows[i]:
            self.rows[i][col] = -self.rows[i][col]
        self._log.append(("neg", i))

    def _col_add(self, j, i, c):
        # col_j += c * col_i  (mirrored on V)
        rows_j = self._colindex[j]
        count_j = len(rows_j)
        for r in self._colindex[i]:
            new = self.rows[r].get(j, 0) + c * self.rows[r][i]
            if new:
                self.rows[r][j] = new
                rows_j.add(r)
            else:
                self.rows[r].pop(j, None)
                rows_j.discard(r)
        self._dirty.update(self._colindex[i])
        if len(rows_j) != count_j:
            self._dirty.update(rows_j)
        vj, vi = self._vcols[j], self._vcols[i]
        for r, v in vi.items():
            new = vj.get(r, 0) + c * v
            if new:
                vj[r] = new
            else:
                vj.pop(r, None)

    def _col_swap(self, i, j):
        if i == j:
            return
        touched = self._colindex[i] | self._colindex[j]
        for r in touched:
            row = self.rows[r]
            vi, vj = row.pop(i, None), row.pop(j, None)
            if vi is not None:
                row[j] = vi
            if vj is not None:
                row[i] = vj
        self._colindex[i], self._colindex[j] = \
            self._colindex[j], self._colindex[i]
        self._dirty |= touched
        self._vcols[i], self._vcols[j] = self._vcols[j], self._vcols[i]

    # -- diagonalization ---------------------------------------------------

    def _row_candidate(self, r):
        """Row r's pivot key, ``_EMPTY_ROW`` for an empty row.  Scanning
        the row in dict order, the first +-1 entry with Markowitz fill
        score <= 4 gives (-1, 0, r, col): a unit pivot with little fill is
        good enough.  Otherwise the least of (0, score, r, col) over +-1
        entries and (1, |v|, r, col) over the others.  Signs do not
        matter, so ``_row_neg`` leaves the key as it is."""
        row, colindex = self.rows[r], self._colindex
        fill = len(row) - 1
        best = _EMPTY_ROW
        for col, v in row.items():
            if -1 <= v <= 1:
                score = fill * (len(colindex[col]) - 1)
                if score <= 4:
                    return (-1, 0, r, col)
                key = (0, score, r, col)
            else:
                key = (1, abs(v), r, col)
            if key < best:
                best = key
        return best

    def _find_pivot(self, p):
        """Deterministic pivot choice in the submatrix at (p, p): the
        first row >= p, in row order, whose candidate is a good unit, else
        the least candidate key.  Returns (row, col) or None.

        Rows >= p hold no column < p, so the candidates of those rows are
        the whole search, and only the dirty ones are rescanned."""
        cand = self._cand
        for r in self._dirty:
            if r >= p:
                cand[r] = self._row_candidate(r)
        self._dirty.clear()
        key = min(cand[p:])
        return None if key is _EMPTY_ROW else (key[2], key[3])

    def _clear_column(self, p):
        """Row-reduce column p to a single entry at (p, p), Euclid-style."""
        while True:
            pivot = self.rows[p][p]
            rows_here = [r for r in self._colindex[p] if r != p]
            if not rows_here:
                return
            swapped = False
            for r in sorted(rows_here):
                v = self.rows[r].get(p)
                if v is None:
                    continue
                q = v // pivot
                if q:
                    self._row_add(r, p, -q)
                if self.rows[r].get(p):
                    # remainder is strictly smaller; promote it to pivot
                    self._row_swap(p, r)
                    swapped = True
                    break
            if not swapped:
                return

    def _clear_row(self, p):
        """Column-reduce row p; returns True if the column must be redone."""
        dirty = False
        while True:
            pivot = self.rows[p][p]
            cols_here = [c for c in self.rows[p] if c != p]
            if not cols_here:
                return dirty
            swapped = False
            for c in sorted(cols_here):
                v = self.rows[p].get(c)
                if v is None:
                    continue
                q = v // pivot
                if q:
                    self._col_add(c, p, -q)
                if self.rows[p].get(c):
                    self._col_swap(p, c)
                    swapped = True
                    dirty = True
                    break
            if not swapped:
                return dirty

    def _reduce(self):
        # the pivot search's candidate cache lives only while reducing
        self._dirty = set(range(self.nrows))
        self._cand = [_EMPTY_ROW] * self.nrows
        p = 0
        limit = min(self.nrows, self.ncols)
        while p < limit:
            loc = self._find_pivot(p)
            if loc is None:
                break
            r, c = loc
            self._row_swap(p, r)
            self._col_swap(p, c)
            while True:
                self._clear_column(p)
                if not self._clear_row(p):
                    break
            if self.rows[p][p] < 0:
                self._row_neg(p)
            d = self.rows[p][p]
            if d != 1:
                # keep the divisibility chain: fold in any entry the pivot
                # does not divide, then re-reduce this pivot
                culprit = None
                for r2 in range(p + 1, self.nrows):
                    for col, v in self.rows[r2].items():
                        if col > p and v % d:
                            culprit = r2
                            break
                    if culprit is not None:
                        break
                if culprit is not None:
                    self._row_add(p, culprit, 1)
                    continue
            p += 1
        self.rank = p
        self.diagonal = [self.rows[i].get(i, 0) for i in range(limit)]
        del self._dirty, self._cand

    # -- transforms --------------------------------------------------------

    def apply_u(self, b: Sequence[int]) -> list:
        """U b for a right-hand side b (replays the row-operation log)."""
        y = list(b)
        for op in self._log:
            if op[0] == "add":
                _, i, j, c = op
                y[i] += c * y[j]
            elif op[0] == "swap":
                _, i, j = op
                y[i], y[j] = y[j], y[i]
            else:
                y[op[1]] = -y[op[1]]
        return y

    def u_row(self, i: int) -> list:
        """Row i of U, recovered by a transposed replay of the log."""
        y = [0] * self.nrows
        y[i] = 1
        for op in reversed(self._log):
            if op[0] == "add":
                _, a, b, c = op
                y[b] += c * y[a]
            elif op[0] == "swap":
                _, a, b = op
                y[a], y[b] = y[b], y[a]
            else:
                y[op[1]] = -y[op[1]]
        return y

    def apply_v(self, y: Sequence[int]) -> list:
        """V y, mapping diagonal-coordinates back to original unknowns."""
        x = [0] * self.ncols
        for j, yj in enumerate(y):
            if not yj:
                continue
            for r, v in self._vcols[j].items():
                x[r] += v * yj
        return x

    # -- modular solving ---------------------------------------------------

    def solve_mod(self, b: Sequence[int], modulus: int) -> SolveResult:
        c = self.apply_u(b)
        y = [0] * self.ncols
        for i in range(self.nrows):
            d = self.diagonal[i] if i < len(self.diagonal) else 0
            g = gcd(d, modulus)   # d == 0 gives g == modulus
            if c[i] % g:
                scale = modulus // g
                cert = tuple(scale * v % modulus for v in self.u_row(i))
                return SolveResult(solution=None, certificate=cert,
                                   pivot_row=i)
            if d and i < self.ncols:
                dd, mm, cc = d // g, modulus // g, (c[i] % modulus) // g
                y[i] = (cc * pow(dd, -1, mm)) % mm if mm > 1 else 0
        x = tuple(v % modulus for v in self.apply_v(y))
        return SolveResult(solution=x, certificate=None)


def solve_verified(rows: Sequence[dict], ncols: int, rhs: Sequence,
                   modulus: int) -> List[SolveResult]:
    """Solve A x = b (mod modulus) for each b in ``rhs``, stopping after
    the first with no solution.  ``rows`` are {column: coefficient} dicts
    in the solver's scan order.  A homogeneous b takes the zero solution;
    otherwise one Smith form for all b decides, and its answer is
    re-verified (AssemblyError, a bug rather than an input error)."""
    pairs = [tuple(r.items()) for r in rows]
    nf = None
    results = []
    for b in rhs:
        if all(v % modulus == 0 for v in b):
            result = SolveResult(solution=(0,) * ncols, certificate=None)
        else:
            if nf is None:
                nf = SmithNF(list(rows), ncols=ncols)
            result = nf.solve_mod(b, modulus)
            if not (verify_solution(pairs, b, modulus, result.solution)
                    if result.solvable else verify_certificate(
                        pairs, b, modulus, result.certificate)):
                raise AssemblyError("solver %s failed re-verification" % (
                    "witness" if result.solvable else "certificate"))
        results.append(result)
        if not result.solvable:
            break
    return results


def smith_solve(system: SmithSystem) -> SolveResult:
    """Solve A x = b (mod m') or certify that no solution exists."""
    rows = [dict(r) for r in sparse(system.A)]
    return solve_verified(rows, system.ncols, (system.b,),
                          system.modulus)[0]
