"""Modular linear algebra: the solver of the vanishing test, and the
integer Smith normal form kept as its reference.

The vanishing test reduces to systems  A x = b (mod m')  over Z_{m'}, and
only their answers mod m' are ever used.  ``ModularEchelon`` therefore
eliminates over Z_{m'} itself, by row operations alone: units of Z_{m'}
first, then, on what is left, pivots whose gcd with the modulus divides
every other entry's.  When no such pivot exists the modulus splits into
coprime parts by gcds (never by factoring it), each part is eliminated on
its own, and the parts' answers are glued by the Chinese remainder
theorem (Storjohann & Mulders, "Fast algorithms for linear algebra modulo
N", ESA 1998).  Entries stay below the modulus, so nothing grows.  An
unsolvable system yields a row vector y with

    y A = 0 (mod m')   and   y b != 0 (mod m'),

which certifies infeasibility of the whole system and is returned as an
independently checkable certificate.  ``solve_verified`` re-checks every
answer on the original rows before it is used.

``SmithNF`` diagonalizes A over the integers, U A V = D with U, V
unimodular, and solves the decoupled congruences d_i y_i = (U b)_i.  No
verdict runs it; the tests keep it as the integer reference for the
modular solver.  Row operations are
kept in a log so rows of U can be replayed on demand; V is tracked
explicitly.  Pivoting is deterministic (Markowitz-style preference for
+-1 pivots), so repeated runs produce byte-identical results.  The pivot
search keeps one candidate key per row while the matrix is reduced and
takes the least.  A row's candidate depends only on its entries, their
dict order, its index and the entry counts of its columns, so an
elementary operation marks dirty just the rows it changed and the rows
holding a column whose count it changed; the next search rescans only
those (Markowitz 1957; Davis, Direct Methods for Sparse Linear Systems,
2006, ch. 7).
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
    ``pivot_row`` is the index of the row whose congruence failed once the
    system was reduced (for ``SmithNF.solve_mod``, the failed diagonal
    congruence); the certificate is that reduced row, scaled and mapped
    back to the rows of A.
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


def _replay(c, log, modulus):
    """U c for the row operations of ``log``, in place, mod modulus."""
    for i, r, f in log:
        if c[r]:
            c[i] = (c[i] + f * c[r]) % modulus


def _replay_transposed(y, log, modulus):
    """y U for the row operations of ``log``, in place, mod modulus."""
    for i, r, f in reversed(log):
        if y[i]:
            y[r] = (y[r] + f * y[i]) % modulus


def _coprime_split(q, g, h):
    """q = u * v with coprime u, v > 1, from divisors g < h of q neither
    of which divides the other.  The primes at which g has the higher
    valuation go to u, the others to v: a step of factor refinement
    (Bach, Driscoll & Shallit, "Factor refinement", J. Algorithms 1993)
    that needs gcds only, never the factorization of q."""
    v, t = q, g // gcd(g, h)
    while t > 1:
        t = gcd(v, t)
        v //= t
    return q // v, v


class ModularEchelon:
    """Row echelon form of a sparse integer matrix over Z/modulus, reached
    by row operations alone, and the solver that replays it.

    Each pivot has the least gcd g with the modulus q among the entries
    still to be eliminated, and g divides all of theirs, so the pivot
    g s (s a unit mod q/g) clears an entry g t of its column by adding
    -t s^-1 times its row.  Units of Z/q (g = 1) come first, taken in the
    column with fewest entries, then the row with fewest entries, then
    the lowest row.  Each row addition into a row not yet a pivot row is
    logged as (row, pivot row, factor), so that right-hand sides and
    certificate rows can be replayed.  There is no column operation and
    no growth: entries stay below q.

    The gcds of the entries left are totally ordered by divisibility
    when q is a prime power, but not in general.  When two of them do not
    divide one another, q splits into coprime parts u, v by gcds alone,
    and each part continues from the rows left, reduced mod u or mod v,
    in an echelon form of its own (``parts``).  The pivots taken before
    the split stay valid mod each part, because the part divides q.
    Solutions of the parts are glued by the Chinese remainder theorem; a
    certificate y of a part with modulus u lifts to (q/u) y mod q.
    """

    def __init__(self, rows: Sequence[dict], ncols: int, modulus: int):
        for row in rows:
            for j in row:
                if not 0 <= j < ncols:
                    raise ValueError("entry in column %d outside 0..%d"
                                     % (j, ncols - 1))
        self._build(dict(enumerate(rows)), len(rows), ncols, modulus)

    def _build(self, block, nrows, ncols, modulus):
        """Eliminate the rows of ``block`` (row index -> row) mod modulus;
        the other rows of the nrows are pivot rows of an enclosing form."""
        self.nrows, self.ncols, self.modulus = nrows, ncols, modulus
        rows = {}
        colindex = [set() for _ in range(ncols)]
        for i, row in block.items():
            reduced = {}
            for j, v in row.items():
                v %= modulus
                if v:
                    reduced[j] = v
                    colindex[j].add(i)
            rows[i] = reduced
        self._log = []      # (i, r, f): row i += f * row r, mod modulus
        self.pivots = []    # (row, column, g, pivot row, unit s^-1)
        self.parts = self._crt = self._zero_rows = ()
        split = self._eliminate(rows, colindex)
        if split is None:
            self._zero_rows = tuple(sorted(rows))
            return
        self.parts = tuple(self._part(rows, u) for u in split)
        self._crt = tuple(modulus // u * pow(modulus // u, -1, u)
                          for u in split)

    def _part(self, rows, modulus):
        part = ModularEchelon.__new__(ModularEchelon)
        part._build(rows, self.nrows, self.ncols, modulus)
        return part

    def _eliminate(self, rows, colindex):
        """Pivot until no entry is left (returns None) or the least gcd
        fails to divide another (returns the coprime split of the
        modulus).  Pivot rows leave ``rows`` and ``colindex``."""
        q = self.modulus
        while True:
            live = [(len(rows_at), c) for c, rows_at in enumerate(colindex)
                    if rows_at]
            if not live:
                return None
            # the column with fewest entries nearly always holds a unit,
            # so the full column order is sorted only when it does not
            pick = self._first_at(1, [min(live)[1]], rows, colindex)
            if pick is None:
                order = [c for _, c in sorted(live)]
                pick = self._first_at(1, order, rows, colindex)
            if pick is None:
                gcds = {gcd(rows[i][c], q) for c in order
                        for i in colindex[c]}
                g = min(gcds)
                bad = next((h for h in sorted(gcds) if h % g), None)
                if bad is not None:
                    return _coprime_split(q, g, bad)
                pick = self._first_at(g, order, rows, colindex)
            r, c, g = pick
            prow = rows.pop(r)
            for j in prow:
                colindex[j].discard(r)
            s_inv = pow(prow[c] // g, -1, q // g)
            for i in sorted(colindex[c]):
                row = rows[i]
                f = -(row[c] // g) * s_inv % q
                for j, v in prow.items():
                    new = (row.get(j, 0) + f * v) % q
                    if new:
                        if j not in row:
                            colindex[j].add(i)
                        row[j] = new
                    elif j in row:
                        del row[j]
                        colindex[j].discard(i)
                self._log.append((i, r, f))
            self.pivots.append((r, c, g, prow, s_inv))

    def _first_at(self, g, order, rows, colindex):
        """In the first column of ``order`` holding an entry whose gcd
        with the modulus is g, the row with fewest entries, then the
        lowest: (row, column, g), or None."""
        q = self.modulus
        for c in order:
            found = [(len(rows[i]), i) for i in colindex[c]
                     if gcd(rows[i][c], q) == g]
            if found:
                return min(found)[1], c, g
        return None

    def solve(self, b: Sequence[int]) -> SolveResult:
        """A x = b (mod modulus), or a certificate that no x exists."""
        if len(b) != self.nrows:
            raise ValueError("b has %d entries for %d rows"
                             % (len(b), self.nrows))
        return self._solve([v % self.modulus for v in b])

    def _solve(self, c) -> SolveResult:
        """``solve`` for c reduced mod the modulus; c is consumed."""
        q = self.modulus
        _replay(c, self._log, q)
        failed = next(((r, q // g) for r, _, g, _, _ in self.pivots
                       if c[r] % g), None)
        if failed is None:
            failed = next(((r, 1) for r in self._zero_rows if c[r]), None)
        if failed is not None:
            r, scale = failed
            y = [0] * self.nrows
            y[r] = scale
            _replay_transposed(y, self._log, q)
            return SolveResult(solution=None, certificate=tuple(y),
                               pivot_row=r)
        x = [0] * self.ncols
        for part, e in zip(self.parts, self._crt):
            u = part.modulus
            res = part._solve([v % u for v in c])
            if not res.solvable:
                y = list(res.certificate)
                _replay_transposed(y, self._log, u)
                return SolveResult(solution=None, certificate=tuple(
                    q // u * v % q for v in y), pivot_row=res.pivot_row)
            for j, v in enumerate(res.solution):
                x[j] = (x[j] + e * v) % q
        for r, col, g, prow, s_inv in reversed(self.pivots):
            rest = c[r] - sum(v * x[j] for j, v in prow.items() if j != col)
            x[col] = rest % q // g * s_inv % (q // g)
        return SolveResult(solution=tuple(x), certificate=None)


def solve_verified(rows: Sequence[dict], ncols: int, rhs: Sequence,
                   modulus: int) -> List[SolveResult]:
    """Solve A x = b (mod modulus) for each b in ``rhs``, stopping after
    the first with no solution.  ``rows`` are {column: coefficient}
    dicts.  A homogeneous b takes the zero solution; otherwise one
    ``ModularEchelon`` for all b decides, and its answer is re-verified
    (AssemblyError, a bug rather than an input error)."""
    pairs = [tuple(r.items()) for r in rows]
    echelon = None
    results = []
    for b in rhs:
        if all(v % modulus == 0 for v in b):
            result = SolveResult(solution=(0,) * ncols, certificate=None)
        else:
            if echelon is None:
                echelon = ModularEchelon(rows, ncols, modulus)
            result = echelon.solve(b)
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
