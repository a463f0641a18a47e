"""Independent checks of toruslift verdicts.

None of these calls the library function it checks.  Each returns a list
of problems, empty when the answer is right.

* The cylinder family's known answer: its obstruction vanishes at every
  representable twist, so the CLI report says vanishing-at-scale with
  sigma-zero and a dropped ratio within the quarter the README fixes.
* A deck coboundary coded from its formula,
      (cob tau)(a, u, x) = tau(u, x) - tau(rho(a) u, phi(a) x),
  used to check solver witnesses.
* The orbit-sum criterion for the shear-orbit module (see
  ``orbit_sums_vanish``).
* The certificate contract y.A = 0 and y.b != 0 (mod m').
"""

from fractions import Fraction
from itertools import product

CYLINDER_THRESHOLD = Fraction(1, 4)
CYLINDER_VERDICT = "vanishing-at-scale"


def apply_matrix(rows, u, m):
    return tuple(sum(c * x for c, x in zip(row, u)) % m for row in rows)


def deck_coboundary(tau, module):
    """cob tau per deck generator, as {(i, u): column}; None where phi(a)
    leaves the window or tau is undefined."""
    m, mp = module.m, module.m_prime
    out = {}
    for i, aut in enumerate(module.rho_images):
        for u in product(range(m), repeat=module.n):
            src = tau.values[(u,)]
            moved_col = tau.values[(apply_matrix(aut.rows, u, m),)]
            col = []
            for c in range(module.size):
                x = module.deck_act_gen(i, 1, c)
                a = src[c]
                b = None if x is None else moved_col[x]
                col.append(None if a is None or b is None else
                           tuple((p - q) % mp for p, q in zip(a, b)))
            out[(i, u)] = col
    return out


def _entries(sigma):
    for i, table in enumerate(sigma.tables):
        for (u,), col in table.values.items():
            yield (i, u), col


def witness_problems(sigma, witness, module):
    """cob(witness) equals sigma on every entry where both are defined."""
    if witness is None:
        return ["no witness"]
    cob = deck_coboundary(witness, module)
    for key, col in _entries(sigma):
        for c, (want, got) in enumerate(zip(col, cob[key])):
            if want is not None and got is not None and want != got:
                return ["cob(witness) != sigma at generator %d, u=%r, "
                        "class %d" % (key + (c,))]
    return []


def certificate_problems(rows, rhs, modulus, vector):
    """y.A = 0 and y.b != 0 (mod modulus) over sparse rows."""
    if len(vector) != len(rows):
        return ["certificate has %d entries for %d rows"
                % (len(vector), len(rows))]
    combo = {}
    for y, row in zip(vector, rows):
        for col, a in row:
            combo[col] = (combo.get(col, 0) + y * a) % modulus
    problems = []
    if any(combo.values()):
        problems.append("certificate does not annihilate the rows")
    if sum(y * b for y, b in zip(vector, rhs)) % modulus == 0:
        problems.append("certificate pairs to zero with the right-hand side")
    return problems


def shear_orbits(shear, m):
    """The orbits of x -> shear.x on Z_m^2, each a list of points."""
    seen, orbits = set(), []
    for x in product(range(m), repeat=2):
        if x in seen:
            continue
        orbit = []
        while x not in seen:
            seen.add(x)
            orbit.append(x)
            x = apply_matrix(shear, x, m)
        orbits.append(orbit)
    return orbits


def orbit_sums_vanish(s, shear, m, m_prime):
    """Does sigma = delta s vanish on the shear-orbit module?

    Torus Z_m^2 acting on itself by translation is one free orbit, so every
    torus 1-cocycle there is delta f (Shapiro's lemma), and with the deck
    generator acting by the shear A on points and as rho,
    cob(delta f) = delta(f - f o A).  So delta s is a deck coboundary iff
    s - c = f - f o A for some f and constant c, iff some c in Z_m' has
    sum over O of s = c.|O| (mod m') on every <A>-orbit O.  ``s`` maps
    points of Z_m^2 to Z_m'.
    """
    sums = [(sum(s[x] for x in orbit), len(orbit))
            for orbit in shear_orbits(shear, m)]
    return any(all((total - c * size) % m_prime == 0 for total, size in sums)
               for c in range(m_prime))


def shear_verdict_problems(report, vanishes, sigma, module):
    """The verdict agrees with the orbit-sum criterion, and the witness or
    certificate it carries re-checks."""
    want = "vanishing-at-scale" if vanishes else "certified-nonvanishing"
    if report.verdict != want:
        return ["verdict %s, the orbit sums say %s" % (report.verdict, want)]
    if vanishes:
        return witness_problems(sigma, report.witness, module)
    cert = report.certificate
    return certificate_problems(report.rows, report.rhs[cert.fiber_coordinate],
                                report.m_prime, cert.vector)


def cylinder_report_problems(text, code, m):
    """The cylinder family's known answer, read off a CLI report."""
    fields = {}
    witness_lines = 0
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if key.startswith("witness u="):
            witness_lines += 1
        elif sep:
            fields[key] = value
    problems = []
    if code != 0:
        problems.append("exit code %r" % (code,))
    if fields.get("verdict") != CYLINDER_VERDICT:
        problems.append("verdict %r" % (fields.get("verdict"),))
    if fields.get("sigma-zero") != "yes":
        problems.append("sigma-zero %r" % (fields.get("sigma-zero"),))
    try:
        ratio = Fraction(fields.get("dropped-ratio", ""))
    except ValueError:
        problems.append("dropped-ratio %r" % (fields.get("dropped-ratio"),))
    else:
        if ratio > CYLINDER_THRESHOLD:
            problems.append("dropped-ratio %s above %s"
                            % (ratio, CYLINDER_THRESHOLD))
    if witness_lines != m * m:
        problems.append("%d witness lines, expected %d"
                        % (witness_lines, m * m))
    return problems
