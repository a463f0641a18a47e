"""The workloads: inputs from a seed, and one round of verdicts.

A workload object generates its inputs from the seed when it is built;
that is the part of set-up that ``setup_s`` times.  ``round(index, spans)``
returns the round's verdicts as callables, each of which decides one
instance and returns the oracle's list of problems (empty when right).
Every input a round uses comes from a generator seeded by the workload,
the seed and the round index, so round i is the same in every run with
that seed.

With tracing on, ``spans`` times each public call into the package's
layers from here, and the verdict also re-runs, from the outside, the
stages that a single call hides (the CLI's pipeline, and the cocycle
checks and Smith form inside ``test_vanishing``).
"""

import random
import time
from collections import defaultdict
from fractions import Fraction
from itertools import product

from toruslift import cli
from toruslift.cochain import (CochainTable, FiniteModule,
                               build_finite_module, is_cocycle)
from toruslift.cylinder import CylParams, build_scenario
from toruslift.groups import FPGroup
from toruslift.lifting import (SigmaTable, assemble_global_lifting,
                               compute_sigma, test_vanishing)
from toruslift.nerve import chart_corrections, check_cocycle
from toruslift.scenario import (emit_scenario, parse_scenario,
                                scenario_from_cylinder)
from toruslift.smith import SmithNF
from toruslift.torus import TorusAut

import oracles

#: per-layer metrics of a traced round: name -> unit.  Times are seconds
#: per verdict; counts are totals over the traced round.
PER_LAYER = {
    "scenario.emit_s": "s",
    "scenario.parse_s": "s",
    "nerve.corrections_s": "s",
    "lifting.assemble_s": "s",
    "cochain.module_s": "s",
    "lifting.sigma_s": "s",
    "cochain.is_cocycle_s": "s",
    "lifting.vanishing_s": "s",
    "smith.reduce_s": "s",
    "smith.solve_s": "s",
    "cli.obstruction_s": "s",
    "cochain.classes": "count",
    "smith.unknowns": "count",
    "smith.rows": "count",
    "smith.nonzeros": "count",
    "smith.rank": "count",
    "lifting.sigma_rows": "count",
    "lifting.sigma_rows_dropped": "count",
    "lifting.certificate_entries": "count",
}


class Spans:
    """Wall time per layer metric and counts, gathered in traced rounds.

    With ``enabled`` false, ``call`` is a plain call, so the untraced
    rounds that give the end-to-end metrics pay for no timing.
    """

    def __init__(self, enabled):
        self.enabled = enabled
        self.seconds = defaultdict(float)
        self.counts = defaultdict(int)

    def call(self, name, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        self.seconds[name] += time.perf_counter() - start
        return out


def trace_solver(spans, sigma, module, report):
    """Re-run the checks and the solve that ``test_vanishing`` makes
    internally, timing each, and record the size counts."""
    for table in sigma.tables:
        spans.call("cochain.is_cocycle_s", is_cocycle, table, module)
    if report.witness is not None:
        spans.call("cochain.is_cocycle_s", is_cocycle, report.witness, module)
    rows = [dict(r) for r in report.rows]
    nf = spans.call("smith.reduce_s", SmithNF, rows, ncols=report.unknowns)
    for rhs in report.rhs:
        spans.call("smith.solve_s", nf.solve_mod, rhs, report.m_prime)
    counts = spans.counts
    counts["cochain.classes"] += module.size
    counts["smith.unknowns"] += report.unknowns
    counts["smith.rows"] += len(report.rows)
    counts["smith.nonzeros"] += sum(len(r) for r in report.rows)
    counts["smith.rank"] += nf.rank
    counts["lifting.sigma_rows"] += report.sigma_rows_total
    counts["lifting.sigma_rows_dropped"] += report.sigma_rows_dropped
    if report.certificate is not None:
        counts["lifting.certificate_entries"] += sum(
            1 for v in report.certificate.vector if v)


class Workload:
    """Inputs drawn from the seed at construction; rounds of verdicts."""

    name = ""
    #: the per-layer times that make up a verdict, without the re-runs
    path = ()
    verdicts_per_round = 1

    def __init__(self, seed):
        self.seed = seed
        self.rng = random.Random("%s:%d" % (self.name, seed))

    def round_rng(self, index):
        return random.Random("%s:%d:%d" % (self.name, self.seed, index))

    def round(self, index, spans):
        raise NotImplementedError


class CylinderWide(Workload):
    """The sheared cylinder on the CLI path: scenario text in, report out.

    A full m x m torus grid of samples at window 1 puts most of a verdict
    in assembly, the module and sigma.  The seed picks the twist s among
    the values representable at order m; every report of a run must be
    the same bytes.
    """

    name = "cylinder-wide"
    path = ("scenario.parse_s", "cli.obstruction_s")

    def __init__(self, seed, m=6, window=1):
        super().__init__(seed)
        self.m, self.window = m, window
        self.params = CylParams(s=Fraction(self.rng.randrange(m), m), m=m,
                                window=window)
        self.text = emit_scenario(scenario_from_cylinder(
            build_scenario(self.params)))
        self.first_report = None

    def round(self, index, spans):
        return [lambda: self.verdict(spans)]

    def verdict(self, spans):
        scn = spans.call("scenario.parse_s", parse_scenario, self.text)
        text, code = spans.call("cli.obstruction_s", cli.run_obstruction, scn)
        problems = oracles.cylinder_report_problems(text, code, self.m)
        if self.first_report is None:
            self.first_report = text
        elif text != self.first_report:
            problems.append("report bytes differ from the run's first report")
        if spans.enabled:
            self.trace_stages(spans, scn)
        return problems

    def trace_stages(self, spans, scn):
        spans.call("scenario.emit_s", lambda: emit_scenario(
            scenario_from_cylinder(build_scenario(self.params))))
        spans.call("nerve.corrections_s", check_cocycle, scn.nerve,
                   scn.cocycle)
        corrections = spans.call("nerve.corrections_s", chart_corrections,
                                 scn.nerve, scn.cocycle, scn.rho)
        lifting = spans.call("lifting.assemble_s", assemble_global_lifting,
                             scn.model, corrections, scn.rho, scn.liftings,
                             scn.gluing)
        module = spans.call("cochain.module_s", build_finite_module,
                            scn.model, scn.rho, corrections,
                            window=self.window, fiber_rank=scn.k,
                            fiber_order=scn.m_prime)
        sigma = spans.call("lifting.sigma_s", compute_sigma, lifting, module)
        report = spans.call("lifting.vanishing_s", test_vanishing, sigma,
                            module)
        trace_solver(spans, sigma, module, report)


SHEAR = ((1, 0), (-1, 1))
SHEAR_INVERSE = ((1, 0), (1, 1))


class ShearOrbitCertificate(Workload):
    """A synthetic module with no atlas: the torus Z_m^2 acting on itself
    by translation (one free orbit) and one deck generator acting by the
    shear A on points and as rho, with fiber Z_m.

    Each round decides sigma = delta s for one s planted to vanish,
    s = f - f o A + c, and one planted not to (that s with one value
    moved), so the solver takes both its witness and its certificate
    path.  The cocycle checks on the m^4 torus pairs dominate.
    """

    name = "shear-orbit-certificate"
    path = ("lifting.vanishing_s",)
    verdicts_per_round = 2

    def __init__(self, seed, m=10):
        super().__init__(seed)
        self.m = m
        self.points = list(product(range(m), repeat=2))
        index = {p: c for c, p in enumerate(self.points)}
        self.translate = {
            u: [index[((p[0] + u[0]) % m, (p[1] + u[1]) % m)]
                for p in self.points]
            for u in product(range(m), repeat=2)}
        self.deck = {
            (0, e): [index[oracles.apply_matrix(rows, p, m)]
                     for p in self.points]
            for e, rows in ((1, SHEAR), (-1, SHEAR_INVERSE))}
        self.module = self.build_module()

    def build_module(self):
        return FiniteModule(2, self.m, 1, self.m, self.points, self.translate,
                            self.deck, [TorusAut(SHEAR)],
                            pi1_group=FPGroup.free_abelian(1))

    def plant(self, rng, vanish):
        m = self.m
        shear = self.deck[(0, 1)]
        f = [rng.randrange(m) for _ in self.points]
        c0 = rng.randrange(m)
        s = [(f[x] - f[shear[x]] + c0) % m for x in range(len(f))]
        if not vanish:
            x = rng.randrange(len(s))
            s[x] = (s[x] + rng.randrange(1, m)) % m
        return s

    def sigma_of(self, s):
        """sigma(u, x) = (delta s)(u, x) = s(x) - s(u.x)."""
        m = self.m
        return SigmaTable(tables=(CochainTable(q=1, values={
            (u,): [((s[c] - s[col[c]]) % m,) for c in range(len(s))]
            for u, col in self.translate.items()}),))

    def vanishes(self, s):
        return oracles.orbit_sums_vanish(dict(zip(self.points, s)), SHEAR,
                                         self.m, self.m)

    def round(self, index, spans):
        rng = self.round_rng(index)
        plants = [self.plant(rng, vanish) for vanish in (True, False)]
        if spans.enabled:
            spans.call("cochain.module_s", self.build_module)
        return [lambda s=s: self.verdict(spans, s) for s in plants]

    def verdict(self, spans, s):
        sigma = self.sigma_of(s)
        report = spans.call("lifting.vanishing_s", test_vanishing, sigma,
                            self.module)
        problems = oracles.shear_verdict_problems(
            report, self.vanishes(s), sigma, self.module)
        if spans.enabled:
            trace_solver(spans, sigma, self.module, report)
        return problems


WORKLOADS = {w.name: w for w in (CylinderWide, ShearOrbitCertificate)}
