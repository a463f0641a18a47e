#!/usr/bin/env python3
"""Self-test of the benchmark's oracles.

    python3 bench/selftest.py [--orbit-orders 4,6]

Each oracle must agree with the library on small sizes (the cylinder at
m = 4; the shear-orbit module at the given orders) and must reject a
corrupted answer: a wrong verdict, a nonzero cylinder sigma, a flipped
certificate entry, or a changed witness value.  A run in which a verdict
raises must not be correct, and the round that holds it gives no verdict
sample.  Exits 1 on the first disagreement.
"""

import argparse
import sys

from run import import_package


def check(cond, what):
    if not cond:
        sys.exit("FAIL: " + what)
    print("ok: " + what)


def check_rejects(problems, what):
    check(bool(problems), "rejects " + what)


def checked_class(sigma, module, u):
    """A class x where sigma(a, u, x) and the deck image a.x are defined,
    so a changed witness value at (u, x) shows in cob(witness)."""
    col = sigma.tables[0].values[(u,)]
    return next(c for c, v in enumerate(col)
                if v is not None and module.deck_act_gen(0, 1, c) is not None)


def changed_witness(witness, u, c, m_prime):
    values = {key: list(col) for key, col in witness.values.items()}
    values[(u,)][c] = ((values[(u,)][c][0] + 1) % m_prime,)
    return type(witness)(q=1, values=values)


def cylinder_cases():
    from toruslift import cli
    from toruslift.scenario import parse_scenario
    from workloads import CylinderWide, Spans
    import oracles

    m = 4
    workload = CylinderWide(seed=0, m=m, window=1)
    for index in range(2):
        for verdict in workload.round(index, Spans(False)):
            check(verdict() == [], "cylinder m=%d: the CLI report matches "
                  "the family's known answer, byte-identical on repeat" % m)
    text, code = cli.run_obstruction(parse_scenario(workload.text))
    check_rejects(oracles.cylinder_report_problems(
        text.replace("verdict: vanishing-at-scale",
                     "verdict: certified-nonvanishing"), 2, m),
        "a wrong cylinder verdict")
    check_rejects(oracles.cylinder_report_problems(
        text.replace("sigma-zero: yes", "sigma-zero: no"), code, m),
        "a nonzero cylinder sigma")


def orbit_cases(orders):
    from toruslift.lifting import deck_coboundary, test_vanishing
    from workloads import ShearOrbitCertificate, Spans
    import oracles

    for m in orders:
        workload = ShearOrbitCertificate(seed=0, m=m)
        module = workload.module
        for index in range(3):
            rng = workload.round_rng(index)
            for vanish in (True, False):
                s = workload.plant(rng, vanish)
                check(workload.vanishes(s) == vanish,
                      "m=%d: the orbit sums see the planted %s instance"
                      % (m, "vanishing" if vanish else "obstructed"))
                sigma = workload.sigma_of(s)
                report = test_vanishing(sigma, module)
                check(oracles.shear_verdict_problems(
                    report, vanish, sigma, module) == [],
                    "m=%d: test_vanishing agrees with the orbit sums, and "
                    "its %s re-checks"
                    % (m, "witness" if vanish else "certificate"))
                check_rejects(oracles.shear_verdict_problems(
                    report, not vanish, sigma, module),
                    "m=%d: a wrong verdict" % m)
                if vanish:
                    ours = oracles.deck_coboundary(report.witness, module)
                    theirs = deck_coboundary(report.witness, module).tables[0]
                    check(all(ours[(0, u)] == col
                              for (u,), col in theirs.values.items()),
                          "m=%d: the oracle's deck coboundary equals "
                          "deck_coboundary" % m)
                    c = checked_class(sigma, module, (1, 0))
                    check_rejects(oracles.witness_problems(
                        sigma, changed_witness(report.witness, (1, 0), c, m),
                        module), "m=%d: a changed witness value" % m)
                    continue
                cert = report.certificate
                vector = list(cert.vector)
                i = next(i for i, v in enumerate(vector)
                         if v and any(a % m for _, a in report.rows[i]))
                vector[i] = (vector[i] + 1) % m
                check_rejects(oracles.certificate_problems(
                    report.rows, report.rhs[cert.fiber_coordinate], m,
                    vector), "m=%d: a flipped certificate entry" % m)
        for verdict in workload.round(0, Spans(False)):
            check(verdict() == [], "m=%d: a workload round passes" % m)


def failure_cases():
    import run
    from calibrate import ReferenceClock
    from workloads import CylinderWide, Spans

    class Raising(CylinderWide):
        def round(self, index, spans):
            return super().round(index, spans) + [self.fail]

        def fail(self):
            raise RuntimeError("a verdict that raises")

    tally = run.Tally()
    _, samples = run.run_rounds(Raising(seed=0, m=4), 1e-9, tally,
                                Spans(False), ReferenceClock())
    check((tally.attempted, tally.failed, samples) == (2, 1, []),
          "a raising verdict fails, and its round gives no verdict sample")
    check(not run.result(tally, {})["correct"],
          "a run with a raising verdict is not correct")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--orbit-orders", default="4,6",
                        help="comma-separated orders m of the shear-orbit "
                             "module to test (default 4,6)")
    args = parser.parse_args(argv)
    import_package()
    cylinder_cases()
    orbit_cases([int(m) for m in args.orbit_orders.split(",")])
    failure_cases()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
