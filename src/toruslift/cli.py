"""Command line front end.

Six subcommands over the scenario file format:

* ``check-cocycle``    -- antisymmetry and the triangle identity
* ``holonomy``         -- spanning-tree flattening and loop images
* ``global-action``    -- is the transition data induced by one global
                          automorphism action (decided at nerve level)?
* ``check-lifting-data`` -- chart liftings, gluing shifts, equivariance
* ``obstruction``      -- assemble the lifted action, compute the
                          obstruction table, run the modular solver
* ``cylinder``         -- emit a ready-made sheared-cylinder scenario

Exit codes: 0 the property holds (valid / trivial / vanishing-at-scale),
2 a certified failure (every such report carries the finite data that
re-verifies it), 3 indeterminate, 1 malformed input.

Reports are plain text, derived only from the input data -- no paths,
timestamps, or machine details -- so identical invocations produce
identical bytes.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .errors import Error, InputError, NoCorrection, AssemblyError
from .nerve import check_cocycle, holonomy, chart_corrections
from .cochain import build_finite_module
from .lifting import (assemble_global_lifting, compute_sigma, test_vanishing,
                      check_chart_lifting, check_gluing,
                      check_equivariant_gluing)
from .cylinder import CylParams, build_scenario
from .scenario import (parse_scenario, emit_scenario, scenario_from_cylinder,
                       _fmt_polar, _fmt_matrix)

WINDOW_NOTE = ("note: truncation at the window drops constraint rows "
               "one-sidedly, so certified-nonvanishing is sound at every "
               "scale while vanishing-at-scale certifies only the modeled "
               "window")


# ---------------------------------------------------------------------------
# report assembly helpers

def _header(lines, command, scn, window=None):
    lines.append("toruslift report")
    lines.append("command: %s" % command)
    lines.append("torus-rank: %d" % scn.n)
    lines.append("fiber-rank: %d" % scn.k)
    lines.append("torus-order: %d" % scn.m)
    lines.append("fiber-order: %d" % scn.m_prime)
    lines.append("window: %d" % (scn.window if window is None else window))
    lines.append("good-cover: %s" % ("yes" if scn.good_cover else "no"))
    lines.append("charts: %d" % len(scn.nerve.vertices))
    lines.append("overlaps: %d" % len(scn.nerve.edges))
    lines.append("triple-overlaps: %d" % len(scn.nerve.triangles))


def _part(x):
    """Render one slot of a violation tuple."""
    if isinstance(x, str):
        return x
    if isinstance(x, tuple):
        if x and isinstance(x[0], tuple):
            return _fmt_polar(x)
        return "(" + " ".join(str(v) for v in x) + ")"
    return str(x)


def _violation_line(v):
    return "violation: " + " ".join(_part(x) for x in v)


def _finish(lines, verdict, code):
    lines.append("verdict: %s" % verdict)
    return "\n".join(lines) + "\n", code


# ---------------------------------------------------------------------------
# subcommands on a parsed scenario

def run_check_cocycle(scn):
    lines = []
    _header(lines, "check-cocycle", scn)
    report = check_cocycle(scn.nerve, scn.cocycle)
    lines.append("violations: %d" % len(report.violations))
    for v in report.violations:
        lines.append(_violation_line(v))
    if report.ok:
        return _finish(lines, "valid-cocycle", 0)
    return _finish(lines, "invalid-cocycle", 2)


def _require_valid_cocycle(scn):
    report = check_cocycle(scn.nerve, scn.cocycle)
    if not report.ok:
        raise InputError("transition data is not a cocycle (%s); run "
                         "check-cocycle for the full list"
                         % _violation_line(report.violations[0]))


def _holonomy_lines(lines, rep):
    lines.append("basepoint: %s" % rep.basepoint)
    for parent, child in rep.tree:
        lines.append("tree-edge: %s %s" % (parent, child))
    lines.append("generators: %d" % len(rep.generators))
    for (a, b), image in zip(rep.generators, rep.images):
        lines.append("generator: %s %s" % (a, b))
        lines.append("image: %s" % _fmt_matrix(image))
    lines.append("relations: %d" % len(rep.relations))
    for word in rep.relations:
        if word:
            lines.append("relation: " + " ".join(
                "g%d^%+d" % (idx, exp) for idx, exp in word))
        else:
            lines.append("relation: trivial")


def run_holonomy(scn):
    _require_valid_cocycle(scn)
    lines = []
    _header(lines, "holonomy", scn)
    rep = holonomy(scn.nerve, scn.cocycle)
    _holonomy_lines(lines, rep)
    if rep.trivial:
        return _finish(lines, "trivial-holonomy", 0)
    return _finish(lines, "nontrivial-holonomy", 2)


def run_global_action(scn):
    _require_valid_cocycle(scn)
    lines = []
    _header(lines, "global-action", scn)
    lines.append("note: decided at nerve level from the transition data; "
                 "chart samples are not consulted")
    rep = holonomy(scn.nerve, scn.cocycle)
    _holonomy_lines(lines, rep)
    if rep.trivial:
        lines.append("summary: induced by a global action (at nerve level)")
        return _finish(lines, "global-action", 0)
    lines.append("summary: not induced by a global action: the loop images "
                 "above are nontrivial holonomy")
    return _finish(lines, "no-global-action", 2)


def _require_lifting_sections(scn, command):
    missing = []
    if scn.rho is None:
        missing.append("[representation]")
    if scn.liftings is None:
        missing.append("[lifting]")
    if scn.gluing is None:
        missing.append("[gluing]")
    if missing:
        raise InputError("%s needs the %s section%s of the scenario file"
                         % (command, " and ".join(missing),
                            "s" if len(missing) > 1 else ""))


def run_check_lifting_data(scn):
    _require_valid_cocycle(scn)
    _require_lifting_sections(scn, "check-lifting-data")
    lines = []
    _header(lines, "check-lifting-data", scn)
    total = 0

    for chart in scn.nerve.vertices:
        lifting = scn.liftings.get(chart)
        if lifting is None:
            lines.append("chart-lifting %s: no table" % chart)
            lines.append("violation: missing-chart %s" % chart)
            total += 1
            continue
        report = check_chart_lifting(lifting)
        lines.append("chart-lifting %s: %s" % (
            chart, "ok" if report.ok else
            "%d violation(s)" % len(report.violations)))
        for v in report.violations:
            lines.append(_violation_line(("chart", chart) + v))
        total += len(report.violations)

    greport = check_gluing(scn.model, scn.gluing)
    lines.append("gluing: %s" % ("ok" if greport.ok else
                                 "%d violation(s)" % len(greport.violations)))
    for v in greport.violations:
        lines.append(_violation_line(("gluing",) + v))
    total += len(greport.violations)

    try:
        corrections = chart_corrections(scn.nerve, scn.cocycle, scn.rho)
    except NoCorrection as exc:
        lines.append("violation: representation %s" % exc)
        total += 1
    else:
        lines.append("representation: matches the holonomy loop images")
        for a, b in scn.nerve.edges:
            for to_chart, from_chart in ((a, b), (b, a)):
                la = scn.liftings.get(to_chart)
                lb = scn.liftings.get(from_chart)
                if la is None or lb is None:
                    continue
                ereport = check_equivariant_gluing(
                    scn.model, to_chart, from_chart, la, lb, scn.gluing)
                lines.append("equivariance %s %s: %s" % (
                    to_chart, from_chart, "ok" if ereport.ok else
                    "%d violation(s)" % len(ereport.violations)))
                for v in ereport.violations:
                    lines.append(_violation_line(v))
                total += len(ereport.violations)

    if total == 0:
        try:
            assemble_global_lifting(scn.model, corrections, scn.rho,
                                    scn.liftings, scn.gluing)
        except (AssemblyError, Error) as exc:
            lines.append("violation: assembly %s" % exc)
            total += 1

    lines.append("violations: %d" % total)
    if total == 0:
        return _finish(lines, "consistent-lifting-data", 0)
    return _finish(lines, "invalid-lifting-data", 2)


def _fmt_vec(vec):
    return ",".join(str(v) for v in vec)


def _witness_lines(lines, witness, k):
    lines.append("witness-format: one line per torus element u, listing "
                 "tau(u) on every class in module order; fiber components "
                 "comma-joined")
    for key in sorted(witness.values):
        values = witness.values[key]
        lines.append("witness u=%s : %s" % (
            " ".join(str(v) for v in key[0]),
            " ".join("-" if v is None else _fmt_vec(v) for v in values)))


_LABEL_NAMES = {"torsion": "torsion j=%d class=%d",
                "commutes": "commutes i=%d j=%d class=%d",
                "deck": "deck generator=%d j=%d class=%d"}


def _certificate_lines(lines, report):
    cert = report.certificate
    lines.append("certificate-fiber-coordinate: %d" % cert.fiber_coordinate)
    entries = [(i, v) for i, v in enumerate(cert.vector) if v]
    lines.append("certificate-rows: %d" % len(entries))
    lines.append("certificate: " + " ".join("%d:%d" % e for e in entries))
    for i, _ in entries:
        label = report.row_labels[i]
        lines.append("certificate-row %d: %s"
                     % (i, _LABEL_NAMES[label[0]] % label[1:]))
    lines.append("certificate-check: combination annihilates every row and "
                 "pairs to a nonzero value mod %d" % report.m_prime)


def run_obstruction(scn, window=None):
    _require_valid_cocycle(scn)
    _require_lifting_sections(scn, "obstruction")
    effective = scn.window if window is None else window
    if effective < 1:
        raise InputError("window must be at least 1")
    for chart in scn.nerve.vertices:
        if chart not in scn.liftings:
            raise InputError("no lifting table for chart %s" % chart)
    corrections = chart_corrections(scn.nerve, scn.cocycle, scn.rho)
    try:
        lifting = assemble_global_lifting(scn.model, corrections, scn.rho,
                                          scn.liftings, scn.gluing)
    except AssemblyError as exc:
        raise InputError("lifting data does not assemble: %s; run "
                         "check-lifting-data for details" % exc)
    module = build_finite_module(scn.model, scn.rho, corrections,
                                 window=effective, fiber_rank=scn.k,
                                 fiber_order=scn.m_prime)
    sigma = compute_sigma(lifting, module)
    report = test_vanishing(sigma, module)

    lines = []
    _header(lines, "obstruction", scn, window=effective)
    lines.append("classes: %d" % report.num_points)
    lines.append("unknowns: %d" % report.unknowns)
    lines.append("constraint-rows: %d" % len(report.rows))
    lines.append("sigma-rows: %d" % report.sigma_rows_total)
    lines.append("sigma-rows-dropped: %d" % report.sigma_rows_dropped)
    lines.append("dropped-ratio: %s" % report.dropped_ratio)
    lines.append("threshold: %s" % report.threshold)
    lines.append(WINDOW_NOTE)
    lines.append("sigma-zero: %s" % ("yes" if sigma.is_zero() else "no"))

    if report.verdict == "certified-nonvanishing":
        _certificate_lines(lines, report)
        return _finish(lines, report.verdict, 2)
    if report.witness is not None:
        _witness_lines(lines, report.witness, report.k)
    if report.verdict == "indeterminate":
        lines.append("reason: dropped-ratio %s exceeds threshold %s"
                     % (report.dropped_ratio, report.threshold))
        return _finish(lines, report.verdict, 3)
    return _finish(lines, report.verdict, 0)


def run_cylinder(s, torus_order, window, fiber_order=None):
    if fiber_order is not None and fiber_order != torus_order:
        raise InputError("the cylinder generator ties the fiber order to "
                         "the torus order; got %d != %d"
                         % (fiber_order, torus_order))
    params = CylParams(s=s, m=torus_order, window=window)
    scn = scenario_from_cylinder(build_scenario(params))
    return emit_scenario(scn), 0


# ---------------------------------------------------------------------------
# argument handling

class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit status 2 on bad usage; reserve 2 for
    certified failures and report usage problems as input errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def build_parser():
    parser = _Parser(prog="toruslift",
                     description="obstruction calculus for locally "
                                 "standard torus actions")
    sub = parser.add_subparsers(dest="command", required=True)

    def scenario_command(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("scenario", help="path to a scenario file")
        p.add_argument("--report", metavar="PATH",
                       help="also write the report to PATH")
        p.add_argument("--max-denominator", type=int, metavar="N",
                       help="reject sample angles with denominator above N")
        return p

    scenario_command("check-cocycle",
                     "verify antisymmetry and the triangle identity")
    scenario_command("holonomy",
                     "spanning-tree flattening and loop images")
    scenario_command("global-action",
                     "decide whether one global automorphism action "
                     "induces the transition data")
    scenario_command("check-lifting-data",
                     "validate chart liftings, gluing shifts, and "
                     "equivariance")
    p = scenario_command("obstruction",
                         "assemble the lifted action and test whether the "
                         "obstruction vanishes")
    p.add_argument("--window", type=int, metavar="W",
                   help="override the scenario window")

    c = sub.add_parser("cylinder",
                       help="emit a sheared-cylinder scenario file")
    c.add_argument("--s", default="0", metavar="P/Q",
                   help="fiber twist angle (default 0)")
    c.add_argument("--torus-order", type=int, default=8, metavar="M",
                   help="torus sampling order (default 8)")
    c.add_argument("--fiber-order", type=int, metavar="M",
                   help="fiber order; must equal the torus order")
    c.add_argument("--window", type=int, default=2, metavar="W",
                   help="word-length window (default 2)")
    c.add_argument("--report", metavar="PATH",
                   help="also write the scenario to PATH")
    return parser


def _load(args):
    try:
        with open(args.scenario) as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (args.scenario, exc.strerror))
    return parse_scenario(text, max_denominator=args.max_denominator)


def _dispatch(args):
    if args.command == "cylinder":
        try:
            s = Fraction(args.s)
        except (ValueError, ZeroDivisionError):
            raise InputError("bad twist angle %r" % args.s)
        return run_cylinder(s, args.torus_order, args.window,
                            fiber_order=args.fiber_order)
    scn = _load(args)
    if args.command == "check-cocycle":
        return run_check_cocycle(scn)
    if args.command == "holonomy":
        return run_holonomy(scn)
    if args.command == "global-action":
        return run_global_action(scn)
    if args.command == "check-lifting-data":
        return run_check_lifting_data(scn)
    if args.command == "obstruction":
        return run_obstruction(scn, window=args.window)
    raise InputError("unknown command %r" % args.command)


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        text, code = _dispatch(args)
    except Error as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    sys.stdout.write(text)
    if args.report:
        try:
            with open(args.report, "w") as fh:
                fh.write(text)
        except OSError as exc:
            sys.stderr.write("error: cannot write %s: %s\n"
                             % (args.report, exc.strerror))
            return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
