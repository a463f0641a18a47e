"""Scenario files: strict sectioned key-value format, parser, emitter.

A scenario file is versioned UTF-8 with explicit sections in this order
(parsing accepts any order, emission is canonical):

    [scenario]        version, ranks, orders, window, good-cover flag
    [nerve]           charts, edges, optional triangles
    [cocycle]         one transition matrix per edge, row-major
    [representation]  group family and generator images (optional section)
    [samples]         chart sample points, polar "r2,theta" slots
    [overlaps]        matched sample pairs per oriented edge
    [lifting]         chart lifting tables (optional section)
    [gluing]          fiber gluing tables (optional section)

Unknown sections and unknown keys are fatal with a line number — verdicts
must never depend on silently dropped data.  Angles and radii are exact
rationals "p/q"; matrices are row-major integer arrays with rows joined
by "/".  ``emit_scenario(parse_scenario(text))`` is a normal form:
re-parsing and re-emitting reproduces it byte for byte.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .errors import Error, InputError, ScenarioError
from .groups import AtlasModel, FPGroup, Representation
from .lifting import ChartLifting, GluingData
from .nerve import GLCocycle, Nerve
from .torus import TorusAut, polar

SECTIONS = ("scenario", "nerve", "cocycle", "representation", "samples",
            "overlaps", "lifting", "gluing")
VERSION = 1


@dataclass
class Scenario:
    version: int
    n: int
    k: int
    m: int
    m_prime: int
    window: int
    good_cover: bool
    nerve: Nerve
    cocycle: GLCocycle
    model: AtlasModel
    family: Optional[str] = None          # group family of [representation]
    cyclic_order: Optional[int] = None
    rho: Optional[Representation] = None
    liftings: Optional[Dict[str, ChartLifting]] = None
    gluing: Optional[GluingData] = None


# ---------------------------------------------------------------------------
# parsing


def _frac(text: str, line: int, what: str = "rational") -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ScenarioError("bad %s %r" % (what, text), line)


def _int(text: str, line: int, what: str = "integer") -> int:
    try:
        return int(text)
    except ValueError:
        raise ScenarioError("bad %s %r" % (what, text), line)


def _matrix(text: str, n: int, line: int) -> TorusAut:
    rows = []
    for row_text in text.split("/"):
        entries = row_text.split()
        if len(entries) != n:
            raise ScenarioError("matrix row %r has %d entries, expected %d"
                                % (row_text.strip(), len(entries), n), line)
        rows.append([_int(e, line, "matrix entry") for e in entries])
    if len(rows) != n:
        raise ScenarioError("matrix has %d rows, expected %d"
                            % (len(rows), n), line)
    try:
        return TorusAut(rows)
    except Error as exc:
        raise ScenarioError("bad matrix: %s" % exc, line)


def _polar(text: str, n: int, line: int, max_denominator=None):
    slots = []
    for part in text.split():
        pieces = part.split(",")
        if len(pieces) != 2:
            raise ScenarioError("bad polar slot %r, expected r2,theta"
                                % part, line)
        r2 = _frac(pieces[0], line, "radius")
        th = _frac(pieces[1], line, "angle")
        if max_denominator is not None and \
                max(r2.denominator, th.denominator) > max_denominator:
            raise ScenarioError("denominator exceeds --max-denominator %d"
                                % max_denominator, line)
        slots.append((r2, th))
    if len(slots) != n:
        raise ScenarioError("point has %d slots, expected %d"
                            % (len(slots), n), line)
    try:
        return polar(slots)
    except (Error, ValueError) as exc:
        raise ScenarioError("bad point: %s" % exc, line)


def _ints(text: str, count: int, line: int, what: str) -> Tuple[int, ...]:
    entries = text.split()
    if len(entries) != count:
        raise ScenarioError("%s has %d entries, expected %d"
                            % (what, len(entries), count), line)
    return tuple(_int(e, line, what) for e in entries)


def _split_kv(raw: str, line: int) -> Tuple[str, str]:
    if "=" not in raw:
        raise ScenarioError("expected key = value", line)
    key, _, value = raw.partition("=")
    return key.strip(), value.strip()


def _sectionize(text: str) -> Dict[str, List[Tuple[int, str]]]:
    """Split into sections; values are (line number, raw line) lists."""
    sections: Dict[str, List[Tuple[int, str]]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            name = stripped[1:-1].strip()
            if name not in SECTIONS:
                raise ScenarioError("unknown section [%s]" % name, lineno)
            if name in sections:
                raise ScenarioError("duplicate section [%s]" % name, lineno)
            sections[name] = []
            current = name
            continue
        if current is None:
            raise ScenarioError("content before the first section", lineno)
        sections[current].append((lineno, stripped))
    return sections


_SCENARIO_KEYS = ("version", "n", "k", "m", "m_prime", "window",
                  "good_cover")


def _parse_header(lines) -> dict:
    seen = {}
    for lineno, raw in lines:
        key, value = _split_kv(raw, lineno)
        if key not in _SCENARIO_KEYS:
            raise ScenarioError("unknown key %r in [scenario]" % key, lineno)
        if key in seen:
            raise ScenarioError("duplicate key %r" % key, lineno)
        if key == "good_cover":
            if value not in ("yes", "no"):
                raise ScenarioError("good_cover must be yes or no", lineno)
            seen[key] = value == "yes"
        else:
            seen[key] = _int(value, lineno, key)
    for key in _SCENARIO_KEYS:
        if key not in seen:
            raise ScenarioError("[scenario] is missing key %r" % key)
    if seen["version"] != VERSION:
        raise ScenarioError("unsupported version %d (expected %d)"
                            % (seen["version"], VERSION))
    for key in ("n", "k", "m", "m_prime", "window"):
        if seen[key] < 1:
            raise ScenarioError("%s must be >= 1" % key)
    return seen


def parse_scenario(text: str, max_denominator: Optional[int] = None
                   ) -> Scenario:
    sections = _sectionize(text)
    for required in ("scenario", "nerve", "cocycle", "samples"):
        if required not in sections:
            raise ScenarioError("missing required section [%s]" % required)
    header = _parse_header(sections["scenario"])
    n, k, m = header["n"], header["k"], header["m"]
    # polar text -> point, so each distinct text is parsed once per call
    points: Dict[str, tuple] = {}

    def point_of(text: str, line: int) -> tuple:
        z = points.get(text)
        if z is None:
            z = points[text] = _polar(text, n, line, max_denominator)
        return z

    charts: List[str] = []
    edges: List[Tuple[str, str]] = []
    triangles: List[Tuple[str, str, str]] = []
    for lineno, raw in sections["nerve"]:
        key, value = _split_kv(raw, lineno)
        if key == "charts":
            if charts:
                raise ScenarioError("duplicate charts line", lineno)
            charts = value.split()
            if len(set(charts)) != len(charts):
                raise ScenarioError("chart names are not unique", lineno)
            continue
        if not charts:
            raise ScenarioError("the charts line must come first", lineno)
        names = value.split()
        for name in names:
            if name not in charts:
                raise ScenarioError("unknown chart %r" % name, lineno)
        if key == "edge":
            if len(names) != 2:
                raise ScenarioError("edge needs two charts", lineno)
            edges.append((names[0], names[1]))
        elif key == "triangle":
            if len(names) != 3:
                raise ScenarioError("triangle needs three charts", lineno)
            triangles.append(tuple(names))
        else:
            raise ScenarioError("unknown key %r in [nerve]" % key, lineno)
    if not charts:
        raise ScenarioError("[nerve] has no charts line")
    try:
        nerve = Nerve(charts, edges=edges, triangles=triangles)
    except Error as exc:
        raise ScenarioError("invalid nerve: %s" % exc)

    maps = {}
    for lineno, raw in sections["cocycle"]:
        key, value = _split_kv(raw, lineno)
        if key != "map":
            raise ScenarioError("unknown key %r in [cocycle]" % key, lineno)
        head, _, mat_text = value.partition(":")
        pair = head.split()
        if len(pair) != 2:
            raise ScenarioError("map needs 'a b : matrix'", lineno)
        a, b = pair
        if not nerve.has_edge(a, b):
            raise ScenarioError("(%s, %s) is not a nerve edge" % (a, b),
                                lineno)
        if frozenset((a, b)) in {frozenset(e) for e in maps}:
            raise ScenarioError("duplicate map for overlap (%s, %s)"
                                % (a, b), lineno)
        maps[(a, b)] = _matrix(mat_text, n, lineno)
    missing = [e for e in nerve.edges
               if frozenset(e) not in {frozenset(p) for p in maps}]
    if missing:
        raise ScenarioError("[cocycle] has no map for edge (%s, %s)"
                            % missing[0])
    try:
        cocycle = GLCocycle.from_one_sided(nerve, maps) if maps \
            else GLCocycle(nerve, {}, rank=n)
    except Error as exc:
        raise ScenarioError("invalid cocycle data: %s" % exc)

    family = None
    cyclic_order = None
    images: List[TorusAut] = []
    if "representation" in sections:
        for lineno, raw in sections["representation"]:
            key, value = _split_kv(raw, lineno)
            if key == "family":
                if family is not None:
                    raise ScenarioError("duplicate family line", lineno)
                parts = value.split()
                if not parts:
                    raise ScenarioError("family line has no value", lineno)
                if parts[0] not in ("free", "free_abelian", "cyclic"):
                    raise ScenarioError("unknown family %r" % parts[0],
                                        lineno)
                family = parts[0]
                if family == "cyclic":
                    if len(parts) != 2:
                        raise ScenarioError("cyclic needs an order", lineno)
                    cyclic_order = _int(parts[1], lineno, "order")
                elif len(parts) != 1:
                    raise ScenarioError("family takes no argument", lineno)
            elif key == "image":
                images.append(_matrix(value, n, lineno))
            else:
                raise ScenarioError("unknown key %r in [representation]"
                                    % key, lineno)
        if family is None:
            raise ScenarioError("[representation] has no family line")

    samples: Dict[str, List] = {chart: [] for chart in charts}
    declared = {chart: set() for chart in charts}
    for lineno, raw in sections["samples"]:
        key, value = _split_kv(raw, lineno)
        if key != "point":
            raise ScenarioError("unknown key %r in [samples]" % key, lineno)
        chart, _, slots = value.partition(":")
        chart = chart.strip()
        if chart not in samples:
            raise ScenarioError("unknown chart %r" % chart, lineno)
        point = point_of(slots, lineno)
        if point in declared[chart]:
            raise ScenarioError("duplicate sample for chart %s" % chart,
                                lineno)
        declared[chart].add(point)
        samples[chart].append(point)

    matches: Dict[Tuple[str, str], List] = {}
    for lineno, raw in sections.get("overlaps", []):
        key, value = _split_kv(raw, lineno)
        if key != "match":
            raise ScenarioError("unknown key %r in [overlaps]" % key, lineno)
        head, _, rest = value.partition(":")
        pair = head.split()
        if len(pair) != 2 or not nerve.has_edge(*pair):
            raise ScenarioError("match needs a nerve edge 'a b'", lineno)
        sides = rest.split("|")
        if len(sides) != 2:
            raise ScenarioError("match needs 'za | zb'", lineno)
        za = point_of(sides[0], lineno)
        zb = point_of(sides[1], lineno)
        matches.setdefault(tuple(pair), []).append((za, zb))
    try:
        model = AtlasModel(nerve, cocycle, m, samples, matches)
    except Error as exc:
        raise ScenarioError("invalid atlas data: %s" % exc)

    rho = None
    if family is not None:
        if family == "free":
            group = FPGroup.free(len(images))
        elif family == "free_abelian":
            group = FPGroup.free_abelian(len(images))
        else:
            group = FPGroup.cyclic(cyclic_order)
            if len(images) != 1:
                raise ScenarioError("cyclic family needs exactly one image")
        try:
            rho = Representation(group, images)
        except Error as exc:
            raise ScenarioError("invalid representation: %s" % exc)

    liftings = None
    if "lifting" in sections:
        tables: Dict[str, dict] = {}
        for lineno, raw in sections["lifting"]:
            key, value = _split_kv(raw, lineno)
            if key == "chart":
                chart = value.strip()
                if chart not in charts:
                    raise ScenarioError("unknown chart %r" % chart, lineno)
                if chart in tables:
                    raise ScenarioError("duplicate chart %r" % chart, lineno)
                tables[chart] = {}
            elif key == "value":
                parts = value.split(":")
                if len(parts) != 4:
                    raise ScenarioError(
                        "value needs 'chart : u : point : shift'", lineno)
                chart = parts[0].strip()
                if chart not in tables:
                    raise ScenarioError(
                        "chart %r not declared before its values" % chart,
                        lineno)
                u = _ints(parts[1], n, lineno, "torus argument")
                point = point_of(parts[2], lineno)
                vec = _ints(parts[3], k, lineno, "fiber shift")
                table = tables[chart]
                size = len(table)   # a duplicate key leaves it unchanged
                table.setdefault((tuple(v % m for v in u), point),
                                 tuple(v % header["m_prime"] for v in vec))
                if len(table) == size:
                    raise ScenarioError("duplicate lifting entry", lineno)
            else:
                raise ScenarioError("unknown key %r in [lifting]" % key,
                                    lineno)
        liftings = {}
        for chart, table in tables.items():
            try:
                liftings[chart] = ChartLifting(chart, m, header["m_prime"],
                                               table, n=n, k=k)
            except Error as exc:
                raise ScenarioError("invalid lifting table for %s: %s"
                                    % (chart, exc))

    gluing = None
    if "gluing" in sections:
        gtables: Dict[Tuple[str, str], dict] = {}
        for lineno, raw in sections["gluing"]:
            key, value = _split_kv(raw, lineno)
            if key == "edge":
                pair = tuple(value.split())
                if len(pair) != 2 or not nerve.has_edge(*pair):
                    raise ScenarioError("edge needs a nerve edge 'a b'",
                                        lineno)
                if pair in gtables:
                    raise ScenarioError("duplicate gluing edge", lineno)
                gtables[pair] = {}
            elif key == "value":
                parts = value.split(":")
                if len(parts) != 3:
                    raise ScenarioError(
                        "value needs 'a b : point : shift'", lineno)
                pair = tuple(parts[0].split())
                if pair not in gtables:
                    raise ScenarioError(
                        "gluing edge %r not declared before its values"
                        % (pair,), lineno)
                point = point_of(parts[1], lineno)
                vec = _ints(parts[2], k, lineno, "fiber shift")
                table = gtables[pair]
                size = len(table)
                table.setdefault(point, tuple(v % header["m_prime"]
                                              for v in vec))
                if len(table) == size:
                    raise ScenarioError("duplicate gluing entry", lineno)
            else:
                raise ScenarioError("unknown key %r in [gluing]" % key,
                                    lineno)
        try:
            gluing = GluingData(header["m_prime"], gtables)
        except Error as exc:
            raise ScenarioError("invalid gluing data: %s" % exc)

    return Scenario(version=header["version"], n=n, k=k, m=m,
                    m_prime=header["m_prime"], window=header["window"],
                    good_cover=header["good_cover"], nerve=nerve,
                    cocycle=cocycle, model=model, family=family,
                    cyclic_order=cyclic_order, rho=rho, liftings=liftings,
                    gluing=gluing)


# ---------------------------------------------------------------------------
# emission


def _fmt_frac(x: Fraction) -> str:
    return "%d/%d" % (x.numerator, x.denominator)


def _fmt_polar(z) -> str:
    return " ".join("%s,%s" % (_fmt_frac(Fraction(r)), _fmt_frac(th))
                    for r, th in z)


def _fmt_matrix(aut: TorusAut) -> str:
    return " / ".join(" ".join(str(v) for v in row) for row in aut.rows)


def _fmt_ints(vals) -> str:
    return " ".join(str(v) for v in vals)


def emit_scenario(scn: Scenario) -> str:
    out = []
    push = out.append
    push("[scenario]")
    push("version = %d" % scn.version)
    push("n = %d" % scn.n)
    push("k = %d" % scn.k)
    push("m = %d" % scn.m)
    push("m_prime = %d" % scn.m_prime)
    push("window = %d" % scn.window)
    push("good_cover = %s" % ("yes" if scn.good_cover else "no"))

    push("")
    push("[nerve]")
    push("charts = %s" % " ".join(scn.nerve.vertices))
    for a, b in scn.nerve.edges:
        push("edge = %s %s" % (a, b))
    for a, b, c in scn.nerve.triangles:
        push("triangle = %s %s %s" % (a, b, c))

    push("")
    push("[cocycle]")
    for a, b in scn.nerve.edges:
        push("map = %s %s : %s" % (a, b, _fmt_matrix(scn.cocycle.get(a, b))))

    if scn.family is not None:
        push("")
        push("[representation]")
        if scn.family == "cyclic":
            push("family = cyclic %d" % scn.cyclic_order)
        else:
            push("family = %s" % scn.family)
        for image in scn.rho.generator_images:
            push("image = %s" % _fmt_matrix(image))

    push("")
    push("[samples]")
    for chart in scn.nerve.vertices:
        for z in scn.model.samples[chart]:
            push("point = %s : %s" % (chart, _fmt_polar(z)))

    push("")
    push("[overlaps]")
    for a, b in scn.nerve.edges:
        for zb in scn.model.samples[b]:
            za = scn.model.matched(a, b, zb)
            if za is not None:
                push("match = %s %s : %s | %s"
                     % (a, b, _fmt_polar(za), _fmt_polar(zb)))

    if scn.liftings is not None:
        push("")
        push("[lifting]")
        for chart in scn.nerve.vertices:
            if chart in scn.liftings:
                push("chart = %s" % chart)
                lifting = scn.liftings[chart]
                for u, z in sorted(lifting.table):
                    push("value = %s : %s : %s : %s"
                         % (chart, _fmt_ints(u), _fmt_polar(z),
                            _fmt_ints(lifting.table[(u, z)])))

    if scn.gluing is not None:
        push("")
        push("[gluing]")
        for pair in sorted(scn.gluing.tables):
            push("edge = %s %s" % pair)
            table = scn.gluing.tables[pair]
            for z in sorted(table):
                push("value = %s %s : %s : %s"
                     % (pair[0], pair[1], _fmt_polar(z),
                        _fmt_ints(table[z])))

    push("")
    return "\n".join(out)


def scenario_from_cylinder(cyl, good_cover: bool = True) -> Scenario:
    """Package a generated cylinder scenario for emission and the CLI."""
    return Scenario(version=VERSION, n=2, k=1, m=cyl.params.m,
                    m_prime=cyl.params.m, window=cyl.params.window,
                    good_cover=good_cover, nerve=cyl.nerve,
                    cocycle=cyl.cocycle, model=cyl.model,
                    family="free_abelian", rho=cyl.rho,
                    liftings=cyl.liftings, gluing=cyl.gluing)
