"""Scenario file format: parser strictness, emitter normal form."""

from fractions import Fraction

import pytest

from toruslift.cochain import build_finite_module
from toruslift.cylinder import CylParams, build_scenario
from toruslift.errors import ScenarioError
from toruslift.lifting import (assemble_global_lifting, compute_sigma,
                               test_vanishing as vanishing)
from toruslift.nerve import chart_corrections
from toruslift.scenario import (Scenario, emit_scenario, parse_scenario,
                                scenario_from_cylinder)
from toruslift.torus import TorusAut

MINIMAL = """\
[scenario]
version = 1
n = 1
k = 1
m = 2
m_prime = 2
window = 1
good_cover = yes

[nerve]
charts = c0

[cocycle]

[samples]
point = c0 : 1/2,0/1
point = c0 : 1/2,1/2
"""


def cylinder_scenario(m=4, window=1, s=Fraction(1, 4)):
    return scenario_from_cylinder(
        build_scenario(CylParams(s=s, m=m, window=window)))


class TestParseMinimal:
    def test_counts(self):
        scn = parse_scenario(MINIMAL)
        assert scn.version == 1
        assert scn.nerve.vertices == ("c0",)
        assert scn.nerve.edges == ()
        assert scn.cocycle.rank == 1
        assert len(scn.model.samples["c0"]) == 2
        assert scn.rho is None and scn.liftings is None and scn.gluing is None

    def test_good_cover_flag(self):
        scn = parse_scenario(MINIMAL.replace("good_cover = yes",
                                             "good_cover = no"))
        assert scn.good_cover is False

    def test_comments_and_blank_lines_ignored(self):
        decorated = "# leading comment\n" + MINIMAL.replace(
            "[nerve]", "# before nerve\n\n[nerve]")
        scn = parse_scenario(decorated)
        assert scn.nerve.vertices == ("c0",)


class TestRoundTrip:
    def test_cylinder_counts(self):
        scn = cylinder_scenario()
        text = emit_scenario(scn)
        back = parse_scenario(text)
        assert back.nerve.vertices == ("c0", "c1", "c2")
        assert back.nerve.edges == (("c0", "c1"), ("c0", "c2"), ("c1", "c2"))
        assert back.cocycle.get("c1", "c2") == TorusAut([[1, 0], [-1, 1]])
        assert back.cocycle.get("c0", "c1").is_identity()
        assert back.m == back.m_prime == 4
        assert back.family == "free_abelian"
        assert len(back.model.samples["c1"]) == 16
        assert len(back.model.samples["c2"]) == 16
        assert back.model.samples["c0"] == ()
        assert set(back.liftings) == {"c0", "c1", "c2"}
        assert back.liftings["c0"].table == {}
        assert len(back.gluing.tables[("c1", "c2")]) == 16

    def test_matches_survive(self):
        scn = cylinder_scenario()
        back = parse_scenario(emit_scenario(scn))
        for zb in scn.model.samples["c2"]:
            assert back.model.matched("c1", "c2", zb) == \
                scn.model.matched("c1", "c2", zb)

    def test_emit_is_idempotent(self):
        text = emit_scenario(cylinder_scenario())
        normalized = emit_scenario(parse_scenario(text))
        assert normalized == text
        assert emit_scenario(parse_scenario(normalized)) == normalized

    def test_emit_idempotent_on_minimal(self):
        normalized = emit_scenario(parse_scenario(MINIMAL))
        assert emit_scenario(parse_scenario(normalized)) == normalized

    def test_parsed_cylinder_still_runs_the_pipeline(self):
        scn = parse_scenario(emit_scenario(cylinder_scenario(
            m=2, window=1, s=Fraction(1, 2))))
        corrections = chart_corrections(scn.nerve, scn.cocycle, scn.rho)
        lifting = assemble_global_lifting(scn.model, corrections, scn.rho,
                                          scn.liftings, scn.gluing)
        module = build_finite_module(scn.model, scn.rho, corrections,
                                     window=scn.window, fiber_rank=scn.k,
                                     fiber_order=scn.m_prime)
        report = vanishing(compute_sigma(lifting, module), module)
        assert report.verdict == "vanishing-at-scale"


def expect_error(text, fragment, line=None, **kw):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text, **kw)
    assert fragment in str(err.value)
    if line is not None:
        assert str(err.value).startswith("line %d:" % line)


class TestStrictness:
    def test_unknown_section(self):
        expect_error(MINIMAL + "\n[extras]\n", "unknown section [extras]",
                     line=19)

    def test_duplicate_section(self):
        expect_error(MINIMAL + "\n[samples]\n", "duplicate section [samples]")

    def test_content_before_first_section(self):
        expect_error("n = 1\n" + MINIMAL, "content before the first section",
                     line=1)

    def test_missing_required_section(self):
        truncated = MINIMAL[:MINIMAL.index("[samples]")]
        expect_error(truncated, "missing required section [samples]")

    def test_unknown_header_key(self):
        expect_error(MINIMAL.replace("window = 1", "window = 1\nwobble = 3"),
                     "unknown key 'wobble' in [scenario]")

    def test_missing_header_key(self):
        expect_error(MINIMAL.replace("window = 1\n", ""),
                     "missing key 'window'")

    def test_wrong_version(self):
        expect_error(MINIMAL.replace("version = 1", "version = 7"),
                     "unsupported version 7")

    def test_bad_good_cover(self):
        expect_error(MINIMAL.replace("good_cover = yes",
                                     "good_cover = maybe"),
                     "good_cover must be yes or no")

    def test_charts_line_must_come_first(self):
        expect_error(MINIMAL.replace("charts = c0",
                                     "edge = c0 c1\ncharts = c0 c1"),
                     "charts line must come first", line=11)

    def test_unknown_chart_in_edge(self):
        expect_error(MINIMAL.replace("charts = c0",
                                     "charts = c0\nedge = c0 c9"),
                     "unknown chart 'c9'")

    def test_unknown_key_in_nerve(self):
        expect_error(MINIMAL.replace("charts = c0",
                                     "charts = c0\nhandle = c0"),
                     "unknown key 'handle' in [nerve]")

    def test_map_for_missing_edge(self):
        expect_error(MINIMAL.replace("[cocycle]",
                                     "[cocycle]\nmap = c0 c0 : 1"),
                     "not a nerve edge")

    def test_non_unimodular_matrix(self):
        text = MINIMAL.replace("charts = c0", "charts = c0 c1\nedge = c0 c1")
        text = text.replace("[cocycle]", "[cocycle]\nmap = c0 c1 : 2")
        expect_error(text, "bad matrix")

    def test_missing_cocycle_map(self):
        text = MINIMAL.replace("charts = c0", "charts = c0 c1\nedge = c0 c1")
        expect_error(text, "no map for edge (c0, c1)")

    def test_collapsed_slot_needs_zero_angle(self):
        expect_error(MINIMAL.replace("point = c0 : 1/2,1/2",
                                     "point = c0 : 0/1,1/2"),
                     "bad point")

    def test_duplicate_sample(self):
        expect_error(MINIMAL + "point = c0 : 1/2,0/1\n",
                     "duplicate sample for chart c0", line=18)

    def test_sample_for_unknown_chart(self):
        expect_error(MINIMAL + "point = c9 : 1/2,0/1\n", "unknown chart 'c9'")

    def test_max_denominator(self):
        expect_error(MINIMAL, "denominator exceeds --max-denominator 1",
                     max_denominator=1)
        assert parse_scenario(MINIMAL, max_denominator=2).m == 2

    def test_samples_must_close_under_rotation(self):
        expect_error(MINIMAL.replace("point = c0 : 1/2,1/2\n", ""),
                     "invalid atlas data")

    def test_lifting_needs_declared_chart(self):
        expect_error(MINIMAL +
                     "\n[lifting]\nvalue = c0 : 0 : 1/2,0/1 : 0\n",
                     "not declared before its values")

    def test_gluing_needs_declared_edge(self):
        expect_error(MINIMAL +
                     "\n[gluing]\nvalue = c0 c1 : 1/2,0/1 : 0\n",
                     "not declared before its values")

    def test_representation_needs_family(self):
        expect_error(MINIMAL + "\n[representation]\nimage = 1\n",
                     "has no family line")

    def test_free_abelian_images_must_commute(self):
        text = MINIMAL.replace("\nn = 1", "\nn = 2")
        text = text.replace("point = c0 : 1/2,0/1",
                            "point = c0 : 1/2,0/1 1/2,0/1")
        text = text.replace("point = c0 : 1/2,1/2",
                            "point = c0 : 1/2,1/2 1/2,0/1")
        text += ("point = c0 : 1/2,0/1 1/2,1/2\n"
                 "point = c0 : 1/2,1/2 1/2,1/2\n"
                 "\n[representation]\nfamily = free_abelian\n"
                 "image = 1 1 / 0 1\nimage = 1 0 / 1 1\n")
        expect_error(text, "invalid representation")

    def test_no_equals_sign(self):
        expect_error(MINIMAL.replace("charts = c0", "charts c0"),
                     "expected key = value", line=11)


class TestPolarMemo:
    """Each distinct polar text is parsed once per call; the checks and
    their line numbers are those of parsing every line."""

    def test_same_bad_text_names_first_line(self):
        expect_error(MINIMAL + "point = c0 : 1/2,1/0\n"
                     "point = c0 : 1/2,1/0\n", "bad angle '1/0'", line=18)

    def test_bad_text_seen_in_samples_then_lifting(self):
        text = MINIMAL + ("point = c0 : 1/2,x\n\n[lifting]\nchart = c0\n"
                          "value = c0 : 0 : 1/2,x : 0\n")
        expect_error(text, "bad angle 'x'", line=18)

    def test_memo_does_not_outlive_the_call(self):
        text = emit_scenario(cylinder_scenario(m=4))
        assert parse_scenario(text).m == 4
        expect_error(text, "denominator exceeds --max-denominator 2",
                     max_denominator=2)
        assert parse_scenario(text, max_denominator=4).m == 4

    def test_duplicate_sample_in_other_spelling(self):
        expect_error(MINIMAL + "point = c0 : 2/4,0/1\n",
                     "duplicate sample for chart c0", line=18)

    def test_duplicate_sample_in_emitted_cylinder(self):
        text = emit_scenario(cylinder_scenario(m=4))
        lines = text.splitlines()
        first = next(i for i, line in enumerate(lines)
                     if line.startswith("point = c2 :"))
        lines.insert(first + 3, lines[first])
        expect_error("\n".join(lines) + "\n",
                     "duplicate sample for chart c2", line=first + 4)

    def test_duplicate_lifting_entry(self):
        text = MINIMAL + ("\n[lifting]\nchart = c0\n"
                          "value = c0 : 0 : 1/2,0/1 : 0\n"
                          "value = c0 : 2 : 2/4,0/1 : 1\n")
        expect_error(text, "duplicate lifting entry", line=22)

    def test_duplicate_gluing_entry(self):
        text = MINIMAL.replace("charts = c0", "charts = c0 c1\nedge = c0 c1")
        text = text.replace("[cocycle]", "[cocycle]\nmap = c0 c1 : 1")
        text += ("\n[gluing]\nedge = c0 c1\n"
                 "value = c0 c1 : 1/2,0/1 : 0\n"
                 "value = c0 c1 : 1/2,0/1 : 1\n")
        expect_error(text, "duplicate gluing entry", line=24)


class TestRepresentationSection:
    def test_cyclic_family(self):
        text = MINIMAL + "\n[representation]\nfamily = cyclic 2\nimage = -1\n"
        scn = parse_scenario(text)
        assert scn.family == "cyclic"
        assert scn.cyclic_order == 2
        assert scn.rho.of(((0, 1),)) == TorusAut([[-1]])
        normalized = emit_scenario(scn)
        again = parse_scenario(normalized)
        assert again.cyclic_order == 2
        assert emit_scenario(again) == normalized

    def test_cyclic_wrong_order_rejected(self):
        text = MINIMAL + "\n[representation]\nfamily = cyclic 3\nimage = -1\n"
        expect_error(text, "invalid representation")
