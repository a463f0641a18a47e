"""Command line interface: exit codes, report content, determinism."""

import pytest

from toruslift.cli import main
from toruslift.scenario import parse_scenario

TRIVIAL = """\
[scenario]
version = 1
n = 1
k = 1
m = 2
m_prime = 2
window = 1
good_cover = yes

[nerve]
charts = c0 c1
edge = c0 c1

[cocycle]
map = c0 c1 : 1

[samples]
"""

BAD_TRIANGLE = """\
[scenario]
version = 1
n = 1
k = 1
m = 2
m_prime = 2
window = 1
good_cover = no

[nerve]
charts = a b c
edge = a b
edge = b c
edge = a c
triangle = a b c

[cocycle]
map = a b : -1
map = b c : 1
map = a c : 1

[samples]
"""

# Hub chart plus two seam edges: nerve fundamental group free of rank two
# with trivial loop images, samples only on the rim.  At window 1 the deck
# ball is starved, so most sigma rows are dropped and no verdict is safe.
WEDGE = """\
[scenario]
version = 1
n = 1
k = 1
m = 2
m_prime = 2
window = 1
good_cover = no

[nerve]
charts = c0 c1 c2 c3
edge = c0 c1
edge = c0 c2
edge = c0 c3
edge = c1 c2
edge = c2 c3

[cocycle]
map = c0 c1 : 1
map = c0 c2 : 1
map = c0 c3 : 1
map = c1 c2 : 1
map = c2 c3 : 1

[representation]
family = free
image = 1
image = 1

[samples]
point = c1 : 0/1,0/1
point = c2 : 0/1,0/1
point = c3 : 0/1,0/1

[overlaps]
match = c1 c2 : 0/1,0/1 | 0/1,0/1
match = c2 c3 : 0/1,0/1 | 0/1,0/1

[lifting]
chart = c0
chart = c1
chart = c2
chart = c3
value = c1 : 0 : 0/1,0/1 : 0
value = c1 : 1 : 0/1,0/1 : 0
value = c2 : 0 : 0/1,0/1 : 0
value = c2 : 1 : 0/1,0/1 : 0
value = c3 : 0 : 0/1,0/1 : 0
value = c3 : 1 : 0/1,0/1 : 0

[gluing]
edge = c1 c2
value = c1 c2 : 0/1,0/1 : 0
edge = c2 c1
value = c2 c1 : 0/1,0/1 : 0
edge = c2 c3
value = c2 c3 : 0/1,0/1 : 0
edge = c3 c2
value = c3 c2 : 0/1,0/1 : 0
"""


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def trivial_file(tmp_path):
    path = tmp_path / "trivial.scenario"
    path.write_text(TRIVIAL)
    return str(path)


@pytest.fixture
def cylinder_file(tmp_path, capsys):
    path = tmp_path / "cylinder.scenario"
    code, out, err = invoke(capsys, "cylinder", "--s", "1/4",
                            "--torus-order", "4", "--window", "1",
                            "--report", str(path))
    assert code == 0 and err == ""
    return str(path)


class TestCylinderCommand:
    def test_emits_parseable_scenario(self, capsys):
        code, out, err = invoke(capsys, "cylinder", "--s", "1/4",
                                "--torus-order", "4", "--window", "1")
        assert code == 0
        assert out.startswith("[scenario]")
        scn = parse_scenario(out)
        assert scn.nerve.vertices == ("c0", "c1", "c2")
        assert scn.m == 4 and scn.window == 1

    def test_report_file_matches_stdout(self, tmp_path, capsys):
        path = tmp_path / "out.scenario"
        code, out, _ = invoke(capsys, "cylinder", "--s", "0",
                              "--torus-order", "2", "--window", "1",
                              "--report", str(path))
        assert code == 0
        assert path.read_text() == out

    def test_fiber_order_must_match(self, capsys):
        code, out, err = invoke(capsys, "cylinder", "--s", "0",
                                "--torus-order", "4", "--fiber-order", "2",
                                "--window", "1")
        assert code == 1
        assert "error:" in err and out == ""

    def test_unrepresentable_twist(self, capsys):
        code, _, err = invoke(capsys, "cylinder", "--s", "1/3",
                              "--torus-order", "4", "--window", "1")
        assert code == 1
        assert "error:" in err

    def test_bad_twist_literal(self, capsys):
        code, _, err = invoke(capsys, "cylinder", "--s", "a/b")
        assert code == 1
        assert "bad twist angle" in err


class TestCheckCocycle:
    def test_valid(self, trivial_file, capsys):
        code, out, _ = invoke(capsys, "check-cocycle", trivial_file)
        assert code == 0
        assert "verdict: valid-cocycle" in out
        assert "violations: 0" in out
        assert "good-cover: yes" in out
        assert "command: check-cocycle" in out

    def test_triangle_violation(self, tmp_path, capsys):
        path = tmp_path / "bad.scenario"
        path.write_text(BAD_TRIANGLE)
        code, out, _ = invoke(capsys, "check-cocycle", str(path))
        assert code == 2
        assert "verdict: invalid-cocycle" in out
        assert "violation: triangle a b c" in out
        assert "good-cover: no" in out

    def test_missing_file(self, tmp_path, capsys):
        code, out, err = invoke(capsys, "check-cocycle",
                                str(tmp_path / "nope.scenario"))
        assert code == 1
        assert "cannot read" in err and out == ""

    def test_parse_error_reports_line(self, tmp_path, capsys):
        path = tmp_path / "mangled.scenario"
        path.write_text(TRIVIAL.replace("charts = c0 c1", "charts = c0 c0"))
        code, _, err = invoke(capsys, "check-cocycle", str(path))
        assert code == 1
        assert "line 11" in err


class TestHolonomy:
    def test_trivial(self, trivial_file, capsys):
        code, out, _ = invoke(capsys, "holonomy", trivial_file)
        assert code == 0
        assert "verdict: trivial-holonomy" in out
        assert "generators: 0" in out
        assert "tree-edge: c0 c1" in out

    def test_cylinder_loop(self, cylinder_file, capsys):
        code, out, _ = invoke(capsys, "holonomy", cylinder_file)
        assert code == 2
        assert "verdict: nontrivial-holonomy" in out
        assert "generator: c1 c2" in out
        assert "image: 1 0 / -1 1" in out

    def test_rejects_invalid_cocycle(self, tmp_path, capsys):
        path = tmp_path / "bad.scenario"
        path.write_text(BAD_TRIANGLE)
        code, _, err = invoke(capsys, "holonomy", str(path))
        assert code == 1
        assert "not a cocycle" in err


class TestGlobalAction:
    def test_trivial_transitions_are_global(self, trivial_file, capsys):
        code, out, _ = invoke(capsys, "global-action", trivial_file)
        assert code == 0
        assert "induced by a global action (at nerve level)" in out
        assert "verdict: global-action" in out

    def test_cylinder_is_not(self, cylinder_file, capsys):
        code, out, _ = invoke(capsys, "global-action", cylinder_file)
        assert code == 2
        assert "verdict: no-global-action" in out
        assert "image: 1 0 / -1 1" in out
        assert "nontrivial holonomy" in out


class TestCheckLiftingData:
    def test_cylinder_data_is_consistent(self, cylinder_file, capsys):
        code, out, _ = invoke(capsys, "check-lifting-data", cylinder_file)
        assert code == 0
        assert "verdict: consistent-lifting-data" in out
        assert "violations: 0" in out
        assert "chart-lifting c1: ok" in out
        assert "gluing: ok" in out
        assert "equivariance c1 c2: ok" in out

    def test_missing_sections(self, trivial_file, capsys):
        code, _, err = invoke(capsys, "check-lifting-data", trivial_file)
        assert code == 1
        assert "[representation]" in err and "[lifting]" in err

    def test_corrupted_gluing(self, cylinder_file, tmp_path, capsys):
        text = open(cylinder_file).read()
        lines = text.splitlines()
        idx = next(i for i, line in enumerate(lines)
                   if line.startswith("value = c1 c2"))
        head, _, shift = lines[idx].rpartition(" ")
        lines[idx] = head + " " + str((int(shift) + 1) % 4)
        path = tmp_path / "broken-gluing.scenario"
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = invoke(capsys, "check-lifting-data", str(path))
        assert code == 2
        assert "verdict: invalid-lifting-data" in out
        assert "violation: gluing" in out

    def test_corrupted_chart_table(self, cylinder_file, tmp_path, capsys):
        text = open(cylinder_file).read()
        lines = text.splitlines()
        idx = next(i for i, line in enumerate(lines)
                   if line.startswith("value = c1 : 1 "))
        head, _, shift = lines[idx].rpartition(" ")
        lines[idx] = head + " " + str((int(shift) + 1) % 4)
        path = tmp_path / "broken-lifting.scenario"
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = invoke(capsys, "check-lifting-data", str(path))
        assert code == 2
        assert "violation: chart c1 cocycle" in out

    def test_mismatched_representation(self, cylinder_file, tmp_path,
                                       capsys):
        text = open(cylinder_file).read()
        assert "image = 1 0 / -1 1" in text
        path = tmp_path / "wrong-rep.scenario"
        path.write_text(text.replace("image = 1 0 / -1 1",
                                     "image = 1 0 / 0 1"))
        code, out, _ = invoke(capsys, "check-lifting-data", str(path))
        assert code == 2
        assert "violation: representation" in out


class TestObstruction:
    def test_cylinder_vanishes(self, cylinder_file, capsys):
        code, out, _ = invoke(capsys, "obstruction", cylinder_file)
        assert code == 0
        assert "verdict: vanishing-at-scale" in out
        assert "sigma-zero: yes" in out
        assert "dropped-ratio: 1/4" in out
        assert "threshold: 1/4" in out
        assert "witness u=0 0 :" in out
        assert "note: truncation at the window" in out

    def test_window_override_is_echoed(self, cylinder_file, capsys):
        code, out, _ = invoke(capsys, "obstruction", cylinder_file,
                              "--window", "2")
        assert code == 0
        assert "window: 2" in out
        assert "dropped-ratio: 1/6" in out

    def test_indeterminate_when_window_starves_the_ball(self, tmp_path,
                                                        capsys):
        path = tmp_path / "wedge.scenario"
        path.write_text(WEDGE)
        code, out, _ = invoke(capsys, "obstruction", str(path))
        assert code == 3
        assert "verdict: indeterminate" in out
        assert "classes: 11" in out
        assert "reason: dropped-ratio 6/11 exceeds threshold 1/4" in out
        assert "witness u=0 :" in out
        # a rank-two free deck group is boundary dominated at every
        # window, so growing it never rescues the verdict
        code2, out2, _ = invoke(capsys, "obstruction", str(path),
                                "--window", "2")
        assert code2 == 3
        assert "reason: dropped-ratio 18/35 exceeds threshold 1/4" in out2

    def test_empty_family_value(self, cylinder_file, tmp_path, capsys):
        lines = open(cylinder_file).read().splitlines()
        idx = next(i for i, line in enumerate(lines)
                   if line.startswith("family ="))
        lines[idx] = "family ="
        path = tmp_path / "no-family.scenario"
        path.write_text("\n".join(lines) + "\n")
        code, out, err = invoke(capsys, "obstruction", str(path))
        assert code == 1 and out == ""
        assert err == "error: line %d: family line has no value\n" % (idx + 1)

    def test_missing_sections(self, trivial_file, capsys):
        code, _, err = invoke(capsys, "obstruction", trivial_file)
        assert code == 1
        assert "obstruction needs" in err

    def test_report_file_and_determinism(self, cylinder_file, tmp_path,
                                         capsys):
        report = tmp_path / "report.txt"
        code1, out1, _ = invoke(capsys, "obstruction", cylinder_file,
                                "--report", str(report))
        assert code1 == 0
        assert report.read_text() == out1
        code2, out2, _ = invoke(capsys, "obstruction", cylinder_file)
        assert out2 == out1


class TestUsage:
    def test_no_arguments(self, capsys):
        code, _, err = invoke(capsys)
        assert code == 1
        assert "usage" in err.lower()

    def test_unknown_command(self, capsys):
        code, _, err = invoke(capsys, "frobnicate")
        assert code == 1

    def test_help_exits_zero(self, capsys):
        code, out, _ = invoke(capsys, "--help")
        assert code == 0
        assert "check-cocycle" in out

    def test_max_denominator_flag(self, cylinder_file, capsys):
        code, _, err = invoke(capsys, "check-cocycle", cylinder_file,
                              "--max-denominator", "1")
        assert code == 1
        assert "max-denominator" in err
