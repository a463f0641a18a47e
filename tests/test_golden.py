"""CLI report bytes against committed golden reports.

The reports under tests/golden/ were written by the CLI before samples
were interned to indices below the parser.  Each case rebuilds its input
the same way (emitted cylinders, the starved wedge, a cylinder with one
chart-table entry bumped) and requires the report to be byte-identical.
A golden file changes only with an intended change of report format.
"""

from pathlib import Path

import pytest

from toruslift.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    return code, capsys.readouterr().out


def emitted_cylinder(tmp_path, capsys, m, window, s):
    path = tmp_path / "cylinder.scenario"
    code, _ = run(capsys, "cylinder", "--s", s, "--torus-order", m,
                  "--window", window, "--report", path)
    assert code == 0
    return path


def assert_golden(out, name):
    assert out.encode() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("m, window, s, name", [
    (4, 1, "1/4", "cylinder-m4-w1-s1_4.report"),
    (6, 1, "1/6", "cylinder-m6-w1-s1_6.report"),
    (4, 2, "0", "cylinder-m4-w2-s0.report"),
])
def test_cylinder_obstruction(tmp_path, capsys, m, window, s, name):
    path = emitted_cylinder(tmp_path, capsys, m, window, s)
    code, out = run(capsys, "obstruction", path)
    assert code == 0
    assert_golden(out, name)


@pytest.mark.parametrize("window", [1, 2])
def test_starved_window_indeterminate(capsys, window):
    code, out = run(capsys, "obstruction", GOLDEN / "wedge.scenario",
                    "--window", window)
    assert code == 3
    assert_golden(out, "wedge-w%d.report" % window)


def test_bumped_chart_entry(tmp_path, capsys):
    lines = emitted_cylinder(tmp_path, capsys, 4, 1, "1/4") \
        .read_text().splitlines()
    idx = next(i for i, line in enumerate(lines)
               if line.startswith("value = c1 : 1 "))
    head, _, shift = lines[idx].rpartition(" ")
    lines[idx] = head + " " + str((int(shift) + 1) % 4)
    path = tmp_path / "bumped.scenario"
    path.write_text("\n".join(lines) + "\n")
    code, out = run(capsys, "check-lifting-data", path)
    assert code == 2
    assert "chart-lifting c1: 29 violation(s)" in out
    assert_golden(out, "cylinder-m4-bumped-c1.report")
