"""Command-line interface: subcommands, formats, exit codes, byte stability."""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import pathlib
import shlex
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoplan.cli import build_parser, main
from geoplan.cube_sphere import FACES


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGeodesicsCommand:
    def test_torus_antipodal_pair(self, capsys):
        code, out, _ = run_cli(capsys, ["geodesics", "torus:2", "0,0", "1/2,1/2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 4
        assert doc["stratum"] == 3
        assert doc["min_sq_length"] == "1/2"
        assert len(doc["geodesics"]) == 4

    def test_torus_generic_pair(self, capsys):
        code, out, _ = run_cli(capsys, ["geodesics", "torus:3", "0,0,0", "1/10,0.2,3/10"])
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 1
        assert doc["geodesics"][0]["displacement"] == ["1/10", "1/5", "3/10"]

    def test_klein_identical_points(self, capsys):
        code, out, _ = run_cli(capsys, ["geodesics", "klein", "1/4,1/4", "1/4,1/4"])
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 1
        assert doc["min_sq_length"] == "0"

    def test_klein_four_geodesics_carry_deck_tags(self, capsys):
        code, out, _ = run_cli(capsys, ["geodesics", "klein", "1/2,1/2", "0,0"])
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 4
        assert all("deck" in g for g in doc["geodesics"])

    def test_cube_corner_pair(self, capsys):
        code, out, _ = run_cli(capsys, ["geodesics", "cube", "corner:p", "corner:q"])
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 6
        assert doc["min_sq_length"] == "5"
        assert all(g["squared_length"] == "5" for g in doc["geodesics"])

    def test_cube_face_points(self, capsys):
        code, out, _ = run_cli(
            capsys, ["geodesics", "cube", "z-:-1/5,-1/5", "z+:1/5,-1/5"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 4


class TestCutlocusCommand:
    def test_klein_wedge_on_special_circle(self, capsys):
        code, out, _ = run_cli(capsys, ["cutlocus", "klein", "1/2,1/2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["shape"] == "wedge"
        assert [v["multiplicity"] for v in doc["graph"]["vertices"]] == [4]
        assert len(doc["graph"]["edges"]) == 2

    def test_klein_theta_off_special_circle(self, capsys):
        code, out, _ = run_cli(capsys, ["cutlocus", "klein", "1/2,3/10"])
        assert code == 0
        doc = json.loads(out)
        assert doc["shape"] == "theta"
        points = sorted(v["point"] for v in doc["graph"]["vertices"])
        assert points == [["22/25", "4/5"], ["3/25", "4/5"]]
        assert len(doc["graph"]["edges"]) == 3

    def test_torus_wedge(self, capsys):
        code, out, _ = run_cli(capsys, ["cutlocus", "torus:2", "0,0"])
        assert code == 0
        doc = json.loads(out)
        assert doc["graph"]["vertices"] == [
            {"point": ["1/2", "1/2"], "multiplicity": 4}
        ]
        assert len(doc["strata"]) == 3

    def test_torus_higher_dimensional_strata(self, capsys):
        code, out, _ = run_cli(capsys, ["cutlocus", "torus:3", "0,0,0"])
        assert code == 0
        doc = json.loads(out)
        assert doc["graph"] is None
        assert len(doc["strata"]) == 7

    @pytest.mark.parametrize("fmt", ["csv", "svg"])
    def test_impossible_format_refused_before_building(self, capsys, monkeypatch, fmt):
        from geoplan import flat_torus

        def unreachable(x):
            raise AssertionError("the cut locus was built")

        monkeypatch.setattr(flat_torus, "torus_cut_locus", unreachable)
        code, out, err = run_cli(capsys, ["cutlocus", "torus:3", "0,1/2,1/3", "--format", fmt])
        assert code == 2
        assert out == ""
        assert f"{fmt} cut-locus output requires" in err


class TestPlanCommand:
    @pytest.mark.parametrize(
        "argv,domain",
        [
            (["plan", "torus:2", "0,0", "1/2,1/5"], 1),
            (["plan", "torus:2", "0,0", "1/10,1/10"], 0),
            (["plan", "klein", "1/2,1/2", "0,0"], 3),
        ],
    )
    def test_domains(self, capsys, argv, domain):
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert json.loads(out)["domain"] == domain

    def test_planner_section_is_reported(self, capsys):
        code, out, _ = run_cli(capsys, ["plan", "klein", "1/2,1/2", "0,1/4"])
        assert code == 0
        doc = json.loads(out)
        assert doc["rule"] == "right"
        assert doc["geodesic"]["end_lift"] == ["1", "3/4"]


class TestBoundCommand:
    @pytest.mark.parametrize(
        "name,bound", [("circle", 1), ("torus_corner:2", 2), ("cube_corner", 3)]
    )
    def test_builtin_bounds(self, capsys, name, bound):
        code, out, _ = run_cli(capsys, ["bound", f"builtin:{name}"])
        assert code == 0
        doc = json.loads(out)
        assert doc["valid"]
        assert doc["lower_bound"] == bound

    def test_corner_cap_admits_its_own_size(self, capsys, monkeypatch):
        from geoplan import cli

        monkeypatch.setattr(cli, "_MAX_ANSWER_ITEMS", 3**2)
        assert run_cli(capsys, ["bound", "builtin:torus_corner:2"])[0] == 0
        code, _, err = run_cli(capsys, ["bound", "builtin:torus_corner:3"])
        assert code == 2
        assert "builtin:torus_corner:3 has 3^3 elements, more than the cap of 9" in err

    def test_equality_certificate_only_with_flags(self, capsys):
        _, out, _ = run_cli(capsys, ["bound", "builtin:torus_corner:2"])
        assert json.loads(out)["equality"] is True
        _, out, _ = run_cli(capsys, ["bound", "builtin:klein_S4"])
        doc = json.loads(out)
        assert doc["upper_bound_if_trivial"] is None
        assert doc["equality"] is None

    def test_document_round_trip(self, capsys, tmp_path):
        _, out, _ = run_cli(capsys, ["bound", "builtin:circle"])
        # rebuild the same poset through the file interface
        from geoplan.strat_cover import builtin_poset, to_document

        poset, flags = builtin_poset("circle")
        path = tmp_path / "circle.json"
        path.write_text(json.dumps(to_document(poset, flags)))
        code, out2, _ = run_cli(capsys, ["bound", str(path)])
        assert code == 0
        assert json.loads(out2)["lower_bound"] == 1

    def test_malformed_json_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, ["bound", str(path)])
        assert code == 2
        assert "invalid JSON" in err

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, ["bound", str(tmp_path / "absent.json")])
        assert code == 2

    def test_undecodable_file_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe{}")
        code, out, err = run_cli(capsys, ["bound", str(path)])
        assert (code, out) == (2, "")
        assert f"cannot read {path}: " in err

    def test_semantic_violation_fails_with_report(self, capsys, tmp_path):
        doc = {
            "elements": [
                {"id": "a", "level": 1, "sheets": ["s"]},
                {"id": "b", "level": 3, "sheets": ["t"]},
            ],
            "covers": [],
            "flags": {},
        }
        path = tmp_path / "skip.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, ["bound", str(path)])
        assert code == 1
        report = json.loads(out)
        assert not report["valid"]
        assert report["lower_bound"] is None
        assert report["errors"]

    def test_poset_is_validated_once(self, capsys, monkeypatch):
        from geoplan import strat_cover

        calls = []
        validate = strat_cover.validate_poset

        def counting(poset):
            calls.append(poset)
            return validate(poset)

        monkeypatch.setattr(strat_cover, "validate_poset", counting)
        code, out, _ = run_cli(capsys, ["bound", "builtin:torus_corner:3"])
        assert (code, json.loads(out)["equality"]) == (0, True)
        assert len(calls) == 1

    def test_unknown_builtin_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, ["bound", "builtin:mystery"])
        assert code == 2

    @pytest.mark.parametrize(
        "cover_map,flags,level,sheets",
        [
            ([["s", "s"]], {}, 1, ["s"]),
            ({"s": "s"}, ["trivial_coverings"], 1, ["s"]),
            ({"s": "s"}, {"trivial_coverings": "false"}, 1, ["s"]),
            ({"s": "s"}, {}, 1.5, ["s"]),
            ({"s": "s"}, {}, True, ["s"]),
            ({"st": "st"}, {}, 1, "st"),
        ],
        ids=["list-map", "list-flags", "string-flag", "float-level", "bool-level", "string-sheets"],
    )
    def test_wrongly_typed_document_is_usage_error(
        self, capsys, tmp_path, cover_map, flags, level, sheets
    ):
        doc = {
            "elements": [
                {"id": "a", "level": level, "sheets": sheets},
                {"id": "b", "level": 2, "sheets": ["s"]},
            ],
            "covers": [{"src": "a", "dst": "b", "map": cover_map}],
            "flags": flags,
        }
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, ["bound", str(path)])
        assert (code, out) == (2, "")
        assert "malformed poset document" in err

    def test_deeply_nested_json_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        code, _, err = run_cli(capsys, ["bound", str(path)])
        assert code == 2
        assert "invalid JSON" in err


class TestVerifyCommand:
    def test_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "core", "--trials", "20", "--seed", "7"])
        assert code == 0
        assert "pass suite core (seed=7, trials=20)" in out

    def test_bad_trials_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, ["verify", "core", "--trials", "0"])
        assert code == 2

    def test_report_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys, ["verify", "core", "--trials", "10", "--out", str(path)]
        )
        assert code == 0
        report = json.loads(path.read_text())
        assert report[0]["suite"] == "core"
        assert report[0]["passed"] is True

    def test_raising_check_is_a_failed_check(self, capsys, monkeypatch, tmp_path):
        """With the glide planted as a plain shift the monodromy check
        raises and the composition check, whose ``apply`` is the same action
        on scale 1, fails: each prints as a FAIL line, every other check
        still runs and reports, the report file is written and the exit
        code is 1."""
        from geoplan.klein_bottle import DeckElement

        def plain_shift(self, point, scale):
            return (point[0] + self.a * scale, point[1] + self.b * scale)

        monkeypatch.setattr(DeckElement, "apply_scaled", plain_shift)
        path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, ["verify", "klein", "--trials", "5", "--out", str(path)])
        assert code == 1
        lines = out.splitlines()
        assert len(lines) == 9
        assert lines[6].startswith(
            "FAIL klein.monodromy: 1/5 trials (RuntimeError: loop closure failed"
        )
        assert lines[2].startswith("FAIL klein.deck_composition: 1/5 trials (composition law")
        assert [line[:4] for line in lines[:2] + lines[3:6] + lines[7:8]] == ["ok  "] * 6
        assert lines[-1] == "FAIL suite klein (seed=0, trials=5)"
        report = json.loads(path.read_text())
        assert [c["failures"] for c in report[0]["checks"]] == [0, 0, 1, 0, 0, 0, 1, 0]

    def test_value_error_in_a_check_exits_one(self, capsys, monkeypatch):
        """A ``ValueError`` from inside a check is a failed check, not a
        usage error."""
        from geoplan import metric_core

        def planted(*args):
            raise ValueError("planted")

        monkeypatch.setattr(metric_core, "sup_distance_sq", planted)
        code, out, err = run_cli(capsys, ["verify", "core", "--trials", "5"])
        assert code == 1
        assert "FAIL core.sup_distance: 1/2 trials (ValueError: planted)" in out.splitlines()
        assert err == ""


class TestFormatsAndStability:
    def test_json_output_is_byte_stable(self, capsys):
        argv = ["geodesics", "klein", "1/2,1/2", "0,1/4"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second

    def test_svg_output_is_byte_stable(self, capsys):
        argv = ["cutlocus", "klein", "1/2,3/10", "--format", "svg"]
        code, first, _ = run_cli(capsys, argv)
        assert code == 0
        assert first.startswith('<?xml version="1.0"')
        assert 'class="domain"' in first
        assert 'class="cut"' in first
        _, second, _ = run_cli(capsys, argv)
        assert first == second

    def test_svg_geodesics_draw_paths(self, capsys):
        code, out, _ = run_cli(
            capsys, ["geodesics", "torus:2", "0,0", "1/2,1/2", "--format", "svg"]
        )
        assert code == 0
        assert out.count('class="path"') == 4

    def test_svg_cube_unfolds_faces(self, capsys):
        code, out, _ = run_cli(
            capsys, ["geodesics", "cube", "corner:p", "corner:q", "--format", "svg"]
        )
        assert code == 0
        assert 'class="face"' in out

    def test_csv_single_query_row(self, capsys):
        code, out, _ = run_cli(
            capsys, ["geodesics", "cube", "corner:p", "corner:q", "--format", "csv"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,y,stratum,count,min_sq_length"
        assert lines[1].endswith("6,6,5")

    def test_csv_cutlocus_samples_edges(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["cutlocus", "torus:2", "0,0", "--format", "csv"],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,y,stratum,count,min_sq_length"
        assert '"0,0","1/2,1/2",3,4,1/2' in lines
        # the six interior samples of each wedge loop carry two geodesics
        assert sum(1 for line in lines[1:] if ",2,2," in line) == 12

    @pytest.mark.parametrize(
        "space, x",
        [
            ("torus:1", "1/3"),
            ("torus:2", "1/5,2/7"),
            ("torus:2", "0,0"),
            ("klein", "1/2,3/10"),
            ("klein", "1/2,1/2"),
            ("klein", "0,1/7"),
        ],
    )
    def test_csv_cutlocus_rows_match_geodesics_rows(self, capsys, space, x):
        """Each cut-locus csv row is the geodesics csv row of its point."""
        code, out, _ = run_cli(capsys, ["cutlocus", space, x, "--format", "csv"])
        assert code == 0
        header, *rows = out.splitlines()
        assert rows
        for row in rows:
            y = next(csv.reader([row]))[1]
            code, single, _ = run_cli(capsys, ["geodesics", space, x, y, "--format", "csv"])
            assert code == 0
            assert single.splitlines() == [header, row]

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        argv = ["geodesics", "torus:2", "0,0", "1/2,1/2"]
        _, stdout_text, _ = run_cli(capsys, argv)
        path = tmp_path / "artifact.json"
        code, out, _ = run_cli(capsys, argv + ["--out", str(path)])
        assert code == 0
        assert out == ""
        assert path.read_text() == stdout_text


def run_quiet(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


#: Coordinate-like text: rational syntax with exponents, separators and
#: stray characters, plus arbitrary short unicode text.
COORD_TEXT = st.text(alphabet="0123456789/.,-+ :_xeE", max_size=12) | st.text(max_size=8)

SAFE = {"torus:1": "1/3", "torus:2": "1/3,1/4", "klein": "1/3,1/4", "cube": "z+:0,0"}


def _point_text(space: str, data, text: str) -> str:
    if space != "cube":
        return text
    return data.draw(st.sampled_from(FACES)) + ":" + text


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["geodesics", "mobius", "0,0", "1,1"],
            ["geodesics", "torus:0", "0", "0"],
            ["geodesics", "torus:2", "0,0", "1/2"],
            ["geodesics", "torus:2", "0,0", "a,b"],
            ["geodesics", "cube", "w+:0,0", "z+:0,0"],
            ["geodesics", "cube", "z-:0,0", "z+:3/4,0"],
            ["geodesics", "torus:3", "0,0,0", "1/2,0,0", "--format", "svg"],
            ["cutlocus", "cube", "corner:p"],
            ["plan", "cube", "corner:p", "corner:q"],
            ["bound", "builtin:torus_corner:0"],
            ["cutlocus", "torus:1", "1/3", "--format", "svg"],
            ["bound", "builtin:torus_corner(3)"],
            ["geodesics", "torus:\u00b2", "0", "0"],
            ["bound", "builtin:torus_corner:\u00b2"],
            ["geodesics", "torus:" + "1" * 5000, "0", "0"],
            ["bound", "builtin:torus_corner:" + "1" * 5000],
            ["geodesics", "torus:15", ",".join(["0"] * 15), ",".join(["1/2"] * 15)],
            ["cutlocus", "torus:15", ",".join(["0"] * 15)],
            ["geodesics", "cube", "z-:2,0", "z+:0,0"],
        ],
    )
    def test_exit_code_two(self, capsys, argv):
        code, _, err = run_cli(capsys, argv)
        assert code == 2
        if argv[-1].startswith("builtin:torus_corner:1"):
            # refused before ``int``, which would fail on its digit limit
            assert "invalid torus dimension" in err
        if argv[1] == "torus:15":
            assert "has 2^15" in err
            assert "cap of 19683" in err
        if argv[2:3] == ["z-:2,0"]:
            # the point is named as p/q text, as in every other message
            assert "point 2,0,-1/2 is not on the cube surface" in err

    @settings(max_examples=200, deadline=None)
    @given(suffix=st.text(alphabet="0123456789\u00b2\u2070\u0663 -+", max_size=4) | st.text())
    def test_torus_dimension_text_never_fails_with_one(self, suffix):
        """Any dimension text is answered (0) or refused as usage (2),
        including superscript digits such as ``\u00b2``, which ``int``
        refuses."""
        assert run_quiet(["geodesics", "torus:" + suffix, "0", "0"]) in (0, 2)

    @pytest.mark.parametrize(
        "argv",
        [["geodesics", "torus:1", "0", "0"], ["verify", "core", "--trials", "1"]],
    )
    def test_unwritable_out_is_usage_error(self, capsys, tmp_path, argv):
        """A directory as ``--out`` is refused as usage, not with exit 1,
        which ``verify`` uses for a failed check."""
        code, _, err = run_cli(capsys, argv + ["--out", str(tmp_path)])
        assert code == 2
        assert f"cannot write {tmp_path}" in err

    @settings(max_examples=200, deadline=None)
    @given(space=st.sampled_from(["torus:1", "torus:2", "klein", "cube"]), data=st.data())
    def test_coordinate_text_never_fails_with_one(self, space, data):
        """Any coordinate text is answered (0) or refused as usage (2),
        including exponents beyond the size bound such as ``1e99999999``."""
        text = data.draw(COORD_TEXT)
        argv = ["geodesics", space, _point_text(space, data, text), SAFE[space]]
        assert run_quiet(argv) in (0, 2)

    @settings(max_examples=200, deadline=None)
    @given(space=st.sampled_from(["torus:1", "torus:2", "klein", "cube"]), data=st.data())
    def test_garbage_coordinate_text_is_usage_error(self, space, data):
        text = data.draw(COORD_TEXT)
        cut = data.draw(st.integers(0, len(text)))
        garbage = text[:cut] + data.draw(st.sampled_from("#;!?@q")) + text[cut:]
        argv = ["geodesics", space, SAFE[space], _point_text(space, data, garbage)]
        assert run_quiet(argv) == 2

    @pytest.mark.parametrize(
        "text,code",
        [("1e1000", 0), ("2.5E-1000", 0), ("1e+0001000", 0), ("1_0e1_0_00", 0),
         ("1e1001", 0), ("1E-1001", 0), ("1e1049", 0), ("1e1050", 2), ("1E-1050", 2),
         ("1e+00099999999999", 2)],
    )
    def test_exponent_cap(self, capsys, text, code):
        """The exponent counts toward the size bound and has no cap of its own."""
        got, _, err = run_cli(capsys, ["geodesics", "torus:1", text, "0"])
        assert got == code
        if code == 2:
            assert "exceeds the bound of 1050" in err

    @pytest.mark.parametrize(
        "text,code",
        [("1/" + "7" * 1049, 0), ("1/" + "7" * 1050, 2), ("1/" + "7" * 2200, 2),
         ("1." + "3" * 49 + "e-1000", 0), ("1." + "3" * 50 + "e-1000", 2),
         ("0." + "3" * 1049, 0), ("-0." + "3" * 1050, 2)],
    )
    def test_size_bound(self, capsys, text, code):
        """Written digits plus the decimal exponent may be at most 1050; a
        longer ``p/q`` used to end in a traceback on output."""
        got, _, err = run_cli(capsys, ["geodesics", "torus:1", text, "0"])
        assert got == code
        if code == 2:
            assert "exceeds the bound of 1050" in err

    def test_size_bound_holds_for_the_widest_output(self, capsys):
        """A klein cut-locus csv prints products of four denominators: at the
        bound it is still answered."""
        coordinate = "1/" + "7" * 1049
        code, out, _ = run_cli(
            capsys, ["cutlocus", "klein", f"{coordinate},{coordinate}", "--format", "csv"]
        )
        assert code == 0
        assert out.startswith("x,y,stratum,count,min_sq_length\n")

    def test_huge_exponent_exits_fast(self):
        """At 20 million digits ``Fraction`` alone would take seconds; the
        size bound refuses the text before any integer is built."""
        proc = subprocess.run(
            [sys.executable, "-m", "geoplan.cli", "geodesics", "torus:1", "1e20000000", "0"],
            capture_output=True,
            text=True,
            timeout=10,
        )
        assert proc.returncode == 2
        assert "exponent 20000000" in proc.stderr
        assert "bound of 1050" in proc.stderr

    def test_oversized_corner_poset_exits_fast(self):
        """3^40 elements are refused from the dimension alone, before any
        element is built."""
        proc = subprocess.run(
            [sys.executable, "-m", "geoplan.cli", "bound", "builtin:torus_corner:40"],
            capture_output=True,
            text=True,
            timeout=5,
        )
        assert proc.returncode == 2
        assert "3^40 elements" in proc.stderr
        assert "cap of 19683" in proc.stderr

    @pytest.mark.parametrize("command", ["geodesics", "cutlocus"])
    def test_oversized_torus_answer_exits_fast(self, command):
        """2^40 geodesics, or 2^40 - 1 cut strata, are refused from their
        count alone, before any of them is built."""
        argv = [command, "torus:40", ",".join(["0"] * 40)]
        if command == "geodesics":
            argv.append(",".join(["1/2"] * 40))
        proc = subprocess.run(
            [sys.executable, "-m", "geoplan.cli", *argv],
            capture_output=True,
            text=True,
            timeout=5,
        )
        assert proc.returncode == 2
        assert "2^40" in proc.stderr
        assert "cap of 19683" in proc.stderr

    @pytest.mark.parametrize(
        "cap,admitted,refused",
        [
            # 2^3 geodesics (three opposite coordinates), then 2^4
            (2**3, ["geodesics", "torus:4", "0,0,0,0", "1/2,1/2,1/2,1/3"],
             ["geodesics", "torus:4", "0,0,0,0", "1/2,1/2,1/2,1/2"]),
            # 2^3 - 1 cut strata (torus:3), then 2^4 - 1
            (2**3 - 1, ["cutlocus", "torus:3", "0,0,0"], ["cutlocus", "torus:4", "0,0,0,0"]),
        ],
    )
    def test_torus_cap_admits_its_own_size(self, capsys, monkeypatch, cap, admitted, refused):
        from geoplan import cli

        monkeypatch.setattr(cli, "_MAX_ANSWER_ITEMS", cap)
        assert run_cli(capsys, admitted)[0] == 0
        code, _, err = run_cli(capsys, refused)
        assert code == 2
        assert f"has 2^4{' - 1' if refused[0] == 'cutlocus' else ''}" in err
        assert f"more than the cap of {cap}" in err

    def test_unknown_subcommand(self, capsys):
        assert main(["transmogrify"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_each_subcommand_has_exactly_its_options(self):
        (commands,) = (
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        options = {
            name: {
                s
                for a in sub._actions
                if not isinstance(a, argparse._HelpAction)
                for s in a.option_strings
            }
            for name, sub in commands.choices.items()
        }
        assert options == {
            "geodesics": {"--out", "--format"},
            "cutlocus": {"--out", "--format"},
            "plan": {"--out"},
            "bound": {"--out"},
            "verify": {"--trials", "--seed", "--out"},
        }


# Exit code and sha256 of stdout for each command x space x format and for
# the usage errors.  No subcommand has a ``--resolution`` option: the cutlocus
# csv samples each edge at a fixed 8 points, and the ``--resolution`` rows pin
# the option's removal.
# Any byte change in an artifact fails here: re-record a digest only for an
# intended change of output.
EMPTY = hashlib.sha256(b"").hexdigest()
GOLDEN = [
    ("geodesics torus:1 1/3 5/6", 0,
     "f1d957450e52ab9f87d71eb2d4ab094909b5418ca7eb656aedcade99234da868"),
    ("geodesics torus:1 1/3 5/6 --format csv", 0,
     "bd5c8aafb0801f150d9dcbc50b15023f1f7bfa9ad910eb8a08abf7a519db6d02"),
    ("geodesics torus:1 1/3 5/6 --format svg", 2, EMPTY),
    ("geodesics torus:1 0 1/5", 0,
     "8a39db9b0e1724717f1be5fc1c540250acbe7e4fa6d53bff80792857d62e7bc1"),
    ("geodesics torus:2 0,0 1/2,1/2", 0,
     "c2318d55192ec9329a8f7efafe4d4eadb0f3d031a1ddcb0c424d8a472b26fa21"),
    ("geodesics torus:2 0,0 1/2,1/2 --format csv", 0,
     "ea92d2523dca3484a27565a12f1309000656223e7752283509d10f7d1c92871b"),
    ("geodesics torus:2 0,0 1/2,1/2 --format svg", 0,
     "d26c6bf08db0e4a904f4bc9aa5cfaf3ce5e505f47a77f968a70ac0ccc7a4cecc"),
    ("geodesics torus:2 0,0 1/2,1/2 --format svg --resolution 2", 2, EMPTY),
    ("geodesics torus:2 1/7,2/9 3/5,5/7", 0,
     "6bb7703ffdac045c9dee127b5d6f8e6d42d0a479e3b56bb0f12d27cef99fe100"),
    ("geodesics torus:3 0,0,0 1/2,1/3,1/2", 0,
     "d5a970f5164c4a158c94cb5b9cb453bfa563ec48f7faee0b3e06c74c2a1d4ead"),
    ("geodesics torus:3 0,0,0 1/2,1/3,1/2 --format csv", 0,
     "3a5bc524c407c0704ae6e3edd1a5b73b8244ca066bf5874ff959f4f5eef1cae0"),
    ("geodesics torus:3 0,0,0 1/2,1/3,1/2 --format svg", 2, EMPTY),
    ("geodesics klein 1/2,1/2 0,0", 0,
     "4e5323daba7c44ff785597e3226546c982d5c19920db8485be77d9de88029148"),
    ("geodesics klein 1/2,1/2 0,0 --format csv", 0,
     "eb7e2bb6b31ee74219c0167788d01d5e4da88542a419fdaed6f4228c2f17ca36"),
    ("geodesics klein 1/2,1/2 0,0 --format svg", 0,
     "3cb87828bdcab2d17d9f9fc6c1c8e921dfe1f49c13209ce72e67cfd86619d472"),
    ("geodesics klein 1/2,1/2 0,0 --format svg --resolution 2", 2, EMPTY),
    ("geodesics klein 1/7,2/9 3/5,5/7", 0,
     "6ade873793740dce3a46be3c1f5beee8c87e2d2ce90688ba798c1724eaf10ee7"),
    ("geodesics klein 1/7,2/9 3/5,5/7 --format csv", 0,
     "5589258ac41405257f087f17ebb319df167737468eb66c67c58ad5fbb2c914b6"),
    ("geodesics klein 1/4,1/4 1/4,1/4", 0,
     "a0b14916b1123fd934ddb5d2fc9cc076d72cc881f15d3e5352cf8b6195080145"),
    ("geodesics cube corner:p corner:q", 0,
     "8eeb61f8d362247fa5868f9306980c746bf8dd3d96797bfb0422fd2e78299cfd"),
    ("geodesics cube corner:p corner:q --format csv", 0,
     "62c7ebdf7978bc15696966ac1dcb8f4904a9515eacefba5de10654d50613f109"),
    ("geodesics cube corner:p corner:q --format svg", 0,
     "0e315ff68f8635947aaea1b511173dbc5cfde1c14c273edc8fb1fb07cd9706be"),
    ("geodesics cube corner:p corner:q --format svg --resolution 2", 2, EMPTY),
    ("geodesics cube z-:-1/5,-1/5 z+:1/5,-1/5", 0,
     "8fa84d9b7e5f1884ee56b6c3cf5e8519c77bbdd7abb3a976ee18945a1da02f4e"),
    ("geodesics cube z-:-1/5,-1/5 z+:1/5,-1/5 --format csv", 0,
     "070bc27e3c0325480bf9105ed8d2d7b33f826112fbe569a65e17456079bae5a3"),
    ("geodesics cube z-:-1/5,-1/5 z+:1/5,-1/5 --format svg", 0,
     "0ee345d5d931574228a0ea9aada2d96daf06550ab88dd8647dcfa847e8562069"),
    ("geodesics cube x+:0,1/2 y-:1/3,-1/2", 0,
     "4620fa2c588f25a48fd2e76a9441b69326d330b00cb9446ca0ed5b4838a40c7a"),
    ("cutlocus torus:1 1/3", 0,
     "496f6dc70a78d4deacd5d00be324ede1ad9b505459bebc1367a03f4a69fe3825"),
    ("cutlocus torus:1 1/3 --format csv", 0,
     "bd5c8aafb0801f150d9dcbc50b15023f1f7bfa9ad910eb8a08abf7a519db6d02"),
    ("cutlocus torus:1 1/3 --format csv --resolution 2", 2, EMPTY),
    ("cutlocus torus:1 1/3 --format svg", 2, EMPTY),
    ("cutlocus torus:2 1/5,2/7", 0,
     "80e355020f751634a5c268ce409c7d3f531d6cebceae004a672493126ed4b4b6"),
    ("cutlocus torus:2 1/5,2/7 --format csv", 0,
     "3c468171b6ec6ad77ddcdb23baf14ed27fdb76e6f0a3b4ea68fd6e05096c1c73"),
    ("cutlocus torus:2 1/5,2/7 --format csv --resolution 2", 2, EMPTY),
    ("cutlocus torus:2 1/5,2/7 --format csv --resolution 8", 2, EMPTY),
    ("cutlocus torus:2 1/5,2/7 --format svg", 0,
     "f0157c71f8aa63c2d9b57a7f6d0737a442df64df927d5b3334f8d27d00673d14"),
    ("cutlocus torus:2 1/5,2/7 --format svg --resolution 2", 2, EMPTY),
    ("cutlocus torus:3 0,1/2,1/3", 0,
     "07ef2039d5f8b7ff972244ceb6a95aa0a1e5b64682dccc7dd890f5dbd39e5ad0"),
    ("cutlocus torus:3 0,1/2,1/3 --format csv", 2, EMPTY),
    ("cutlocus torus:3 0,1/2,1/3 --format svg", 2, EMPTY),
    ("cutlocus klein 1/2,1/2", 0,
     "bf275ea871d08a4d27ef469ede9c48c0d7dc39455ae43e50a76b44ef67138b1a"),
    ("cutlocus klein 1/2,1/2 --format csv", 0,
     "523f5d5758f4fc27e9188f4dfefbcad5f9546bb4c41bc532735155f8e35925c8"),
    ("cutlocus klein 1/2,1/2 --format csv --resolution 2", 2, EMPTY),
    ("cutlocus klein 1/2,1/2 --format svg", 0,
     "069ef67f25292974dee8fb702175aff27ddeb71181ad86c5e8485e3148931c0d"),
    ("cutlocus klein 1/2,1/2 --format svg --resolution 2", 2, EMPTY),
    ("cutlocus klein 1/2,3/10", 0,
     "46faad965cc0b53e6e513d5b253913570142e5a22a09ec3683a0d38abc5274b6"),
    ("cutlocus klein 1/2,3/10 --format csv", 0,
     "8fbf6051f1376bc45e54744b09d9de0e71c07c3fba7a28ad515fa429d826f268"),
    ("cutlocus klein 1/2,3/10 --format csv --resolution 2", 2, EMPTY),
    ("cutlocus klein 1/2,3/10 --format svg", 0,
     "0de5488d2d761f87ae745997db045339933633597e0c7d96ec31df4d618f9ad6"),
    ("cutlocus klein 1/3,0", 0,
     "8833c02d1c60d7fb6ee5abc9cc75e3a381445af7a0cb0a63715e202b518d2bcb"),
    ("cutlocus cube corner:p", 2, EMPTY),
    ("cutlocus cube corner:p --format csv", 2, EMPTY),
    ("plan torus:1 0 1/2", 0, "61304b04ac4ed22890fa5c8025ae2f299c2e13bb6b0c0bdbbfd2691a67661652"),
    ("plan torus:2 0,0 1/2,1/5", 0,
     "a2fe9884554d53bc107f43ccc5e30be15ccef465d2c31f5084e3bd60e1307ff9"),
    ("plan torus:2 0,0 1/10,1/10", 0,
     "25cca86d08d0a452d71e737a077cc9086ccdae7befd4534187de49bf809020f4"),
    ("plan torus:3 0,0,0 1/2,1/2,1/2", 0,
     "5c9a0f5431400607efb067aa41dbeaf2d48cef263cccef31aebc37bcc21f03ef"),
    ("plan klein 1/2,1/2 0,1/4", 0,
     "0811a15ba9e6ea32d09828e03fe8deda4223b765107179e8ba2e2d9564b8c3e7"),
    ("plan klein 1/2,1/2 0,0", 0,
     "4d028bb126aa2976ae84386c36a573611a45310a891fcc5f64d6083721c585bc"),
    ("plan klein 1/7,2/9 3/5,5/7", 0,
     "457743de22b46fdeb74ad8d818c31a43880d551b1694eaec700a0796b9b92312"),
    # One row per Klein planner rule and domain: "up" off and on the circle
    # x1 = 0, "minority_side" off and on it, "up_right" on it.
    ("plan klein 1/7,2/9 12/35,13/18", 0,
     "af3c707c239d20bac8a2bbed18b7eab6999396f7475c18f8115db410b566f514"),
    ("plan klein 0,3/10 3/25,4/5", 0,
     "d6c6ed060b02f0c3df718cf11c1ded1b664db6d741e37ccf034bafe5e6b92b68"),
    ("plan klein 1/2,3/10 3/25,4/5", 0,
     "e6ba49048ab8eddf434c6fdb6d764d335ce4a519352871f667eba7c8e9610536"),
    ("plan klein 0,3/10 19/50,4/5", 0,
     "e7536bb7a584ab6beb8178b4da8dca8628ab983f0fabe75b2e95f1e54b3cc4ab"),
    ("plan klein 0,0 1/2,1/2", 0,
     "b53b4a40ba8885fadc4d5b7cf0b921267864e14636704e26b5e52531bc63c63b"),
    ("plan cube corner:p corner:q", 2, EMPTY),
    ("geodesics mobius 0,0 1,1", 2, EMPTY),
    ("geodesics torus:0 0 0", 2, EMPTY),
    ("geodesics torus:x 0 0", 2, EMPTY),
    ("geodesics torus:2 0,0 1/2", 2, EMPTY),
    ("geodesics torus:2 0,0 a,b", 2, EMPTY),
    ("geodesics torus:2 0,0 1/0,0", 2, EMPTY),
    ("geodesics klein 0,0 1/2", 2, EMPTY),
    ("geodesics cube w+:0,0 z+:0,0", 2, EMPTY),
    ("geodesics cube z-:0,0 z+:3/4,0", 2, EMPTY),
    ("geodesics cube z-:0 z+:0,0", 2, EMPTY),
    ("geodesics klein 0,0 1/2,1/2 --resolution 1", 2, EMPTY),
    ("cutlocus klein 1/2,1/2 --format svg --resolution 1", 2, EMPTY),
    ("cutlocus klein 1/2,1/2 --format png", 2, EMPTY),
    ("plan klein 0,0 0", 2, EMPTY),
    ("plan torus:2 0,0 1/2,1/2 --format json", 2, EMPTY),
    ("geodesics torus:1 1/3 5/6 --resolution -3", 2, EMPTY),
    ("cutlocus torus:1 0 --format csv --resolution 19684", 2, EMPTY),
    ("cutlocus klein 1/3,1/7 --format csv --resolution 19684", 2, EMPTY),
    ("geodesics cube corner:p corner:q --format svg --resolution 19684", 2, EMPTY),
    # Negative coordinates, with the digests of the ``--`` form.
    ("geodesics torus:1 -1/2 0", 0,
     "58414bc8b506405943ec02b7c85a8e7c18970bf23f74317f39e3773a894cb8ba"),
    ("geodesics torus:1 -- -1/2 0", 0,
     "58414bc8b506405943ec02b7c85a8e7c18970bf23f74317f39e3773a894cb8ba"),
    ("geodesics torus:2 -0.5,0 0,0", 0,
     "6a08fe06111616ded555fada5ac077e527b574f8c727c3419062c4c5ba577ed1"),
    ("geodesics torus:2 -- -0.5,0 0,0", 0,
     "6a08fe06111616ded555fada5ac077e527b574f8c727c3419062c4c5ba577ed1"),
    ("plan klein -.25,-1/3 0,0", 0,
     "607fcfcfd943eaaf5ac519fa092e2334e66f5483804048d7780bbf200dd017e0"),
    ("cutlocus klein -1/3,-0.2 --format csv", 0,
     "884b4533a09f374d001dd0d9dd426b34c1dceb7290f877563b86900066b5edde"),
    ("bound builtin:circle", 0,
     "35a6cd0ae23b1ad196e11ef304b6f751b80dcbe833906f936ddd148590315a86"),
    ("bound builtin:klein_S4", 0,
     "e5b48c374a1a7dfd8c81223c85d5293a5dd3581ee37222bb8761bd5b38d451ed"),
    ("bound builtin:cube_corner", 0,
     "2d9b36c09a9d506194c98081e36bcca908eea4708070ec5fd3916024c15e0cd0"),
    ("bound builtin:torus_corner:1", 0,
     "78eb45330b33f22092c63ef8c0a110e10069f3bb81cb747c654b854457bacf56"),
    ("bound builtin:torus_corner:4", 0,
     "d356c51088b201d714ccece2657ad417dc2f510e743b1976d71f1e9560b55d4b"),
    ("bound builtin:torus_corner:9", 0,
     "02019857a0b7507c032e969f1bb2eaf9411cf900cd050f0d98e3cb8100d2dd7e"),
    ("bound builtin:torus_corner:10", 2, EMPTY),
    ("geodesics torus:15 " + ",".join(["0"] * 15) + " " + ",".join(["1/2"] * 15), 2, EMPTY),
    ("geodesics torus:15 " + ",".join(["0"] * 15) + " " + ",".join(["1/2"] * 15)
     + " --format csv", 2, EMPTY),
    ("cutlocus torus:15 " + ",".join(["0"] * 15), 2, EMPTY),
    ("verify all --trials 5 --seed 7", 0,
     "6243a45fa57a481d663ce604c032350f682dc4e02aa585c86e7c95e59739e503"),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN, ids=[argv for argv, _, _ in GOLDEN])
def test_golden_output(capsys, argv, code, digest):
    got, out, _ = run_cli(capsys, argv.split())
    assert (got, hashlib.sha256(out.encode("utf-8")).hexdigest()) == (code, digest)


def test_golden_verify_report_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys, ["verify", "all", "--trials", "5", "--seed", "7", "--out", str(path)]
    )
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "de08f1650c8ba9516a174751f42faa12895a1f8c07df018cc2dd2e855b5f5c43"
    )


def _readme_commands() -> list[str]:
    """The ``geodesics``, ``cutlocus``, ``plan`` and ``bound builtin:`` lines
    of the README's "Command line" block."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    prefixes = tuple(
        f"geoplan {c}" for c in ("geodesics", "cutlocus", "plan", "bound builtin:")
    )
    return [line for line in block.splitlines() if line.startswith(prefixes)]


def test_readme_has_command_examples():
    assert len(_readme_commands()) >= 8


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_command_runs(capsys, line):
    code, _, err = run_cli(capsys, shlex.split(line)[1:])
    assert code == 0, err


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "geoplan.cli", "bound", "builtin:circle"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["lower_bound"] == 1


#: The geoplan modules each command loads, beyond ``cli`` and ``render``.
TORUS_LAYERS = ["cutgraph", "flat_torus", "metric_core"]
LOADED = [
    (["geodesics", "torus:2", "0,0", "1/2,1/3"], TORUS_LAYERS),
    (["geodesics", "klein", "1/7,2/9", "3/5,5/7"], TORUS_LAYERS + ["klein_bottle"]),
    (["geodesics", "cube", "corner:p", "corner:q"], ["cube_sphere", "metric_core"]),
    (["bound", "builtin:circle"], ["strat_cover"]),
    (["verify", "core", "--trials", "2"], ["metric_core", "strat_cover", "verify"]),
    (["verify", "torus", "--trials", "2"], TORUS_LAYERS + ["strat_cover", "verify"]),
    (["verify", "klein", "--trials", "2"], TORUS_LAYERS + ["klein_bottle", "verify"]),
    (["verify", "cube", "--trials", "2"], ["cube_sphere", "metric_core", "strat_cover", "verify"]),
    (["--help"], []),
]


#: Standard modules no command may load: ``dataclasses`` costs about 11 ms to
#: import, ``inspect`` included, and about 1 ms per decorated class.
SLOW_STDLIB = ["dataclasses", "inspect"]


@pytest.mark.parametrize("argv,layers", LOADED, ids=[" ".join(a) for a, _ in LOADED])
def test_command_loads_only_its_layers(argv, layers):
    code = (
        "import sys\n"
        "startup = set(sys.modules)\n"
        "import contextlib, io, json\n"
        "import geoplan.cli\n"
        "imported = sorted(m for m in sys.modules if m.startswith('geoplan.'))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    exit_code = geoplan.cli.main(sys.argv[1:])\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('geoplan.'))\n"
        "new = sorted(set(sys.modules) - startup)\n"
        "print(json.dumps([imported, exit_code, loaded, new]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    imported, exit_code, loaded, new = json.loads(proc.stdout)
    assert imported == ["geoplan.cli", "geoplan.render"]
    assert exit_code == 0
    assert loaded == sorted(f"geoplan.{m}" for m in ["cli", "render", *layers])
    assert not set(SLOW_STDLIB) & set(new)


def test_import_leaves_verify_and_numpy_unloaded():
    # The json package too: render takes its one quoting function from _json.
    code = (
        "import sys; startup = set(sys.modules); import geoplan.cli; "
        "print(sorted(m for m in ('geoplan.verify', 'numpy', 'json') if m in sys.modules)"
        " + sorted(m for m in sys.argv[1:] if m in set(sys.modules) - startup))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *SLOW_STDLIB], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_builtin_bound_leaves_the_json_decoder_unloaded(tmp_path):
    # Only ``loads_document`` needs json's decoder; the probe itself does not
    # import json, and a document file still loads.
    from geoplan.render import dump_json
    from geoplan.strat_cover import builtin_poset, to_document

    doc = tmp_path / "circle.json"
    doc.write_text(dump_json(to_document(*builtin_poset("circle"))))
    code = (
        "import contextlib, io, sys\n"
        "import geoplan.cli\n"
        "codes = []\n"
        "for argv in (['bound', 'builtin:circle'], ['verify', 'core', '--trials', '5']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(geoplan.cli.main(argv))\n"
        "before = 'json.decoder' in sys.modules\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    codes.append(geoplan.cli.main(['bound', sys.argv[1]]))\n"
        "print(codes, before, 'json.decoder' in sys.modules, '\"lower_bound\": 1' in out.getvalue())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(doc)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[0,", "0,", "0]", "False", "True", "True"]
