"""Command-line interface: subcommands, formats, exit codes, byte stability."""

import json
import subprocess
import sys

import pytest

from geoplan.cli import main


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

    def test_unknown_builtin_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, ["bound", "builtin:mystery"])
        assert code == 2


class TestVerifyCommand:
    def test_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "core", "--trials", "20", "--seed", "7"])
        assert code == 0
        assert "pass suite core (seed=7, trials=20)" in out

    def test_env_seed_is_used(self, capsys, monkeypatch):
        monkeypatch.setenv("GEOPLAN_SEED", "99")
        code, out, _ = run_cli(capsys, ["verify", "core", "--trials", "10"])
        assert code == 0
        assert "seed=99" in out

    def test_explicit_seed_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("GEOPLAN_SEED", "99")
        code, out, _ = run_cli(capsys, ["verify", "core", "--trials", "10", "--seed", "3"])
        assert code == 0
        assert "seed=3" in out

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


class TestFormatsAndStability:
    def test_json_output_is_byte_stable(self, capsys):
        argv = ["geodesics", "klein", "1/2,1/2", "0,1/4"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second

    def test_svg_output_is_byte_stable(self, capsys):
        argv = ["cutlocus", "klein", "1/2,3/10", "--format", "svg", "--resolution", "5"]
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
            ["cutlocus", "torus:2", "0,0", "--format", "csv", "--resolution", "4"],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,y,stratum,count,min_sq_length"
        assert '"0,0","1/2,1/2",4,4,1/2' in lines
        # interior samples of both wedge loops carry two geodesics
        assert sum(1 for line in lines[1:] if ",2,2," in line) == 4

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        argv = ["geodesics", "torus:2", "0,0", "1/2,1/2"]
        _, stdout_text, _ = run_cli(capsys, argv)
        path = tmp_path / "artifact.json"
        code, out, _ = run_cli(capsys, argv + ["--out", str(path)])
        assert code == 0
        assert out == ""
        assert path.read_text() == stdout_text

    def test_resolution_below_two_rejected(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["cutlocus", "klein", "1/2,1/2", "--format", "svg", "--resolution", "1"],
        )
        assert code == 2


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
        ],
    )
    def test_exit_code_two(self, capsys, argv):
        code, _, err = run_cli(capsys, argv)
        assert code == 2

    def test_unknown_subcommand(self, capsys):
        assert main(["transmogrify"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "geoplan.cli", "bound", "builtin:circle"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["lower_bound"] == 1


def test_import_leaves_verify_and_numpy_unloaded():
    code = (
        "import sys, geoplan.cli; "
        "print(sorted(m for m in ('geoplan.verify', 'numpy') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
