"""Command-line interface: subcommand behaviour, exit codes, determinism."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"

NEST = {"curves": [
    {"id": "u", "vertices": [[0, 0], [0, 4], [6, 4]]},
    {"id": "s", "vertices": [[3, 0], [3, 5]]},
    {"id": "v", "vertices": [[6, 0], [6, 3], [-1, 3]]},
]}

BAD_FAMILY = {"curves": [
    {"id": "a", "vertices": [[0, 0], [3, 3]]},
    {"id": "b", "vertices": [[0, 0], [1, 2]]},
]}


def run_cli(*args, env=None):
    cmd = [sys.executable, "-m", "outerstring.cli", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


@pytest.fixture
def nest_path(tmp_path):
    p = tmp_path / "nest.json"
    p.write_text(json.dumps(NEST))
    return str(p)


class TestValidate:
    def test_valid_exit_zero(self, nest_path):
        result = run_cli("validate", nest_path)
        assert result.returncode == 0
        assert json.loads(result.stdout)["valid"] is True

    def test_invalid_exit_one(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(BAD_FAMILY))
        result = run_cli("validate", str(p))
        assert result.returncode == 1
        data = json.loads(result.stdout)
        assert data["valid"] is False and data["violations"]

    def test_malformed_json_reports_position(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{"curves": [,]}')
        result = run_cli("validate", str(p))
        assert result.returncode == 1
        assert "line" in result.stderr and "column" in result.stderr

    def test_bad_usage_exit_two(self):
        result = run_cli("frobnicate")
        assert result.returncode == 2


class TestStats:
    def test_nest_values(self, nest_path):
        result = run_cli("stats", nest_path)
        data = json.loads(result.stdout)
        assert (data["n"], data["omega"], data["chi"]) == (3, 3, 3)

    def test_matches_library(self, nest_path):
        from outerstring.geom import load_family
        from outerstring.graph import chromatic_number, clique_number, intersection_graph
        g = intersection_graph(load_family(nest_path))
        data = json.loads(run_cli("stats", nest_path).stdout)
        assert data["omega"] == clique_number(g)[0]
        assert data["chi"] == chromatic_number(g)[0]


class TestBounds:
    def test_k1(self):
        result = run_cli("bounds", "--k", "1")
        assert result.stdout.strip() == "1"
        assert result.returncode == 0

    def test_k2_matches_library(self):
        from outerstring.bounds import explicit_chi_bound
        result = run_cli("bounds", "--k", "2")
        assert int(result.stdout.strip()) == explicit_chi_bound(2)

    def test_k3_prints_every_digit(self):
        from outerstring.bounds import explicit_chi_bound
        result = run_cli("bounds", "--k", "3")
        assert result.returncode == 0 and result.stderr == ""
        assert result.stdout == str(explicit_chi_bound(3)) + "\n"

    def test_k4_summary(self):
        """About two million digits: a JSON summary whose digit count and
        truncated 11-digit mantissa are exact."""
        from outerstring.bounds import explicit_chi_bound
        result = run_cli("bounds", "--k", "4")
        assert result.returncode == 0 and result.stderr == ""
        data = json.loads(result.stdout)
        digits = data["digits"]
        assert data["k"] == 4 and digits > 10 ** 6
        value = explicit_chi_bound(4)
        scale = 10 ** (digits - 11)
        assert scale * 10 ** 10 <= value < scale * 10 ** 11   # 10**(digits-1) <= value < 10**digits
        head = str(value // scale)
        assert data["scientific"] == f"{head[0]}.{head[1:]}e+{digits - 1}"

    def test_k5_refused_before_evaluating(self, monkeypatch, capsys):
        from outerstring import cli

        def evaluated(k):
            raise AssertionError(f"explicit_chi_bound({k}) was called")

        monkeypatch.setattr(cli, "explicit_chi_bound", evaluated)
        assert cli.main(["bounds", "--k", "5"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and "refused" in err

    def test_leading_digits_match_decimal_string(self):
        """Digit count and first 11 digits agree with ``str`` on values next
        to digit and mantissa boundaries, where the logarithm alone cannot
        decide, and on random values."""
        import random

        from outerstring.cli import _leading_digits
        values = [1, 9, 10, 99999999999, 10 ** 11]
        for e in (0, 5, 40, 77, 78, 150, 600, 2000):
            for head in (1, 99999999999, 12345678900):
                values += [head * 10 ** e - 1, head * 10 ** e, head * 10 ** e + 1]
            values += [2 ** (4 * e + 1), 2 ** (4 * e + 1) - 1]
        rng = random.Random(0)
        values += [rng.getrandbits(rng.randint(1, 12000)) | 1 for _ in range(300)]
        for value in filter(None, values):
            text = str(value)
            assert _leading_digits(value) == (len(text), text[:11]), len(text)


class TestExtract:
    def test_mcguinness_report(self, nest_path):
        result = run_cli("extract", "mcguinness", nest_path,
                         "--alpha", "0", "--beta", "0")
        assert result.returncode == 0
        data = json.loads(result.stdout)
        assert data["outcome"] == "structure-found"
        assert data["result"]["H"]

    def test_bracket_system_failure_report(self, nest_path):
        result = run_cli("extract", "bracket-system", nest_path, "--k", "2")
        data = json.loads(result.stdout)
        assert data["outcome"] == "step-failure"
        assert data["failure"]["step"] == "chi(F) > gamma"

    def test_clique_system_success(self, nest_path):
        result = run_cli("extract", "clique-system", nest_path, "--t", "2", "--n", "0")
        data = json.loads(result.stdout)
        assert data["outcome"] == "structure-found"

    def test_precondition_failure_exit_one(self, nest_path):
        # chi(nest) = 3 fails the mcguinness precondition for alpha=2, beta=1
        result = run_cli("extract", "mcguinness", nest_path,
                         "--alpha", "2", "--beta", "1")
        assert result.returncode == 1


class TestSkeleton:
    def test_found(self, tmp_path):
        fam = dict(NEST)
        fam = {"curves": NEST["curves"] + [
            {"id": "p", "vertices": [[2, 0], [2, 2], ["7/2", 2]]}]}
        p = tmp_path / "fam.json"
        p.write_text(json.dumps(fam))
        data = json.loads(run_cli("skeleton", str(p), "--alpha", "0").stdout)
        assert data["found"] is True
        assert data["supported"] == ["p"]


class TestGenerate:
    def test_deterministic_stdout(self, tmp_path):
        a = run_cli("generate", "--kind", "segments", "--n", "5", "--seed", "9")
        b = run_cli("generate", "--kind", "segments", "--n", "5", "--seed", "9")
        assert a.stdout == b.stdout

    def test_seed_override_env(self, tmp_path):
        import os
        env = dict(os.environ, OUTERSTRING_SEED_OVERRIDE="9")
        a = run_cli("generate", "--kind", "segments", "--n", "5", "--seed", "1",
                    env=env)
        b = run_cli("generate", "--kind", "segments", "--n", "5", "--seed", "9")
        assert a.stdout == b.stdout

    def test_output_file_validates(self, tmp_path):
        out = tmp_path / "fam.json"
        run_cli("generate", "--kind", "polylines", "--n", "6", "--seed", "4",
                "--out", str(out))
        result = run_cli("validate", str(out))
        assert result.returncode == 0


class TestRender:
    def test_golden_figure3(self, tmp_path):
        from outerstring.gen import figure_fixture
        from outerstring.geom import dump_family
        fam, _ = figure_fixture(3)
        fam_path = tmp_path / "fig3.json"
        dump_family(fam, fam_path)
        out = tmp_path / "fig3.svg"
        run_cli("render", str(fam_path), "--out", str(out))
        assert out.read_bytes() == (GOLDEN / "figure3.svg").read_bytes()

    def test_byte_identical_reruns(self, nest_path, tmp_path):
        out1, out2 = tmp_path / "a.svg", tmp_path / "b.svg"
        run_cli("render", nest_path, "--out", str(out1), "--highlight", "s")
        run_cli("render", nest_path, "--out", str(out2), "--highlight", "s")
        assert out1.read_bytes() == out2.read_bytes()

    def test_skeleton_overlay_stroke_classes(self, nest_path, tmp_path):
        sk_path = tmp_path / "sk.json"
        sk_path.write_text(json.dumps({"u": "u", "v": "v", "supports": ["s"]}))
        out = tmp_path / "sk.svg"
        result = run_cli("render", nest_path, "--out", str(out),
                         "--skeleton", str(sk_path))
        assert result.returncode == 0
        svg = out.read_text()
        assert 'class="support"' in svg and 'class="anchor"' in svg


MALFORMED = {
    "array": [{"id": "u", "vertices": [[0, 0], [1, 1]]}],
    "three-coords": {"curves": [{"id": "u", "vertices": [[0, 0, 0], [1, 1, 1]]}]},
    "zero-denominator": {"curves": [{"id": "u", "vertices": [[0, 0], ["1/0", 1]]}]},
    "integer-id": {"curves": [{"id": 1, "vertices": [[0, 0], [0, 1]]},
                              {"id": "1", "vertices": [[2, 0], [2, 1]]}]},
}


class TestMalformedInput:
    """Bad input ends in exit 1 and one line on stderr, never a traceback."""

    @pytest.mark.parametrize("command,name", [
        (["stats"], "array"),
        (["extract", "bfs"], "array"),
        (["stats"], "three-coords"),
        (["validate"], "three-coords"),
        (["validate"], "zero-denominator"),
        (["stats"], "zero-denominator"),
        (["validate"], "integer-id"),
        (["stats"], "integer-id"),
        (["validate"], "missing"),
        (["stats"], "missing"),
        (["validate"], "not-utf8"),
    ])
    def test_one_line_exit_one(self, tmp_path, command, name):
        path = tmp_path / f"{name}.json"
        if name in MALFORMED:
            path.write_text(json.dumps(MALFORMED[name]))
        elif name == "not-utf8":
            path.write_bytes(b"\xff\xfe{}")
        result = run_cli(*command, str(path))
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        assert len(result.stderr.splitlines()) == 1
        assert result.stdout == ""
