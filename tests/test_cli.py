"""Command-line interface: subcommand behaviour, exit codes, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outerstring import cli

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


# One case per out-of-range number or bad path; ``{family}`` is a valid
# family file and ``{tmp}`` an empty directory.
OUT_OF_RANGE = {
    "bounds-k-0": (["bounds", "--k", "0"], None),
    "generate-n-0": (["generate", "--n", "0"], None),
    "generate-bends-1": (["generate", "--bends", "1"], None),
    "generate-grid-0": (["generate", "--grid", "0"], None),
    "generate-grid-negative": (["generate", "--grid", "-3"], None),
    "polylines-grid-1": (["generate", "--kind", "polylines", "--grid", "1"], None),
    "clique-system-t-0": (["extract", "clique-system", "{family}", "--t", "0"], None),
    "clique-system-n-negative": (["extract", "clique-system", "{family}", "--n", "-1"], None),
    "bracket-system-k-negative": (["extract", "bracket-system", "{family}", "--k", "-1"], None),
    "mcguinness-alpha-negative": (["extract", "mcguinness", "{family}", "--alpha", "-1"], None),
    "render-skeleton-missing": (["render", "{family}", "--out", "{tmp}/a.svg",
                                 "--skeleton", "{tmp}/missing.json"], None),
    "render-bracket-missing": (["render", "{family}", "--out", "{tmp}/a.svg",
                                "--bracket", "{tmp}/missing.json"], None),
    "render-skeleton-not-a-skeleton": (["render", "{family}", "--out", "{tmp}/a.svg",
                                        "--skeleton", "{family}"], None),
    "render-bracket-not-a-bracket": (["render", "{family}", "--out", "{tmp}/a.svg",
                                      "--bracket", "{family}"], None),
    "render-out-missing-dir": (["render", "{family}", "--out", "{tmp}/missing/a.svg"], None),
    "generate-out-missing-dir": (["generate", "--out", "{tmp}/missing/a.json"], None),
    "seed-override-not-integer": (["generate"], "abc"),
}


class TestOutOfRange:
    """Out-of-range numbers and bad paths end in exit 1 and one line on
    stderr, never a traceback."""

    @pytest.mark.parametrize("name", OUT_OF_RANGE)
    def test_one_line_exit_one(self, nest_path, tmp_path, name):
        args, override = OUT_OF_RANGE[name]
        env = dict(os.environ)
        env.pop("OUTERSTRING_SEED_OVERRIDE", None)
        if override is not None:
            env["OUTERSTRING_SEED_OVERRIDE"] = override
        result = run_cli(*(a.format(family=nest_path, tmp=tmp_path) for a in args), env=env)
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        assert len(result.stderr.splitlines()) == 1
        assert result.stdout == ""


small = st.integers(min_value=-3, max_value=6)
coordinate = st.one_of(small, st.sampled_from(["1/2", "7/3", "2.5", "1/0", "x", ""]),
                       st.none(), st.booleans(), st.just(0.5))
family_text = st.one_of(
    st.sampled_from([json.dumps(NEST), json.dumps(BAD_FAMILY), "{", "", "[]", "null",
                     *(json.dumps(v) for v in MALFORMED.values())]),
    st.fixed_dictionaries({"curves": st.lists(st.fixed_dictionaries({
        "id": st.one_of(st.sampled_from("abcd"), st.integers(0, 3)),
        "vertices": st.lists(st.lists(coordinate, min_size=1, max_size=3), max_size=4),
    }), max_size=4)}).map(json.dumps),
    st.text(max_size=12),
)


def flags(draw, names, values=small):
    """Some of the named integer flags, each with a drawn value; now and then
    a value that is not an integer at all."""
    out = []
    for name in draw(st.lists(st.sampled_from(names), unique=True)):
        out += [name, draw(st.one_of(values.map(str), st.sampled_from(["x", "", "1.5"])))]
    return out


@st.composite
def command_lines(draw):
    """An argument list for one command; ``{family}``, ``{side}`` and ``{out}``
    stand for files the test writes or leaves missing."""
    command = draw(st.sampled_from(["validate", "stats", "extract", "skeleton", "bounds",
                                    "generate", "render", "garbage"]))
    if command == "garbage":
        return draw(st.lists(st.one_of(st.sampled_from(["--k", "--n", "-h", "extract", "{family}"]),
                                       st.text(max_size=4)), max_size=4))
    if command == "bounds":  # k >= 4 takes seconds and is tested on its own
        return ["bounds"] + flags(draw, ["--k"], st.integers(max_value=3))
    if command == "generate":
        return ["generate", "--kind", draw(st.sampled_from(["segments", "polylines"]))] + flags(
            draw, ["--n", "--bends", "--grid", "--seed"]) + draw(st.sampled_from([[], ["--out", "{out}"]]))
    if command == "extract":
        procedure = draw(st.sampled_from(["mcguinness", "bfs", "bracket-system", "clique-system"]))
        return ["extract", procedure, "{family}"] + flags(
            draw, ["--alpha", "--beta", "--k", "--xi", "--t", "--n", "--gamma"])
    if command == "skeleton":
        return ["skeleton", "{family}"] + flags(draw, ["--alpha"])
    if command == "render":
        extra = draw(st.lists(st.sampled_from([["--skeleton", "{side}"], ["--bracket", "{side}"],
                                               ["--highlight", "a", "u"]]), max_size=2))
        return ["render", "{family}", "--out", "{out}"] + [a for e in extra for a in e]
    return [command, "{family}"]


def fill(arg, paths):
    for name, path in paths.items():
        arg = arg.replace("{%s}" % name, path)
    return arg


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(argv=command_lines(), text=family_text, side=family_text,
       override=st.one_of(st.none(), st.sampled_from(["7", "-1", "abc", ""])),
       missing=st.booleans())
def test_main_returns_an_exit_code(argv, text, side, override, missing):
    """``cli.main`` on drawn flag values and family files, well formed or
    not, returns 0, 1 or 2 and raises nothing; exit 1 writes at most one
    line on stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"family": f"{tmp}/family.json", "side": f"{tmp}/side.json",
                 "out": f"{tmp}/missing/out" if missing else f"{tmp}/out"}
        Path(paths["family"]).write_text(text, encoding="utf-8")
        Path(paths["side"]).write_text(side, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            os.environ.pop("OUTERSTRING_SEED_OVERRIDE", None)
            if override is not None:
                os.environ["OUTERSTRING_SEED_OVERRIDE"] = override
            code = cli.main([fill(a, paths) for a in argv])
    assert code in (0, 1, 2)
    assert code != 1 or len(err.getvalue().splitlines()) <= 1, err.getvalue()
