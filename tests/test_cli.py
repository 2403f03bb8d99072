"""CLI: every subcommand, exit codes and deterministic output."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import relugeo
from relugeo.cli import run
from relugeo import jsonio
from relugeo.network import ShallowNet


RELU_NET = {"W1": [["1"]], "b1": ["0"], "W2": ["1"], "b2": "0"}
RELU_SCALED = {"W1": [["2"]], "b1": ["0"], "W2": ["1/2"], "b2": "0"}
ABS_NET = {"W1": [["1"], ["-1"]], "b1": ["0", "0"], "W2": ["1", "1"], "b2": "0"}
COUNTEREXAMPLE = {
    "expr": (
        "max(min(affine([0,1],0), affine([1,1],0)),"
        " min(max(affine([0,1],0), affine([1,1],0)), affine([0,0],0)))"
    ),
    "breaklines": [
        {"d": [1, 0], "q": "0"},
        {"d": [0, 1], "q": "0"},
        {"d": [1, 1], "q": "0"},
    ],
}


@pytest.fixture
def files(tmp_path):
    def write(name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    return write


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestCanon:
    def test_relu(self, files, capsys):
        code, out = invoke(capsys, "canon", files("relu.json", RELU_NET))
        assert code == 0
        form = json.loads(out)
        assert form["terms"] == [{"d": [1], "q": "0", "kink": "1"}]
        assert form["affine"] == ["0"]

    def test_output_reparses(self, files, capsys):
        _, out = invoke(capsys, "canon", files("abs.json", ABS_NET))
        assert jsonio.from_dict(json.loads(out)).d0 == 1


class TestClassify:
    def test_abs_case_ii(self, files, capsys):
        code, out = invoke(capsys, "classify", files("abs.json", ABS_NET))
        assert code == 0
        report = json.loads(out)
        assert report["case"] == "II"
        assert report["min_width"] == 2
        assert report["components"] == [{"dim": 2, "count": "2"}]


class TestEnum:
    def test_r_samples(self, files, capsys):
        cf = {"terms": [], "affine": ["1"], "bias": "0", "d0": 1}
        code, out = invoke(capsys, "enum", files("aff.json", cf), "--r", "0,1,-2")
        assert code == 0
        fams = json.loads(out)["families"]
        assert len(fams) == 1
        assert fams[0]["r_values"] == ["0", "1", "-2"]
        assert len(fams[0]["tuples"]) == 3


class TestEquiv:
    def test_scaled_equal(self, files, capsys):
        code, out = invoke(
            capsys, "equiv", files("a.json", RELU_NET), files("b.json", RELU_SCALED)
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "equal"

    def test_different_exit_code(self, files, capsys):
        code, out = invoke(
            capsys, "equiv", files("a.json", RELU_NET), files("b.json", ABS_NET)
        )
        assert code == 1
        got = json.loads(out)
        assert got["verdict"] == "different"
        assert got["witness"] == {"d": [1], "q": "0"}


class TestSynth:
    def test_success(self, files, capsys):
        spec = {"expr": "relu(affine([1],0))", "breaklines": "auto"}
        code, out = invoke(capsys, "synth", files("spec.json", spec))
        assert code == 0
        assert json.loads(out)["neurons"] == [
            {"d": [1], "q": "0", "kink": "1", "orient": 1}
        ]

    def test_counterexample(self, files, capsys):
        path = files("counter.json", COUNTEREXAMPLE)
        code, out = invoke(capsys, "synth", path)
        assert code == 1
        got = json.loads(out)
        assert got["error"] == "NotTransversal"
        assert got["violation"]["indices"] == [1, 2, 3]

    def test_counterexample_unchecked(self, files, capsys):
        path = files("counter.json", COUNTEREXAMPLE)
        code, out = invoke(capsys, "synth", path, "--unchecked")
        assert code == 1
        assert json.loads(out)["error"] == "NotRepresentable"


class TestEval:
    def test_net(self, files, capsys):
        # values starting with '-' need the --x=value spelling
        code, out = invoke(capsys, "eval", files("abs.json", ABS_NET), "--x=-3/2")
        assert code == 0
        assert out.strip() == "3/2"


class TestRandom:
    def test_deterministic_and_loadable(self, capsys):
        code, out1 = invoke(capsys, "random", "--d0", "2", "--d1", "3", "--seed", "5")
        assert code == 0
        _, out2 = invoke(capsys, "random", "--d0", "2", "--d1", "3", "--seed", "5")
        assert out1 == out2
        assert isinstance(jsonio.from_dict(json.loads(out1)), ShallowNet)

    def test_transversal_flag(self, capsys):
        from relugeo.network import effective_tuple
        from relugeo.synthesis import check_transversality

        _, out = invoke(
            capsys, "random", "--d0", "2", "--d1", "4", "--seed", "3", "--transversal"
        )
        net = jsonio.from_dict(json.loads(out))
        bls = [nr.breakline for nr in effective_tuple(net).neurons]
        assert len(set(bls)) == len(bls)
        assert check_transversality(bls) is None


class TestErrors:
    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _ = invoke(capsys, "canon", str(tmp_path / "nope.json"))
        assert code == 2

    def test_bad_expression_exit_2(self, files, capsys):
        code, _ = invoke(capsys, "synth", files("bad.json", {"expr": "relu("}))
        assert code == 2

    def test_unknown_command_exit_2(self, capsys):
        assert run(["frobnicate"]) == 2
        capsys.readouterr()

    def test_equiv_on_spec_exit_2(self, files, capsys):
        spec = files("spec.json", {"expr": "relu(affine([1],0))", "breaklines": "auto"})
        assert run(["equiv", spec, files("relu.json", RELU_NET)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "data",
        [
            "W1",
            5,
            None,
            [RELU_NET],
            {"terms": [{"d": [1], "q": "0", "kink": 1.5}], "affine": ["0"], "bias": "0", "d0": 1},
            {"W1": 5},
            {"terms": [1], "affine": ["0"], "bias": "0", "d0": 1},
            {"expr": 5},
            {"expr": "relu(affine([1],0))", "breaklines": [5]},
        ],
        ids=["string", "int", "null", "list", "float-kink", "int-W1", "int-term", "int-expr", "int-breakline"],
    )
    def test_wrong_json_types_exit_2(self, files, capsys, data):
        # run() returning at all means no exception escaped, so no traceback
        assert run(["canon", files("bad.json", data)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "expr, breaklines, once",
    [
        (
            "relu(affine([1],0))",
            [{"d": [1], "q": "0"}, {"d": [1], "q": "0"}],
            [{"d": [1], "q": "0"}],
        ),
        (
            "relu(affine([1],0))",
            [{"d": [2], "q": "0"}, {"d": [1], "q": "0"}],
            [{"d": [2], "q": "0"}],
        ),
        (
            "relu(affine([1,0],-1))",
            [{"d": [1, 0], "q": "1"}, {"d": [0, 1], "q": "0"}, {"d": [2, 0], "q": "2"}],
            [{"d": [1, 0], "q": "1"}, {"d": [0, 1], "q": "0"}],
        ),
    ],
    ids=["duplicate", "scaled-duplicate-1d", "scaled-duplicate-2d"],
)
def test_unchecked_synth_on_repeated_hyperplane_terminates(tmp_path, expr, breaklines, once):
    # unchecked, a declaration is a set: a repeat, even rescaled, is one breakline
    env = dict(os.environ, PYTHONPATH=str(Path(relugeo.__file__).parents[1]))
    procs = []
    for name, declared in (("spec.json", breaklines), ("once.json", once)):
        path = tmp_path / name
        path.write_text(json.dumps({"expr": expr, "breaklines": declared}))
        procs.append(
            subprocess.run(
                [sys.executable, "-m", "relugeo.cli", "synth", str(path), "--unchecked"],
                capture_output=True,
                text=True,
                timeout=60,
                env=env,
            )
        )
    assert [(p.returncode, p.stderr) for p in procs] == [(0, ""), (0, "")]
    assert procs[0].stdout == procs[1].stdout


ZERO_DIRECTION_SPEC = {
    "expr": "relu(affine([1,0],0))",
    "breaklines": [{"d": [1, 0], "q": "0"}, {"d": [0, 0], "q": "1"}],
}


def _tuple(*neurons):
    return {
        "neurons": [{"d": d, "q": "0", "kink": k, "orient": 1} for d, k in neurons],
        "bias": "0",
    }


@pytest.mark.parametrize(
    "argv, data",
    [
        (["synth"], ZERO_DIRECTION_SPEC),
        (["synth", "--unchecked"], ZERO_DIRECTION_SPEC),
        (["canon"], _tuple(([2], "1"), ([1], "-2"))),
        (["canon"], _tuple(([-1], "1"))),
        (["canon"], dict(RELU_NET, b2="1/0")),
        (["synth"], {"expr": "relu(affine([1/0],0))", "breaklines": "auto"}),
        (["eval", "--x", "1/0"], RELU_NET),
    ],
    ids=[
        "zero-declared-direction",
        "zero-declared-direction-unchecked",
        "non-primitive-direction",
        "negative-direction",
        "zero-denominator-net",
        "zero-denominator-expr",
        "zero-denominator-point",
    ],
)
def test_invalid_direction_or_literal_exit_2(files, capsys, argv, data):
    # run() returning at all means no exception escaped, so no traceback
    assert run([argv[0], files("bad.json", data), *argv[1:]]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_huge_exponent_literal_exits_2_quickly(tmp_path):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(dict(RELU_NET, b2="1e100000000")))
    env = dict(os.environ, PYTHONPATH=str(Path(relugeo.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "relugeo.cli", "canon", str(path)],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def _form(terms, affine=("0",), d0=1):
    return {
        "terms": [{"d": d, "q": q, "kink": k} for d, q, k in terms],
        "affine": list(affine),
        "bias": "0",
        "d0": d0,
    }


EMPTY_FORM = _form([])
ZERO_SUM_FORM = _form([([1], "0", "0"), ([1], "0", "1"), ([1], "0", "-1")])


@pytest.mark.parametrize(
    "argv, data",
    [
        (["canon"], _form([([1, 0], "0", "1")], affine=("1",))),
        (["canon"], ZERO_SUM_FORM),
        (["classify"], ZERO_SUM_FORM),
        (["equiv", EMPTY_FORM], ZERO_SUM_FORM),
        (["canon"], _form([([1], "1", "1"), ([1], "0", "1")])),
        (["canon"], _form([([1], "0", "1"), ([1], "0", "2")])),
    ],
    ids=[
        "breakline-longer-than-d0",
        "zero-kinks-canon",
        "zero-kinks-classify",
        "zero-kinks-equiv",
        "decreasing-offsets",
        "repeated-breakline",
    ],
)
def test_inconsistent_canonical_form_exits_2(files, capsys, argv, data):
    command, *rest = argv
    rest = [files("other.json", x) if isinstance(x, dict) else x for x in rest]
    assert run([command, files("form.json", data), *rest]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("flags", [[], ["--unchecked"]], ids=["checked", "unchecked"])
def test_spec_breakline_of_wrong_dimension_exits_2_at_load(files, capsys, flags):
    spec = {"expr": "relu(affine([1],0))", "breaklines": [{"d": [1, 0], "q": "0"}]}
    assert run(["synth", files("spec.json", spec), *flags]) == 2
    assert capsys.readouterr().err.startswith("error: declared breakline 1 has dimension 2")


@pytest.mark.parametrize("command", ["canon", "classify", "enum"])
def test_zero_dimensional_form_exits_2(files, capsys, command):
    path = files("form.json", {"terms": [], "affine": [], "bias": "1", "d0": 0})
    assert run([command, path]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: a form needs d0 >= 1")


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "{file}", "--cap", "abc"],
        ["canon", "{file}", "--bogus"],
        ["eval", "{file}"],
        [],
    ],
    ids=["bad-int", "unknown-flag", "missing-option", "no-command"],
)
def test_usage_errors_start_with_error(files, capsys, argv):
    path = files("relu.json", RELU_NET)
    assert run([a.format(file=path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "usage: relugeo" in err


def test_tuple_of_mixed_dimensions_exits_2(files, capsys):
    data = {
        "neurons": [
            {"d": [1], "q": "0", "kink": "1", "orient": 1},
            {"d": [1, 0], "q": "0", "kink": "1", "orient": 1},
        ],
        "bias": "0",
    }
    path = files("mixed.json", data)
    for argv in (["canon", path], ["eval", path, "--x", "1"], ["classify", path]):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: neurons of mixed breakline dimensions")


def _many_breaklines(d0, n):
    """n declared hyperplanes sum_j i^j x_j = i^d0 in general position.

    No d0+1 of them share a point (a polynomial of degree d0 has at most d0
    roots), so a transversality check has to examine every subset.
    """
    return [{"d": [i**j for j in range(d0)], "q": str(i**d0)} for i in range(1, n + 1)]


@pytest.mark.parametrize(
    "argv",
    [["synth", "{spec}"], ["random", "--d0", "5", "--d1", "20", "--transversal"]],
    ids=["synth", "random"],
)
def test_transversality_subset_cap_exits_2_quickly(tmp_path, argv):
    # 20 breaklines in d0 = 5 are 60,439 subsets, close to a minute of solves
    spec = tmp_path / "spec.json"
    expr = "relu(affine([1,0,0,0,0],0))"
    spec.write_text(json.dumps({"expr": expr, "breaklines": _many_breaklines(5, 20)}))
    env = dict(os.environ, PYTHONPATH=str(Path(relugeo.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "relugeo.cli", *(a.format(spec=spec) for a in argv)],
        capture_output=True,
        text=True,
        timeout=15,
        env=env,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "transversality cap" in proc.stderr
