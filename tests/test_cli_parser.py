"""One parser per process: built on the first `run` call, stateless after it."""

import contextlib
import io
import json
from pathlib import Path

from relugeo import cli
from relugeo.cli import run

GOLDEN = Path(__file__).with_name("golden") / "cli_transcript.json"
ABS_NET = {"W1": [["1"], ["-1"]], "b1": ["0", "0"], "W2": ["1", "1"], "b2": "0"}
COMMANDS = ["canon", "classify", "enum", "equiv", "synth", "eval", "random"]


def quiet_run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def test_parser_is_built_once(monkeypatch, tmp_path):
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    net = tmp_path / "abs.json"
    net.write_text(json.dumps(ABS_NET))
    for _ in range(10):
        assert quiet_run(["canon", str(net)])[0] == 0
        assert quiet_run(["eval", str(net), "--x=1/2"])[0] == 0
        assert quiet_run(["frobnicate"])[0] == 2
    # one top-level parser and one subparser per command, for all 30 calls
    assert built == ["relugeo"] + [f"relugeo {c}" for c in COMMANDS]


def test_no_state_survives_between_runs(tmp_path):
    net = tmp_path / "abs.json"
    net.write_text(json.dumps(ABS_NET))
    code, out, err = quiet_run(["classify", str(net), "--cap", "abc"])
    assert (code, out) == (2, "") and err.startswith("error: argument --cap")
    code, out, _ = quiet_run(["classify", "--help"])
    assert code == 0 and out.startswith("usage: relugeo classify")
    records = json.loads(GOLDEN.read_text(encoding="utf-8"))
    golden = next(r for r in records if r["argv"] == ["classify", "abs.json"])
    code, out, err = quiet_run(["classify", str(net)])
    assert (code, out.encode(), err) == (golden["code"], golden["stdout"].encode(), "")
