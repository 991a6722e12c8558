"""Byte-identical CLI output on the bundled rod file.

``tests/golden/rod_cli.txt`` holds the exit code and the exact stdout of
every invocation below; each test reruns one and compares.  After a change
that is meant to alter the output, regenerate the file with
``PYTHONPATH=src python tests/test_cli_golden.py`` and review the diff.
"""

import contextlib
import io
from pathlib import Path

import pytest

from semistoch.cli import main

from conftest import rod_path

GOLDEN = Path(__file__).parent / "golden" / "rod_cli.txt"
HEADER = "=== semistoch "


def _invocations():
    for f in ("f", "g"):
        for prior in (["--uniform"], ["--prior", "uniform"]):
            for fmt in ([], ["--json"]):
                yield ["standard-measure", f, *prior, *fmt]
    for f, g in (("f", "g"), ("g", "f")):
        for prior in (["--uniform"], ["--prior", "uniform"]):
            for fmt in ([], ["--json"]):
                yield ["bss", f, g, *prior, *fmt]
    for f, g in (("f", "g"), ("g", "f")):
        for mode in ([], ["--json"], ["--mode", "as", "--uniform"], ["--mode", "bayes"]):
            yield ["compare", f, g, *mode]
    for k in ("f", "g", "c"):
        for prop in ("deterministic", "dirac", "det-given-left", "det-given-right"):
            yield ["check", k, prop]


INVOCATIONS = list(_invocations())


def _title(args) -> str:
    return " ".join([args[0], "rod.json", *args[1:]])


def _run(args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([args[0], rod_path(), *args[1:]])
    return code, out.getvalue()


def _render(args) -> str:
    code, out = _run(args)
    return f"{HEADER}{_title(args)}\nexit {code}\n{out}"


def _golden():
    blocks = {}
    title = None
    for line in GOLDEN.read_text(encoding="utf-8").splitlines(keepends=True):
        if line.startswith(HEADER):
            title = line[len(HEADER):].rstrip("\n")
            blocks[title] = line
        else:
            blocks[title] += line
    return blocks


def test_golden_file_covers_every_invocation():
    assert list(_golden()) == [_title(args) for args in INVOCATIONS]


@pytest.mark.parametrize("args", INVOCATIONS, ids=_title)
def test_cli_output_matches_golden(args):
    assert _render(args) == _golden()[_title(args)]


if __name__ == "__main__":
    GOLDEN.write_text("".join(_render(args) for args in INVOCATIONS), encoding="utf-8")
