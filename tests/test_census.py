"""A census of ``src/conewalks``: every function runs under some command
line, or ``NOT_RUN`` says why none runs it.

A fresh interpreter installs ``sys.setprofile`` before it imports the
package, runs ``COMMAND_LINES`` in process and reports every code object
that was called.  Every function, lambda and comprehension compiled from
``src/conewalks`` must be among them or in ``NOT_RUN``, and every
``NOT_RUN`` entry must really not have run, so the table cannot go stale.
"""

import inspect
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import conewalks

SRC = Path(conewalks.__file__).resolve().parent

# "module.qualname" of each function no command line runs -> why.
NOT_RUN = {
    "series.Series1.__eq__": "value equality: the tests compare series by ==",
    "series.Series1.__str__": "a readable series in test messages",
    "laurent.LPoly2.__str__": "a readable polynomial in test messages",
    "walks.Record.__setattr__": "a guard: a record refuses assignment",
    "series._one_variable_only.<locals>.refuse":
        "a guard: a Series2 refuses each one-variable method by name",
    "closedforms.binomial": "read by the two quadrant formulas only",
    "closedforms.quadrant_square_count":
        "test_acceptance compares the DP with it; no verify row reads it yet",
    "closedforms.quadrant_diag_count":
        "test_acceptance compares the DP with it; no verify row reads it yet",
}

# Command lines, with BFILE, BAD_BFILE, MISSING and the name of each of
# CONFIGS standing for a path.  Each walk command runs on both lattices in
# every region, from a shifted start, with and without an endpoint, and in
# every format it takes.
MODELS = [
    ["--lattice", lattice, "--region", region, "--start", start]
    for lattice in ("square", "diagonal")
    for region, start in (("quadrant", "1,0"), ("three-quadrant", "-1,0"),
                          ("wedge135", "-1,1"), ("half-plane", "-1,1"),
                          ("full-plane", "0,0"))
]
WALK_COMMANDS = (["count", "--n", "4"], ["series", "--order", "6"],
                 ["oeis", "--bfile", "BFILE", "--n", "4"])
COMMAND_LINES = [
    *([*command, *model, *endpoint]
      for command in WALK_COMMANDS for model in MODELS
      for endpoint in ([], ["--endpoint", "1,1"])),
    *(["asympt", "--n", "9", *model] for model in MODELS),
    *([*command, "--lattice", lattice, "--format", fmt]
      for command in (*WALK_COMMANDS, ["asympt", "--n", "9"])
      for lattice in ("square", "diagonal") for fmt in ("json", "csv")),
    ["oeis", "--bfile", "BAD_BFILE"],
    ["oeis", "--bfile", "BAD_BFILE", "--format", "json"],
    ["verify", "--suite", "all", "--order", "8"],
    ["verify", "--suite", "all", "--order", "12", "--format", "json"],
    ["verify", "--config", "SUITE_LIST", "--order", "6"],
    ["param", "--list"],
    ["param", "--list", "--format", "json"],
    ["param", "--key", "base-T", "--order", "8"],
    ["param", "--key", "base-U", "--order", "8", "--format", "json"],
    ["param", "--key", "sq-origin-axis-x", "--order", "3"],
    # Usage errors.
    ["count", "--start", "1,x"],
    ["count", "--start", "1,2,3"],
    ["count", "--n", "-1"],
    ["count", "--region", "quadrant", "--start", "-1,0"],
    ["count", "--endpoint", "-1,-1"],
    ["count", "--config", "UNKNOWN_KEY"],
    ["count", "--config", "NOT_JSON"],
    ["count", "--config", "NOT_AN_OBJECT"],
    ["count", "--config", "BAD_TYPES"],
    ["count", "--config", "MISSING"],
    ["verify", "--order", "0"],
    ["verify", "--suite", "nonsense"],
    ["verify", "--suite", "base", "--format", "csv"],
    ["param"],
    ["param", "--key", "nonsense"],
    ["oeis"],
    ["oeis", "--bfile", "MISSING"],
    ["asympt", "--n", "512"],
    ["series", "--order", "3", "--bogus"],
]
CONFIGS = {
    "SUITE_LIST": '{"suite": ["base", "quartics"], "format": "json"}',
    "UNKNOWN_KEY": '{"colour": "blue"}',
    "NOT_JSON": "{",
    "NOT_AN_OBJECT": "[]",
    "BAD_TYPES": '{"n": true}',
}

CHILD = """\
import contextlib, io, json, sys

called = set()


def profile(frame, event, arg):
    # Code objects compare by value, without their file or qualname, so
    # two one-line methods of the same body at the same line of two
    # modules would be one set member: keep the names instead.
    if event == "call":
        code = frame.f_code
        called.add((code.co_filename, code.co_qualname, code.co_firstlineno))


sys.setprofile(profile)
from conewalks import cli

for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main(argv)
        except SystemExit:
            pass
sys.setprofile(None)
print(json.dumps(sorted(called)))
"""


def functions():
    """(module.qualname, first line) of every function, lambda and
    comprehension compiled from the package sources."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            for const in stack.pop().co_consts:
                if isinstance(const, types.CodeType):
                    stack.append(const)
                    if const.co_flags & inspect.CO_NEWLOCALS:  # no class body
                        found.add((f"{path.stem}.{const.co_qualname}",
                                   const.co_firstlineno))
    return found


def called(tmp_path):
    """(module.qualname, first line) of every package function the command
    lines call."""
    names = {"BFILE": tmp_path / "b.txt", "BAD_BFILE": tmp_path / "bad.txt",
             "MISSING": tmp_path / "missing.json",
             **{name: tmp_path / f"{name}.json" for name in CONFIGS}}
    names["BFILE"].write_text("0 1\n1 4\n2 14\n3 54\n")
    names["BAD_BFILE"].write_text("0 1\n1 x\n")
    for name, text in CONFIGS.items():
        names[name].write_text(text)
    argvs = [[str(names.get(arg, arg)) for arg in argv]
             for argv in COMMAND_LINES]
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argvs)],
                          env=env, capture_output=True, text=True, check=True)
    return {(f"{Path(path).stem}.{qualname}", line)
            for path, qualname, line in json.loads(done.stdout)
            if Path(path).resolve().parent == SRC}


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="names functions by co_qualname (Python 3.11)")
def test_every_function_runs_or_says_why_not(tmp_path):
    unrun = functions() - called(tmp_path)
    undeclared = sorted(f"{name} (line {line})" for name, line in unrun
                        if name not in NOT_RUN)
    assert not undeclared, f"never run, not in NOT_RUN: {undeclared}"
    stale = sorted(set(NOT_RUN) - {name for name, _ in unrun})
    assert not stale, f"in NOT_RUN, but run: {stale}"
