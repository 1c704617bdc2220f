"""Machine invariants are explicit exceptions, not ``assert`` statements,
so they hold under ``python -O`` too."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import aam
from aam.store import InvariantError

SRC = Path(aam.__file__).parent

REBINDER = textwrap.dedent(
    """
    from aam.machines import FreshTickPolicy, inject_ceskt, step_ceskt, trace_from
    from aam.store import FreshA, InvariantError
    from aam.syntax import parse

    class Rebinder(FreshTickPolicy):
        def alloc_kont(self, site, state, kont, tag="kont"):
            return FreshA(0)

    e = parse("((lambda (x) (x x)) (lambda (y) y))")
    try:
        trace_from(lambda s: step_ceskt(s, Rebinder()), inject_ceskt(e, Rebinder()), 100)
    except InvariantError as ex:
        print("caught:", ex)
    else:
        raise SystemExit("stale allocation went unnoticed")
    """
)


def test_invariant_error_is_an_assertion_error():
    assert issubclass(InvariantError, AssertionError)


def test_stale_allocation_is_caught_under_optimize():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", REBINDER], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert "caught: allocation must be fresh" in out.stdout


def test_package_has_no_assert_statements():
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not offenders, offenders
