"""Byte-for-byte command-line output on the seeded corpora.

Every machine that accepts a corpus runs on each of its programs through
``aam.cli.run`` in-process.  The flag set (``--gc``, ``--widen``,
``--k 1``, ``--annotate`` where valid) and the output format rotate over
the programs, so every combination a machine accepts is covered.  The exit
code and the sha256 of standard output must match the values recorded in
``cli_golden.json``.

A refactoring of the machines must leave every hash in place.  When an
output change is intended, re-record with

    PYTHONPATH=src python tests/test_cli_golden.py --record

To compare against the recorded hashes without pytest, on any supported
Python, run it with ``--check``: it exits 1 and names the first changed
cases if any output differs.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

from corpus import divergent_corpus, extended_corpus, security_corpus, terminating_corpus
from aam.cli import run
from aam.syntax import unparse

GOLDEN = Path(__file__).with_name("cli_golden.json")
FORMATS = ("text", "json", "dot")
FUEL = "40"

CONCRETE = ("cek", "cesk", "ceskstar", "ceskt", "lk", "lk-opt", "lk-postponed", "ext", "cm")
ABSTRACT = ("kcfa", "0cfa", "alk", "aext", "acm", "pushdown")
CONTOURED = (["--k", "1"], ["--gc"], ["--k", "1", "--gc"], ["--widen"], ["--k", "1", "--widen"])
FLAGS = {
    "cek": ([],),
    "kcfa": ([], *CONTOURED),
    "alk": ([], *CONTOURED),
    "aext": ([], *CONTOURED),
    "acm": ([], *CONTOURED, ["--annotate", "p"]),
    "0cfa": ([], ["--gc"], ["--widen"]),
    "pushdown": ([], ["--widen"]),
    "cm": ([], ["--gc"], ["--annotate", "p"], ["--annotate", "p,q", "--gc"]),
}
CORPORA = {
    "term": (terminating_corpus, CONCRETE + ABSTRACT),
    "div": (divergent_corpus, CONCRETE + ABSTRACT),
    "ext": (extended_corpus, ("ext", "aext")),
    "sec": (security_corpus, ("cm", "acm")),
}


def cases():
    """(case id, program text, argv without the file) for every case."""
    for corpus, (programs, machines) in CORPORA.items():
        for i, e in enumerate(programs()):
            text = unparse(e) + "\n"
            if corpus == "sec":
                text = ";; permissions: (p q)\n" + text
            for m, machine in enumerate(machines):
                combos = list(itertools.product(FLAGS.get(machine, ([], ["--gc"])), FORMATS))
                flags, fmt = combos[(i + m) % len(combos)]
                if corpus == "div" and machine in CONCRETE:
                    flags = [*flags, "--fuel", FUEL]
                argv = [machine, *flags, "--format", fmt]
                yield f"{corpus}/{i}/{' '.join(argv)}", text, argv


def run_case(text: str, argv: list, tmp: Path) -> str:
    path = tmp / "program.scm"
    path.write_text(text)
    out = io.StringIO()
    with redirect_stdout(out):
        code = run([*argv, str(path)])
    return f"{code} {hashlib.sha256(out.getvalue().encode()).hexdigest()}"


def record(tmp: Path) -> dict:
    return {cid: run_case(text, argv, tmp) for cid, text, argv in cases()}


def test_cli_output_matches_the_recorded_hashes(tmp_path):
    want = json.loads(GOLDEN.read_text())
    got = record(tmp_path)
    assert sorted(got) == sorted(want), "the case list changed; re-record deliberately"
    changed = [cid for cid in got if got[cid] != want[cid]]
    assert not changed, f"{len(changed)} outputs changed, first: {changed[:5]}"


def test_every_flag_and_format_is_covered():
    seen = {(argv[0], fmt) for _cid, _text, argv in cases() for fmt in argv if fmt in FORMATS}
    flags = {(argv[0], flag) for _cid, _text, argv in cases() for flag in argv if flag.startswith("--")}
    for machine in CONCRETE + ABSTRACT:
        assert {(machine, f) for f in FORMATS} <= seen
    assert {("kcfa", "--widen"), ("kcfa", "--k"), ("kcfa", "--gc"), ("acm", "--annotate"),
            ("ceskt", "--gc"), ("ext", "--fuel"), ("pushdown", "--widen")} <= flags


if __name__ == "__main__":
    if sys.argv[1:] not in (["--record"], ["--check"]):
        raise SystemExit(__doc__)
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        got = record(Path(d))
    if sys.argv[1] == "--record":
        GOLDEN.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        print(f"recorded {GOLDEN}")
    else:
        want = json.loads(GOLDEN.read_text())
        changed = [cid for cid in got if got[cid] != want.get(cid)]
        changed += sorted(want.keys() - got.keys())
        if changed:
            print(f"{len(changed)} cases changed, first: {changed[:5]}", file=sys.stderr)
            raise SystemExit(1)
        print(f"{len(got)} cases match {GOLDEN.name}")
