"""Byte-for-byte command-line output at benchmark scale.

``test_cli_golden.py`` runs the divergent programs for 40 steps, which
keeps every store under a hundred addresses.  Here five store machines run
two divergent corpus programs for 300 steps, the fuel of the benchmark's
command-line workload, in every output format.  Their stores then reach
three-digit addresses, which the JSON output orders as strings (``@100``
before ``@11``).  The exit code and the sha256 of standard output must
match the values recorded in ``cli_golden_long.json``.

When an output change is intended, re-record with

    PYTHONPATH=src:tests python tests/test_cli_golden_long.py --record
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

from corpus import divergent_corpus
from test_cli_golden import FORMATS, run_case
from aam.cli import run
from aam.syntax import unparse

GOLDEN = Path(__file__).with_name("cli_golden_long.json")
FUEL = "300"
MACHINES = ("cesk", "ceskstar", "ceskt", "ext", "cm")
PROGRAMS = (1, 7)


def cases():
    """(case id, program text, argv without the file) for every case."""
    programs = divergent_corpus()
    for i in PROGRAMS:
        text = unparse(programs[i]) + "\n"
        for machine in MACHINES:
            for fmt in FORMATS:
                argv = [machine, "--fuel", FUEL, "--format", fmt]
                yield f"div/{i}/{' '.join(argv)}", text, argv


def record(tmp: Path) -> dict:
    return {cid: run_case(text, argv, tmp) for cid, text, argv in cases()}


def test_long_cli_output_matches_the_recorded_hashes(tmp_path):
    want = json.loads(GOLDEN.read_text())
    got = record(tmp_path)
    assert sorted(got) == sorted(want), "the case list changed; re-record deliberately"
    changed = [cid for cid in got if got[cid] != want[cid]]
    assert not changed, f"{len(changed)} outputs changed: {changed}"


def test_json_stores_reach_three_digit_addresses(tmp_path):
    programs = divergent_corpus()
    path = tmp_path / "program.scm"
    path.write_text(unparse(programs[PROGRAMS[0]]) + "\n")
    out = io.StringIO()
    with redirect_stdout(out):
        assert run(["ceskstar", "--fuel", FUEL, "--format", "json", str(path)]) == 0
    store = json.loads(out.getvalue())["states"][-1]["store"]
    assert "@100" in store
    assert list(store) == sorted(store)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(__doc__)
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        GOLDEN.write_text(json.dumps(record(Path(d)), indent=1, sort_keys=True) + "\n")
    print(f"recorded {GOLDEN}")
