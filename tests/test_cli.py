"""Command-line front end: dispatch, flag validation, exit codes, and
byte-deterministic output in all three formats."""

from __future__ import annotations

import dataclasses
import importlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import tomllib
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from corpus import divergent_corpus, terminating_corpus
from aam import cli
from aam.cli import run
from aam.syntax import unparse

ID_ID = "((lambda (x) x) (lambda (y) y))"
OMEGA = "((lambda (w) (w w)) (lambda (w) (w w)))"
PRECISION = "((lambda (f) ((f (lambda (a) a)) (f (lambda (b) b)))) (lambda (x) x))"
TEST_NO_FRAME = "(test (p) (lambda (a) a) (lambda (b) b))"
IF_FALSE = "(if #f (lambda (a) a) (lambda (b) b))"

# The configuration errors the command line reports, each the exact text
# after ``config error: ``.
K_ONLY = "--k applies only to kcfa, alk, acm, aext"
K_NEGATIVE = "--k must be non-negative"
WIDEN_ONLY = "--widen applies only to abstract machines"
GC_WIDEN = "--gc cannot be combined with --widen"
FUEL_ONLY = "--fuel applies only to concrete machines"
FUEL_NEGATIVE = "--fuel must be non-negative"
ANNOTATE_ONLY = "--annotate applies only to cm, acm"
OPEN_Y = "program is open: free variables ['y']"


def foreign(program, language):
    return f"form {program!r} (node 0) is not part of the {language} machine's language"


def run_cli(tmp_path, program, *args, hashseed="0"):
    source = tmp_path / "program.scm"
    source.write_text(program + "\n")
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    return subprocess.run(
        [sys.executable, "-m", "aam.cli", *args, str(source)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


class TestConcreteRuns:
    def test_strict_machine_text_output(self, tmp_path):
        r = run_cli(tmp_path, ID_ID, "cek")
        assert r.returncode == 0
        lines = r.stdout.splitlines()
        assert lines[0] == "machine: cek"
        assert "Final: (lambda (y) y)" in lines
        assert "steps: 4" in lines
        assert sum(1 for l in lines if re.match(r"^\d+: ", l)) == 5

    def test_every_concrete_machine_runs_the_core_program(self, tmp_path):
        for machine in ("cek", "cesk", "ceskstar", "ceskt", "lk", "lk-opt", "lk-postponed"):
            r = run_cli(tmp_path, ID_ID, machine)
            assert r.returncode == 0, (machine, r.stderr)
            assert "Final: (lambda (y) y)" in r.stdout

    def test_fuel_exhaustion_is_a_success(self, tmp_path):
        r = run_cli(tmp_path, OMEGA, "cek", "--fuel", "3")
        assert r.returncode == 0
        assert "Out of fuel after 3 steps" in r.stdout

    def test_stuck_is_a_distinct_exit(self, tmp_path):
        r = run_cli(tmp_path, "(throw #f)", "ext")
        assert r.returncode == 3
        assert "Stuck:" in r.stdout

    def test_security_failure_is_a_success_exit(self, tmp_path):
        r = run_cli(tmp_path, "(frame (p) fail)", "cm")
        assert r.returncode == 0
        assert "Fail" in r.stdout

    def test_collection_leaves_the_verdict_alone(self, tmp_path):
        plain = run_cli(tmp_path, PRECISION, "cesk")
        gc = run_cli(tmp_path, PRECISION, "cesk", "--gc")
        assert plain.returncode == gc.returncode == 0
        final = [l for l in plain.stdout.splitlines() if l.startswith("Final:")]
        assert final == [l for l in gc.stdout.splitlines() if l.startswith("Final:")]


class TestAbstractRuns:
    def test_contour_analysis_explores(self, tmp_path):
        r = run_cli(tmp_path, PRECISION, "kcfa", "--k", "1")
        assert r.returncode == 0
        assert r.stdout.startswith("machine: kcfa k=1")
        assert "Explored" in r.stdout

    def test_widened_analysis_reports_iterations(self, tmp_path):
        r = run_cli(tmp_path, PRECISION, "0cfa", "--widen")
        assert r.returncode == 0
        assert "Widened to" in r.stdout
        assert any(l.startswith("iterations:") for l in r.stdout.splitlines())

    def test_pushdown_reports_summary_edges(self, tmp_path):
        r = run_cli(tmp_path, ID_ID, "pushdown")
        assert r.returncode == 0
        assert "Saturated" in r.stdout
        assert any(l.startswith("summary edge:") for l in r.stdout.splitlines())

    def test_abstract_machines_cover_their_languages(self, tmp_path):
        for machine, program in (
            ("alk", ID_ID),
            ("aext", "(if #f (lambda (a) a) (lambda (b) b))"),
            ("acm", TEST_NO_FRAME),
        ):
            r = run_cli(tmp_path, program, machine)
            assert r.returncode == 0, (machine, r.stderr)
            assert "Explored" in r.stdout


class TestExitCodes:
    def test_parse_error(self, tmp_path):
        r = run_cli(tmp_path, "((lambda (x) x", "cek")
        assert r.returncode == 1
        assert "parse error" in r.stderr

    def test_unknown_machine_is_a_usage_error(self, tmp_path):
        r = run_cli(tmp_path, ID_ID, "cfk")
        assert r.returncode == 2

    def test_missing_file(self, tmp_path):
        env = dict(os.environ, PYTHONHASHSEED="0")
        r = subprocess.run(
            [sys.executable, "-m", "aam.cli", "cek", str(tmp_path / "absent.scm")],
            capture_output=True,
            text=True,
            env=env,
        )
        assert r.returncode == 2
        assert "error" in r.stderr

    def test_undecodable_file_is_an_unreadable_file(self, tmp_path):
        source = tmp_path / "program.scm"
        source.write_bytes(b"\xff\xfe(lambda (x) x)")
        r = subprocess.run(
            [sys.executable, "-m", "aam.cli", "cek", str(source)],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONHASHSEED="0"),
            timeout=120,
        )
        assert r.returncode == 2
        assert len(r.stderr.splitlines()) == 1 and r.stderr.startswith("error: ")
        assert "Traceback" not in r.stderr

    def test_a_byte_order_mark_is_not_part_of_the_program(self, tmp_path):
        """A file some editors save with a UTF-8 byte-order mark runs as
        the same file without it."""
        outputs = []
        for name, head in (("plain.scm", b""), ("bom.scm", b"\xef\xbb\xbf")):
            source = tmp_path / name
            source.write_bytes(head + ID_ID.encode() + b"\n")
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = run(["cek", str(source)])
            assert (code, err.getvalue()) == (0, "")
            outputs.append(out.getvalue())
        assert outputs[1] == outputs[0] and "Final: (lambda (y) y)" in outputs[0]

    @pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
    def test_closed_output_pipe_ends_the_command_like_cat(self, tmp_path):
        # About 370 KB of text: far more than a pipe buffers, so the writer
        # meets the closed pipe.
        source = tmp_path / "program.scm"
        source.write_text(OMEGA + "\n")
        p = subprocess.Popen(
            [sys.executable, "-m", "aam.cli", "ceskt", "--fuel", "5000", str(source)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONHASHSEED="0"),
        )
        assert p.stdout.readline() == b"machine: ceskt\n"
        p.stdout.close()
        assert p.wait(timeout=120) == -signal.SIGPIPE
        stderr = p.stderr.read().decode()
        p.stderr.close()
        assert "Traceback" not in stderr, stderr

    # (program, arguments, the error it prints)
    CONFIGURATION_ERRORS = [
        (ID_ID, ("cek", "--k", "1"), K_ONLY),
        (ID_ID, ("kcfa", "--k", "-1"), K_NEGATIVE),
        (ID_ID, ("cek", "--gc"), "--gc does not apply to cek"),
        (ID_ID, ("pushdown", "--gc"), "--gc does not apply to pushdown"),
        (ID_ID, ("kcfa", "--gc", "--widen"), GC_WIDEN),
        (ID_ID, ("cek", "--widen"), WIDEN_ONLY),
        (ID_ID, ("kcfa", "--fuel", "9"), FUEL_ONLY),
        (ID_ID, ("cek", "--annotate", "p"), ANNOTATE_ONLY),
        ("(lambda (x) y)", ("cek",), OPEN_Y),
        (IF_FALSE, ("cek",), foreign(IF_FALSE, "core")),
        (TEST_NO_FRAME, ("ext",), foreign(TEST_NO_FRAME, "extended")),
    ]

    @pytest.mark.parametrize("program,args", [case[:2] for case in CONFIGURATION_ERRORS])
    def test_configuration_errors(self, tmp_path, program, args):
        (line,) = [line for p, a, line in self.CONFIGURATION_ERRORS if (p, a) == (program, args)]
        r = run_cli(tmp_path, program, *args)
        assert r.returncode == 2, (args, r.stdout, r.stderr)
        assert r.stderr == f"config error: {line}\n" and r.stdout == ""

    def test_permissions_outside_pragma_universe(self, tmp_path):
        r = run_cli(tmp_path, ";; permissions: (q)\n" + TEST_NO_FRAME, "cm")
        assert r.returncode == 2
        assert "universe" in r.stderr

    @pytest.mark.parametrize("machine", ["cm", "acm"])
    def test_empty_pragma_declares_an_empty_universe(self, tmp_path, machine):
        r = run_cli(tmp_path, ";; permissions: ()\n(frame (p) (lambda (x) x))", machine)
        assert r.returncode == 2, (r.stdout, r.stderr)
        assert r.stderr == "config error: permissions ['p'] are outside the declared universe\n"

    def test_pragma_declares_the_universe(self, tmp_path):
        r = run_cli(tmp_path, ";; permissions: (p q)\n" + TEST_NO_FRAME, "cm")
        assert r.returncode == 0
        assert "Final: (lambda (a) a)" in r.stdout


class TestConfigurationMatrix:
    """Every machine against every flag it might reject, and every language
    against an open program and a form outside it: the exact line each
    rejected run prints, and exit 0 for each accepted one."""

    FLAGS = ("--k 1", "--k -1", "--widen", "--gc", "--gc --widen", "--fuel 9", "--fuel -1",
             "--annotate p")
    # machine -> the error for each entry of FLAGS, or None where it runs.
    ERRORS = {
        "cek": (K_ONLY, K_ONLY, WIDEN_ONLY, "--gc does not apply to cek", WIDEN_ONLY, None,
                FUEL_NEGATIVE, ANNOTATE_ONLY),
        "cesk": (K_ONLY, K_ONLY, WIDEN_ONLY, None, WIDEN_ONLY, None, FUEL_NEGATIVE, ANNOTATE_ONLY),
        "ceskstar": (K_ONLY, K_ONLY, WIDEN_ONLY, None, WIDEN_ONLY, None, FUEL_NEGATIVE,
                     ANNOTATE_ONLY),
        "ceskt": (K_ONLY, K_ONLY, WIDEN_ONLY, None, WIDEN_ONLY, None, FUEL_NEGATIVE, ANNOTATE_ONLY),
        "lk": (K_ONLY, K_ONLY, WIDEN_ONLY, None, WIDEN_ONLY, None, FUEL_NEGATIVE, ANNOTATE_ONLY),
        "lk-opt": (K_ONLY, K_ONLY, WIDEN_ONLY, None, WIDEN_ONLY, None, FUEL_NEGATIVE,
                   ANNOTATE_ONLY),
        "lk-postponed": (K_ONLY, K_ONLY, WIDEN_ONLY, None, WIDEN_ONLY, None, FUEL_NEGATIVE,
                         ANNOTATE_ONLY),
        "ext": (K_ONLY, K_ONLY, WIDEN_ONLY, None, WIDEN_ONLY, None, FUEL_NEGATIVE, ANNOTATE_ONLY),
        "cm": (K_ONLY, K_ONLY, WIDEN_ONLY, None, WIDEN_ONLY, None, FUEL_NEGATIVE, None),
        "kcfa": (None, K_NEGATIVE, None, None, GC_WIDEN, FUEL_ONLY, FUEL_ONLY, ANNOTATE_ONLY),
        "0cfa": (K_ONLY, K_ONLY, None, None, GC_WIDEN, FUEL_ONLY, FUEL_ONLY, ANNOTATE_ONLY),
        "alk": (None, K_NEGATIVE, None, None, GC_WIDEN, FUEL_ONLY, FUEL_ONLY, ANNOTATE_ONLY),
        "acm": (None, K_NEGATIVE, None, None, GC_WIDEN, FUEL_ONLY, FUEL_ONLY, None),
        "aext": (None, K_NEGATIVE, None, None, GC_WIDEN, FUEL_ONLY, FUEL_ONLY, ANNOTATE_ONLY),
        "pushdown": (K_ONLY, K_ONLY, None, "--gc does not apply to pushdown",
                     "--gc does not apply to pushdown", FUEL_ONLY, FUEL_ONLY, ANNOTATE_ONLY),
    }
    # machine -> (its language's name, a program using a form outside it)
    LANGUAGES = {
        **dict.fromkeys(("cek", "cesk", "ceskstar", "ceskt", "kcfa", "0cfa", "pushdown"),
                        ("core", IF_FALSE)),
        **dict.fromkeys(("lk", "lk-opt", "lk-postponed", "alk"), ("lazy", IF_FALSE)),
        **dict.fromkeys(("ext", "aext"), ("extended", TEST_NO_FRAME)),
        **dict.fromkeys(("cm", "acm"), ("security", IF_FALSE)),
    }

    @staticmethod
    def outcome(path, program, argv):
        """(exit code, stdout, stderr) of one in-process run."""
        path.write_text(program + "\n")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run([*argv, str(path)])
        return code, out.getvalue(), err.getvalue()

    def test_every_machine_names_every_machine(self):
        assert set(self.ERRORS) == set(self.LANGUAGES) == set(cli.MACHINE_TABLE)

    @pytest.mark.parametrize("machine", list(ERRORS))
    def test_flags_each_machine_rejects(self, tmp_path, machine):
        wrong = []
        for flags, error in zip(self.FLAGS, self.ERRORS[machine]):
            code, out, err = self.outcome(tmp_path / "program.scm", ID_ID, [machine, *flags.split()])
            if error is None:
                ok = code == 0 and err == ""
            else:
                ok = (code, out, err) == (2, "", f"config error: {error}\n")
            if not ok:
                wrong.append((flags, code, err))
        assert wrong == []

    @pytest.mark.parametrize("machine", list(LANGUAGES))
    def test_programs_outside_each_language(self, tmp_path, machine):
        language, program = self.LANGUAGES[machine]
        for text, error in (("(lambda (x) y)", OPEN_Y), (program, foreign(program, language))):
            got = self.outcome(tmp_path / "program.scm", text, [machine])
            assert got == (2, "", f"config error: {error}\n"), (text, got)


class TestConsoleScript:
    """The installed ``aam`` command is the ``[project.scripts]`` entry point,
    which the other tests reach only through ``python -m aam.cli``."""

    def test_entry_point_is_the_command_line(self, capsys, monkeypatch):
        # argparse wraps help at the terminal width; at 80 columns its
        # default wrapping would split ``lk-postponed`` after the hyphen.
        monkeypatch.setenv("COLUMNS", "80")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["aam"]
        module, _, name = target.partition(":")
        main = getattr(importlib.import_module(module), name)
        # ``main`` restores the default SIGPIPE action; keep this process's.
        previous = signal.getsignal(signal.SIGPIPE) if hasattr(signal, "SIGPIPE") else None
        try:
            with pytest.raises(SystemExit) as help_exit:
                main(["--help"])
            assert help_exit.value.code == 0
            shown = capsys.readouterr().out
            assert shown.startswith("usage: aam ")
            # The help lists every machine in table order, and so does the
            # usage error for a name that is not a machine.
            words = shown.split("positional arguments:")[1].replace(",", " ").split()
            assert [w for w in words if w in cli.MACHINE_TABLE] == list(cli.MACHINE_TABLE)
            with pytest.raises(SystemExit) as usage_exit:
                main(["cfk", "program.scm"])
        finally:
            if previous is not None:
                signal.signal(signal.SIGPIPE, previous)
        assert usage_exit.value.code == 2
        listed = ", ".join(map(repr, cli.MACHINE_TABLE))
        assert capsys.readouterr().err.endswith(f"invalid choice: 'cfk' (choose from {listed})\n")


class TestAnnotation:
    def test_annotate_applies_the_static_policy(self, tmp_path):
        r = run_cli(tmp_path, TEST_NO_FRAME, "cm", "--annotate", "q")
        assert r.returncode == 0
        assert "Final: (lambda (a) (frame (q) a))" in r.stdout

    def test_annotate_works_on_the_abstract_machine(self, tmp_path):
        r = run_cli(tmp_path, TEST_NO_FRAME, "acm", "--annotate", "p,q")
        assert r.returncode == 0

    @pytest.mark.parametrize("names", ["a b,lambda", "p,lambda", "p,(q)", "p, q"])
    def test_annotate_rejects_what_the_parser_rejects(self, tmp_path, names):
        r = run_cli(tmp_path, TEST_NO_FRAME, "cm", "--annotate", names)
        assert r.returncode == 2, (names, r.stdout)
        assert r.stderr.startswith("config error:") and r.stdout == ""

    @pytest.mark.parametrize("machine", cli.ANNOTATABLE)
    def test_annotate_rejects_forms_outside_the_security_language(self, tmp_path, machine):
        r = run_cli(tmp_path, IF_FALSE, machine, "--annotate", "p")
        assert r.returncode == 2, r.stderr
        assert r.stderr.startswith("config error: form '(if #f ")
        assert "not part of the security machine's language" in r.stderr
        assert "Traceback" not in r.stderr and r.stdout == ""

    def test_annotate_skips_empty_names(self, tmp_path):
        r = run_cli(tmp_path, TEST_NO_FRAME, "cm", "--annotate", ",p,,q,")
        assert r.returncode == 0
        assert "Final: (lambda (a) (frame (p q) a))" in r.stdout


class TestJsonFormat:
    def test_schema_shape_and_key_order(self, tmp_path):
        r = run_cli(tmp_path, PRECISION, "kcfa", "--format", "json")
        assert r.returncode == 0
        obj = json.loads(r.stdout)
        assert list(obj.keys()) == ["machine", "k", "states", "edges", "initial", "summary"]
        assert obj["machine"] == "kcfa" and obj["k"] == 0
        state = obj["states"][0]
        assert list(state.keys()) == ["id", "control", "env", "store", "kont", "time", "final"]
        assert list(obj["summary"].keys()) == ["stateCount", "finals", "valueFlow"]
        assert obj["summary"]["stateCount"] == len(obj["states"])
        assert obj["summary"]["valueFlow"]["x"] == ["(lambda (a) a)", "(lambda (b) b)"]
        finals = {s["id"] for s in obj["states"] if s["final"]}
        assert finals == set(obj["summary"]["finals"])

    def test_concrete_json_has_linear_edges(self, tmp_path):
        r = run_cli(tmp_path, ID_ID, "cesk", "--format", "json")
        obj = json.loads(r.stdout)
        n = obj["summary"]["stateCount"]
        assert obj["edges"] == [[i, i + 1] for i in range(n - 1)]


class TestDotFormat:
    def test_finals_are_double_circled(self, tmp_path):
        r = run_cli(tmp_path, ID_ID, "kcfa", "--format", "dot")
        assert r.returncode == 0
        assert r.stdout.startswith("digraph aam {")
        assert "shape=doublecircle" in r.stdout
        assert "style=bold" in r.stdout
        assert r.stdout.rstrip().endswith("}")


class TestMonovariantPrinter:
    """``0cfa`` is ``kcfa`` at k = 0 with a printer that leaves out
    environments and times: both must show the same graph."""

    @staticmethod
    def run_json(path, *argv) -> dict:
        out = io.StringIO()
        with redirect_stdout(out):
            assert run([*argv, "--format", "json", str(path)]) == 0
        return json.loads(out.getvalue())

    @pytest.mark.parametrize("flags", [(), ("--gc",), ("--widen",)], ids=["plain", "gc", "widen"])
    def test_0cfa_and_kcfa_agree_on_the_seeded_corpus(self, tmp_path, flags):
        path = tmp_path / "program.scm"
        for e in terminating_corpus() + divergent_corpus():
            path.write_text(unparse(e) + "\n")
            mono = self.run_json(path, "0cfa", *flags)
            k0 = self.run_json(path, "kcfa", *flags)
            assert [r["control"] for r in mono["states"]] == [r["control"] for r in k0["states"]]
            assert mono["edges"] == k0["edges"]
            assert mono["summary"]["finals"] == k0["summary"]["finals"]
            assert mono["summary"]["valueFlow"] == k0["summary"]["valueFlow"]
            assert all(r["env"] == {} and r["time"] == "" for r in mono["states"])


class TestWidenedEdges:
    """A widened run prints the edges the fixpoint found: once
    ``widened_fixpoint`` returns, no context is stepped again."""

    def test_no_successor_call_after_the_fixpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "program.scm"
        path.write_text(PRECISION + "\n")
        calls = []
        at_return = []
        # Every successor of the run fires its row's rules, so counting the
        # rules also counts any step the command line takes itself.
        language, reading, arg = cli.MACHINE_TABLE["kcfa"]

        def counted_rules(s, *rest, _rules=language.rules):
            calls.append(s)
            return _rules(s, *rest)

        def fixpoint(*args, _fixpoint=cli.widened_fixpoint):
            system = _fixpoint(*args)
            at_return.append(len(calls))
            return system

        counted = dataclasses.replace(language, rules=counted_rules)
        monkeypatch.setitem(cli.MACHINE_TABLE, "kcfa", (counted, reading, arg))
        monkeypatch.setattr(cli, "widened_fixpoint", fixpoint)
        out = io.StringIO()
        with redirect_stdout(out):
            assert run(["kcfa", "--widen", str(path)]) == 0
        assert "edges:" in out.getvalue()
        assert at_return == [len(calls)] and calls


class TestLazyRendering:
    """Only JSON prints environments and stores, so only JSON renders them."""

    @pytest.mark.parametrize("fmt", ["text", "json", "dot"])
    @pytest.mark.parametrize("machine", ["ceskt", "kcfa"])
    def test_only_json_renders_environments_and_stores(self, tmp_path, monkeypatch, machine, fmt):
        path = tmp_path / "program.scm"
        path.write_text(PRECISION + "\n")
        argv = [machine, "--format", fmt, str(path)]

        def output():
            out = io.StringIO()
            with redirect_stdout(out):
                assert run(argv) == 0
            return out.getvalue()

        plain = output()
        calls = []
        for name in ("_render_env", "_render_store"):
            def counted(*args, _render=getattr(cli, name), _name=name):
                calls.append(_name)
                return _render(*args)

            monkeypatch.setattr(cli, name, counted)
        assert output() == plain
        if fmt == "json":
            assert {"_render_env", "_render_store"} <= set(calls)
        else:
            assert calls == []


class TestDeterminism:
    @pytest.mark.parametrize(
        "program,args",
        [
            (PRECISION, ("kcfa", "--k", "1", "--format", "json")),
            (PRECISION, ("pushdown", "--format", "dot")),
            (PRECISION, ("0cfa", "--widen", "--format", "json")),
            (TEST_NO_FRAME, ("cm", "--annotate", "p,q", "--format", "json")),
            (TEST_NO_FRAME, ("acm", "--format", "text")),
            (PRECISION, ("kcfa", "--k", "1", "--gc", "--format", "json")),
            (OMEGA, ("ceskt", "--fuel", "300", "--format", "json")),
        ],
    )
    def test_output_is_independent_of_hash_seed(self, tmp_path, program, args):
        a = run_cli(tmp_path, program, *args, hashseed="0")
        b = run_cli(tmp_path, program, *args, hashseed="42")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout
