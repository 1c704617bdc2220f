"""Command-line front end: dispatch, flag validation, exit codes, and
byte-deterministic output in all three formats."""

from __future__ import annotations

import io
import json
import os
import re
import signal
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

from corpus import divergent_corpus, terminating_corpus
from aam import cli
from aam.cli import run
from aam.syntax import unparse

ID_ID = "((lambda (x) x) (lambda (y) y))"
OMEGA = "((lambda (w) (w w)) (lambda (w) (w w)))"
PRECISION = "((lambda (f) ((f (lambda (a) a)) (f (lambda (b) b)))) (lambda (x) x))"
TEST_NO_FRAME = "(test (p) (lambda (a) a) (lambda (b) b))"


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

    @pytest.mark.parametrize(
        "program,args",
        [
            (ID_ID, ("cek", "--k", "1")),
            (ID_ID, ("kcfa", "--k", "-1")),
            (ID_ID, ("cek", "--gc")),
            (ID_ID, ("pushdown", "--gc")),
            (ID_ID, ("kcfa", "--gc", "--widen")),
            (ID_ID, ("cek", "--widen")),
            (ID_ID, ("kcfa", "--fuel", "9")),
            (ID_ID, ("cek", "--annotate", "p")),
            ("(lambda (x) y)", ("cek",)),
            ("(if #f (lambda (a) a) (lambda (b) b))", ("cek",)),
            (TEST_NO_FRAME, ("ext",)),
        ],
    )
    def test_configuration_errors(self, tmp_path, program, args):
        r = run_cli(tmp_path, program, *args)
        assert r.returncode == 2, (args, r.stdout, r.stderr)

    def test_permissions_outside_pragma_universe(self, tmp_path):
        r = run_cli(tmp_path, ";; permissions: (q)\n" + TEST_NO_FRAME, "cm")
        assert r.returncode == 2
        assert "universe" in r.stderr

    def test_pragma_declares_the_universe(self, tmp_path):
        r = run_cli(tmp_path, ";; permissions: (p q)\n" + TEST_NO_FRAME, "cm")
        assert r.returncode == 0
        assert "Final: (lambda (a) a)" in r.stdout


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
        r = run_cli(tmp_path, "(if #f (lambda (a) a) (lambda (b) b))", machine, "--annotate", "p")
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

        def counted_step(s, policy, _step=cli.step_abstract):
            calls.append(s)
            return _step(s, policy)

        def fixpoint(*args, _fixpoint=cli.widened_fixpoint):
            system = _fixpoint(*args)
            at_return.append(len(calls))
            return system

        monkeypatch.setattr(cli, "step_abstract", counted_step)
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
