"""Tests of the benchmark itself: seeded inputs, the tracer, the checks.

Run with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import inspect
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
for p in (BENCH.parent / "src", BENCH.parent / "tests", BENCH):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

import programs  # noqa: E402
import tracer as T  # noqa: E402
import worker  # noqa: E402
import workloads as W  # noqa: E402


@pytest.fixture(scope="module")
def modules():
    return W.Modules()


def _requests(workload, modules, tmp_path, seed=1):
    tmp_path.mkdir(parents=True, exist_ok=True)
    setup = W.generate(workload, seed, tmp_path)
    return setup, W.build(workload, modules, setup)


def test_a_seed_reproduces_its_programs_and_requests(modules, tmp_path):
    a_setup, a = _requests("cli-corpus", modules, tmp_path / "a")
    b_setup, b = _requests("cli-corpus", modules, tmp_path / "b")
    texts = lambda s: [p.text for g in ("term", "div", "ext", "sec") for p in s[g]]  # noqa: E731
    assert texts(a_setup) == texts(b_setup)
    assert [r.id for r in a] == [r.id for r in b]
    other, _ = _requests("cli-corpus", modules, tmp_path / "c", seed=2)
    assert texts(other) != texts(a_setup)


def test_church_encodings_match_the_documented_step_counts(modules):
    parse = modules.syntax.parse
    assert modules.machines.run_trace("ceskt", parse(programs.church_direct(4, 4)), 10**4).steps == 122
    assert modules.machines.run_trace("ceskt", parse(programs.church_add(4, 4)), 10**4).steps == 193


def _bindings():
    """Every binding the tracer may touch, by identity."""
    mods = [m for n, m in sorted(sys.modules.items()) if n == "aam" or n.startswith("aam.")]
    snap = {}
    for mod in mods:
        for name, val in vars(mod).items():
            snap[(mod.__name__, name)] = id(val)
            if isinstance(val, dict):
                for k, item in val.items():
                    snap[(mod.__name__, name, k)] = (
                        tuple(map(id, item)) if isinstance(item, tuple) else id(item))
    for fn in T._all_functions(mods):
        snap[(fn.__module__, fn.__qualname__, "defaults")] = tuple(map(id, fn.__defaults__ or ()))
        snap[(fn.__module__, fn.__qualname__, "kwdefaults")] = tuple(
            map(id, (fn.__kwdefaults__ or {}).values()))
    frozen_map = sys.modules["aam.store"].FrozenMap
    for name in T.FROZENMAP_METHODS:
        snap[("FrozenMap", name)] = id(vars(frozen_map)[name])
    return snap


def test_tracer_wraps_every_binding_and_restores_it(modules):
    before = _bindings()
    tr = T.Tracer()
    with tr.installed():
        m = modules
        assert m.machines.MACHINES["ceskt"][1].__wrapped__ is not None
        assert m.analysis.alpha_store.__wrapped__.__defaults__[0] is m.analysis.alpha_storable_core
        assert m.gc.gc_reachable.__wrapped__.__defaults__[-1] is m.gc.live_locations
        assert m.gc.live_locations.__wrapped__ is not None
        assert m.cli.EMITTERS["json"].__wrapped__ is not None
        assert m.analysis.astore_join is m.store.astore_join  # one wrapper per function
        assert hasattr(vars(m.store.FrozenMap)["__hash__"], "__wrapped__")
        changed = {k for k, v in _bindings().items() if before.get(k) != v}
        assert ("aam.analysis", "sort_key") in changed
        assert ("aam", "run_trace") in changed
        m.machines.run_trace("ceskt", m.syntax.parse(programs.church_direct(2, 2)), 1000)
    assert _bindings() == before
    assert tr.spans["machines.step_ceskt"][0] > 0
    assert tr.spans["store.fresh_addr"][0] > 0
    for mod in [sys.modules[f"aam.{n}"] for n in T.MODULES]:
        for name, obj in vars(mod).items():
            assert not hasattr(obj, "__wrapped__") or not inspect.isfunction(obj), (mod, name)


# Per-layer metrics each workload is meant to exercise.
EXERCISED = {
    "concrete-ladder": (
        "store.fresh_addr.calls", "store.fresh_addr.self_s", "store.FrozenMap.set.self_s",
        "machines.step.calls", "machines.step.self_s", "machines.trace_from.self_s",
        "lazy.step.calls", "extended.step.calls", "inspection.step.calls",
        "gc.collect.calls", "gc.collect.self_s", "gc.gc_reachable.self_s", "gc.removed_addrs",
        "syntax.free_vars.calls", "syntax.free_vars.self_s", "store.peak_entries",
    ),
    "explore": (
        "store.FrozenMap.__hash__.calls", "store.FrozenMap.__hash__.self_s",
        "store.astore_add.calls", "store.astore_add.self_s", "store.astore_get.calls",
        "store.sort_key.calls", "store.sort_key.self_s", "syntax.unparse.calls",
        "analysis.step.calls", "analysis.step.self_s", "analysis.explore_states.self_s",
        "analysis.states", "analysis.edges", "analysis.fanout",
        "lazy.step.calls", "extended.step.calls", "inspection.step.calls",
        "pushdown.step.calls", "pushdown.step.self_s", "pushdown.saturate.self_s",
        "pushdown.nodes", "pushdown.edges", "gc.collect.calls", "gc.removed_addrs",
    ),
    "widen-ladder": (
        "store.astore_join.calls", "store.astore_join.self_s",
        "analysis.widened_fixpoint.self_s", "analysis.widen_rounds",
        "analysis.widen_successor_calls", "analysis.widen_useful_ratio",
        "pushdown.widen_rounds", "store.peak_entries",
    ),
    "cli-corpus": (
        "syntax.parse_program.self_s", "syntax.unparse.calls", "syntax.unparse.self_s",
        "cli.run.self_s", "cli.emit.self_s", "cli.flow.self_s", "cli.output_bytes",
    ),
}


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_traced_pass_exercises_its_layers(workload, modules, tmp_path):
    _, reqs = _requests(workload, modules, tmp_path)
    failures = []
    expected = worker._check_pass(reqs, None, failures)
    _, _, plain = worker._pass(reqs, expected, failures)
    tr = T.Tracer()
    with tr.installed():
        _, _, traced = worker._pass(reqs, expected, failures, tr)
    assert traced == plain
    assert all(kind == "error" and rid.startswith("hostile/deep-") for rid, kind, _ in failures)
    metrics = T.layer_metrics(tr, 0.0)
    assert {name for name, _, _ in T.PER_LAYER} == set(metrics)
    zero = [name for name in EXERCISED[workload] if not metrics[name]["value"] > 0]
    assert not zero


def test_an_altered_fingerprint_is_a_failure(modules, tmp_path):
    _, reqs = _requests("concrete-ladder", modules, tmp_path)
    reqs = reqs[:3]
    recorded = worker._check_pass(reqs, None, [])
    assert len(recorded) == 3
    failures = []
    worker._check_pass(reqs, recorded, failures)
    assert failures == []
    bad = dict(recorded)
    bad[reqs[1].id] = dict(bad[reqs[1].id], steps=bad[reqs[1].id]["steps"] + 1)
    worker._check_pass(reqs, bad, failures)
    assert [(rid, kind) for rid, kind, _ in failures] == [(reqs[1].id, "wrong")]
    failures = []
    worker._pass(reqs, bad, failures)
    assert [(rid, kind) for rid, kind, _ in failures] == [(reqs[1].id, "wrong")]


def test_command_line_checks_read_all_three_formats(modules, tmp_path):
    path = tmp_path / "p.scm"
    path.write_text("((lambda (x) x) (lambda (y) y))\n")
    for machine in ("cek", "kcfa", "pushdown"):
        rows = {fmt: W._rows(fmt, W.cli_call(modules, [machine, "--format", fmt, str(path)])[1])
                for fmt in W.FORMATS}
        assert rows["text"] == rows["json"] == rows["dot"]
        assert ("(lambda (y) y)", True) in rows["text"]


def test_value_oracle_rejects_a_wrong_final(modules):
    oracle = W.Oracle(modules)
    e = modules.syntax.parse("((lambda (x) (lambda (y) x)) (lambda (z) z))")
    assert oracle.value_ok("(lambda (y) x)", e)
    assert not oracle.value_ok("(lambda (y) y)", e)
    assert not oracle.value_ok("(lambda (z) z)", e)
