"""State identity in the abstract explorers: syntax hashes by kind and
label, map hashes kept up to date by ``set``, one hash per successor in the
graph search, and output that does not depend on the hash seed."""

from __future__ import annotations

import dataclasses
import os
import random
import subprocess
import sys

import pytest

from corpus import UNIVERSE, extended_corpus, security_corpus, terminating_corpus
from aam.analysis import (
    KCFAPolicy,
    explore_0cfa,
    explore_states,
    inject_abstract,
    is_final_abstract,
    step_abstract,
)
from aam.extended import inject_aext, is_final_ext, step_extended_abstract
from aam.inspection import inject_acm, is_final_acm, step_cm_abstract
from aam.lazy import inject_alk, is_final_alk, step_lk_star_abstract
from aam.store import EMPTY_ASTORE, FrozenMap, astore_add, astore_join
from aam.syntax import Callcc, Fail, FalseLit, Lam, Ref, parse, unparse

PROGRAMS = 6


def fresh(m: FrozenMap) -> FrozenMap:
    """The same map built from scratch, so its hash is computed whole."""
    return FrozenMap(dict(m))


# ---------------------------------------------------------------------------
# Map hashes
# ---------------------------------------------------------------------------


def test_set_chains_hash_like_maps_built_whole():
    rng = random.Random(4)
    for _ in range(50):
        m = FrozenMap()
        for _ in range(rng.randrange(1, 30)):
            if rng.random() < 0.3:
                hash(m)  # later sets start from a known hash
            key = rng.randrange(8)  # few keys, so many sets overwrite
            m = m.set(key, rng.choice((frozenset({key}), "v", (key, key + 1), key * 7)))
            assert hash(m) == hash(fresh(m))
            assert m == fresh(m)


def test_overwriting_with_the_same_value_keeps_the_hash():
    m = FrozenMap({"x": 1, "y": 2})
    h = hash(m)
    assert hash(m.set("x", 1)) == h
    assert hash(m.set("x", 3).set("x", 1)) == h


def test_lazy_updates_hash_like_maps_built_whole():
    m = FrozenMap({i: frozenset({i}) for i in range(6)})
    hash(m)
    other = astore_add(EMPTY_ASTORE, 9, (1,))
    for derived in (m.update({1: "a", 7: "b"}), m.without([2, 3]), m.restrict([0, 5]),
                    astore_join(m, other), astore_add(m, 4, ("z",))):
        assert hash(derived) == hash(fresh(derived))


# ---------------------------------------------------------------------------
# Syntax hashes
# ---------------------------------------------------------------------------


def test_two_parses_are_equal_and_hash_equal():
    text = "((lambda (f) ((f (lambda (a) a)) (f (lambda (b) b)))) (lambda (x) x))"
    a, b = parse(text), parse(text)
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b) == f"{unparse(a)}#0"


def test_one_label_different_kinds_are_unequal():
    nodes = [FalseLit(3), Callcc(3), Fail(3), Ref(3, "x"), Lam(3, "x", Ref(4, "x"))]
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            assert a != b


def test_equality_stays_structural():
    assert Ref(0, "x") != Ref(0, "y")
    assert Lam(0, "x", Ref(1, "x")) != Lam(0, "x", Ref(1, "y"))
    assert Lam(0, "x", Ref(1, "x")) == Lam(0, "x", Ref(1, "x"))


# ---------------------------------------------------------------------------
# Graph states
# ---------------------------------------------------------------------------


def rebuild(x):
    """A field-by-field copy sharing no map, set or dataclass with ``x``."""
    if isinstance(x, FrozenMap):
        return FrozenMap({rebuild(k): rebuild(v) for k, v in x.items()})
    if isinstance(x, frozenset):
        return frozenset(rebuild(v) for v in x)
    if isinstance(x, tuple):
        return tuple(rebuild(v) for v in x)
    if dataclasses.is_dataclass(x):
        return type(x)(*(rebuild(getattr(x, f.name)) for f in dataclasses.fields(x)))
    return x


def graphs():
    for k in (0, 1):
        p = KCFAPolicy(k)
        for e in terminating_corpus()[:PROGRAMS]:
            yield f"kcfa{k}", explore_states(
                inject_abstract(e, p), lambda s: step_abstract(s, p), is_final_abstract)
            yield f"alk{k}", explore_states(
                inject_alk(e, p), lambda s: step_lk_star_abstract(s, p), is_final_alk)
        for e in extended_corpus()[:PROGRAMS]:
            yield f"aext{k}", explore_states(
                inject_aext(e, p), lambda s: step_extended_abstract(s, p), is_final_ext)
        for e in security_corpus()[:PROGRAMS]:
            yield f"acm{k}", explore_states(
                inject_acm(e, UNIVERSE, p), lambda s: step_cm_abstract(s, UNIVERSE, p),
                is_final_acm)
    for e in terminating_corpus()[:PROGRAMS]:
        yield "0cfa", explore_0cfa(e)


def test_graph_states_hash_like_rebuilt_copies():
    machines = set()
    for machine, g in graphs():
        machines.add(machine)
        for s in g.states:
            copy = rebuild(s)
            assert copy is not s
            assert copy == s, machine
            assert hash(copy) == hash(s), (machine, s)
    assert len(machines) == 9


# ---------------------------------------------------------------------------
# The graph search
# ---------------------------------------------------------------------------


class CountingNode:
    hashes = 0

    def __init__(self, n: int):
        self.n = n

    def __hash__(self) -> int:
        CountingNode.hashes += 1
        return hash(self.n)

    def __eq__(self, other) -> bool:
        return isinstance(other, CountingNode) and self.n == other.n


@pytest.mark.parametrize("order", ["bfs", "dfs"])
def test_each_successor_is_hashed_once(order):
    size = 40
    enumerated = 0

    def successors(node):
        nonlocal enumerated
        out = [CountingNode(m % size) for m in (2 * node.n + 1, 3 * node.n, node.n)]
        enumerated += len(out)
        return out

    CountingNode.hashes = 0
    g = explore_states(CountingNode(0), successors, lambda node: node.n % 7 == 0, order)
    assert len(g.states) > 10
    assert enumerated == 3 * len(g.states)
    assert CountingNode.hashes == 1 + enumerated  # the initial state, then one per successor


def labelled(g):
    return {(g.states[i], g.states[j]) for i, j in g.edges}


def test_bfs_and_dfs_reach_the_same_states_and_edges():
    for e in terminating_corpus()[:PROGRAMS]:
        p = KCFAPolicy(1)
        bfs, dfs = (explore_states(inject_abstract(e, p), lambda s: step_abstract(s, p),
                                   is_final_abstract, order) for order in ("bfs", "dfs"))
        assert set(bfs.states) == set(dfs.states)
        assert labelled(bfs) == labelled(dfs)
        assert {bfs.states[i] for i in bfs.finals} == {dfs.states[i] for i in dfs.finals}
        assert bfs.states[0] == dfs.states[0]


# ---------------------------------------------------------------------------
# Output does not depend on the hash seed
# ---------------------------------------------------------------------------


def run_cli(path, hashseed, *args):
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    r = subprocess.run([sys.executable, "-m", "aam.cli", *args, "--format", "json", str(path)],
                       capture_output=True, text=True, env=env, timeout=120)
    assert r.returncode == 0, r.stderr
    return r.stdout


OMEGA = "((lambda (w) (w w)) (lambda (w) (w w)))"


# The concrete row's last store holds 161 entries.  The case is named for
# the hash trie that once held stores this large and iterated them in hash
# order; now every row but the last reads an old version of one store
# family, whose dict order follows the rerooting.
@pytest.mark.parametrize(
    "args",
    [("kcfa", "--k", "1"), ("pushdown",), ("pushdown", "--widen"),
     ("ceskstar", "--fuel", "400")],
    ids=["kcfa1", "pushdown", "pushdown-widen", "ceskstar-trie"],
)
def test_json_output_is_the_same_under_every_hash_seed(tmp_path, args):
    source = tmp_path / "program.scm"
    program = OMEGA if args[0] == "ceskstar" else unparse(terminating_corpus()[3])
    source.write_text(program + "\n")
    first = run_cli(source, "0", *args)
    assert first == run_cli(source, "1", *args)
    assert '"states"' in first or '"nodes"' in first


# ---------------------------------------------------------------------------
# A violated invariant is an exit code, not a traceback
# ---------------------------------------------------------------------------

REISSUE = """
import sys
import aam.machines
from aam.cli import main
from aam.store import FreshA
aam.machines.fresh_addr = lambda store: FreshA(0)  # re-issues a taken address
main(sys.argv[1:])
"""


def test_invariant_violation_exits_4_without_a_traceback(tmp_path):
    source = tmp_path / "program.scm"
    source.write_text("((lambda (x) x) (lambda (y) y))\n")
    r = subprocess.run([sys.executable, "-c", REISSUE, "ceskt", str(source)],
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == 4, r.stderr
    assert "Traceback" not in r.stderr
    assert r.stderr.count("\n") == 1
    assert "invariant" in r.stderr and "fresh" in r.stderr
    assert r.stdout == ""
