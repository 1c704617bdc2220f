"""The classes every step and search builds are slotted value classes.

States, frames, values, storables, addresses, times, step outcomes and
pushdown nodes are ``store.value_class`` dataclasses: slotted and
non-frozen, so building one costs about what a plain object does.  Their
immutability is a convention, and this module guards it:

* instances have no ``__dict__``, no class keeps ``frozen=True``, and no
  class declares a slot its base already has;
* no code in ``src/aam`` assigns a field of a value class, by attribute
  store, ``setattr`` or ``object.__setattr__``;
* hash and equality are those of the field tuple, on the states and
  outcomes of corpus runs of every language.

To run the checks without pytest, on any supported Python:

    PYTHONPATH=src python tests/test_value_classes.py --check

It exits 1 and names the failed checks if any fails.
"""

from __future__ import annotations

import ast
import dataclasses
import sys
import traceback
from functools import cache
from pathlib import Path

import aam
from aam import extended, inspection, lazy, machines, pushdown, store
from aam.analysis import KCFAPolicy, analyze_widened, explore_states, inject_abstract, step_abstract
from aam.gc import collecting_step
from aam.machines import FRESH_POLICY, TIME_KEYED_POLICY, is_final_abstract, run_trace, trace_from

from corpus import UNIVERSE, divergent_corpus, extended_corpus, security_corpus, terminating_corpus

SRC = Path(aam.__file__).parent

VALUE_CLASSES = (
    # States
    machines.CEKState, machines.CESKtState, extended.ExtState, pushdown.PdTraceState,
    # Frames
    machines.Mt, machines.Ar, machines.Fn, lazy.UpdateK, lazy.ApplyK, lazy.ApplyExpK,
    extended.ArX, extended.FnX, extended.IfK, extended.SetK,
    inspection.MtM, inspection.ArM, inspection.FnM, pushdown.ArP, pushdown.FnP,
    # Values and storables
    machines.Closure, lazy.Delayed, lazy.Computed, extended.FalseV, extended.CallccV,
    extended.KontV, extended.HandlerPair, extended.MtH, extended.Hn,
    # Addresses and times
    store.FreshA, store.BindA, store.KontA, store.UpdateA,
    store.MonoBindA, store.MonoKontA, store.MonoUpdateA, store.Tick, store.Contour,
    # Step outcomes
    machines.Next, machines.Final, machines.Stuck, machines.FailFinal,
    # Pushdown
    pushdown.PdControl, pushdown.PdNode,
)
BASES = (machines.Value, machines.Kont, machines.Storable, store.Addr, store.Time, extended.Handler)

# Slots that cache a derived value rather than hold a field; writing them
# after construction is how the caches fill.  ``_live`` is the liveness
# ``gc.live_locations`` keeps.
CACHE_SLOTS = frozenset({"_repr", "_text", "_free_vars", "_live", *store.FrozenMap.__slots__})

# Core programs run; with the whole (short) extended and security corpora,
# enough to meet every class, and few enough to stay fast.
PROGRAMS = 6
FUEL = 60


# ---------------------------------------------------------------------------
# (a) no __dict__, no frozen=True
# ---------------------------------------------------------------------------


def _decorated_value_classes() -> set[str]:
    """Names of the classes ``src/aam`` decorates with ``value_class``."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(d, ast.Name) and d.id == "value_class" for d in node.decorator_list
            ):
                names.add(node.name)
    return names


def test_the_listed_classes_are_the_decorated_ones():
    assert {c.__name__ for c in VALUE_CLASSES} == _decorated_value_classes()


def test_value_class_instances_have_no_dict():
    for cls in VALUE_CLASSES:
        assert dataclasses.is_dataclass(cls), cls.__name__
        assert not hasattr(cls.__new__(cls), "__dict__"), f"{cls.__name__} instances have a __dict__"
        assert not cls.__dataclass_params__.frozen, f"{cls.__name__} is still frozen"
    for cls in BASES:
        assert "__slots__" in vars(cls), f"{cls.__name__} has no __slots__"
    for x in _corpus_objects():
        assert not hasattr(x, "__dict__"), f"{type(x).__name__} instance has a __dict__"


def test_no_value_class_declares_a_base_slot_again():
    """A slot a base declares is not declared again (Python 3.10's own
    ``slots=True`` would, and each instance would carry it twice)."""
    for cls in VALUE_CLASSES:
        own = set(cls.__slots__)
        for base in cls.__mro__[1:-1]:
            again = own & set(vars(base).get("__slots__", ()))
            assert not again, f"{cls.__name__} declares {sorted(again)} again ({base.__name__})"


# ---------------------------------------------------------------------------
# (b) no code writes a field
# ---------------------------------------------------------------------------


def _field_names() -> frozenset[str]:
    return frozenset(f.name for cls in VALUE_CLASSES for f in dataclasses.fields(cls))


def field_writes(source: str, fields: frozenset[str]) -> list[tuple[int, str]]:
    """(line, text) of every write of a name in ``fields``: attribute
    stores and deletions, and ``setattr``/``object.__setattr__`` calls
    (whose name, if not a literal, cannot be checked and counts as a
    write).  A class that is not a value class may set its own attributes
    on ``self``."""
    found = []

    def visit(node, own_class: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                value = any(isinstance(d, ast.Name) and d.id == "value_class"
                            for d in child.decorator_list)
                visit(child, not value)
                continue
            if (isinstance(child, ast.Attribute) and isinstance(child.ctx, (ast.Store, ast.Del))
                    and child.attr in fields
                    and not (own_class and isinstance(child.value, ast.Name) and child.value.id == "self")):
                found.append((child.lineno, ast.unparse(child)))
            elif isinstance(child, ast.Call) and len(child.args) >= 2 and ast.unparse(child.func) in (
                    "setattr", "object.__setattr__"):
                name = child.args[1]
                if not (isinstance(name, ast.Constant) and name.value not in fields):
                    found.append((child.lineno, ast.unparse(child)))
            visit(child, own_class)

    visit(ast.parse(source), False)
    return found


def test_no_code_writes_a_value_class_field():
    fields = _field_names()
    assert not fields & CACHE_SLOTS, "a field is named like a cache slot"
    writes = {path.name: field_writes(path.read_text(), fields) for path in sorted(SRC.glob("*.py"))}
    assert not any(writes.values()), {name: w for name, w in writes.items() if w}


def test_the_scan_sees_a_field_write():
    fields = _field_names()
    assert field_writes("def rule(s):\n    s.store = None\n", fields) == [(2, "s.store")]
    assert len(field_writes("object.__setattr__(k, 'tail', None)\nsetattr(k, name, 1)\n", fields)) == 2
    assert field_writes("object.__setattr__(e, '_text', t)\nm._d = {}\n", fields) == []
    own = "class Policy:\n    def __init__(self):\n        self.time = 0\n"
    assert field_writes(own, fields) == []
    assert field_writes("@value_class\n" + own, fields) == [(4, "self.time")]


# ---------------------------------------------------------------------------
# (c) hash and equality over the field tuple
# ---------------------------------------------------------------------------


def _recorded(step, outcomes: list):
    def wrapped(s):
        out = step(s)
        outcomes.append(out)
        return out
    return wrapped


def _trace(step, initial, outcomes: list) -> list:
    return trace_from(_recorded(step, outcomes), initial, FUEL).states


def _graph(initial, successors, is_final) -> list:
    return list(explore_states(initial, successors, is_final).states)


@cache
def corpus_runs() -> dict[str, list]:
    """Top-level objects (states, outcomes, nodes) of short concrete and
    abstract runs of every language, keyed by a run name."""
    term = terminating_corpus()[:PROGRAMS] + divergent_corpus()[:2]
    ext = extended_corpus()
    sec = security_corpus()
    k0, k1 = KCFAPolicy(0), KCFAPolicy(1)
    runs: dict[str, list] = {}
    for e in term:
        for m in ("cek", "cesk", "ceskstar", "ceskt"):
            runs.setdefault(m, []).extend(run_trace(m, e, FUEL).states)
        out: list = []
        runs.setdefault("ceskt-gc", []).extend(
            _trace(collecting_step(lambda s: machines.step_ceskt(s, TIME_KEYED_POLICY)),
                   machines.inject_ceskt(e, TIME_KEYED_POLICY), out))
        runs.setdefault("outcomes", []).extend(out)
        for k in (k0, k1):
            runs.setdefault("kcfa", []).extend(
                _graph(inject_abstract(e, k), lambda s: step_abstract(s, k), is_final_abstract))
            runs.setdefault("widened", []).extend(analyze_widened(e, k).contexts)
        runs.setdefault("lk", []).extend(_trace(lazy.step_lk, lazy.inject_lk(e), out))
        runs.setdefault("lk*", []).extend(_trace(
            lambda s: lazy.step_lk_star(s, FRESH_POLICY, "postponed"), lazy.inject_lk_star(e), out))
        for k in (k0, k1):
            runs.setdefault("alk", []).extend(_graph(
                lazy.inject_alk(e, k), lambda s: lazy.step_lk_star_abstract(s, k, "opt"),
                is_final_abstract))
        runs.setdefault("pushdown", []).extend(pushdown.reachable_pushdown(e).nodes)
        runs.setdefault("pd-trace", []).extend(pushdown.run_pd_trace(e, FUEL).states)
    for e in ext:
        out = []
        runs.setdefault("ext", []).extend(_trace(extended.step_extended, extended.inject_extended(e), out))
        runs.setdefault("outcomes", []).extend(out)
        runs.setdefault("aext", []).extend(_graph(
            extended.inject_extended(e, k1), lambda s: extended.step_extended_abstract(s, k1),
            extended.is_final_ext))
    for e in sec:
        out = []
        runs.setdefault("cm", []).extend(
            _trace(lambda s: inspection.step_cm(s, UNIVERSE), inspection.inject_cm(e, UNIVERSE), out))
        runs.setdefault("cm*", []).extend(_trace(
            lambda s: inspection.step_cm_star(s, UNIVERSE, FRESH_POLICY),
            inspection.inject_cm_star(e, UNIVERSE, FRESH_POLICY), out))
        runs.setdefault("outcomes", []).extend(out)
        runs.setdefault("acm", []).extend(_graph(
            inspection.inject_cm_star(e, UNIVERSE, k1),
            lambda s: inspection.step_cm_abstract(s, UNIVERSE, k1), inspection.is_final_acm))
    return runs


@cache
def _corpus_objects() -> list:
    """Every value-class object reachable from the corpus runs' objects
    through fields, maps, sets and tuples, each once."""
    seen: dict[int, object] = {}
    stack = [x for objs in corpus_runs().values() for x in objs]
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        if isinstance(x, store.FrozenMap):
            seen[id(x)] = None
            stack.extend(x.keys())
            stack.extend(x.values())
        elif isinstance(x, (tuple, frozenset)):
            stack.extend(x)
        elif isinstance(x, VALUE_CLASSES):
            seen[id(x)] = x
            stack.extend(_field_tuple(x))
    return [x for x in seen.values() if x is not None]


def _field_tuple(x) -> tuple:
    return tuple(getattr(x, f.name) for f in dataclasses.fields(x))


def test_every_class_is_met_in_the_corpus_runs():
    met = {type(x) for x in _corpus_objects()}
    # A concrete run of a closed program never sticks.
    assert set(VALUE_CLASSES) - met == {machines.Stuck}


def test_hash_and_equality_are_the_field_tuples():
    for x in _corpus_objects():
        fields = _field_tuple(x)
        assert hash(x) == hash(fields), type(x).__name__
        twin = type(x)(*fields)
        assert twin is not x and twin == x and not twin != x, type(x).__name__
    for name, objs in corpus_runs().items():
        objs = objs[:120]
        for a in objs:
            for b in objs:
                same = type(a) is type(b) and _field_tuple(a) == _field_tuple(b)
                assert (a == b) == same, name
                assert (a != b) != same, name


def test_a_stuck_outcome_is_its_reason():
    a, b = machines.Stuck("no rule"), machines.Stuck("no rule")
    assert a == b and hash(a) == hash(("no rule",)) and a != machines.Stuck("other")


if __name__ == "__main__":
    if sys.argv[1:] != ["--check"]:
        raise SystemExit(__doc__)
    failed = []
    for name, test in list(globals().items()):
        if name.startswith("test_") and callable(test):
            try:
                test()
            except Exception:
                failed.append(name)
                traceback.print_exc()
    if failed:
        print(f"{len(failed)} checks failed: {', '.join(failed)}", file=sys.stderr)
        raise SystemExit(1)
    print("value classes: every check passed")
