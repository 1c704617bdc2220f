"""The interning search: ``analysis.explore_rules`` fires a language's
rules over an ``interning.InterningStore`` made for the one search, under
a ``KCFAPolicy`` that makes each time and address once, so every part of
every state is made once and states are indexed by the identities of
their parts.  It must give, state for state and in the same order, the
graph ``explore_states`` gives over ``ABSTRACT_STORE``.  A part built
outside the semantics' hooks would be a second object equal to a
canonical one: it shows up here as extra states, or, where the graph has
a cycle, as a search that does not end, which the step budget every
search here runs under turns into a failure.  The store's tables must die
with the search."""

from __future__ import annotations

import dataclasses
import weakref

import pytest

from corpus import UNIVERSE, divergent_corpus, extended_corpus, security_corpus, terminating_corpus
from aam import analysis, interning
from aam.analysis import KCFAPolicy, explore, explore_0cfa, explore_rules, explore_states
from aam.extended import EXTENDED
from aam.gc import collect, collecting_successors
from aam.inspection import SECURITY
from aam.lazy import LAZY, VARIANTS
from aam.machines import CORE, MT, Closure, Kont
from aam.interning import InterningStore
from aam.store import ABSTRACT_STORE, EMPTY_MAP, FrozenMap
from aam.syntax import parse, unparse

# (language, language argument, the language's own corpus) of every
# abstract language with per-state stores.
LANGUAGES = {
    "kcfa": (CORE, None, None),
    **{f"alk-{v}": (LAZY, v, None) for v in VARIANTS},
    "aext": (EXTENDED, None, extended_corpus),
    "acm": (SECURITY, UNIVERSE, security_corpus),
}

CHURCH_2_2 = parse(
    "(((lambda (m) (lambda (n) (lambda (f) (lambda (x) ((m (n f)) x)))))"
    " (lambda (f) (lambda (x) (f (f x)))))"
    " (lambda (f) (lambda (x) (f (f x)))))"
)


def _programs(own) -> list:
    return terminating_corpus() + divergent_corpus() + (own() if own else [])


def _by_value(lang, e, k: int, arg, collecting: bool):
    """The graph of the value-keyed search over ``ABSTRACT_STORE``."""
    policy = KCFAPolicy(k)
    initial = lang.inject(e, arg, policy.t0)
    successors = lambda s: lang.rules(s, ABSTRACT_STORE, policy, arg)  # noqa: E731
    if collecting:
        initial = collect(initial, abstract=True)
        successors = collecting_successors(successors)
    return explore_states(initial, successors, lang.final)


def _budgeted(lang, n: int):
    """``lang`` with rules that raise once fired more than 2n + 10 times.
    A search of a graph of n states fires them once a state, so a search
    that makes a part twice, and so may never end, fails instead."""
    rules, fired = lang.rules, 0

    def counted(s, sem, policy, arg):
        nonlocal fired
        fired += 1
        if fired > 2 * n + 10:
            raise AssertionError(f"over {2 * n + 10} steps for a graph of {n} states")
        return rules(s, sem, policy, arg)

    return dataclasses.replace(lang, rules=counted)


def _graphs(lang, e, k: int, arg, collecting: bool):
    """The interning search's graph, searched under a budget of the
    value-keyed graph's size, and the value-keyed graph."""
    ref = _by_value(lang, e, k, arg, collecting)
    policy = KCFAPolicy(k)
    got = explore_rules(_budgeted(lang, len(ref.states)), lang.inject(e, arg, policy.t0),
                        policy, arg, collecting=collecting)
    return got, ref


def _budget_explore(monkeypatch, e, k: int):
    """Put ``explore``'s searches of ``e`` at ``k`` under a budget of the
    value-keyed graph's size, and return that graph."""
    ref = _by_value(CORE, e, k, None, False)
    monkeypatch.setattr(analysis, "CORE", _budgeted(CORE, len(ref.states)))
    return ref


@pytest.mark.parametrize("collecting", [False, True], ids=["nogc", "gc"])
@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("name", sorted(LANGUAGES))
def test_the_interning_search_gives_the_value_search_graph(name, k, collecting):
    lang, arg, own = LANGUAGES[name]
    for e in _programs(own):
        got, ref = _graphs(lang, e, k, arg, collecting)
        assert got.states == ref.states, unparse(e)
        assert (got.edges, got.finals) == (ref.edges, ref.finals), unparse(e)


@pytest.mark.parametrize("collecting", [False, True], ids=["nogc", "gc"])
def test_the_interning_search_at_k2(collecting):
    """Above k = 1 the policy makes its longer contours once as well."""
    for e in terminating_corpus():
        got, ref = _graphs(CORE, e, 2, None, collecting)
        assert got.states == ref.states, unparse(e)
        assert (got.edges, got.finals) == (ref.edges, ref.finals), unparse(e)


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("name", sorted(LANGUAGES))
def test_equal_parts_are_one_object(name, k):
    """Within one graph, every field of every state, every address and
    every storable of every store, has as many objects as it has values."""
    lang, arg, own = LANGUAGES[name]
    for e in _programs(own):
        g = _graphs(lang, e, k, arg, False)[0]
        fields = [[getattr(s, f) for s in g.states]
                  for f in ("ctrl", "env", "store", "kont", "time")]
        fields.append([a for s in g.states for a in s.store])
        fields.append([v for s in g.states for vs in s.store.values() for v in vs])
        for xs in fields:
            assert len({id(x) for x in xs}) == len(set(xs)), unparse(e)


def test_explore_is_the_interning_search(monkeypatch):
    for e in terminating_corpus() + divergent_corpus():
        for k in (0, 1):
            ref = _budget_explore(monkeypatch, e, k)
            got = explore(e, KCFAPolicy(k))
            assert (got.states, got.edges, got.finals) == (ref.states, ref.edges, ref.finals)
            envs = [s.env for s in got.states]
            assert len({id(x) for x in envs}) == len(set(envs))


def test_the_tables_die_with_the_search(monkeypatch):
    """The store semantics a search makes is freed, by reference counting
    alone, once it returns; its graph does not hold it."""
    made = []

    class Recorded(InterningStore):
        def __init__(self):
            super().__init__()
            made.append(weakref.ref(self))

    monkeypatch.setattr(interning, "InterningStore", Recorded)
    _budget_explore(monkeypatch, CHURCH_2_2, 1)
    g = explore(CHURCH_2_2, KCFAPolicy(1))
    assert len(made) == 1 and len(g.states) > 1
    del g
    assert made[0]() is None


def test_a_policy_of_another_class_is_refused():
    """A subclass may make an address twice, which would keep the search
    from ever ending; it searches through ``explore_states``."""

    class Subclass(KCFAPolicy):
        pass

    with pytest.raises(TypeError, match="explore_states"):
        explore(CHURCH_2_2, Subclass(1))


def test_two_searches_share_no_frame_closure_or_environment(monkeypatch):
    """Tables are per search: nothing a search made is handed to the next.
    The injected empty map and empty continuation are module constants."""

    def made(g) -> dict:
        objs = []
        for s in g.states:
            objs += [s.env, s.kont]
            for vs in s.store.values():
                for v in vs:
                    objs += [v, v.env] if isinstance(v, Closure) else [v]
        return {id(x): x for x in objs
                if isinstance(x, (FrozenMap, Kont, Closure)) and x is not EMPTY_MAP and x is not MT}

    _budget_explore(monkeypatch, CHURCH_2_2, 0)
    a, b = explore_0cfa(CHURCH_2_2), explore_0cfa(CHURCH_2_2)
    assert a == b
    first, second = made(a), made(b)
    assert first and not first.keys() & second.keys()
