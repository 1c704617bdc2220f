"""The interning search: ``analysis.explore_rules`` fires a language's
rules over an ``interning.InterningStore`` and a policy made for the one
search, so every part of every state is made once and states are indexed
by the identities of their parts.  It must give, state for state and in
the same order, the graph ``explore_states`` gives over ``ABSTRACT_STORE``.
A part built outside the semantics' hooks would be a second object equal
to a canonical one: it shows up here as extra states, or, where the graph
has a cycle, as a search that does not end.  Its tables must die with the
search."""

from __future__ import annotations

import weakref

import pytest

from corpus import UNIVERSE, divergent_corpus, extended_corpus, security_corpus, terminating_corpus
from aam import interning
from aam.analysis import KCFAPolicy, explore, explore_0cfa, explore_rules, explore_states
from aam.extended import EXTENDED
from aam.gc import collect, collecting_successors
from aam.inspection import SECURITY
from aam.lazy import LAZY, VARIANTS
from aam.machines import CORE, MT, Closure, Kont
from aam.interning import InterningStore, SearchPolicy
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


def _interned(lang, e, k: int, arg, collecting: bool):
    policy = KCFAPolicy(k)
    return explore_rules(lang, lang.inject(e, arg, policy.t0), policy, arg, collecting=collecting)


@pytest.mark.parametrize("collecting", [False, True], ids=["nogc", "gc"])
@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("name", sorted(LANGUAGES))
def test_the_interning_search_gives_the_value_search_graph(name, k, collecting):
    lang, arg, own = LANGUAGES[name]
    for e in _programs(own):
        got = _interned(lang, e, k, arg, collecting)
        ref = _by_value(lang, e, k, arg, collecting)
        assert got.states == ref.states, unparse(e)
        assert (got.edges, got.finals) == (ref.edges, ref.finals), unparse(e)


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("name", sorted(LANGUAGES))
def test_equal_parts_are_one_object(name, k):
    """Within one graph, every field of every state, and every storable of
    every store, has as many objects as it has values."""
    lang, arg, own = LANGUAGES[name]
    for e in _programs(own):
        g = _interned(lang, e, k, arg, False)
        fields = [[getattr(s, f) for s in g.states]
                  for f in ("ctrl", "env", "store", "kont", "time")]
        fields.append([v for s in g.states for vs in s.store.values() for v in vs])
        for xs in fields:
            assert len({id(x) for x in xs}) == len(set(xs)), unparse(e)


def test_explore_is_the_interning_search():
    for e in terminating_corpus() + divergent_corpus():
        for k in (0, 1):
            got, ref = explore(e, KCFAPolicy(k)), _by_value(CORE, e, k, None, False)
            assert (got.states, got.edges, got.finals) == (ref.states, ref.edges, ref.finals)
            envs = [s.env for s in got.states]
            assert len({id(x) for x in envs}) == len(set(envs))


def test_the_tables_die_with_the_search(monkeypatch):
    """The semantics and the policy a search makes are freed, by reference
    counting alone, once it returns; its graph holds neither."""
    made = []

    class Recorded(InterningStore):
        def __init__(self):
            super().__init__()
            made.append(weakref.ref(self))

    class RecordedPolicy(SearchPolicy):
        def __init__(self, base):
            super().__init__(base)
            made.append(weakref.ref(self))

    monkeypatch.setattr(interning, "InterningStore", Recorded)
    monkeypatch.setattr(interning, "SearchPolicy", RecordedPolicy)
    g = explore(CHURCH_2_2, KCFAPolicy(1))
    assert len(made) == 2 and len(g.states) > 1
    del g
    assert [ref() for ref in made] == [None, None]


def test_two_searches_share_no_frame_closure_or_environment():
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

    a, b = explore_0cfa(CHURCH_2_2), explore_0cfa(CHURCH_2_2)
    assert a == b
    first, second = made(a), made(b)
    assert first and not first.keys() & second.keys()
