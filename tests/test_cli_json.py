"""``aam --format json``: the direct writer against ``json.dumps``.

``emit_json`` writes the document itself and renders each environment,
store and store entry once per call.  The reference here is the dict
builder it replaced, fed to ``json.dumps(obj, indent=2)``: on every model
the two must agree byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from corpus import divergent_corpus, terminating_corpus
from test_cli_golden import cases
from aam import cli
from aam.cli import Model, Row, emit_json
from aam.store import FrozenMap, sort_key
from aam.syntax import parse_program, unparse


# ---------------------------------------------------------------------------
# The reference: build the document as a dict and let json.dumps print it
# ---------------------------------------------------------------------------


def reference_env(env) -> dict:
    if env is None:
        return {}
    return {x: repr(a) for x, a in sorted(env.items(), key=lambda kv: kv[0])}


def reference_store(store, abstract: bool, show=repr) -> dict:
    if store is None:
        return {}
    items = sorted(store.items(), key=lambda kv: sort_key(kv[0]))
    if abstract:
        return {repr(a): sorted(show(v) for v in vs) for a, vs in items}
    return {repr(a): show(v) for a, v in items}


def reference_json(model: Model) -> str:
    obj = {
        "machine": model.machine,
        "k": model.k,
        "states": [
            {
                "id": r.id,
                "control": r.control,
                "env": reference_env(r.env),
                "store": reference_store(r.store, model.abstract, model.show),
                "kont": r.kont,
                "time": r.time,
                "final": r.final,
            }
            for r in model.rows
        ],
        "edges": [[i, j] for i, j in model.edges],
        "initial": model.initial,
        "summary": {
            "stateCount": len(model.rows),
            "finals": model.finals,
            "valueFlow": model.value_flow,
        },
    }
    return json.dumps(obj, indent=2)


def model_of(text: str, argv: list, tmp_path) -> Model:
    path = tmp_path / "program.scm"
    path.write_text(text)
    args = cli.build_parser().parse_args([*argv, str(path)])
    model, _code = cli._dispatch(args, parse_program(text))
    return model


# ---------------------------------------------------------------------------
# Byte identity
# ---------------------------------------------------------------------------


def json_cases():
    """Every command-line golden case, in JSON: every machine on the
    terminating, divergent, extended and security corpora, with the flag
    sets (``--gc``, ``--widen``, ``--k 1``, ``--annotate``) rotated over
    the programs."""
    for cid, text, argv in cases():
        argv = [*argv[: argv.index("--format")], "--format", "json"]
        yield cid, text, argv


def test_corpus_runs_match_json_dumps(tmp_path):
    for cid, text, argv in json_cases():
        model = model_of(text, argv, tmp_path)
        assert emit_json(model) == reference_json(model), cid


@dataclass(frozen=True)
class Named:
    """A storable or address that prints as any text."""

    text: str

    def __repr__(self) -> str:
        return self.text


AWKWARD = ('quote"', "back\\slash", "acuteé", "new\nline", "control\x01")


def row(i, env=None, store=None, final=False) -> Row:
    return Row(
        id=i,
        control=AWKWARD[i % len(AWKWARD)],
        env=env,
        store=store,
        kont="é\\\"",
        time="\n\x01",
        final=final,
    )


def hand_model(rows, edges=(), finals=(), flow=None, abstract=False, show=repr) -> Model:
    return Model(
        machine='m"é',
        k=1,
        rows=list(rows),
        edges=list(edges),
        initial=0,
        finals=list(finals),
        value_flow={} if flow is None else flow,
        headline="",
        extras=[],
        abstract=abstract,
        show=show,
    )


def test_awkward_strings_match_json_dumps():
    """One model per store kind, each also under a printer of its own."""
    env = FrozenMap({text: Named(text[::-1]) for text in AWKWARD})
    concrete = FrozenMap({Named(text): Named(text.upper()) for text in AWKWARD})
    abstract = FrozenMap({Named(text): frozenset(map(Named, AWKWARD[:3])) for text in AWKWARD})
    for store, is_abstract in ((concrete, False), (abstract, True)):
        for show in (repr, lambda v: f"<{v!r}>"):
            m = hand_model(
                [
                    row(0, env, store),
                    row(1, env, store),
                    row(2, FrozenMap({"x": Named("@0")}), store, final=True),
                ],
                edges=[(0, 1), (1, 2)],
                finals=[2],
                flow={text: sorted(AWKWARD) for text in AWKWARD},
                abstract=is_abstract,
                show=show,
            )
            assert emit_json(m) == reference_json(m)


def test_empty_parts_match_json_dumps():
    concrete = hand_model([row(0), row(1, FrozenMap(), FrozenMap())])
    bottom = FrozenMap({Named("a"): frozenset()})
    abstract = hand_model(
        [row(0), row(1, FrozenMap(), FrozenMap()), row(2, None, bottom)], abstract=True
    )
    for m in (concrete, abstract, hand_model([]), hand_model([], abstract=True)):
        assert emit_json(m) == reference_json(m)


# ---------------------------------------------------------------------------
# Work done
# ---------------------------------------------------------------------------


def shown_once(m: Model) -> tuple[list, list]:
    """Emit ``m`` again with its printer counting calls: what was shown, and
    the (address, storable) pairs its rows hold."""
    plain = emit_json(m)
    shown = []

    def counted(v):
        shown.append(v)
        return repr(v)

    m.show = counted
    assert emit_json(m) == plain
    return shown, [(id(a), id(v)) for r in m.rows for a, v in r.store.items()]


def test_each_store_entry_is_rendered_once(tmp_path):
    """A concrete trace's rows hold one growing store, so most entries sit
    in many rows; each distinct (address, storable) pair is shown once."""
    text = unparse(divergent_corpus()[1]) + "\n"
    m = model_of(text, ["ceskt", "--fuel", "300", "--format", "json"], tmp_path)
    shown, held = shown_once(m)
    assert len(m.rows) == 301 and len(held) > 4 * len(set(held))
    assert len(shown) == len(set(held))


def test_each_abstract_store_entry_is_rendered_once(tmp_path):
    """An abstract entry maps an address to a set: each distinct (address,
    set) pair is shown once, one call per value in the set.  This program
    joins two closures at one address."""
    text = unparse(terminating_corpus()[9]) + "\n"
    m = model_of(text, ["kcfa", "--k", "1", "--format", "json"], tmp_path)
    assert m.abstract
    shown, held = shown_once(m)
    entries = {(id(a), id(vs)): vs for r in m.rows for a, vs in r.store.items()}
    assert len(held) > 10 * len(entries)
    assert len(shown) == sum(len(vs) for vs in entries.values()) > len(entries)
