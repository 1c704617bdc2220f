"""``aam --format json``: the direct writer against ``json.dumps``.

``emit_json`` writes the document itself and renders each environment,
store and store entry once per call.  The reference here is the dict
builder it replaced, fed to ``json.dumps(obj, indent=2)``: on every model
the two must agree byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from corpus import divergent_corpus
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
                "store": reference_store(r.store, r.abstract, r.show),
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


def row(i, env=None, store=None, abstract=False, show=repr, final=False) -> Row:
    return Row(
        id=i,
        control=AWKWARD[i % len(AWKWARD)],
        env=env,
        store=store,
        kont="é\\\"",
        time="\n\x01",
        final=final,
        abstract=abstract,
        show=show,
    )


def hand_model(rows, edges=(), finals=(), flow=None) -> Model:
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
    )


def test_awkward_strings_match_json_dumps():
    env = FrozenMap({text: Named(text[::-1]) for text in AWKWARD})
    concrete = FrozenMap({Named(text): Named(text.upper()) for text in AWKWARD})
    abstract = FrozenMap({Named(text): frozenset(map(Named, AWKWARD[:3])) for text in AWKWARD})
    m = hand_model(
        [
            row(0, env, concrete),
            row(1, env, abstract, abstract=True),
            row(2, FrozenMap({"x": Named("@0")}), concrete, show=lambda v: f"<{v!r}>", final=True),
        ],
        edges=[(0, 1), (1, 2)],
        finals=[2],
        flow={text: sorted(AWKWARD) for text in AWKWARD},
    )
    assert emit_json(m) == reference_json(m)


def test_empty_parts_match_json_dumps():
    bottom = FrozenMap({Named("a"): frozenset()})
    m = hand_model(
        [
            row(0),
            row(1, FrozenMap(), FrozenMap()),
            row(2, FrozenMap(), FrozenMap(), abstract=True),
            row(3, None, bottom, abstract=True),
        ]
    )
    assert emit_json(m) == reference_json(m)
    assert emit_json(hand_model([])) == reference_json(hand_model([]))


def test_rows_sharing_a_store_keep_their_own_printer():
    store = FrozenMap({Named("a"): Named("v")})
    sets = FrozenMap({Named("a"): frozenset({Named("v")})})
    m = hand_model(
        [
            row(0, None, store),
            row(1, None, store, show=lambda v: "shown"),
            row(2, None, sets, abstract=True),
            row(3, None, sets, abstract=True, show=lambda v: "shown"),
            row(4, None, store),
        ]
    )
    assert emit_json(m) == reference_json(m)


# ---------------------------------------------------------------------------
# Work done
# ---------------------------------------------------------------------------


def test_each_store_entry_is_rendered_once(tmp_path):
    """A concrete trace's rows hold one growing store, so most entries sit
    in many rows; each distinct (address, storable) pair is shown once."""
    text = unparse(divergent_corpus()[1]) + "\n"
    m = model_of(text, ["ceskt", "--fuel", "300", "--format", "json"], tmp_path)
    plain = emit_json(m)
    shown = []

    def counted(v):
        shown.append(v)
        return repr(v)

    for r in m.rows:
        r.show = counted
    assert emit_json(m) == plain
    held = [(id(a), id(v)) for r in m.rows for a, v in r.store.items()]
    assert len(m.rows) == 301 and len(held) > 4 * len(set(held))
    assert len(shown) == len(set(held))
