"""Exact call/return matching: saturation, its bounded-stack validator,
the widened variant, and the concrete companion machine."""

from __future__ import annotations

import hashlib

import pytest

from corpus import church_mul, divergent_corpus, terminating_corpus
from oracles import pd_node_covered
from aam.analysis import KCFAPolicy, explore, explore_0cfa
from aam.machines import TIME_KEYED_POLICY
from aam.pushdown import (
    PUSHDOWN_MONO,
    PUSHDOWN_VALUE,
    alpha_pd_node,
    enumerate_bounded,
    inject_pushdown,
    reachable_pushdown,
    reachable_pushdown_widened,
    run_pd_trace,
)
from aam.store import (
    BindA,
    Contour,
    EMPTY_ASTORE,
    MonoBindA,
    astore_join,
    astore_leq,
    sort_key,
)
from aam.syntax import FeatureError, parse, unparse

P_RETURN_FLOW = parse(
    "((lambda (h) ((lambda (r) (h (lambda (b) b))) (h (lambda (a) a))))"
    " (lambda (v) ((lambda (w) w) v)))"
)
OMEGA = parse("((lambda (w) (w w)) (lambda (w) (w w)))")
BOTH_POLICIES = (PUSHDOWN_MONO, PUSHDOWN_VALUE)


def finite_state_finals(e, k=0):
    g = explore(e, KCFAPolicy(k))
    return {unparse(g.states[i].ctrl) for i in g.finals}


def pushdown_finals(e, policy=PUSHDOWN_VALUE):
    return {unparse(lam) for lam in reachable_pushdown(e, policy).final_controls()}


class TestSaturation:
    def test_identity_application_produces_a_summary_edge(self):
        g = reachable_pushdown(parse("((lambda (x) x) (lambda (y) y))"))
        kinds = {kind for _i, _j, kind in g.edges}
        assert "summary" in kinds
        assert {unparse(l) for l in g.final_controls()} == {"(lambda (y) y)"}

    def test_matches_bounded_enumeration_on_sample(self):
        for e in terminating_corpus()[:20]:
            trace = run_pd_trace(e, fuel=5000)
            if trace.outcome != "final":
                continue
            if max(len(s.stack) for s in trace.states) > 6:
                continue
            for policy in BOTH_POLICIES:
                nodes, overflowed = enumerate_bounded(e, 6, policy)
                if overflowed:
                    continue
                g = reachable_pushdown(e, policy)
                assert frozenset(g.nodes) == nodes, unparse(e)

    def test_divergent_programs_still_saturate(self):
        for e in [OMEGA] + divergent_corpus()[:10]:
            for policy in BOTH_POLICIES:
                g = reachable_pushdown(e, policy)
                assert len(g.nodes) < 2000

    def test_omega_has_no_final_nodes(self):
        for policy in BOTH_POLICIES:
            assert reachable_pushdown(OMEGA, policy).finals == ()


class TestPrecision:
    def test_return_flow_fixture(self):
        assert pushdown_finals(P_RETURN_FLOW) == {"(lambda (b) b)"}
        assert finite_state_finals(P_RETURN_FLOW) == {
            "(lambda (a) a)",
            "(lambda (b) b)",
        }

    def test_finals_refine_the_finite_state_analysis_on_sample(self):
        for e in terminating_corpus()[:20]:
            fs = finite_state_finals(e)
            for policy in BOTH_POLICIES:
                assert pushdown_finals(e, policy) <= fs, unparse(e)

    def test_value_keyed_bindings_refine_monovariant_ones(self):
        for e in terminating_corpus()[:20] + [P_RETURN_FLOW]:
            assert pushdown_finals(e, PUSHDOWN_VALUE) <= pushdown_finals(
                e, PUSHDOWN_MONO
            ), unparse(e)

    def test_monovariant_finals_match_the_widened_zero_contour_analysis(self):
        finals_mono = pushdown_finals(P_RETURN_FLOW, PUSHDOWN_MONO)
        z = explore_0cfa(P_RETURN_FLOW)
        z_finals = {unparse(z.states[i].ctrl) for i in z.finals}
        assert finals_mono <= z_finals


class TestCompanionMachine:
    def test_concrete_stack_machine_agrees_with_the_tower(self):
        from aam.machines import run_trace

        for e in terminating_corpus()[:20]:
            a = run_pd_trace(e, fuel=5000)
            b = run_trace("cek", e, 5000)
            assert a.outcome == b.outcome == "final"
            assert a.value.lam.label == b.value.lam.label

    def test_trace_images_are_covered_by_saturation(self):
        for e in terminating_corpus()[:15]:
            trace = run_pd_trace(e, fuel=5000, policy=TIME_KEYED_POLICY)
            assert trace.outcome == "final"
            g = reachable_pushdown(e, PUSHDOWN_MONO)
            for s in trace.states:
                assert pd_node_covered(alpha_pd_node(s, 0), g.nodes), unparse(e)


class TestWidened:
    def test_projections_are_covered_and_store_dominates(self):
        for e in terminating_corpus()[:12] + [P_RETURN_FLOW]:
            per_node = reachable_pushdown(e)
            w = reachable_pushdown_widened(e)
            joined = EMPTY_ASTORE
            for n in per_node.nodes:
                joined = astore_join(joined, n.control.store)
                assert astore_leq(n.control.store, w.store)
                assert any(
                    m.control.exp is n.control.exp
                    and m.control.env == n.control.env
                    and m.top == n.top
                    for m in w.graph.nodes
                ), unparse(e)
            assert astore_leq(joined, w.store)

    def test_widened_finals_contain_per_node_finals(self):
        for e in terminating_corpus()[:12] + [P_RETURN_FLOW]:
            per_node = {unparse(l) for l in reachable_pushdown(e).final_controls()}
            widened = {
                unparse(l)
                for l in reachable_pushdown_widened(e).graph.final_controls()
            }
            assert per_node <= widened


class TestGates:
    def test_non_core_forms_are_rejected(self):
        with pytest.raises(FeatureError):
            inject_pushdown(parse("(if #f (lambda (a) a) (lambda (b) b))"))
        with pytest.raises(FeatureError):
            reachable_pushdown(parse("(test (p) (lambda (a) a) (lambda (b) b))"))

    def test_open_programs_are_rejected(self):
        with pytest.raises(FeatureError, match="open"):
            inject_pushdown(parse("(lambda (x) y)"))

    def test_binding_policies_use_distinct_address_families(self):
        lam = parse("(lambda (y) y)")
        mono = PUSHDOWN_MONO.bind_addr("x", lam)
        keyed = PUSHDOWN_VALUE.bind_addr("x", lam)
        assert isinstance(mono, MonoBindA)
        assert isinstance(keyed, BindA)
        assert keyed.time == Contour((lam.label,))


# ---------------------------------------------------------------------------
# The solver's output, byte for byte
# ---------------------------------------------------------------------------

PROGRAM_SETS = {
    **{f"church{n}": (lambda n=n: [church_mul(n)]) for n in range(2, 7)},
    "terminating": terminating_corpus,
    "divergent": divergent_corpus,
}
ANALYSES = {
    "mono": lambda e: (reachable_pushdown(e, PUSHDOWN_MONO), None),
    "value": lambda e: (reachable_pushdown(e, PUSHDOWN_VALUE), None),
    "widened-mono": lambda e: _widened(reachable_pushdown_widened(e, PUSHDOWN_MONO)),
    "widened-value": lambda e: _widened(reachable_pushdown_widened(e, PUSHDOWN_VALUE)),
}


def _widened(w):
    return w.graph, repr(w.store).encode() + str(w.iterations).encode()


# sha256, over the programs of a set in order, of each graph's node reprs
# in numbering order (one a line), its sorted ``(i, j, kind)`` edges and its
# finals, followed for a widened run by its store's repr and its
# iterations.  Recorded from the solver that keyed its tables by node
# values and sorted the nodes themselves; they hold under any hash seed.
DIGESTS = {
    ("church2", "mono"):
        "5cec1e263b45c076c1c39dc45c831f35a942df0c6e07f39f76037f1fe075a906",
    ("church2", "value"):
        "6805d198a38aa16ae8839f3b481ad7fde6c49b4d9a73a51bc59ebe4ad8aa1631",
    ("church2", "widened-mono"):
        "5513e36495e0749ce55e5c731d91d60f884afbcd07bc28f1354f05cb69dae4f0",
    ("church2", "widened-value"):
        "ce0b2ddfb07cb29e7439452cb87f9ffd27da45997926653e8fd433682de6e47c",
    ("church3", "mono"):
        "bf1d626fb7389140508a21c9de29ad1c650a25e3e6d7e468bc36cf31fbbf72fa",
    ("church3", "value"):
        "4770994ada1254e23f31ea47015b1c5dff81d68bc492138412dc0dfe4172809f",
    ("church3", "widened-mono"):
        "5da40edf35091ca9f3983c7f0c4dcf476a1d657ba44c997cd7ffc2b036faef1a",
    ("church3", "widened-value"):
        "a924af5e662478f1d661beb9093ebb3a7af3cdcba6be2135ef07007c05a62164",
    ("church4", "mono"):
        "ba56e12f74e51f8f4e96e4dffa2ac16d77e18333914272d150e914d79ef5a363",
    ("church4", "value"):
        "3364bc26cb5b86d588c0d6dcff3b6208fde59eb744d3f3343c79d710bcac5579",
    ("church4", "widened-mono"):
        "286ae97b962f0dc677eebdfe0c88b445b98055965a7ed048868c510f72cffb9a",
    ("church4", "widened-value"):
        "479c2d5d190ae9c4aec21f9d190f546b710ee4e30c3369ce84c487e949281fd2",
    ("church5", "mono"):
        "41c1ad97acf03347adf31a65a53c9b152738cfdb9019cc53ff6eac991be2e1b2",
    ("church5", "value"):
        "8f8f9a5bb5f1e31fc0bce25d4cfa7d2626e7444f4c0ffabb754b1753a6511a57",
    ("church5", "widened-mono"):
        "366c91b65a9645da9e315572f25d3f02196c369aad746f0fde6d7a4020649bdc",
    ("church5", "widened-value"):
        "136a8f0e9bfb8299eb2efc001d2449c6eb8df007057f0bf945436d7df3ecdccc",
    ("church6", "mono"):
        "6a98f0df404eb8f73562ed5209366766f1e8ba93c14081ac52625f4484f6dea4",
    ("church6", "value"):
        "c41b906e5496e5e3ae2d1c105d5140de52b5195f1b14ef80d4a24fa371ba96bf",
    ("church6", "widened-mono"):
        "7d144f280bc282560d59041907a31abeea7c16e1ccbfdb559259d541580463e2",
    ("church6", "widened-value"):
        "30e610c34a69c882f9dcef84c500c471a3682b196408da1ded20a173b4229a22",
    ("terminating", "mono"):
        "58a43da5c2476ab29b063fc34595d7d83f0b07d36e2a719813f312220f38d957",
    ("terminating", "value"):
        "ea09d89cd14781bb65cb8080f0d9c057bcdc20bf32d351e89ab7d545dbfcffb1",
    ("terminating", "widened-mono"):
        "29c26322dd75eb7ea102b34903921758a18ed4c27a680eda4bc211df4e29899e",
    ("terminating", "widened-value"):
        "b9332416c4f11635948cc56fefcbdcd4e03a69086c8b524b60442161120db86b",
    ("divergent", "mono"):
        "e4ec1a86a7dbc13e1169d0410155bee7a7f7d90c037bee8618db0b8d4da6437d",
    ("divergent", "value"):
        "959a394df0ad7104669dcedc61001568f87ad1adbaf5d592cab088738098f6e2",
    ("divergent", "widened-mono"):
        "cff3354af6653d195b9b79731b1fe986dcd1c8e7c4583a19012093efebbe591c",
    ("divergent", "widened-value"):
        "bc8d002742816f9c80cf1fdb673609c8aa914463b39512166fe4c1ce673de02e",
}


@pytest.mark.parametrize("analysis", ANALYSES)
@pytest.mark.parametrize("programs", PROGRAM_SETS)
def test_graphs_are_pinned_byte_for_byte(programs, analysis):
    h = hashlib.sha256()
    for e in PROGRAM_SETS[programs]():
        graph, widened = ANALYSES[analysis](e)
        for n in graph.nodes:
            h.update(repr(n).encode() + b"\n")
        h.update(repr(sorted(graph.edges)).encode())
        h.update(repr(graph.finals).encode())
        if widened is not None:
            h.update(widened)
        # The solver sorts node numbers by the nodes' kept keys, which
        # orders them as the nodes only while no two keys are equal.
        assert len({sort_key(n) for n in graph.nodes}) == len(graph.nodes), unparse(e)
    assert h.hexdigest() == DIGESTS[programs, analysis]
