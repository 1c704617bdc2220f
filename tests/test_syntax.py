"""Parser, printer, and syntax-tree utilities."""

from __future__ import annotations

import dataclasses
import re

import pytest

from corpus import (
    divergent_corpus,
    extended_corpus,
    security_corpus,
    terminating_corpus,
)
from oracles import free_vars_oracle
from aam.syntax import (
    App,
    Callcc,
    Catch,
    Exp,
    FalseLit,
    FeatureError,
    Frame,
    Grant,
    If,
    Lam,
    ParseError,
    Ref,
    SetBang,
    SyntaxModuleError,
    Test,
    Throw,
    CORE_FORMS,
    EXTENDED_FORMS,
    SECURITY_FORMS,
    check_closed,
    check_features,
    check_labels,
    free_vars,
    iter_nodes,
    lam_count,
    node_count,
    parse,
    parse_program,
    permissions_used,
    relabel,
    same_shape,
    unparse,
    var_names,
)


def all_corpora():
    return (
        terminating_corpus()
        + divergent_corpus()
        + extended_corpus()
        + security_corpus()
    )


class TestParse:
    def test_shapes(self):
        e = parse("((lambda (x) (x x)) (lambda (y) y))")
        assert isinstance(e, App)
        assert isinstance(e.fun, Lam) and e.fun.param == "x"
        assert isinstance(e.fun.body, App)
        assert isinstance(e.arg, Lam) and isinstance(e.arg.body, Ref)

    def test_extended_shapes(self):
        e = parse("(if #f (set! x (lambda (a) a)) (catch (throw #f) (lambda (h) h)))")
        assert isinstance(e, If)
        assert isinstance(e.test, FalseLit)
        assert isinstance(e.then, SetBang) and e.then.name == "x"
        assert isinstance(e.other, Catch)
        assert isinstance(e.other.body, Throw)
        assert isinstance(parse("callcc"), Callcc)

    def test_security_shapes(self):
        e = parse("(frame (p q) (grant (q) (test (p) fail (lambda (b) b))))")
        assert isinstance(e, Frame) and e.perms == frozenset({"p", "q"})
        assert isinstance(e.body, Grant) and e.body.perms == frozenset({"q"})
        t = e.body.body
        assert isinstance(t, Test) and t.perms == frozenset({"p"})

    def test_labels_are_preorder(self):
        for src in (
            "((lambda (x) (x x)) (lambda (y) y))",
            "(if #f (lambda (a) a) (lambda (b) b))",
            "(frame (p) (test (p) fail (lambda (b) b)))",
        ):
            e = parse(src)
            assert [n.label for n in iter_nodes(e)] == list(range(node_count(e)))
            check_labels(e)

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "(",
            ")",
            "(x",
            "x)",
            "x y",
            "(lambda (x))",
            "(lambda x x)",
            "(lambda (if) x)",
            "(lambda (#f) x)",
            "(set! lambda x)",
            "(throw (x y))",
            "(throw x)",
            "(catch x y)",
            "(test p x y)",
            "(frame (p",
            "()",
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse(bad)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            parse("(lambda (x)\n  (y)))")
        assert exc.value.line >= 1 and exc.value.col >= 1

    def test_unterminated_permission_set_points_at_its_parenthesis(self):
        with pytest.raises(ParseError, match="unterminated permission set") as exc:
            parse("\n\n  (frame (p q")
        assert (exc.value.line, exc.value.col) == (3, 10)

    def test_comments_are_skipped(self):
        e = parse("; leading note\n(lambda (x) x) ; trailing\n")
        assert isinstance(e, Lam)


class TestPragma:
    def test_permission_universe(self):
        p = parse_program(";; permissions: (p q r)\n(test (p) fail fail)")
        assert p.permissions == frozenset({"p", "q", "r"})
        assert isinstance(p.exp, Test)

    def test_absent_pragma_is_empty(self):
        assert parse_program("(lambda (x) x)").permissions is None

    def test_pragma_after_code_is_ignored(self):
        p = parse_program("(lambda (x) x)\n;; permissions: (p)")
        assert p.permissions is None

    def test_empty_pragma(self):
        p = parse_program(";; permissions: ()\n(lambda (x) x)")
        assert p.permissions == frozenset()

    @pytest.mark.parametrize("names,bad,col", [("p lambda", "lambda", 20), ("p (q", "(q", 20)])
    def test_pragma_names_are_checked_like_permissions(self, names, bad, col):
        text = f"\n;; permissions: ({names})\n(grant (p) (lambda (a) a))"
        with pytest.raises(ParseError, match=re.escape(repr(bad))) as exc:
            parse_program(text)
        assert (exc.value.line, exc.value.col) == (2, col)


class TestUnparse:
    def test_round_trip_everything(self):
        for e in all_corpora():
            again = parse(unparse(e))
            assert same_shape(e, again)
            assert again == relabel(e)

    def test_permission_sets_print_sorted(self):
        assert unparse(parse("(frame (q p) fail)")) == "(frame (p q) fail)"


class TestFreeVars:
    def test_matches_oracle_on_every_subtree(self):
        for e in all_corpora():
            for n in iter_nodes(e):
                assert free_vars(n) == free_vars_oracle(n), unparse(n)

    def test_set_bang_target_is_a_use(self):
        assert free_vars(parse("(lambda (y) (set! x y))")) == frozenset({"x"})

    def test_corpora_are_closed(self):
        for e in all_corpora():
            check_closed(e)

    def test_open_program_rejected(self):
        with pytest.raises(FeatureError):
            check_closed(parse("(x (lambda (y) y))"))


class TestFeatureGates:
    def test_core_accepts_core(self):
        for e in terminating_corpus():
            check_features(e, CORE_FORMS, "core")

    def test_core_rejects_extended(self):
        with pytest.raises(FeatureError):
            check_features(parse("(if #f #f #f)"), CORE_FORMS, "core")

    def test_extended_rejects_security(self):
        with pytest.raises(FeatureError):
            check_features(parse("(frame (p) fail)"), EXTENDED_FORMS, "extended")

    def test_security_rejects_extended(self):
        with pytest.raises(FeatureError):
            check_features(parse("(if #f #f #f)"), SECURITY_FORMS, "security")

    def test_families_accept_their_corpora(self):
        for e in extended_corpus():
            check_features(e, EXTENDED_FORMS, "extended")
        for e in security_corpus():
            check_features(e, SECURITY_FORMS, "security")


class TestTreeUtilities:
    def test_relabel_preserves_shape_and_renumbers(self):
        e = parse("((lambda (x) (x x)) (lambda (y) y))")
        r = relabel(e)
        assert r == e
        shifted = App(99, e.fun, e.arg)
        assert same_shape(relabel(shifted), e)
        assert relabel(shifted) == e

    def test_relabel_numbers_every_form_in_preorder(self):
        def zeroed(node):
            return dataclasses.replace(node, label=0, **{
                name: zeroed(getattr(node, name))
                for name in ("body", "fun", "arg", "test", "then", "other", "value", "handler")
                if isinstance(getattr(node, name, None), Exp)
            })

        for e in all_corpora():
            assert relabel(zeroed(e)) == e, unparse(e)

    def test_check_labels_catches_duplicates(self):
        dup = Lam(0, "x", Ref(0, "x"))
        with pytest.raises(SyntaxModuleError):
            check_labels(dup)

    def test_counts(self):
        e = parse("((lambda (x) (x x)) (lambda (y) y))")
        assert node_count(e) == 7
        assert lam_count(e) == 2
        assert var_names(e) == frozenset({"x", "y"})

    def test_permissions_used(self):
        e = parse("(frame (p) (grant (q) (test (r) fail fail)))")
        assert permissions_used(e) == frozenset({"p", "q", "r"})
        assert permissions_used(parse("(lambda (x) x)")) == frozenset()
