"""Labeled s-expression syntax shared by every machine in the workbench.

Surface grammar:

    e ::= x                         variable reference
        | (lambda (x) e)            one-argument function
        | (e e)                     application
        | #f                        false literal
        | (if e e e)                conditional
        | (set! x e)                assignment, returns the old value
        | callcc                    continuation-capture operator
        | (throw v)                 raise a value (operand must be a value form)
        | (catch e (lambda (x) e))  evaluate e with a handler installed
        | fail                      security failure
        | (frame (p ...) e)         restrict permissions to the listed set
        | (grant (p ...) e)         enable the listed permissions
        | (test (p ...) e e)        branch on permission availability

Comments run from ';' to end of line.  A header comment of the form
`;; permissions: (p q)` appearing before the expression declares the
permission universe used by the stack-inspection machines.

Every parsed node carries an integer label assigned in preorder and unique
within its tree.  The label is the node's identity: two textually equal
subterms at different positions are distinct expressions, and machine
addresses key on labels rather than on term text.  Equality is
structural and includes the label; hashing is by node kind and label alone,
so it costs the same for a leaf and for a whole program, and equal nodes
still hash equal.  Each node renders its text and computes its free
variables at most once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from functools import cache
from itertools import count


class SyntaxModuleError(Exception):
    """Base class for errors raised by this module."""


class ParseError(SyntaxModuleError):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{msg} (line {line}, column {col})")
        self.line = line
        self.col = col


class FeatureError(SyntaxModuleError):
    """A program uses a form outside its target machine's language."""


# ---------------------------------------------------------------------------
# Labeled AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Exp:
    label: int

    def __repr__(self) -> str:
        return f"{unparse(self)}#{self.label}"


@dataclass(frozen=True, repr=False)
class Ref(Exp):
    name: str


@dataclass(frozen=True, repr=False)
class Lam(Exp):
    param: str
    body: Exp


@dataclass(frozen=True, repr=False)
class App(Exp):
    fun: Exp
    arg: Exp


@dataclass(frozen=True, repr=False)
class FalseLit(Exp):
    pass


@dataclass(frozen=True, repr=False)
class If(Exp):
    test: Exp
    then: Exp
    other: Exp


@dataclass(frozen=True, repr=False)
class SetBang(Exp):
    name: str
    value: Exp


@dataclass(frozen=True, repr=False)
class Callcc(Exp):
    pass


@dataclass(frozen=True, repr=False)
class Throw(Exp):
    value: Exp


@dataclass(frozen=True, repr=False)
class Catch(Exp):
    body: Exp
    handler: Lam


@dataclass(frozen=True, repr=False)
class Fail(Exp):
    pass


@dataclass(frozen=True, repr=False)
class Frame(Exp):
    perms: frozenset[str]
    body: Exp


@dataclass(frozen=True, repr=False)
class Grant(Exp):
    perms: frozenset[str]
    body: Exp


@dataclass(frozen=True, repr=False)
class Test(Exp):
    perms: frozenset[str]
    then: Exp
    other: Exp


def _hash_by_label(e: Exp) -> int:
    """Labels are unique within a tree, so the kind and the label pick out
    a node; structurally equal nodes have both and hash equal."""
    return hash((e.__class__.__name__, e.label))


# The dataclass decorator gives every subclass a hash over all its fields,
# which recurses through the whole subtree.
for _cls in (Exp, *Exp.__subclasses__()):
    _cls.__hash__ = _hash_by_label


@dataclass(frozen=True)
class Program:
    exp: Exp
    permissions: frozenset[str] | None  # None: no pragma


# Form families accepted by each machine family.
CORE_FORMS: frozenset[type] = frozenset({Ref, Lam, App})
EXTENDED_FORMS: frozenset[type] = CORE_FORMS | {FalseLit, If, SetBang, Callcc, Throw, Catch}
SECURITY_FORMS: frozenset[type] = CORE_FORMS | {Fail, Frame, Grant, Test}


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

KEYWORDS = frozenset(
    {"lambda", "if", "set!", "throw", "catch", "frame", "grant", "test",
     "callcc", "fail", "#f"}
)

_TOKEN = re.compile(r"\(|\)|[^\s();]+")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_!?*+<>=.-]*\Z")
_PRAGMA = re.compile(r"^\s*;;\s*permissions:\s*\(([^)]*)\)\s*$")


class _Tokens:
    def __init__(self, text: str):
        self.toks: list[tuple[str, int, int]] = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            body = line.split(";", 1)[0]
            for m in _TOKEN.finditer(body):
                self.toks.append((m.group(), lineno, m.start() + 1))
        self.pos = 0

    def peek(self) -> tuple[str, int, int] | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self) -> tuple[str, int, int]:
        t = self.peek()
        if t is None:
            last = self.toks[-1] if self.toks else ("", 1, 1)
            raise ParseError("unexpected end of input", last[1], last[2])
        self.pos += 1
        return t


def _ident_error(name: str, role: str) -> str | None:
    """Why ``name`` cannot be used as ``role``, or ``None`` if it can."""
    if name in KEYWORDS:
        return f"keyword {name!r} cannot be used as {role}"
    if not _IDENT.match(name):
        return f"invalid identifier {name!r}"
    return None


def _check_ident(name: str, line: int, col: int, role: str) -> str:
    error = _ident_error(name, role)
    if error is not None:
        raise ParseError(error, line, col)
    return name


class _Parser:
    def __init__(self, text: str):
        self.toks = _Tokens(text)
        self.counter = 0

    def fresh(self) -> int:
        lbl = self.counter
        self.counter += 1
        return lbl

    def expect(self, tok: str) -> tuple[str, int, int]:
        t = self.toks.next()
        if t[0] != tok:
            raise ParseError(f"expected {tok!r}, found {t[0]!r}", t[1], t[2])
        return t

    def parse_exp(self) -> Exp:
        tok, line, col = self.toks.next()
        lbl = self.fresh()
        if tok == ")":
            raise ParseError("unexpected ')'", line, col)
        if tok != "(":
            if tok == "#f":
                return FalseLit(lbl)
            if tok == "callcc":
                return Callcc(lbl)
            if tok == "fail":
                return Fail(lbl)
            return Ref(lbl, _check_ident(tok, line, col, "a variable"))
        head = self.toks.peek()
        if head is None:
            raise ParseError("unexpected end of input", line, col)
        if head[0] == "lambda":
            self.toks.next()
            self.expect("(")
            ptok, pline, pcol = self.toks.next()
            param = _check_ident(ptok, pline, pcol, "a parameter")
            self.expect(")")
            body = self.parse_exp()
            self.expect(")")
            return Lam(lbl, param, body)
        if head[0] == "if":
            self.toks.next()
            test, then, other = self.parse_exp(), self.parse_exp(), self.parse_exp()
            self.expect(")")
            return If(lbl, test, then, other)
        if head[0] == "set!":
            self.toks.next()
            ntok, nline, ncol = self.toks.next()
            name = _check_ident(ntok, nline, ncol, "a set! target")
            value = self.parse_exp()
            self.expect(")")
            return SetBang(lbl, name, value)
        if head[0] == "throw":
            self.toks.next()
            value = self.parse_exp()
            if not isinstance(value, (Lam, FalseLit, Callcc)):
                raise ParseError("throw operand must be a value form", head[1], head[2])
            self.expect(")")
            return Throw(lbl, value)
        if head[0] == "catch":
            self.toks.next()
            body = self.parse_exp()
            handler = self.parse_exp()
            if not isinstance(handler, Lam):
                raise ParseError("catch handler must be a lambda", head[1], head[2])
            self.expect(")")
            return Catch(lbl, body, handler)
        if head[0] in ("frame", "grant", "test"):
            form = self.toks.next()[0]
            perms = self.parse_perm_set()
            if form == "test":
                then, other = self.parse_exp(), self.parse_exp()
                self.expect(")")
                return Test(lbl, perms, then, other)
            body = self.parse_exp()
            self.expect(")")
            cls = Frame if form == "frame" else Grant
            return cls(lbl, perms, body)
        fun = self.parse_exp()
        arg = self.parse_exp()
        self.expect(")")
        return App(lbl, fun, arg)

    def parse_perm_set(self) -> frozenset[str]:
        _, open_line, open_col = self.expect("(")
        perms = []
        while True:
            t = self.toks.peek()
            if t is None:
                raise ParseError("unterminated permission set", open_line, open_col)
            if t[0] == ")":
                self.toks.next()
                return frozenset(perms)
            tok, line, col = self.toks.next()
            perms.append(_check_ident(tok, line, col, "a permission"))


def parse(text: str) -> Exp:
    """Parse one expression; labels are assigned in preorder from 0."""
    parser = _Parser(text)
    exp = parser.parse_exp()
    trailing = parser.toks.peek()
    if trailing is not None:
        raise ParseError(f"trailing input {trailing[0]!r}", trailing[1], trailing[2])
    return exp


def parse_program(text: str) -> Program:
    """Parse an expression plus the optional permission-universe pragma."""
    perms: frozenset[str] | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        m = _PRAGMA.match(line)
        if m:
            perms = frozenset(
                _check_ident(n.group(), lineno, m.start(1) + n.start() + 1, "a permission")
                for n in re.finditer(r"\S+", m.group(1))
            )
            break
        if not stripped.startswith(";"):
            break
    return Program(parse(text), perms)


# ---------------------------------------------------------------------------
# Printing and structural utilities
# ---------------------------------------------------------------------------


def _perm_str(perms: frozenset[str]) -> str:
    return "(" + " ".join(sorted(perms)) + ")"


# ``unparse`` and ``free_vars`` keep their result on the node.  The cache is
# not a field, so equality and ``fields`` ignore it.  It is written with
# ``object.__setattr__``, which gets past the frozen dataclass and, unlike a
# write to ``e.__dict__`` (as ``functools.cached_property`` does), keeps the
# instance's compact attribute storage, so field reads on hot nodes stay fast.
def unparse(e: Exp) -> str:
    """Render the canonical surface form; parse(unparse(e)) == e up to labels.
    Each node is rendered once and keeps its text."""
    try:
        return e._text
    except AttributeError:
        if not isinstance(e, Exp):
            raise TypeError(f"not an expression: {e!r}") from None
    text = _render(e)
    object.__setattr__(e, "_text", text)
    return text


def _render(e: Exp) -> str:
    if isinstance(e, Ref):
        return e.name
    if isinstance(e, Lam):
        return f"(lambda ({e.param}) {unparse(e.body)})"
    if isinstance(e, App):
        return f"({unparse(e.fun)} {unparse(e.arg)})"
    if isinstance(e, FalseLit):
        return "#f"
    if isinstance(e, If):
        return f"(if {unparse(e.test)} {unparse(e.then)} {unparse(e.other)})"
    if isinstance(e, SetBang):
        return f"(set! {e.name} {unparse(e.value)})"
    if isinstance(e, Callcc):
        return "callcc"
    if isinstance(e, Throw):
        return f"(throw {unparse(e.value)})"
    if isinstance(e, Catch):
        return f"(catch {unparse(e.body)} {unparse(e.handler)})"
    if isinstance(e, Fail):
        return "fail"
    if isinstance(e, Frame):
        return f"(frame {_perm_str(e.perms)} {unparse(e.body)})"
    if isinstance(e, Grant):
        return f"(grant {_perm_str(e.perms)} {unparse(e.body)})"
    if isinstance(e, Test):
        return f"(test {_perm_str(e.perms)} {unparse(e.then)} {unparse(e.other)})"
    raise TypeError(f"not an expression: {e!r}")


@cache
def _field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def children(e: Exp) -> tuple[Exp, ...]:
    return tuple(v for name in _field_names(e.__class__)
                 for v in [getattr(e, name)] if isinstance(v, Exp))


def iter_nodes(e: Exp):
    """Yield every node of the tree in preorder."""
    yield e
    for c in children(e):
        yield from iter_nodes(c)


def free_vars(e: Exp) -> frozenset[str]:
    """Computed once per node and kept on it."""
    try:
        return e._free_vars
    except AttributeError:
        pass
    if isinstance(e, Ref):
        fv = frozenset({e.name})
    elif isinstance(e, Lam):
        fv = free_vars(e.body) - {e.param}
    elif isinstance(e, SetBang):
        fv = free_vars(e.value) | {e.name}
    else:
        fv = frozenset()
        for c in children(e):
            fv |= free_vars(c)
    object.__setattr__(e, "_free_vars", fv)
    return fv


def relabel(e: Exp) -> Exp:
    """Reassign labels in preorder from 0, preserving structure.  Every
    form declares its children in source order, so rebuilding each node's
    fields in order visits them in preorder."""
    counter = count()

    def go(node: Exp) -> Exp:
        label = next(counter)
        rest = (getattr(node, name) for name in _field_names(type(node))[1:])
        return type(node)(label, *(go(v) if isinstance(v, Exp) else v for v in rest))

    return go(e)


def same_shape(a: Exp, b: Exp) -> bool:
    """Structural equality ignoring labels."""
    if type(a) is not type(b):
        return False
    for f in fields(a):
        if f.name == "label":
            continue
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if isinstance(va, Exp):
            if not same_shape(va, vb):
                return False
        elif va != vb:
            return False
    return True


def node_count(e: Exp) -> int:
    return sum(1 for _ in iter_nodes(e))


def lam_count(e: Exp) -> int:
    return sum(1 for n in iter_nodes(e) if isinstance(n, Lam))


def var_names(e: Exp) -> frozenset[str]:
    names: set[str] = set()
    for n in iter_nodes(e):
        if isinstance(n, (Ref, SetBang)):
            names.add(n.name)
        elif isinstance(n, Lam):
            names.add(n.param)
    return frozenset(names)


def check_labels(e: Exp) -> None:
    """Assert label uniqueness; parser output always satisfies this."""
    seen: set[int] = set()
    for n in iter_nodes(e):
        if n.label in seen:
            raise SyntaxModuleError(f"duplicate label {n.label} in {unparse(e)}")
        seen.add(n.label)


def check_features(e: Exp, allowed: frozenset[type], machine: str) -> None:
    """Reject programs that use forms outside the machine's language."""
    for n in iter_nodes(e):
        if type(n) not in allowed:
            raise FeatureError(
                f"form {unparse(n)!r} (node {n.label}) is not part of the "
                f"{machine} machine's language"
            )


def check_closed(e: Exp) -> None:
    fv = free_vars(e)
    if fv:
        raise FeatureError(f"program is open: free variables {sorted(fv)}")


def permissions_used(e: Exp) -> frozenset[str]:
    """Every permission named by a frame/grant/test node."""
    out: set[str] = set()
    for n in iter_nodes(e):
        if isinstance(n, (Frame, Grant, Test)):
            out |= n.perms
    return frozenset(out)
