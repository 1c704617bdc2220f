"""Seeded program generation for the benchmark workloads.

Everything here produces source text first and parses it with
``aam.syntax.parse_program``, so the benchmark's set-up pays for parsing the
way a user of the command line does.  The same seed always yields the same
programs.  Nothing in this module depends on the test suite's corpus
generator: the benchmark owns its inputs, so a change to the tests never
changes what is measured.

Church encodings (applied first to ``(lambda (a) a)`` then to
``(lambda (b) b)``, so every product evaluates to ``(lambda (b) b)``):

* ``church_direct(m, n)``  ``((mul m) n)`` with ``mul = λm.λn.λg. m (n g)``;
  ``ceskt`` takes 122 steps on ``mul 4 4``
* ``church_add(m, n)``     ``((mul m) n)`` with ``mul = λm.λn. m (add n) 0``
  and ``add = λp.λq.λf.λx. p f (q f x)``; 193 ``ceskt`` steps on ``mul 4 4``
"""

from __future__ import annotations

import random
from dataclasses import dataclass

VAR_POOL = ("x", "y", "z", "f", "g", "h", "u", "v", "w")
PERMS = ("p", "q")

MUL_DIRECT = "(lambda (m) (lambda (n) (lambda (g) (m (n g)))))"
ADD = "(lambda (p) (lambda (q) (lambda (f) (lambda (x) ((p f) ((q f) x))))))"
ZERO = "(lambda (f) (lambda (x) x))"
MUL_ADD = f"(lambda (m) (lambda (n) ((m ({ADD} n)) {ZERO})))"
CHURCH_RESULT = "(lambda (b) b)"


def numeral(n: int) -> str:
    body = "x"
    for _ in range(n):
        body = f"(f {body})"
    return f"(lambda (f) (lambda (x) {body}))"


def _applied(term: str) -> str:
    return f"(({term} (lambda (a) a)) {CHURCH_RESULT})"


def church_direct(m: int, n: int) -> str:
    return _applied(f"(({MUL_DIRECT} {numeral(m)}) {numeral(n)})")


def church_add(m: int, n: int) -> str:
    return _applied(f"(({MUL_ADD} {numeral(m)}) {numeral(n)})")


# ---------------------------------------------------------------------------
# Random terms, as text
# ---------------------------------------------------------------------------


def _core(rng: random.Random, depth: int, scope: tuple) -> str:
    if depth <= 0:
        if scope and rng.random() < 0.7:
            return rng.choice(scope)
        v = rng.choice(VAR_POOL)
        return f"(lambda ({v}) {v})"
    r = rng.random()
    if r < 0.3 and scope:
        return rng.choice(scope)
    if r < 0.65:
        v = rng.choice(VAR_POOL)
        return f"(lambda ({v}) {_core(rng, depth - 1, scope + (v,))})"
    return f"({_core(rng, depth - 1, scope)} {_core(rng, depth - 1, scope)})"


def _divergent(rng: random.Random, index: int) -> str:
    """A self-application in one of four positions, taken in turn, with a
    single identity as filler: the mix of shapes, and so the cost per step,
    is the same for every seed (a large filler would be rendered in every
    state it stays in)."""
    v = rng.choice(VAR_POOL)
    delta = f"(lambda ({v}) ({v} {v}))"
    omega = f"({delta} {delta})"
    filler = _core(rng, 0, ())
    return (
        omega,
        f"({omega} {filler})",
        f"({filler} {omega})",
        f"((lambda ({rng.choice(VAR_POOL)}) {omega}) {filler})",
    )[index % 4]


def _extended(rng: random.Random, depth: int, scope: tuple) -> str:
    if depth <= 0:
        r = rng.random()
        if scope and r < 0.5:
            return rng.choice(scope)
        if r < 0.7:
            return "#f"
        v = rng.choice(VAR_POOL)
        return f"(lambda ({v}) {v})"
    r = rng.random()
    sub = lambda: _extended(rng, depth - 1, scope)  # noqa: E731
    if r < 0.2 and scope:
        return rng.choice(scope)
    if r < 0.4:
        v = rng.choice(VAR_POOL)
        return f"(lambda ({v}) {_extended(rng, depth - 1, scope + (v,))})"
    if r < 0.6:
        return f"({sub()} {sub()})"
    if r < 0.75:
        return f"(if {sub()} {sub()} {sub()})"
    if r < 0.85 and scope:
        v = rng.choice(VAR_POOL)
        return f"(set! {rng.choice(scope)} (lambda ({v}) {v}))"
    if r < 0.95:
        v = rng.choice(VAR_POOL)
        return f"(catch {sub()} (lambda ({v}) {v}))"
    v = rng.choice(VAR_POOL)
    return f"(callcc (lambda ({v}) {_extended(rng, depth - 1, scope + (v,))}))"


def _perm_set(rng: random.Random, at_least: int = 0) -> str:
    chosen = sorted(rng.sample(PERMS, rng.randint(at_least, len(PERMS))))
    return "(" + " ".join(chosen) + ")"


def _security(rng: random.Random, depth: int, scope: tuple) -> str:
    if depth <= 0:
        if scope and rng.random() < 0.5:
            return rng.choice(scope)
        v = rng.choice(VAR_POOL)
        return f"(lambda ({v}) {v})"
    r = rng.random()
    sub = lambda: _security(rng, depth - 1, scope)  # noqa: E731
    if r < 0.15 and scope:
        return rng.choice(scope)
    if r < 0.35:
        v = rng.choice(VAR_POOL)
        return f"(lambda ({v}) {_security(rng, depth - 1, scope + (v,))})"
    if r < 0.55:
        return f"({sub()} {sub()})"
    if r < 0.7:
        return f"(frame {_perm_set(rng)} {sub()})"
    if r < 0.8:
        return f"(grant {_perm_set(rng)} {sub()})"
    if r < 0.9:
        return "fail" if rng.random() < 0.5 else f"(test {_perm_set(rng, 1)} {sub()} fail)"
    return f"(test {_perm_set(rng, 1)} {sub()} {sub()})"


# ---------------------------------------------------------------------------
# Filters
# ---------------------------------------------------------------------------


class _TooBig(Exception):
    pass


def _finite(initial, successors, cap: int) -> bool:
    """True when the reachable graph has at most ``cap`` expansions.

    Per-state-store exploration is exponential in the worst case (an
    uncapped run can exhaust memory), so every program an abstract
    analysis sees is first explored under this cap."""
    from aam.analysis import explore_states

    expansions = 0

    def counted(s):
        nonlocal expansions
        expansions += 1
        if expansions > cap:
            raise _TooBig
        return successors(s)

    try:
        explore_states(initial, counted, lambda s: False)
    except _TooBig:
        return False
    return True


def _core_small(e, cap: int) -> bool:
    from aam.analysis import KCFAPolicy, inject_abstract, step_abstract
    from aam.lazy import inject_alk, step_lk_star_abstract

    for k in (0, 1):
        p = KCFAPolicy(k)
        if not _finite(inject_abstract(e, p), lambda s: step_abstract(s, p), cap):
            return False
        if not _finite(inject_alk(e, p), lambda s: step_lk_star_abstract(s, p), cap):
            return False
    return True


def _normalizes(e, fuel: int) -> bool:
    from oracles import OracleFuelError, cbv_normalize

    try:
        cbv_normalize(e, fuel)
    except (OracleFuelError, RecursionError):
        return False
    return True


@dataclass(frozen=True)
class Prog:
    """One generated program: its name, source text and parsed form."""

    name: str
    text: str
    program: object  # aam.syntax.Program

    @property
    def exp(self):
        return self.program.exp


def _collect(rng, name, make, keep, want, attempts=4000) -> list:
    from aam.syntax import parse_program

    out, seen = [], set()
    for _ in range(attempts):
        if len(out) >= want:
            return out
        text = make(rng, len(out))
        if text in seen:
            continue
        seen.add(text)
        program = parse_program(text + "\n")
        if keep(program.exp):
            out.append(Prog(f"{name}{len(out):02d}", text, program))
    raise RuntimeError(f"generated only {len(out)} of {want} {name} programs")


# Expansion cap for every generated program an abstract analysis sees.
# Small programs keep each seeded request cheap next to the Church
# ladders, so the choice of seed moves the latency percentiles little.
CAP = 500


# Node-count band for terminating programs, so seeded requests are alike
# in size whatever the seed.
TERM_NODES = (12, 40)


def terminating(seed: int, want: int) -> list:
    """Closed core applications of TERM_NODES size that normalize and have
    small k<=1 graphs."""
    from aam.syntax import node_count

    def make(r, _index):
        d = r.randint(2, 5)
        return f"({_core(r, d, ())} {_core(r, d, ())})"

    def keep(e):
        size = node_count(e)
        return TERM_NODES[0] <= size <= TERM_NODES[1] and _normalizes(e, 300) and _core_small(e, CAP)

    return _collect(random.Random(seed * 4 + 0), "term", make, keep, want)


def divergent(seed: int, want: int, analysed: bool = True) -> list:
    """Closed core terms built around a self-application that never ends.
    ``analysed`` adds the small-graph filter needed by abstract analyses."""

    def keep(e):
        return not _normalizes(e, 100) and (not analysed or _core_small(e, CAP))

    return _collect(random.Random(seed * 4 + 1), "div", _divergent, keep, want)


def extended(seed: int, want: int) -> list:
    """Extended-language programs that finish on ``ext`` within 1000 steps."""
    from aam.analysis import KCFAPolicy
    from aam.extended import inject_aext, inject_extended, step_extended, step_extended_abstract
    from aam.machines import trace_from

    def keep(e):
        t = trace_from(step_extended, inject_extended(e), 1000)
        if t.outcome != "final":
            return False
        for k in (0, 1):
            p = KCFAPolicy(k)
            if not _finite(inject_aext(e, p), lambda s: step_extended_abstract(s, p), CAP):
                return False
        return True

    make = lambda r, _index: _extended(r, r.randint(2, 5), ())  # noqa: E731
    return _collect(random.Random(seed * 4 + 2), "ext", make, keep, want)


def security(seed: int, want: int) -> list:
    """Stack-inspection programs over {p, q} that finish (value or
    failure) on ``cm``; each declares its universe with the pragma."""
    from aam.analysis import KCFAPolicy
    from aam.inspection import inject_acm, inject_cm, step_cm, step_cm_abstract
    from aam.machines import trace_from

    universe = frozenset(PERMS)

    def keep(e):
        t = trace_from(lambda s: step_cm(s, universe), inject_cm(e, universe), 1000)
        if t.outcome not in ("final", "fail"):
            return False
        for k in (0, 1):
            p = KCFAPolicy(k)
            succ = lambda s: step_cm_abstract(s, universe, p)  # noqa: E731
            if not _finite(inject_acm(e, universe, p), succ, CAP):
                return False
        return True

    def make(r, _index):
        return f";; permissions: (p q)\n{_security(r, r.randint(2, 5), ())}"

    return _collect(random.Random(seed * 4 + 3), "sec", make, keep, want)


# ---------------------------------------------------------------------------
# Hostile inputs for the command line
# ---------------------------------------------------------------------------

DEEP = 1000

# (name, source text, machine flags, exit codes the README allows).  A
# program nested DEEP levels is valid, so it may run (0) or be refused as a
# parse error with a documented depth limit (1); a Python exception is a
# failure either way.
HOSTILE = (
    ("deep-lambda", "(lambda (x) " * DEEP + "x" + ")" * DEEP, ["cek"], (0, 1)),
    ("deep-app", "(" * DEEP + "(lambda (a) a)" + " (lambda (a) a))" * DEEP, ["cek"], (0, 1)),
    ("unclosed", "((lambda (x) x) (lambda (y) y)", ["cek"], (1,)),
    ("extra-close", "((lambda (x) x) (lambda (y) y)))", ["ceskt"], (1,)),
    ("empty", "", ["cesk"], (1,)),
    ("keyword-param", "(lambda (lambda) x)", ["cek"], (1,)),
    ("open-term", "(f (lambda (a) a))", ["cek"], (2,)),
    ("if-on-core", "(if #f (lambda (a) a) (lambda (b) b))", ["ceskt"], (2,)),
    ("frame-on-kcfa", "(frame (p) fail)", ["kcfa"], (2,)),
    ("widen-concrete", "((lambda (x) x) (lambda (y) y))", ["cek", "--widen"], (2,)),
    ("gc-pushdown", "((lambda (x) x) (lambda (y) y))", ["pushdown", "--gc"], (2,)),
    ("fuel-abstract", "((lambda (x) x) (lambda (y) y))", ["0cfa", "--fuel", "5"], (2,)),
    ("unknown-machine", "((lambda (x) x) (lambda (y) y))", ["secd"], (2,)),
    ("stuck-throw", "(throw #f)", ["ext"], (3,)),
)
