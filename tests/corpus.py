"""Seeded program corpora shared by the test modules.

Everything is generated from fixed seeds at first use and cached, so every
test run sees the same programs.  Four corpora:

* terminating core terms (>= 50, generator depth <= 6, CEK-final within
  1000 steps)
* fuel-divergent core terms (20, biased toward self-application)
* terminating extended-language terms
* security-language terms over the permission universe {p, q}

and ``church_mul(n)``, the Church product n × n applied to two identities.
"""

from __future__ import annotations

import random

from aam.analysis import (
    KCFAPolicy,
    explore_states,
    inject_abstract,
    is_final_abstract,
    step_abstract,
)
from aam.extended import inject_extended, step_extended
from aam.inspection import inject_cm, step_cm
from aam.machines import run_trace, trace_from
from aam.syntax import (
    App,
    Catch,
    Exp,
    FalseLit,
    Frame,
    Grant,
    If,
    Lam,
    Ref,
    SetBang,
    Test,
    parse,
    relabel,
    unparse,
)

SEED = 20260819
VAR_POOL = ("x", "y", "z", "f", "g", "h", "u", "v", "w")
UNIVERSE = frozenset({"p", "q"})


def _gen_core(rng: random.Random, depth: int, scope: tuple[str, ...]) -> Exp:
    if depth <= 0:
        if scope and rng.random() < 0.7:
            return Ref(0, rng.choice(scope))
        v = rng.choice(VAR_POOL)
        return Lam(0, v, Ref(0, v))
    r = rng.random()
    if r < 0.3 and scope:
        return Ref(0, rng.choice(scope))
    if r < 0.65:
        v = rng.choice(VAR_POOL)
        return Lam(0, v, _gen_core(rng, depth - 1, scope + (v,)))
    return App(0, _gen_core(rng, depth - 1, scope), _gen_core(rng, depth - 1, scope))


def _omega(rng: random.Random) -> Exp:
    v = rng.choice(VAR_POOL)
    def delta() -> Exp:
        return Lam(0, v, App(0, Ref(0, v), Ref(0, v)))
    return App(0, delta(), delta())


def _gen_divergent_candidate(rng: random.Random) -> Exp:
    om = _omega(rng)
    shape = rng.random()
    if shape < 0.3:
        return om
    filler = _gen_core(rng, rng.randint(0, 2), ())
    if shape < 0.55:
        return App(0, om, filler)
    if shape < 0.8:
        return App(0, filler, om)
    v = rng.choice(VAR_POOL)
    return App(0, Lam(0, v, om), filler)


def _gen_extended(rng: random.Random, depth: int, scope: tuple[str, ...]) -> Exp:
    if depth <= 0:
        r = rng.random()
        if scope and r < 0.5:
            return Ref(0, rng.choice(scope))
        if r < 0.7:
            return FalseLit(0)
        v = rng.choice(VAR_POOL)
        return Lam(0, v, Ref(0, v))
    r = rng.random()
    if r < 0.2 and scope:
        return Ref(0, rng.choice(scope))
    if r < 0.4:
        v = rng.choice(VAR_POOL)
        return Lam(0, v, _gen_extended(rng, depth - 1, scope + (v,)))
    if r < 0.6:
        return App(0, _gen_extended(rng, depth - 1, scope), _gen_extended(rng, depth - 1, scope))
    if r < 0.75:
        return If(
            0,
            _gen_extended(rng, depth - 1, scope),
            _gen_extended(rng, depth - 1, scope),
            _gen_extended(rng, depth - 1, scope),
        )
    if r < 0.85 and scope:
        target = rng.choice(scope)
        v = rng.choice(VAR_POOL)
        return SetBang(0, target, Lam(0, v, Ref(0, v)))
    if r < 0.95:
        v = rng.choice(VAR_POOL)
        body = _gen_extended(rng, depth - 1, scope)
        handler = Lam(0, v, Ref(0, v))
        return Catch(0, body, handler)
    v = rng.choice(VAR_POOL)
    return Lam(0, v, _gen_extended(rng, depth - 1, scope + (v,)))


def _gen_security(rng: random.Random, depth: int, scope: tuple[str, ...]) -> Exp:
    if depth <= 0:
        if scope and rng.random() < 0.5:
            return Ref(0, rng.choice(scope))
        v = rng.choice(VAR_POOL)
        return Lam(0, v, Ref(0, v))
    r = rng.random()
    perms = frozenset(rng.sample(sorted(UNIVERSE), rng.randint(0, 2)))
    if r < 0.15 and scope:
        return Ref(0, rng.choice(scope))
    if r < 0.35:
        v = rng.choice(VAR_POOL)
        return Lam(0, v, _gen_security(rng, depth - 1, scope + (v,)))
    if r < 0.55:
        return App(0, _gen_security(rng, depth - 1, scope), _gen_security(rng, depth - 1, scope))
    if r < 0.7:
        return Frame(0, perms, _gen_security(rng, depth - 1, scope))
    if r < 0.85:
        return Grant(0, perms, _gen_security(rng, depth - 1, scope))
    return Test(
        0,
        perms or frozenset({"p"}),
        _gen_security(rng, depth - 1, scope),
        _gen_security(rng, depth - 1, scope),
    )


class _TooBig(Exception):
    pass


def _desk_scale(e: Exp, cap: int = 2500) -> bool:
    """Per-state-store exploration is exponential in the worst case; the
    corpus keeps to programs whose k<=1 graphs stay small so every suite
    item runs in seconds."""
    for k in (0, 1):
        policy = KCFAPolicy(k)
        expansions = 0

        def succ(s):
            nonlocal expansions
            expansions += 1
            if expansions > cap:
                raise _TooBig
            return step_abstract(s, policy)

        try:
            explore_states(inject_abstract(e, policy), succ, is_final_abstract)
        except _TooBig:
            return False
    return True


def _collect(rng, gen_candidate, keep, want, attempts=20000):
    out, seen = [], set()
    for _ in range(attempts):
        if len(out) >= want:
            break
        e = relabel(gen_candidate(rng))
        key = unparse(e)
        if key in seen:
            continue
        seen.add(key)
        if keep(e):
            out.append(e)
    if len(out) < want:
        raise RuntimeError(f"corpus generation fell short: {len(out)}/{want}")
    return out


MUL = "(lambda (m) (lambda (n) (lambda (g) (m (n g)))))"


def church_mul(n: int) -> Exp:
    """``((mul n) n)`` applied to ``(lambda (a) a)``, then to
    ``(lambda (b) b)``, which it returns."""
    numeral = "(lambda (f) (lambda (x) " + "(f " * n + "x" + ")" * n + "))"
    return parse(f"(((({MUL} {numeral}) {numeral}) (lambda (a) a)) (lambda (b) b))")


_cache: dict[str, list[Exp]] = {}


def terminating_corpus() -> list[Exp]:
    """At least 50 closed core terms that reach a CEK final state within
    1000 steps.  Most are applications so the traces have real work in
    them; a few are immediate values."""
    if "term" not in _cache:
        rng = random.Random(SEED)

        def candidate(r: random.Random) -> Exp:
            d = r.randint(2, 5)
            return App(0, _gen_core(r, d, ()), _gen_core(r, d, ()))

        def busy(e: Exp) -> bool:
            t = run_trace("cek", e, 1000)
            return t.outcome == "final" and t.steps >= 2 and _desk_scale(e)

        pool = _collect(rng, candidate, busy, 48)
        seen = {unparse(e) for e in pool}
        extra = _collect(
            rng,
            lambda r: _gen_core(r, r.randint(2, 6), ()),
            lambda e: unparse(e) not in seen
            and run_trace("cek", e, 1000).outcome == "final"
            and _desk_scale(e),
            7,
        )
        _cache["term"] = pool + extra
    return _cache["term"]


def divergent_corpus() -> list[Exp]:
    """20 closed core terms that exhaust 1000 steps of fuel."""
    if "div" not in _cache:
        rng = random.Random(SEED + 1)
        _cache["div"] = _collect(
            rng,
            _gen_divergent_candidate,
            lambda e: run_trace("cek", e, 1000).outcome == "fuel" and _desk_scale(e),
            20,
        )
    return _cache["div"]


def extended_corpus() -> list[Exp]:
    """Terminating extended-language programs, every feature represented."""
    if "ext" not in _cache:
        rng = random.Random(SEED + 2)

        def keep(e: Exp) -> bool:
            t = trace_from(lambda s: step_extended(s), inject_extended(e), 1000)
            return t.outcome == "final"

        fixed = [
            parse(src)
            for src in (
                "(if #f (lambda (a) a) (lambda (b) b))",
                "(if (lambda (t) t) (lambda (a) a) (lambda (b) b))",
                "((lambda (x) (set! x (lambda (b) b))) (lambda (a) a))",
                "((lambda (x) ((lambda (d) x) (set! x (lambda (b) b)))) (lambda (a) a))",
                "((lambda (t) t) (callcc (lambda (k) ((k (lambda (a) a)) (lambda (b) b)))))",
                "(callcc (lambda (k) k))",
                "(catch ((lambda (x) (throw (lambda (a) a))) (lambda (b) b)) (lambda (y) y))",
                "(catch (lambda (a) a) (lambda (y) y))",
                "(catch (catch (throw #f) (lambda (u) (throw #f))) (lambda (y) y))",
            )
        ]
        generated = _collect(
            rng, lambda r: _gen_extended(r, r.randint(2, 5), ()), keep, 15
        )
        _cache["ext"] = fixed + generated
    return _cache["ext"]


def security_corpus() -> list[Exp]:
    """Security-language programs over {p, q} that finish (value or
    failure) on the concrete machine."""
    if "sec" not in _cache:
        rng = random.Random(SEED + 3)

        def keep(e: Exp) -> bool:
            t = trace_from(lambda s: step_cm(s, UNIVERSE), inject_cm(e, UNIVERSE), 1000)
            return t.outcome in ("final", "fail")

        fixed = [
            parse(src)
            for src in (
                "(test (p) (lambda (a) a) (lambda (b) b))",
                "(frame () (test (p) (lambda (a) a) (lambda (b) b)))",
                "(frame () (grant (p) (test (p) (lambda (a) a) (lambda (b) b))))",
                "(frame (p) (test (p) (lambda (a) a) (lambda (b) b)))",
                "(grant (p q) (test (p q) (lambda (a) a) fail))",
                "(frame (q) (test (p) fail (lambda (b) b)))",
                "((lambda (x) (frame (p) (test (p) x fail))) (lambda (a) a))",
                "((lambda (f) (f (lambda (d) d))) (lambda (x) (test (p) x x)))",
                "(frame () fail)",
                "fail",
            )
        ]
        generated = _collect(
            rng, lambda r: _gen_security(r, r.randint(2, 5), ()), keep, 15
        )
        _cache["sec"] = fixed + generated
    return _cache["sec"]
