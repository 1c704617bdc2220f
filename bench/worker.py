"""One workload in a fresh interpreter: set up, check, then measure.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                            [--setup-only] [--record FILE]

Prints one JSON object on its last line of standard output.  ``run.py``
starts this script once per set-up sample and once for the measured run;
it is not meant to be called by hand except with ``--record``, which
writes the fingerprints of every request of the default seed to FILE.

Set-up time covers importing the package and generating, parsing and
(for the command-line workload) writing the workload's programs.  The
timed passes run every request once per pass, one at a time, until the
requested number of seconds has passed; only whole passes are run.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEFAULT_SEED = 1
FINGERPRINTS = BENCH / "fingerprints.json"


def _import_package() -> float:
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import aam.cli  # noqa: F401  (imports every module of the package)

    return time.perf_counter() - t0


def _pass(requests, expected, failures, tracer=None):
    """Run every request once; returns (latency of each successful request
    by id, wall time, fingerprints)."""
    latencies, prints = {}, {}
    perf = time.perf_counter
    t_pass = perf()
    for req in requests:
        t0 = perf()
        try:
            result = req.run()
        except Exception as ex:  # a failed request is counted, not fatal
            failures.append((req.id, "error", _describe(ex)))
            prints[req.id] = None
            continue
        dt = perf() - t0
        if tracer is None:
            fp = req.fingerprint(result)
        else:
            with tracer.paused():
                fp = req.fingerprint(result)
        prints[req.id] = fp
        want = expected.get(req.id)
        if want is not None and fp != want:
            failures.append((req.id, "wrong", f"fingerprint {fp} != {want}"))
            continue
        latencies[req.id] = dt
    return latencies, perf() - t_pass, prints


def _describe(ex: Exception) -> str:
    return f"{type(ex).__name__}: {str(ex)[:120]}"


def _check_pass(requests, recorded, failures):
    """Untimed first pass: oracle checks and recorded fingerprints."""
    prints = {}
    for req in requests:
        try:
            result = req.run()
        except Exception as ex:
            failures.append((req.id, "error", _describe(ex)))
            continue
        problems = req.check(result)
        fp = json.loads(json.dumps(req.fingerprint(result)))
        if recorded is not None:
            want = recorded.get(req.id)
            if want != fp:
                problems = problems + [f"fingerprint {fp} != recorded {want}"]
        if problems:
            failures.append((req.id, "wrong", "; ".join(problems)))
            continue
        prints[req.id] = fp
    return prints


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--record", default=None, metavar="FILE")
    args = ap.parse_args(argv)

    import_s = _import_package()
    sys.path.insert(0, str(ROOT / "tests"))
    sys.path.insert(0, str(BENCH))
    import oracles  # noqa: F401  (the test suite's independent oracles)
    import workloads as W

    if args.workload not in W.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        t0 = time.perf_counter()
        setup = W.generate(args.workload, args.seed, workdir)
        setup_s = import_s + time.perf_counter() - t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        m = W.Modules()
        requests = W.build(args.workload, m, setup)
        return _measure(args, requests, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            workdir.parent.rmdir()


def _measure(args, requests, setup_s) -> int:
    recorded = None
    if args.seed == DEFAULT_SEED and args.record is None:
        recorded = json.loads(FINGERPRINTS.read_text()).get(args.workload, {})
    failures = []
    expected = _check_pass(requests, recorded, failures)
    attempted = len(requests)
    # Programs, oracles and fingerprints live for the whole run; keep the
    # collector from rescanning them during the timed passes.
    gc.collect()
    gc.freeze()
    if args.record is not None:
        book = json.loads(Path(args.record).read_text()) if Path(args.record).exists() else {}
        book[args.workload] = {r.id: expected.get(r.id) for r in requests}
        Path(args.record).write_text(json.dumps(book, indent=1, sort_keys=True) + "\n")

    if args.trace:
        from tracer import Tracer, layer_metrics

        gc.collect()
        _, plain_s, plain = _pass(requests, expected, failures)
        tracer = Tracer()
        gc.collect()
        with tracer.installed():
            _, traced_s, traced = _pass(requests, expected, failures, tracer)
        for rid in plain:
            if plain[rid] != traced[rid]:
                failures.append((rid, "wrong", "traced fingerprint differs from untraced"))
        attempted += 2 * len(requests)
        metrics = layer_metrics(tracer, traced_s - plain_s)
        _report(failures, {"untraced pass": plain_s, "traced pass": traced_s}, tracer)
    else:
        latencies, pass_s = {}, []
        while not pass_s or sum(pass_s) < args.seconds:
            gc.collect()
            lat, dt, _ = _pass(requests, expected, failures)
            for rid, x in lat.items():
                latencies.setdefault(rid, []).append(x)
            pass_s.append(dt)
        passes = len(pass_s)
        attempted += passes * len(requests)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # A request's latency is its median over the passes, which keeps a
        # burst of load from another process from moving the percentiles.
        ms = sorted(statistics.median(xs) * 1000 for xs in latencies.values())
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "requests_per_s": {"value": len(requests) / statistics.median(pass_s), "unit": "1/s"},
            "latency_p50_ms": {"value": statistics.median(ms), "unit": "ms"},
            "latency_p90_ms": {"value": statistics.quantiles(ms, n=10)[-1], "unit": "ms"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            "success_rate": {"value": 1 - len(failures) / attempted, "unit": "ratio"},
        }
        _report(failures, {"passes": passes, "requests per pass": len(requests),
                           "requests timed": len(ms),
                           "pass seconds": " ".join(f"{x:.3f}" for x in pass_s)}, None)
    print(json.dumps({
        "correct": not any(kind == "wrong" for _, kind, _ in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


def _report(failures, facts, tracer):
    for k, v in facts.items():
        print(f"# {k}: {v}")
    counts = {}
    for failure in failures:
        counts[failure] = counts.get(failure, 0) + 1
    for (rid, kind, why), n in sorted(counts.items()):
        print(f"# {kind} x{n}: {rid}: {why}")
    if tracer is not None:
        for q, (calls, self_s) in sorted(tracer.spans.items(), key=lambda kv: -kv[1][1]):
            print(f"# span {q}: calls={calls} self_s={self_s:.6f}")


if __name__ == "__main__":
    sys.exit(main())
