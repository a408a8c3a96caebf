"""congcount benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

Run from a congcount checkout: the package is imported from src/ next to
this directory.  One process, one client, a closed loop: calls are issued
back to back, in-process, through congcount.cli.main (library functions only
where the CLI has no subcommand).  Every output is checked against a value
not produced by the timed call; a wrong or failed call counts in `failed`.

--trace 0 prints the end-to-end metrics; --trace 1 runs each deck twice,
untraced and traced, and prints the per-layer metrics and the tracing
overhead; a call whose two outputs differ counts as failed.  The last stdout line is
{"correct", "attempted", "failed", "metrics"}.  `--workload all` runs every
workload in its own process and prints one table.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from hostspeed import REFERENCE_MS, reference_time
from tracer import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_SAMPLES = 16
LOCAL = 5  # reference timings on each side of a call that gauge the host around it
MIN_SAMPLES = 100  # so that ten samples lie beyond p90
# In a fresh interpreter: gauge the host, then import the package and make
# one trivial CLI call.
SETUP_CODE = """\
import contextlib, io, statistics, sys, time
sys.path[:0] = sys.argv[1:3]
from hostspeed import reference_time
ref = statistics.median(reference_time() for _ in range(7))
t0 = time.perf_counter()
import congcount, congcount.cli
with contextlib.redirect_stdout(io.StringIO()):
    congcount.cli.main(["check", "--n", "2", "--coeffs", "1", "--json", "--no-timing"])
print(time.perf_counter() - t0, ref)
"""

FAILED = object()


def load_package():
    """Import congcount from this checkout's src/, or exit without a result."""
    if not (SRC / "congcount" / "__init__.py").is_file():
        sys.exit(f"error: no congcount package under {SRC}; run from a congcount checkout")
    sys.path.insert(0, str(SRC))
    import congcount
    import congcount.cli

    if Path(congcount.__file__).resolve().parent != (SRC / "congcount").resolve():
        sys.exit(f"error: imported congcount from {congcount.__file__}, not from {SRC}")
    return congcount


def setup_time():
    """Seconds for a fresh interpreter to import congcount and make a first call.

    Normalised like the call times, by the reference loop timed in the same
    interpreter just before the import.
    """
    done = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(SRC), str(HERE)],
                          check=True, capture_output=True, text=True, timeout=60)
    seconds, ref = map(float, done.stdout.split())
    return seconds / ref * REFERENCE_MS / 1000


def environment():
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "commit": commit}


# --- running calls -------------------------------------------------------------


def run_call(package, call, tracer=None):
    """Run one call with stdout/stderr captured; return (output, seconds)."""
    sink_out, sink_err = io.StringIO(), io.StringIO()
    close = tracer.root() if tracer else None
    with contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err):
        t0 = perf_counter()
        try:
            result = package.cli.main(call.argv) if call.argv is not None else call.fn()
        except Exception as exc:  # a crash is a failed call, not a benchmark crash
            result = exc
        elapsed = perf_counter() - t0
    if close:
        close()
    if isinstance(result, Exception):
        return FAILED, elapsed
    if call.argv is None:
        return result, elapsed
    try:
        doc = json.loads(sink_out.getvalue()) if result == 0 else None
    except ValueError:
        return FAILED, elapsed
    return (result, doc), elapsed


def run_deck(package, deck, tracer=None):
    """Run a deck; return outputs, call times and a host-speed sample before each call."""
    outputs, latencies, refs = [], [], []
    for call in deck:
        refs.append(reference_time())
        output, elapsed = run_call(package, call, tracer)
        outputs.append(output)
        latencies.append(elapsed)
    return outputs, latencies, refs


def failures(deck, outputs):
    """Count outputs that fail their check; describe the first few on stderr."""
    by_label = {call.label: out for call, out in zip(deck, outputs)}
    bad = 0
    for call, out in zip(deck, outputs):
        try:
            ok = out is not FAILED and call.check(call, out, by_label)
        except Exception:  # malformed output: counted, never dropped
            ok = False
        if not ok:
            bad += 1
            if bad <= 3:
                print(f"FAILED {call.label}: {call.argv or ''} -> {str(out)[:200]}",
                      file=sys.stderr)
    return bad


def warm_up(package):
    with contextlib.redirect_stdout(io.StringIO()):
        package.cli.main(["check", "--n", "2", "--coeffs", "1", "--json", "--no-timing"])
    gc.collect()


# --- the two kinds of run ---------------------------------------------------


def normalise(times, refs):
    """Rescale each call time to the host speed measured around the call.

    refs[j] is the reference loop timed just before call j; the speed around
    call j is the median of the reference timings up to LOCAL calls on
    either side.  The result is in ms at reference speed (REFERENCE_MS).
    """
    out = []
    for j, t in enumerate(times):
        around = statistics.median(refs[max(0, j - LOCAL):j + LOCAL + 1])
        out.append(t / around * REFERENCE_MS)
    return out


def run_untraced(package, decks, seconds, passes, min_samples=MIN_SAMPLES,
                 setup_samples=SETUP_SAMPLES):
    """Time every call `passes` times; keep the median of its normalised times.

    The first pass takes whole decks until about seconds / passes have gone
    and at least min_samples calls were made; the later passes repeat the
    same calls in the same order.  The host's speed drifts by tens of
    percent within minutes, so each timing is first divided by the speed
    measured around it (see normalise).  The setup_samples set-up timings
    are spread over the passes so their median sees the same host states.
    """
    setup_per_pass = -(-setup_samples // passes)
    setup_time()  # warms the bytecode cache; not counted
    warm_up(package)
    setup, block, per_call, raw, refs, failed = [], [], [], [], [], 0
    for p in range(passes):
        setup += [setup_time() for _ in range(setup_per_pass)]
        times, ref_times = [], []

        def run(deck):
            nonlocal failed
            outputs, lat, ref = run_deck(package, deck)
            failed += failures(deck, outputs)
            times.extend(lat)
            ref_times.extend(ref)

        if p == 0:
            start = perf_counter()
            while True:
                block.append(decks[len(block) % len(decks)])
                run(block[-1])
                elapsed = perf_counter() - start
                # stop when the next deck would more likely overshoot than not
                if (elapsed * (1 + 0.5 / len(block)) >= seconds / passes
                        and len(times) >= min_samples):
                    break
            per_call = [[] for _ in times]
        else:
            for deck in block:
                run(deck)
        for j, t in enumerate(normalise(times, ref_times)):
            per_call[j].append(t)
        raw += times
        refs += ref_times
    typical = [statistics.median(ts) for ts in per_call]
    quantiles = statistics.quantiles(typical, n=10)
    metrics = {
        "calls_per_s": (len(typical) / sum(typical) * 1000, "1/ref_s"),
        "call_ms_p50": (statistics.median(typical), "ref_ms"),
        "call_ms_p90": (quantiles[8], "ref_ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    if setup:
        metrics["setup_s"] = (statistics.median(setup), "s")
    print(f"raw: call_ms_p50 {statistics.median(raw) * 1000:.4g}, reference loop median "
          f"{statistics.median(refs) * 1000:.4g} ms over {len(refs)} samples", file=sys.stderr)
    return passes * len(typical), failed, metrics


# "<span name or layer>.<calls|self_ms>"; a layer sums the spans of all its functions.
LAYER_METRICS = [
    "cli.main.calls", "cli.main.self_ms",
    "congruence.check_condition.calls", "congruence.check_condition.self_ms",
    "congruence.distinct_count_formula.self_ms",
    "arith.calls", "arith.self_ms",
    "congruence.lehmer_count.calls", "congruence.lehmer_count.self_ms",
    "oracle.pattern_count.calls",
    "oracle.iep_partitions.calls", "oracle.iep_partitions.self_ms",
    "oracle.iep_edge_subsets.calls", "oracle.iep_edge_subsets.self_ms",
    "oracle.brute_force_distinct.calls", "oracle.brute_force_distinct.self_ms",
    "graphenum.connected_counts.self_ms", "graphenum.component_counts.self_ms",
    "series.series_log.self_ms", "series.series_pow.self_ms",
    "series.series_mul.calls", "series.series_mul.self_ms",
    "series.bivar_log.self_ms", "series.bivar_pow.self_ms",
    "series.bivar_mul.calls", "series.bivar_mul.self_ms",
    "series.deformed_exp_truncated.self_ms",
]
UNITS = {"calls": "count/call", "self_ms": "ms/call"}

# Work counts derived from each call's inputs and result, not measured.
COMPUTED_METRICS = [
    "congruence.check_condition.subsets_scanned",
    "oracle.iep_partitions.terms",
    "oracle.iep_edge_subsets.terms",
    "oracle.brute_force_distinct.tuples",
    "graphenum.table_entries",
]


def layer_metrics(tracer, front_end_calls, overhead_pct):
    """Per-layer numbers, each divided by the number of front-end calls traced."""
    summary = tracer.summary()
    metrics = {}
    for name in LAYER_METRICS:
        key, field = name.rsplit(".", 1)
        total = sum(row[field] for span, row in summary.items()
                    if span == key or span.startswith(key + "."))
        metrics[name] = (total / front_end_calls, UNITS[field])
    for name in COMPUTED_METRICS:
        metrics[name] = (tracer.computed.get(name, 0) / front_end_calls, "computed/call")
    cli_calls = summary["cli.main"]["calls"]
    checks = summary["congruence.check_condition"]["calls"]
    metrics["congruence.check_condition.calls_per_count"] = (
        checks / cli_calls if cli_calls else 0.0, "ratio")
    metrics["oracle.iep_partitions.nonzero_ratio"] = (
        tracer.lehmer_nonzero / tracer.lehmer_terms if tracer.lehmer_terms else 0.0, "ratio")
    metrics["trace.front_end_calls"] = (front_end_calls, "count")
    metrics["trace.overhead_pct"] = (overhead_pct, "%")
    return metrics


def run_traced(package, decks, seconds, workload, seed):
    """Each deck untraced, then traced; per-layer metrics come from the traced pass."""
    warm_up(package)
    tracer = Tracer(package)
    untraced_s = traced_s = 0.0
    calls = failed = mismatched = i = 0
    refs = []
    start = perf_counter()
    while True:
        deck = decks[i % len(decks)]
        i += 1
        # alternate which pass goes first, so warm-up effects cancel in the overhead
        if i % 2:
            plain, lat_plain, ref_plain = run_deck(package, deck)
        tracer.install()
        try:
            traced, lat_traced, ref = run_deck(package, deck, tracer)
        finally:
            tracer.uninstall()
        if not i % 2:
            plain, lat_plain, ref_plain = run_deck(package, deck)
        refs += ref
        # normalised, so a change of host speed between the passes cancels
        untraced_s += sum(normalise(lat_plain, ref_plain))
        traced_s += sum(normalise(lat_traced, ref))
        calls += len(deck)
        failed += failures(deck, plain) + failures(deck, traced)
        mismatched += sum(1 for a, b in zip(plain, traced) if a != b)
        if perf_counter() - start >= seconds:
            break
    if mismatched:
        print(f"FAILED {mismatched} calls printed different outputs when traced", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{workload}.spans",
                 dict(environment(), workload=workload, seed=seed, front_end_calls=calls))
    overhead = (traced_s / untraced_s - 1) * 100
    metrics = layer_metrics(tracer, calls, overhead)
    metrics["trace.ref_ms"] = (statistics.median(refs) * 1000, "ms")
    return 2 * calls, failed + mismatched, metrics


# --- command line -------------------------------------------------------------


def run_all(args):
    """Run every workload in its own process and print one table."""
    bad = False
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            print(f"{name}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            bad = True
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        bad |= not result["correct"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} fail_ratio={result['failed'] / result['attempted']:g}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:<46} {entry['value']:>14.6g} {entry['unit']}")
    return 1 if bad else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    package = load_package()
    workload = WORKLOADS[args.workload]
    env = environment()
    print(f"env: python {env['python']}, nproc {env['nproc']}, commit {env['commit']}",
          file=sys.stderr)
    decks = workload.decks(args.seed, package)
    if args.trace:
        attempted, failed, metrics = run_traced(package, decks, args.seconds, workload.name,
                                                args.seed)
    else:
        attempted, failed, metrics = run_untraced(package, decks, args.seconds,
                                                  workload.params["passes"])
    print(f"{workload.name}: {attempted} calls, {failed} failed, "
          f"fail_ratio {failed / attempted:g}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
