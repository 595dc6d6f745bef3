"""fbmecon benchmark: one workload per run, end-to-end or per-layer metrics.

Usage (from the root of a source checkout):

    python3 bench/run.py --workload {sweep,recover,convergence} --seed N \\
        --seconds S --trace {0,1}

The run imports fbmecon from ``src/`` of the checkout, sets the workload up
from the seed, runs one untimed warm-up iteration, then repeats the
workload's iteration for S seconds and checks every iteration's outputs.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced iterations and reports per-layer metrics
from the spans, plus the tracing overhead.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  Scratch files
go to ``.bench_work/`` in the checkout; the span file of a traced run is
kept in ``.bench_work/traces/``.
"""

import time

T_START = time.perf_counter()  # set-up is timed from here, before numpy is imported

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=("sweep", "recover", "convergence"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _import_package():
    """Import fbmecon from the checkout's src/, never from site-packages."""
    if not (SRC / "fbmecon" / "__init__.py").is_file():
        sys.exit(f"bench: no fbmecon sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fbmecon

    if Path(fbmecon.__file__).resolve().parent != SRC / "fbmecon":
        sys.exit(f"bench: imported fbmecon from {fbmecon.__file__}, not {SRC}")
    import workloads

    return workloads


def _setup(args, workdir: Path):
    """Import plus config and input generation; returns (workloads, workload)."""
    workloads = _import_package()
    workdir.mkdir(parents=True, exist_ok=True)
    return workloads, workloads.WORKLOADS[args.workload](workdir, args.seed)


def _setup_probe(args) -> float:
    """Set-up time of one fresh process (import, config, inputs)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def _quantile(values, q: float) -> float:
    """Linear-interpolation quantile (the 'inclusive' method)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def main(argv=None) -> int:
    args = _parse_args(argv)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir: Path) -> int:
    workloads, wl = _setup(args, workdir)
    own_setup = time.perf_counter() - T_START
    if args.setup_probe:
        print(repr(own_setup))
        return 0
    import identity
    from tracing import Tracer, dump_spans, per_layer_metrics

    run_info = identity.run_identity(sys.argv, args, ROOT)
    print(json.dumps({"run": run_info}, sort_keys=True))
    setup = [own_setup]

    attempted = failed = 0
    messages: list[str] = []

    def one_iteration(latencies):
        nonlocal attempted, failed
        watch, outcome = workloads.Stopwatch(), workloads.Outcome()
        wl.iterate(watch, outcome, latencies)
        try:
            wl.check(outcome)
        except Exception as exc:  # missing or malformed output: a failed check
            outcome.op(False, f"{args.workload}: output check raised {exc!r}")
        attempted += outcome.attempted
        failed += outcome.failed
        messages.extend(outcome.messages)
        return watch

    one_iteration([])  # warm-up: lazy imports, allocator and page cache
    tracer = Tracer()
    untraced: list = []  # Stopwatch per untraced iteration
    traced: list = []
    latencies: list[float] = []
    deadline = time.perf_counter() + args.seconds
    i = 0
    while True:
        if args.trace and i % 2:
            tracer.install(iteration=i)
            try:
                traced.append((i, one_iteration([])))
            finally:
                tracer.uninstall()
        else:
            untraced.append(one_iteration(latencies))
            if not args.trace:
                # one fresh-process set-up after each iteration, so the set-up
                # samples span the run like the iteration samples do
                setup.append(_setup_probe(args))
        i += 1
        if time.perf_counter() >= deadline and (traced or not args.trace):
            break

    for msg in messages[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    walls = [w.wall for w in untraced]
    if args.trace:
        summaries = [tracer.iteration_summary(it) for it, _ in traced]
        metrics, repeat = per_layer_metrics(summaries, [w.wall for _, w in traced], walls)
        attempted += 1
        if not repeat:
            failed += 1
            print("check failed: computed counters differ between traced iterations", file=sys.stderr)
        trace_dir = WORK / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_file = trace_dir / f"{args.workload}-seed{args.seed}-{os.getpid()}.json"
        trace_file.write_text(json.dumps({"run": run_info, **dump_spans(tracer)}), encoding="utf-8")
    else:
        # Best-of-iterations times: on a shared host the same iteration runs at
        # two speeds about 1.9x apart and a run can stay at one of them for tens
        # of seconds, so the median moves with the share of the run spent slow,
        # while the fastest iterations, from the fast periods, hold steady.
        wall = min(walls)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (wall, "s"),
            "cpu_s": (min(w.cpu for w in untraced), "s"),
            "items_per_s": (wl.items / wall, "1/s"),
            "latency_ms.p10": (1e3 * _quantile(latencies, 0.10), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        print(f"# {len(walls)} measured iterations, {len(latencies)} latency samples, "
              f"{len(setup)} set-up samples")
        print(f"# iteration wall_s (median {statistics.median(walls):.4f}): "
              + " ".join(f"{w:.4f}" for w in walls))
        print("# set-up s: " + " ".join(f"{s:.4f}" for s in setup))
        print("# latency ms " + " ".join(
            f"p{round(100 * q)} {1e3 * _quantile(latencies, q):.4f}"
            for q in (0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99)))
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:14.6g} {unit}")
    # failed_frac is carried by the result's attempted and failed fields
    print(f"{'failed_frac':42s} {failed / attempted:14.6g} fraction")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
