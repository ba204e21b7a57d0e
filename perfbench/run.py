"""The effectalg benchmark: run one workload for a seed and a measuring time.

    python3 perfbench/run.py --workload s4-decide --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run it from anywhere; it benchmarks the sources in src/ next to perfbench/.
The last stdout line is one JSON object: correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end_to_end metrics of
BENCHMARK.json, with --trace 1 the per_layer ones.  A readable copy, with
fail_ratio added, goes to stderr.

Load model: a closed loop in one process and one thread.  A pass runs every
item of the workload once, each starting when the previous returns; passes
repeat until the next one would end after --seconds (at least two passes,
one per orientation of each box).  wall_s is the median over pairs of
passes of the pair's mean pass time, and setup_s the median of 25
interpreter starts; both are given at the reference speed of gauge.py, a
fixed computation timed before, during and after each item, so that the
host's drifting speed cancels out.  The unnormalised times go to stderr.

The traced run repeats the first pass's inputs, alternating untraced and
traced passes.  Per-layer times are medians over traced passes; counts come
from the first traced pass and must repeat in every later one.  The first
traced pass's spans go to .perfbench_out/spans-<workload>.csv.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import gauge

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOAD_NAMES = ("paper-suite", "s3-enumerate", "s4-decide", "table-check")
SETUP_PROBES = 25
PROBE = ("import effectalg, sys; sys.stdout.write('ready\\n'); sys.stdout.flush(); "
         f"sys.path.insert(0, {HERE!r}); import gauge; print(gauge.sample())")


def setup_seconds(env: dict) -> tuple[float, float]:
    """Median time from spawning an interpreter until `import effectalg` is done.

    Returns (gauge-normalised, raw) medians.  Each probe, once ready, samples
    the gauge itself, on its own core, and its time is normalised by that.
    One probe more than counted runs first, so a fresh checkout's bytecode
    compilation is not in the figure.
    """
    raw, norm = [], []
    for i in range(SETUP_PROBES + 1):
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", PROBE], cwd=ROOT, env=env,
                                stdout=subprocess.PIPE)
        line = proc.stdout.readline()
        t1 = perf_counter()
        rest = proc.stdout.read()
        proc.stdout.close()
        if proc.wait() != 0 or line != b"ready\n":
            raise RuntimeError("the set-up probe could not import effectalg")
        if i:
            raw.append(t1 - t0)
            norm.append((t1 - t0) * gauge.REFERENCE_S / float(rest))
    return statistics.median(norm), statistics.median(raw)


class Runner:
    """Runs passes, checks every output and keeps the tallies."""

    def __init__(self):
        self.attempted = self.failed = self.decided = 0
        self.seen: dict = {}
        self.checker_tested = False
        self.item_metrics: dict[str, list] = {}

    def fail(self, key: str, why: str) -> None:
        self.failed += 1
        print(f"FAIL {key}: {why}", file=sys.stderr)

    def run_pass(self, items, tracer=None, gauged=False):
        """Time each item; return the pass time, the same at the gauge's
        reference speed (when gauged) and, when traced, the layer figures."""
        mark = tracer.mark() if tracer else None
        total = norm = 0.0
        before = gauge.sample() if gauged else None
        for item in items:
            self.attempted += 1
            samples = [before]
            ticker = gauge.Ticker(samples) if gauged and not item.spawns else None
            s = None
            t0 = perf_counter()
            try:
                with ticker or contextlib.nullcontext():
                    out = item.run()
                elapsed = perf_counter() - t0 - (ticker.spent if ticker else 0.0)
                s = item.summary(out)
            except Exception:  # an item that raises is a failed item; the run goes on
                elapsed = perf_counter() - t0 - (ticker.spent if ticker else 0.0)
                self.fail(item.key, traceback.format_exc())
            total += elapsed
            if gauged:
                before = gauge.sample()
                samples.append(before)
                norm += elapsed * gauge.REFERENCE_S / statistics.fmean(samples)
            if s is None:
                continue
            err = item.check(s, item.expected)
            if err is None and self.seen.setdefault(item.key, s) != s:
                err = f"output differs from an earlier pass: {s} vs {self.seen[item.key]}"
            if err is not None:
                self.fail(item.key, err)
                continue
            if item.decided(s):
                self.decided += 1
            if not self.checker_tested:
                # The checker must reject a deliberately wrong expected value.
                self.checker_tested = True
                if item.check(s, item.wrong()) is None:
                    self.fail(item.key, "the checker accepted a wrong expected value")
            if tracer is None:
                for name, value in item.layer_metrics(s, elapsed).items():
                    self.item_metrics.setdefault(name, []).append(value)
        layers = tracer.summarize(mark) if tracer else None
        if layers is not None and layers["trace.self_total_s"] > total:
            self.fail("trace", f"span self times {layers['trace.self_total_s']} exceed "
                                f"the pass time {total}")
        return total, (norm if gauged else total), layers


def measure(runner: Runner, make_items, seconds: float) -> list[tuple[float, float]]:
    """(pass time, gauge-normalised pass time) per pass; passes go on while the
    next should end within `seconds`, and there are always at least two (one pair)."""
    times: list[tuple[float, float]] = []
    t0 = perf_counter()
    while len(times) < 2 or perf_counter() - t0 + statistics.median(
            raw for raw, _ in times) <= seconds:
        times.append(runner.run_pass(make_items(len(times)), gauged=True)[:2])
    return times


def pair_median(times: list[float]) -> float:
    """Median over complete pairs of passes of the pair's mean pass time.

    A pair times each two-coordinate box in both coordinate orders, so every
    pair does the same work whatever the seed; an unpaired last pass is left out.
    """
    return statistics.median((times[i] + times[i + 1]) / 2
                             for i in range(0, len(times) - 1, 2))


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def run_untraced(wl, seed: int, seconds: float, env: dict) -> tuple[Runner, dict]:
    setup, setup_raw = setup_seconds(env)
    runner = Runner()
    times = measure(runner, lambda p: wl.make(seed, p), seconds)
    raw, norm = ([t[k] for t in times] for k in (0, 1))
    print(f"{wl.name}: {len(times)} passes, pass times {raw}, at gauge speed {norm}; "
          f"unnormalised pass median {pair_median(raw)} s, setup {setup_raw} s",
          file=sys.stderr)
    rss = peak_rss_mb(resource.RUSAGE_SELF if wl.traced is None else resource.RUSAGE_CHILDREN)
    return runner, {
        "wall_s": pair_median(norm),
        "setup_s": setup,
        "peak_rss_mb": rss,
        "decided_ratio": runner.decided / runner.attempted,
        "fail_ratio": runner.failed / runner.attempted,
    }


def run_traced(wl, seed: int, seconds: float, names: list[str]) -> tuple[Runner, dict]:
    from spans import Tracer

    runner = Runner()
    metrics = dict.fromkeys(names, 0)
    tracer = Tracer()
    # Passes cycle through the kinds below so that every kind sees the same
    # machine load.  A workload whose timed pass is a subprocess traces an
    # in-process twin and also runs that twin untraced.
    timed = wl.make(seed, 0)
    twin = timed if wl.traced is None else wl.traced(seed)
    kinds = ([timed] if twin is not timed else []) + [twin, twin]  # the last is traced
    times: list[list[float]] = [[] for _ in kinds]
    layers = []
    t0 = perf_counter()
    p = 0
    while p < len(kinds) or (perf_counter() - t0
                             + max(statistics.median(t) for t in times if t) <= seconds):
        k = p % len(kinds)
        traced = k == len(kinds) - 1
        if traced:
            tracer.install()
        try:
            total, _, lay = runner.run_pass(kinds[k], tracer if traced else None)
        finally:
            tracer.uninstall()
        times[k].append(total)
        if traced:
            layers.append(lay)
        p += 1
    os.makedirs(OUT, exist_ok=True)
    # The first traced pass's spans; later passes repeat its calls.
    tracer.write_csv(os.path.join(OUT, f"spans-{wl.name}.csv"), layers[0]["trace.spans"])

    first = layers[0]
    for name in names:
        if name.endswith("_s"):
            metrics[name] = statistics.median(lay.get(name, 0.0) for lay in layers)
        elif name in first:
            metrics[name] = first[name]
    for lay in layers[1:]:
        moved = [n for n in names if not n.endswith("_s") and lay.get(n, 0) != first.get(n, 0)]
        if moved:
            runner.fail("trace", f"counts changed between traced passes: {moved}")
    for name, values in runner.item_metrics.items():
        metrics[name] = statistics.median(values)
    plain, traced = (statistics.median(t) for t in times[-2:])
    metrics["trace.overhead_s"] = traced - plain
    if len(kinds) == 3:
        metrics["cli.process_overhead_s"] = statistics.median(times[0]) - plain
    print(f"{wl.name}: pass times by kind {times}", file=sys.stderr)
    return runner, metrics


def run_one(args, bench: dict) -> int:
    sys.path.insert(0, SRC)
    import effectalg
    if os.path.dirname(os.path.abspath(effectalg.__file__)) != os.path.join(SRC, "effectalg"):
        print(f"perfbench: imported effectalg from {effectalg.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    os.makedirs(OUT, exist_ok=True)
    wl = workloads.build(args.workload, ROOT, OUT)
    if args.trace:
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        runner, values = run_traced(wl, args.seed, args.seconds, list(units))
    else:
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        units["fail_ratio"] = "ratio"
        runner, values = run_untraced(wl, args.seed, args.seconds, workloads.src_env(ROOT))
    for name, unit in units.items():
        print(f"{wl.name} {name} {values[name]} {unit}", file=sys.stderr)
    result = {
        "correct": runner.failed == 0 and runner.checker_tested,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name != "fail_ratio"},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process so peak memory stays per workload."""
    code = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        code = max(code, subprocess.run(argv, check=False).returncode)
    return code


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "effectalg", "__init__.py")):
        print(f"perfbench: no effectalg sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    with open(bench_path, "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    return run_one(args, bench)


if __name__ == "__main__":
    sys.exit(main())
