"""Attack benchmark: three closed-loop workloads on the campaign path.

Run from the repository root::

    python3 perfbench/run.py --workload dip-loop --seed 0 --seconds 30 --trace 0

One client runs the workload's cells back to back (a closed loop: a cell
starts when the previous one ends) through ``Campaign(jobs=1)`` -- the
inline backend with the default single solver -- each cell into a
fresh, empty ``ResultStore``.  One *pass* is one round of the workload's
cells, locked with a seed derived from ``--seed`` (``PASS_SEED_STRIDE``);
passes repeat while the next one is expected to end within
``--seconds`` (at least ``MIN_PASSES``).  After each pass an untimed
warm replay of the same
specs must be served from the cache with the cold values, and every
cell value is checked against the paper's closed forms (see
``workloads.py``).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: the
median pass wall time, the median of ``SETUP_REPEATS`` fresh-interpreter
set-ups (import, plugin registration, spec canonicalisation), and the
process's peak RSS.  ``--trace 1`` alternates untraced and traced passes
and reports the per-layer metrics from the traced ones (``tracing.py``);
the spans are written to ``.perfbench/`` when the run ends.

The last stdout line is one JSON object: ``correct``, ``attempted`` and
``failed`` count cells, ``metrics`` maps each metric name to its value
and unit.  The metric names and units are read from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

SETUP_REPEATS = 5
#: A traced run needs an untraced and a traced pass for
#: trace.overhead_ratio; more would push the slowest workload past its
#: run time when a shared host is contended (passes then take up to 2x).
MIN_PASSES = 2

#: Untraced pass ``i`` of seed ``s`` locks with seed ``s * STRIDE + i``,
#: so a run averages over several keys (one key's DIP walk alone moves
#: a pass by up to 15%) while the same seed still gives the same inputs.
#: Traced passes all use pass 0's seed, so their counters repeat exactly.
PASS_SEED_STRIDE = 1000

#: What one set-up costs a user: a fresh interpreter importing the
#: package (plugin registration included) and canonicalising the specs.
#: The child prints when it is done on the system-wide monotonic clock,
#: so the parent's 50 ms wait-polling granularity stays out of the time.
SETUP_CODE = ("import sys, time; sys.path[:0] = sys.argv[1:3]; "
              "import workloads; "
              "workloads.cells(sys.argv[3], int(sys.argv[4])); "
              "print(time.perf_counter())")

#: Cell-value keys that are wall-clock measurements, excluded from the
#: cold/warm comparison.
WALL_CLOCK_KEYS = ("seconds", "timing")


def load_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def measure_setup(workload, seed):
    """Median wall time of ``SETUP_REPEATS`` fresh-interpreter set-ups."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        child = subprocess.run([sys.executable, "-c", SETUP_CODE, SRC,
                                BENCH_DIR, workload, str(seed)],
                               cwd=ROOT, check=True, timeout=120,
                               capture_output=True, text=True)
        times.append(float(child.stdout) - start)
    return statistics.median(times)


def run_pass(cells, scratch, tracer=None, tag=""):
    """One cold pass; returns ``(wall seconds, stores, results)``."""
    from repro.campaign import Campaign, ResultStore

    stores = [ResultStore(tempfile.mkdtemp(dir=scratch)) for _ in cells]
    results = []
    start = time.perf_counter()
    for (spec, _check), store in zip(cells, stores):
        if tracer is not None:
            tracer.cell = f"{tag}/{spec.label}"
        (result,) = Campaign(jobs=1, store=store).run([spec])
        results.append(result)
    return time.perf_counter() - start, stores, results


def verify_pass(cells, stores, results, tracer=None, tag=""):
    """Check every cold value, then replay each cell warm from its store.

    Returns one ``"label: problem"`` string per failed cell.
    """
    from repro.campaign import Campaign

    failures = []
    for (spec, check), store, cold in zip(cells, stores, results):
        if not cold.ok:
            failures.append(f"{spec.label}: {cold.error['type']}: "
                            f"{cold.error['message']}")
            continue
        problems = check(cold.value)
        if tracer is not None:
            tracer.cell = f"{tag}/{spec.label}#warm"
        (warm,) = Campaign(jobs=1, store=store).run([spec])
        if not warm.cached:
            problems.append("warm replay missed the cache")
        elif _without_wall_clock(warm.value) != \
                _without_wall_clock(cold.value):
            problems.append("warm replay differs from the cold value")
        if problems:
            failures.append(f"{spec.label}: {'; '.join(problems)}")
    return failures


def _without_wall_clock(value):
    return {key: item for key, item in value.items()
            if key not in WALL_CLOCK_KEYS}


def layer_metrics(tracer, tag, wall, results, stores):
    """The per-layer metrics of one traced pass."""
    from tracing import Profile

    spans = tracer.spans
    mine = [index for index, span in enumerate(spans)
            if span[4].startswith(f"{tag}/")]
    p = Profile(spans, [i for i in mine if not spans[i][4].endswith("#warm")])
    warm_profile = Profile(spans,
                           [i for i in mine if spans[i][4].endswith("#warm")])
    values = [result.value for result in results if result.ok]
    timing = {key: sum(value.get("timing", {}).get(key, 0.0)
                       for value in values)
              for key in ("solve_seconds", "oracle_seconds",
                          "encode_seconds")}
    solve_s = p.total("sat.solve")
    solve_calls = p.count("sat.solve")
    pins = p.counter("comb_sat.pin", "pins")
    oracle_calls = p.counter("oracle.query", "calls")
    oracle_patterns = p.counter("oracle.query", "patterns")
    attack_s = p.total("attack.run")
    return {
        "sat.solve_s": solve_s,
        "sat.solve_calls": solve_calls,
        "sat.solve_ms_p50": p.percentile_ms("sat.solve", 0.50),
        "sat.solve_ms_p95": p.percentile_ms("sat.solve", 0.95),
        "sat.conflicts": p.counter("sat.solve", "conflicts"),
        "sat.propagations": p.counter("sat.solve", "propagations"),
        "sat.decisions": p.counter("sat.solve", "decisions"),
        "sat.props_per_s": (p.counter("sat.solve", "propagations") / solve_s
                            if solve_s else 0.0),
        "comb_sat.miter_s": p.total("comb_sat.miter"),
        "comb_sat.find_dips_self_s": p.self_time("comb_sat.find_dips"),
        "comb_sat.pin_self_s": p.self_time("comb_sat.pin"),
        "comb_sat.pins": pins,
        "comb_sat.dips_per_solve": pins / solve_calls if solve_calls else 0.0,
        "comb_sat.dips_per_s": pins / attack_s if pins else 0.0,
        "attack.self_s": p.self_time("attack.run"),
        "attack.n_dips": sum(value.get("metrics", {}).get("n_dips", 0)
                             for value in values),
        "bmc.self_s": p.self_time("bmc.check"),
        "bmc.total_s": p.total("bmc.check"),
        "bmc.calls": p.count("bmc.check"),
        "unroll.self_s": p.self_time("unroll.unroll"),
        "unroll.calls": p.count("unroll.unroll"),
        "cnf.encode_s": p.total("cnf.encode"),
        "cnf.clauses": p.counter("cnf.encode", "clauses"),
        "netlist.fold_s": p.total("netlist.fold"),
        "oracle.s": p.total("oracle.query"),
        "oracle.calls": oracle_calls,
        "oracle.patterns": oracle_patterns,
        "oracle.patterns_per_call": (oracle_patterns / oracle_calls
                                     if oracle_calls else 0.0),
        "sim.run_s": p.total("sim.run"),
        "sim.calls": p.count("sim.run"),
        "metrics.fc_self_s": p.self_time("metrics.fc"),
        "core.lock_s": p.total("core.lock"),
        "core.locks": p.count("core.lock"),
        "bench.load_s": p.total("bench.load"),
        "bench.loads": p.count("bench.load"),
        "removal.census_s": p.total("removal.census"),
        "campaign.self_s": p.self_time("campaign.run"),
        "campaign.store_put_ms": p.mean_ms("campaign.store_put"),
        "campaign.store_get_ms": warm_profile.mean_ms("campaign.store_get"),
        "campaign.hit_ratio": (sum(store.stats.hits for store in stores)
                               / len(stores)),
        "timing.solve_seconds": timing["solve_seconds"],
        "timing.oracle_seconds": timing["oracle_seconds"],
        "timing.encode_seconds": timing["encode_seconds"],
        "timing.oracle_gap_s": (timing["oracle_seconds"]
                                - p.total("oracle.query")),
        "trace.wall_s": wall,
        "trace.unattributed_s": wall - p.attributed_s,
    }, p.layer_self_s()


def one_pass(cells, scratch, tracer=None, tag="pass"):
    """Run and verify one pass, traced when ``tracer`` is given.

    Returns ``(wall, failures, profile)``; ``profile`` is the pair
    ``(per-layer metrics, layer self times)`` of a traced pass, else
    None.
    """
    pass_dir = tempfile.mkdtemp(dir=scratch)
    gc.collect()  # the previous pass's garbage is not this pass's cost
    try:
        if tracer is None:
            wall, stores, results = run_pass(cells, pass_dir)
            return wall, verify_pass(cells, stores, results), None
        with tracer.installed():
            wall, stores, results = run_pass(cells, pass_dir, tracer, tag)
            failures = verify_pass(cells, stores, results, tracer, tag)
        return wall, failures, layer_metrics(tracer, tag, wall, results,
                                             stores)
    finally:
        shutil.rmtree(pass_dir)


def measure(workload, seed, seconds, trace, scratch):
    """Run passes for ``seconds``; returns the run's raw record."""
    import workloads
    from tracing import Tracer

    tracer = Tracer() if trace else None
    untraced, traced, failures, attempted = [], [], [], 0
    start = time.perf_counter()
    while True:
        index = len(untraced) + len(traced)
        traced_now = trace and index % 2 == 1
        cells = workloads.cells(
            workload, seed * PASS_SEED_STRIDE + (0 if trace else index))
        wall, pass_failures, profile = one_pass(
            cells, scratch, tracer if traced_now else None, f"pass{index}")
        if traced_now:
            traced.append((wall, profile))
        else:
            untraced.append(wall)
        failures += pass_failures
        attempted += len(cells)
        elapsed = time.perf_counter() - start
        if index + 1 >= MIN_PASSES and elapsed + wall > seconds:
            break
    return {"untraced": untraced, "traced": traced, "failures": failures,
            "attempted": attempted, "tracer": tracer}


def summarise_trace(record):
    """Median per-layer metrics and layer self-time shares over the
    traced passes."""
    passes = [metrics for _wall, (metrics, _layers) in record["traced"]]
    metrics = {name: statistics.median(p[name] for p in passes)
               for name in passes[0]}
    metrics["trace.overhead_ratio"] = (
        statistics.median(wall for wall, _ in record["traced"])
        / statistics.median(record["untraced"]))
    walls = sum(wall for wall, _ in record["traced"])
    shares = {}
    for _wall, (_metrics, layers) in record["traced"]:
        for layer, seconds in layers.items():
            shares[layer] = shares.get(layer, 0.0) + seconds / walls
    return metrics, shares


def print_report(workload, seed, record, metrics, units, shares=None):
    walls = ", ".join(f"{wall:.3f}" for wall in record["untraced"])
    print(f"workload {workload}  seed {seed}  untraced pass walls [{walls}] s"
          f"  traced passes {len(record['traced'])}")
    for name, value in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {units[name]}")
    if shares is not None:
        predictions = load_json(os.path.join(BENCH_DIR, "layers.json"))
        print("  layer self-time shares of traced wall, and the end-to-end "
              "metrics each layer should move here:")
        for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            moves = predictions["predictions"].get(layer, {}).get(
                "moves", {}).get(workload, [])
            print(f"    {layer:<10} {100 * share:6.2f}%  "
                  f"{', '.join(moves) or '-'}")
        print(f"  phase timers vs trace: timing.oracle_seconds "
              f"{metrics['timing.oracle_seconds']:.4f} s against traced "
              f"oracle.s {metrics['oracle.s']:.4f} s and bmc.total_s "
              f"{metrics['bmc.total_s']:.4f} s")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: no repro package under {SRC}")
    sys.path[:0] = [SRC, BENCH_DIR]

    contract = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    names = [item["name"] for item in contract["workloads"]]
    if args.workload not in names:
        sys.exit(f"perfbench: unknown workload {args.workload!r} "
                 f"(known: {', '.join(names)})")
    wanted = contract["per_layer" if args.trace else "end_to_end"]
    units = {item["name"]: item["unit"] for item in wanted}

    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=OUT_DIR)
    try:
        record = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    shares = None
    if args.trace:
        computed, shares = summarise_trace(record)
        trace_path = os.path.join(
            OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "metrics": computed, "shares": shares,
                       "spans": record["tracer"].export()}, handle)
    else:
        computed = {
            "wall_s": statistics.median(record["untraced"]),
            "setup_s": measure_setup(args.workload,
                                     args.seed * PASS_SEED_STRIDE),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    metrics = {name: computed[name] for name in units}
    print_report(args.workload, args.seed, record, metrics, units, shares)
    failed = len(record["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": record["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


if __name__ == "__main__":
    main()
