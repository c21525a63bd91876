"""``repro-lock`` — command-line locking flow over ``.bench`` files.

Lock (flags or a scheme spec string — any registered scheme works)::

    repro-lock lock design.bench --kappa-s 3 --alpha 0.6 --s-pairs 10 \
        --out locked.bench --key-out design.key
    repro-lock lock design.bench --scheme "harpoon?kappa=3" \
        --out locked.bench --key-out design.key

Verify a locked design against the original under its key::

    repro-lock verify design.bench locked.bench design.key

Attack a locked design (oracle = the original netlist; ``--key`` recovers
``kappa`` and the starting depth from the key file so they need not be
re-typed)::

    repro-lock attack design.bench locked.bench --key design.key
    repro-lock attack design.bench locked.bench --kappa 4

Report security/cost metrics::

    repro-lock report design.bench locked.bench design.key

Discover the plugin registries and run a circuit x scheme x attack
matrix (circuits are provider specs — bare benchmark names, suite
circuits with a scale, or fully parametric ``synth`` families)::

    repro-lock circuits
    repro-lock schemes
    repro-lock attacks
    repro-lock matrix --circuit s27 \
        --circuit "synth?gates=200&ffs=8" \
        --scheme "trilock?kappa_s=1..2" --scheme sarlock \
        --attack seq-sat --attack removal --jobs 4

Fit attack-cost scaling laws over synthetic circuit size (writes
``benchmarks/artifacts/BENCH_scaling.json``)::

    repro-lock scaling --gates "150|400|1100" --scheme trilock \
        --scheme sarlock --max-dips 256

Scale a matrix out over distributed workers (start any number of
workers, on this or other hosts; the scheduler requeues the cells of a
worker that dies)::

    repro-lock matrix ... --backend distributed --bind 0.0.0.0:7764 \
        --workers 2
    repro-lock worker --connect scheduler-host:7764 --cores 8

Run the campaign service daemon and talk to it (the async job API —
many tenants, one worker fleet, one shared result cache)::

    repro-lock serve --http 127.0.0.1:8765 --bind 0.0.0.0:7764 \
        --local-workers 2
    repro-lock submit --scheme trilock --attack seq-sat --tenant alice \
        --wait
    repro-lock status            # all campaigns
    repro-lock status c0001-abcd # per-cell state
    repro-lock results c0001-abcd
    repro-lock cancel c0001-abcd

Inspect or clear the experiment-campaign result cache::

    repro-lock campaign status
    repro-lock campaign clear --cache-dir /tmp/cells
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro._cliutils import add_backend_arguments, attack_jobs_arg, \
    make_executor_backend
from repro.api import ATTACKS, CIRCUITS, SCHEMES, circuit_label, \
    expand_grid, matrix_cells, parse_spec
from repro.api.spec import format_spec
from repro.attacks import bounded_equivalence, scc_report, sequential_sat_attack
from repro.attacks.oracle import SimulationOracle
from repro.campaign import Campaign, ResultStore, default_cache_dir, \
    render_status
from repro.campaign.service import DEFAULT_HTTP_BIND, ServiceClient
from repro.core import KeySequence, TriLockConfig
from repro.core.locker import LockedCircuit
from repro.errors import ReproError
from repro.experiments.common import format_table
from repro.metrics import simulate_fc
from repro.netlist import dump_bench, load_bench
from repro.tech import overhead

#: Key-file formats this CLI reads; v2 added the scheme spec string.
_KEY_FORMATS = ("trilock-key-v1", "trilock-key-v2")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro-lock",
        description="Sequential logic locking over .bench files "
                    "(TriLock and the registered baseline schemes).")
    commands = parser.add_subparsers(dest="command", required=True)

    lock_cmd = commands.add_parser("lock", help="lock a .bench netlist")
    lock_cmd.add_argument("design", help="original .bench file")
    lock_cmd.add_argument("--scheme", default=None,
                          help="scheme spec string (e.g. "
                               "\"trilock?kappa_s=3&alpha=0.5\"); "
                               "excludes the individual TriLock flags")
    lock_cmd.add_argument("--kappa-s", type=int, default=None)
    lock_cmd.add_argument("--kappa-f", type=int, default=None)
    lock_cmd.add_argument("--alpha", type=float, default=None)
    lock_cmd.add_argument("--s-pairs", type=int, default=None)
    lock_cmd.add_argument("--seed", type=int, default=0)
    lock_cmd.add_argument("--out", required=True,
                          help="locked .bench output path")
    lock_cmd.add_argument("--key-out", required=True,
                          help="key file output path (JSON)")

    verify_cmd = commands.add_parser(
        "verify", help="BMC-check locked(key) against the original")
    verify_cmd.add_argument("design")
    verify_cmd.add_argument("locked")
    verify_cmd.add_argument("key", help="key file written by 'lock'")
    verify_cmd.add_argument("--depth", type=int, default=None,
                            help="compared window (default: recovered "
                                 "from the key file's scheme spec, "
                                 "else 8)")

    attack_cmd = commands.add_parser(
        "attack", help="run the sequential SAT attack")
    attack_cmd.add_argument("design", help="oracle netlist (.bench)")
    attack_cmd.add_argument("locked")
    attack_cmd.add_argument("--kappa", type=int, default=None,
                            help="key cycle length (or pass --key)")
    attack_cmd.add_argument("--key", default=None,
                            help="key file written by 'lock': recovers "
                                 "kappa and the starting depth from its "
                                 "scheme spec")
    attack_cmd.add_argument("--depth", type=int, default=None,
                            help="unrolling depth b* (omit to deepen, "
                                 "or recover b* = kappa_s via --key)")
    attack_cmd.add_argument("--max-dips", type=int, default=None)
    attack_cmd.add_argument("--time-budget", type=float, default=None)
    attack_cmd.add_argument("--dip-batch", type=int, default=1,
                            help="DIPs extracted and pinned per miter "
                                 "round (default 1 = classic loop)")
    attack_cmd.add_argument("--attack-jobs", type=attack_jobs_arg,
                            default=1,
                            help="worker processes racing solver configs: "
                                 "an int (default 1 = serial single "
                                 "solver) or 'auto' (one per config, "
                                 "clamped to the CPU budget)")
    attack_cmd.add_argument("--portfolio", default=None,
                            help="solver portfolio: 'default', 'race', "
                                 "'race2', 'all', or comma-separated "
                                 "backend names")

    report_cmd = commands.add_parser(
        "report", help="security and cost report of a locked design")
    report_cmd.add_argument("design")
    report_cmd.add_argument("locked")
    report_cmd.add_argument("key")
    report_cmd.add_argument("--fc-depth", type=int, default=4)
    report_cmd.add_argument("--fc-samples", type=int, default=800)

    for kind, text in (
            ("circuits", "list the registered circuit providers"),
            ("schemes", "list the registered locking schemes"),
            ("attacks", "list the registered attacks")):
        listing_cmd = commands.add_parser(kind, help=text)
        listing_cmd.add_argument(
            "--json", action="store_true",
            help="machine-readable listing: name, description, and the "
                 "full parameter schema with defaults")

    matrix_cmd = commands.add_parser(
        "matrix", help="run a circuit x scheme x attack grid through "
                       "the campaign executor")
    matrix_cmd.add_argument("--circuit", action="append", default=None,
                            help="circuit provider spec, may be gridded "
                                 "(bare benchmark names, "
                                 "\"suite:b12?scale=0.1\", "
                                 "\"synth?gates=200&ffs=8\"); repeatable; "
                                 "default s27")
    matrix_cmd.add_argument("--scheme", action="append", required=True,
                            help="scheme spec, may be gridded "
                                 "(kappa_s=1..3, alpha=0.3|0.6); "
                                 "repeatable")
    matrix_cmd.add_argument("--attack", action="append", required=True,
                            help="attack spec, may be gridded; repeatable")
    matrix_cmd.add_argument("--scale", type=float, default=1.0,
                            help="suite circuit size scale (embedded "
                                 "circuits ignore it)")
    matrix_cmd.add_argument("--seed", type=int, default=0)
    matrix_cmd.add_argument("--max-dips", type=int, default=None,
                            help="per-cell DIP budget")
    matrix_cmd.add_argument("--time-budget", type=float, default=None,
                            help="per-cell attack time budget (seconds)")
    matrix_cmd.add_argument("--jobs", type=int, default=1,
                            help="worker processes for independent cells")
    matrix_cmd.add_argument("--cache-dir", default=None,
                            help="campaign result cache (default "
                                 "$REPRO_CACHE_DIR or .repro-cache)")
    matrix_cmd.add_argument("--no-cache", action="store_true",
                            help="recompute every cell")
    matrix_cmd.add_argument("--cell-timeout", type=float, default=None,
                            help="seconds one cell may run; enforced by "
                                 "the pool (--jobs >= 2) and distributed "
                                 "backends only — the inline backend "
                                 "cannot interrupt a cell and warns")
    add_backend_arguments(matrix_cmd)

    scaling_cmd = commands.add_parser(
        "scaling", help="sweep synth circuit size per scheme, attack "
                        "every point, and fit attack-cost power laws")
    scaling_cmd.add_argument("--scheme", action="append", default=None,
                             help="scheme spec, may be gridded; repeatable "
                                  "(default: trilock?kappa_s=1&s_pairs=4, "
                                  "sarlock, sublock)")
    scaling_cmd.add_argument("--attack", default=None,
                             help="attack spec every point runs "
                                  "(default seq-sat)")
    scaling_cmd.add_argument("--gates", default="150|400|1100",
                             help="gate-count sweep as grid syntax "
                                  "('150|400|1100' or '100..104'; "
                                  "default %(default)s)")
    scaling_cmd.add_argument("--ffs", type=int, default=12,
                             help="flop count, fixed across the sweep "
                                  "(default %(default)s)")
    scaling_cmd.add_argument("--pis", type=int, default=6,
                             help="primary inputs — the interface width "
                                  "|I| every scheme keys on; fixed so "
                                  "ndip isolates from circuit size "
                                  "(default %(default)s)")
    scaling_cmd.add_argument("--pos", type=int, default=6,
                             help="primary outputs (default %(default)s)")
    scaling_cmd.add_argument("--seed", type=int, default=0)
    scaling_cmd.add_argument("--max-dips", type=int, default=256,
                             help="per-cell DIP budget "
                                  "(default %(default)s)")
    scaling_cmd.add_argument("--time-budget", type=float, default=None,
                             help="per-cell attack time budget (seconds)")
    scaling_cmd.add_argument("--jobs", type=int, default=1,
                             help="worker processes for independent cells")
    scaling_cmd.add_argument("--cache-dir", default=None,
                             help="campaign result cache (default "
                                  "$REPRO_CACHE_DIR or .repro-cache)")
    scaling_cmd.add_argument("--no-cache", action="store_true",
                             help="recompute every cell")
    scaling_cmd.add_argument("--cell-timeout", type=float, default=None,
                             help="seconds one cell may run; enforced by "
                                  "the pool (--jobs >= 2) and distributed "
                                  "backends only")
    scaling_cmd.add_argument("--artifact",
                             default=os.path.join("benchmarks", "artifacts",
                                                  "BENCH_scaling.json"),
                             help="JSON report path (default %(default)s)")
    scaling_cmd.add_argument("--no-artifact", action="store_true",
                             help="print the fitted report only; write "
                                  "nothing")
    add_backend_arguments(scaling_cmd)

    worker_cmd = commands.add_parser(
        "worker", help="join a distributed campaign scheduler and "
                       "execute cells")
    worker_cmd.add_argument("--connect", required=True, metavar="HOST:PORT",
                            help="scheduler address (the matrix/experiment "
                                 "run's --bind)")
    worker_cmd.add_argument("--cores", type=int, default=None,
                            help="capacity to advertise (default: this "
                                 "host's CPU affinity count); the "
                                 "scheduler never places cells whose "
                                 "summed widths exceed it")
    worker_cmd.add_argument("--name", default=None,
                            help="worker name in scheduler logs "
                                 "(default host:pid)")
    worker_cmd.add_argument("--retry-for", type=float, default=10.0,
                            help="seconds to retry the initial connect, "
                                 "so workers may start before the "
                                 "scheduler (default %(default)s)")
    worker_cmd.add_argument("--secret", default=None, metavar="SECRET",
                            help="shared fleet secret (default "
                                 "$REPRO_SECRET); must match the "
                                 "scheduler's")
    worker_cmd.add_argument("--shard-dir", default=None, metavar="DIR",
                            help="local read-through cache shard: answer "
                                 "key-only cell probes from DIR and "
                                 "populate it with every result (default "
                                 "$REPRO_WORKER_SHARD; unset = no shard)")

    serve_cmd = commands.add_parser(
        "serve", help="run the long-lived campaign service daemon "
                      "(async job API over HTTP + a worker fleet)")
    serve_cmd.add_argument("--http", default=DEFAULT_HTTP_BIND,
                           metavar="HOST:PORT",
                           help="HTTP API bind (default %(default)s; "
                                "port 0 picks a free port)")
    serve_cmd.add_argument("--bind", default="127.0.0.1:0",
                           metavar="HOST:PORT",
                           help="scheduler endpoint workers connect to "
                                "(default %(default)s — an ephemeral "
                                "port, printed at startup)")
    serve_cmd.add_argument("--cache-dir", default=None,
                           help="shared result cache all tenants hit "
                                "(default $REPRO_CACHE_DIR or "
                                ".repro-cache)")
    serve_cmd.add_argument("--no-cache", action="store_true",
                           help="serve without a shared result store")
    serve_cmd.add_argument("--cell-timeout", type=float, default=None,
                           help="seconds one cell may run on a worker")
    serve_cmd.add_argument("--local-workers", type=int, default=0,
                           metavar="N",
                           help="worker agents to spawn on this host "
                                "(remote workers join with "
                                "'repro-lock worker --connect')")
    serve_cmd.add_argument("--worker-cores", type=int, default=None,
                           help="cores each local worker advertises")
    serve_cmd.add_argument("--min-workers", type=int, default=1,
                           help="hold dispatch until this many workers "
                                "registered (default %(default)s)")
    serve_cmd.add_argument("--heartbeat-timeout", type=float, default=None,
                           help="seconds of silence before a worker is "
                                "declared dead")
    serve_cmd.add_argument("--secret", default=None, metavar="SECRET",
                           help="shared fleet secret: authenticates every "
                                "scheduler/worker frame and doubles as "
                                "the HTTP API bearer token (default "
                                "$REPRO_SECRET; unset = open)")

    submit_cmd = commands.add_parser(
        "submit", help="submit a scheme x attack matrix to a serve "
                       "daemon")
    submit_cmd.add_argument("--server", default=None, metavar="HOST:PORT",
                            help="service endpoint (default $REPRO_SERVER "
                                 "or 127.0.0.1:8765)")
    submit_cmd.add_argument("--secret", default=None, metavar="SECRET",
                            help="API bearer token (default $REPRO_SECRET)")
    submit_cmd.add_argument("--tenant", default="default",
                            help="fair-share accounting bucket")
    submit_cmd.add_argument("--priority", type=int, default=0,
                            help="within-tenant priority (higher wins)")
    submit_cmd.add_argument("--circuit", action="append", default=None,
                            help="circuit provider spec, may be gridded "
                                 "(repeatable; default s27)")
    submit_cmd.add_argument("--scheme", action="append", required=True,
                            help="scheme spec, may be gridded; repeatable")
    submit_cmd.add_argument("--attack", action="append", required=True,
                            help="attack spec, may be gridded; repeatable")
    submit_cmd.add_argument("--scale", type=float, default=1.0)
    submit_cmd.add_argument("--seed", type=int, default=0)
    submit_cmd.add_argument("--max-dips", type=int, default=None)
    submit_cmd.add_argument("--time-budget", type=float, default=None)
    submit_cmd.add_argument("--wait", action="store_true",
                            help="poll until the campaign finishes")
    submit_cmd.add_argument("--poll", type=float, default=0.5,
                            help="--wait poll interval in seconds")

    status_cmd = commands.add_parser(
        "status", help="campaign states on a serve daemon")
    status_cmd.add_argument("id", nargs="?", default=None,
                            help="campaign id (omit to list all)")
    status_cmd.add_argument("--server", default=None, metavar="HOST:PORT")
    status_cmd.add_argument("--secret", default=None, metavar="SECRET",
                            help="API bearer token (default $REPRO_SECRET)")
    status_cmd.add_argument("--json", action="store_true")

    results_cmd = commands.add_parser(
        "results", help="stream a campaign's completed cell values "
                        "(newline-delimited JSON)")
    results_cmd.add_argument("id", help="campaign id")
    results_cmd.add_argument("--server", default=None, metavar="HOST:PORT")
    results_cmd.add_argument("--secret", default=None, metavar="SECRET",
                             help="API bearer token (default $REPRO_SECRET)")

    cancel_cmd = commands.add_parser(
        "cancel", help="cancel a campaign on a serve daemon")
    cancel_cmd.add_argument("id", help="campaign id")
    cancel_cmd.add_argument("--server", default=None, metavar="HOST:PORT")
    cancel_cmd.add_argument("--secret", default=None, metavar="SECRET",
                            help="API bearer token (default $REPRO_SECRET)")

    campaign_cmd = commands.add_parser(
        "campaign", help="inspect the experiment-campaign result cache")
    campaign_sub = campaign_cmd.add_subparsers(dest="action", required=True)
    for action, text in (
            ("status", "summarise cached cells"),
            ("clear", "delete every cached cell"),
            ("compact", "pack loose cached cells into an append-only "
                        "pack file (fewer inodes, same lookups)")):
        action_cmd = campaign_sub.add_parser(action, help=text)
        action_cmd.add_argument(
            "--cache-dir", default=None,
            help="cache directory (default $REPRO_CACHE_DIR or "
                 ".repro-cache)")
    return parser


def _write_key_file(path, locked, scheme_spec):
    payload = {
        "format": "trilock-key-v2",
        "scheme": scheme_spec,
        "width": locked.key.width,
        "cycles": locked.key.cycles,
        "key": str(locked.key),
        "key_int": locked.key.as_int,
        "kappa_s": locked.config.kappa_s,
        "kappa_f": locked.config.kappa_f,
        "alpha": locked.config.alpha,
        "original_registers": list(locked.original_registers),
        "extra_registers": list(locked.extra_registers),
        "encoded_registers": list(locked.encoded_registers),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)


def _read_key_file(path):
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("format") not in _KEY_FORMATS:
        raise ReproError(f"{path} is not a trilock key file")
    return payload


def _key_from_payload(payload):
    return KeySequence.from_int(
        payload["key_int"], payload["cycles"], payload["width"])


def _payload_kappa_s(payload):
    """``kappa_s`` recovered from the key file (scheme spec preferred)."""
    scheme = payload.get("scheme")
    if scheme:
        _, params = parse_spec(scheme)
        if "kappa_s" in params:
            return params["kappa_s"]
        if "kappa" in params:
            return params["kappa"]
    return payload.get("kappa_s")


def _scheme_spec_from_args(args):
    """The lock command's scheme spec: explicit, or built from flags."""
    flags = {"kappa_s": args.kappa_s, "kappa_f": args.kappa_f,
             "alpha": args.alpha, "s_pairs": args.s_pairs}
    if args.scheme is not None:
        given = [f"--{name.replace('_', '-')}"
                 for name, value in flags.items() if value is not None]
        if given:
            raise ReproError(
                f"--scheme excludes the TriLock flags ({', '.join(given)}); "
                "fold them into the spec string instead")
        return args.scheme
    defaults = {"kappa_s": 2, "kappa_f": 1, "alpha": 0.6, "s_pairs": 10}
    params = {name: value if value is not None else defaults[name]
              for name, value in flags.items()}
    return format_spec("trilock", params)


def cmd_lock(args, out):
    original = load_bench(args.design)
    spec_text = _scheme_spec_from_args(args)
    name, params = parse_spec(spec_text)
    scheme = SCHEMES.get(name)
    resolved = scheme.resolve_params(params)
    locked = scheme.lock(original, seed=args.seed, **resolved)
    canonical = scheme.spec(**resolved)
    dump_bench(locked.netlist, args.out)
    _write_key_file(args.key_out, locked, canonical)
    stats = locked.netlist.stats()
    out.write(f"locked {args.design} "
              f"[{scheme.short_spec(**resolved)}]: {stats['flops']} FFs, "
              f"{stats['gates']} gates -> {args.out}\n")
    out.write(f"key ({locked.key.cycles} cycles x {locked.width} bits) "
              f"-> {args.key_out}\n")
    out.write(f"re-encoded pairs: {len(locked.reencoded_pairs)}\n")
    return 0


def cmd_verify(args, out):
    original = load_bench(args.design)
    locked = load_bench(args.locked)
    payload = _read_key_file(args.key)
    key = _key_from_payload(payload)
    depth = args.depth
    if depth is None:
        kappa_s = _payload_kappa_s(payload)
        depth = payload["cycles"] + kappa_s + 4 if kappa_s else 8
    result = bounded_equivalence(
        original, locked, depth=depth,
        prefix_vectors=list(key.vectors))
    if result.equivalent:
        out.write(f"PASS: locked(key) == original for {depth} cycles\n")
        return 0
    out.write("FAIL: counterexample input sequence:\n")
    for cycle, vector in enumerate(result.counterexample):
        bits = "".join("1" if b else "0" for b in vector)
        out.write(f"  cycle {cycle}: {bits}\n")
    return 1


def cmd_attack(args, out):
    original = load_bench(args.design)
    locked = load_bench(args.locked)
    kappa, depth = args.kappa, args.depth
    if args.key is not None:
        payload = _read_key_file(args.key)
        if kappa is not None and kappa != payload["cycles"]:
            raise ReproError(
                f"--kappa {kappa} contradicts the key file "
                f"({payload['cycles']} cycles); drop one of the two — a "
                "mismatched kappa silently attacks the wrong window")
        kappa = payload["cycles"]
        if depth is None:
            depth = _payload_kappa_s(payload)  # the paper's b* = kappa_s
    if kappa is None:
        raise ReproError(
            "attack needs the key cycle length: pass --kappa N or "
            "--key design.key to recover it")
    oracle = SimulationOracle(original)
    result = sequential_sat_attack(
        locked, kappa, oracle, known_depth=depth,
        max_dips=args.max_dips, time_budget=args.time_budget,
        reference=original, dip_batch=args.dip_batch,
        portfolio=args.portfolio, attack_jobs=args.attack_jobs)
    phases = (f"phases: solve {result.solve_seconds:.2f}s, "
              f"oracle {result.oracle_seconds:.2f}s "
              f"({result.oracle_queries} patterns / "
              f"{result.oracle_calls} calls), "
              f"encode {result.encode_seconds:.2f}s, "
              f"verify {result.verify_seconds:.2f}s\n")
    if result.success:
        out.write(f"key recovered in {result.n_dips} DIPs "
                  f"({result.seconds:.2f}s, depth {result.depth}): "
                  f"{result.key}\n")
        out.write(phases)
        return 0
    out.write(f"attack stopped: {result.stop_reason} after "
              f"{result.n_dips} DIPs ({result.seconds:.2f}s)\n")
    out.write(phases)
    return 1


def cmd_report(args, out):
    original = load_bench(args.design)
    locked_netlist = load_bench(args.locked)
    payload = _read_key_file(args.key)
    key = _key_from_payload(payload)

    config = TriLockConfig(
        kappa_s=payload["kappa_s"], kappa_f=payload["kappa_f"],
        alpha=payload["alpha"])
    locked = LockedCircuit(
        netlist=locked_netlist,
        original=original,
        config=config,
        key=key,
        spec=None,
        error_net="",
        original_registers=tuple(payload["original_registers"]),
        extra_registers=tuple(payload["extra_registers"]),
        encoded_registers=tuple(payload.get("encoded_registers", ())),
    )
    if payload.get("scheme"):
        out.write(f"scheme: {payload['scheme']}\n")
    fc = simulate_fc(locked, depth=args.fc_depth,
                     n_samples=args.fc_samples)
    sccs = scc_report(locked)
    adp = overhead(original, locked_netlist)
    ndip = 2 ** (payload["kappa_s"] * payload["width"])
    out.write(f"SAT resilience: ndip = 2^(kappa_s*|I|) = {ndip:.3e}\n")
    out.write(f"functional corruptibility (depth {args.fc_depth}, "
              f"{args.fc_samples} samples): {fc:.3f}\n")
    out.write(f"removal resilience: O={sccs.o_sccs} E={sccs.e_sccs} "
              f"M={sccs.m_sccs} PM={sccs.pm_percent:.1f}%\n")
    out.write(f"overhead: area {adp.area_overhead:+.1%}, "
              f"power {adp.power_overhead:+.1%}, "
              f"delay {adp.delay_overhead:+.1%}\n")
    return 0


def cmd_circuits(args, out):
    return _list_registry(CIRCUITS, out, as_json=args.json)


def cmd_schemes(args, out):
    return _list_registry(SCHEMES, out, as_json=args.json)


def cmd_attacks(args, out):
    return _list_registry(ATTACKS, out, as_json=args.json)


def _list_registry(registry, out, as_json=False):
    if as_json:
        out.write(json.dumps([plugin.describe_json()
                              for plugin in registry], indent=2) + "\n")
        return 0
    rows = [
        {"name": name, "description": description, "parameters": schema}
        for name, description, schema in
        (plugin.describe_row() for plugin in registry)
    ]
    out.write(format_table(rows) + "\n")
    return 0


def _short_spec(registry, text):
    """Display form of a canonical spec: parameters at defaults omitted."""
    name, params = parse_spec(text)
    plugin = registry.get(name)
    return plugin.short_spec(**plugin.resolve_params(params))


def _summarise_metrics(value):
    """Compact ``k=v`` rendering of a matrix cell's headline metrics."""
    metrics = value.get("metrics", {})
    parts = []
    for key in sorted(metrics):
        number = metrics[key]
        if isinstance(number, float):
            number = f"{number:.3g}"
        parts.append(f"{key}={number}")
    return " ".join(parts)


def cmd_matrix(args, out):
    circuits = args.circuit if args.circuit else ["s27"]
    specs = matrix_cells(circuits, args.scheme, args.attack,
                         scale=args.scale, seed=args.seed,
                         max_dips=args.max_dips,
                         time_budget=args.time_budget)
    store = None if args.no_cache else ResultStore(
        args.cache_dir if args.cache_dir else default_cache_dir())
    campaign = Campaign(jobs=args.jobs, store=store,
                        cell_timeout=args.cell_timeout,
                        backend=make_executor_backend(args, sys.stderr))
    results = campaign.run(specs)
    rows = []
    for result in results:
        params = result.spec.kwargs()
        row = {
            "circuit": circuit_label(params["circuit"]),
            "scheme": _short_spec(SCHEMES, params["scheme"]),
            "attack": _short_spec(ATTACKS, params["attack"]),
            "status": result.status,
        }
        if result.ok:
            row["success"] = result.value["success"]
            row["T(s)"] = result.value["seconds"]
            row["metrics"] = _summarise_metrics(result.value)
        else:
            row["success"] = ""
            row["T(s)"] = result.elapsed
            row["metrics"] = (f"{result.error['type']}: "
                              f"{result.error['message']}")
        rows.append(row)
    out.write(format_table(rows) + "\n")
    stats = campaign.stats()
    if stats is not None:
        out.write(f"[cache: {stats.summary()}]\n")
    return 0 if all(result.ok for result in results) else 1


def _parse_sizes(text):
    """``--gates`` grid syntax -> positive gate counts, via the same
    expansion spec parameters use."""
    sizes = []
    for spec in expand_grid(f"synth?gates={text}"):
        _, params = parse_spec(spec)
        value = params["gates"]
        if not isinstance(value, int) or isinstance(value, bool) \
                or value < 1:
            raise ReproError(
                f"--gates wants positive integers, got {value!r}")
        sizes.append(value)
    return sizes


def cmd_scaling(args, out):
    from repro.experiments import scaling

    sizes = _parse_sizes(args.gates)
    schemes = args.scheme if args.scheme else list(scaling.DEFAULT_SCHEMES)
    attack = args.attack if args.attack else scaling.DEFAULT_ATTACK
    store = None if args.no_cache else ResultStore(
        args.cache_dir if args.cache_dir else default_cache_dir())
    campaign = Campaign(jobs=args.jobs, store=store,
                        cell_timeout=args.cell_timeout,
                        backend=make_executor_backend(args, sys.stderr))
    artifact = None if args.no_artifact else args.artifact
    result = scaling.run(
        sizes=sizes, schemes=schemes, attack=attack, ffs=args.ffs,
        pis=args.pis, pos=args.pos, seed=args.seed,
        max_dips=args.max_dips, time_budget=args.time_budget,
        campaign=campaign, artifact_path=artifact)
    out.write(result.render() + "\n")
    if artifact:
        out.write(f"[artifact: {artifact}]\n")
    stats = campaign.stats()
    if stats is not None:
        out.write(f"[cache: {stats.summary()}]\n")
    return 0 if all(row["T(s)"] != "failed" for row in result.rows) else 1


def cmd_worker(args, out):
    from repro.campaign.worker import run_worker

    try:
        return run_worker(args.connect, cores=args.cores, name=args.name,
                          retry_for=args.retry_for, out=out,
                          secret=args.secret, shard_dir=args.shard_dir)
    except OSError as error:
        raise ReproError(
            f"cannot reach scheduler at {args.connect}: {error} "
            "(is the matrix/experiment run with --backend distributed "
            "up, and --bind reachable from here?)")


def cmd_serve(args, out):
    import signal
    import subprocess

    from repro.campaign.service import CampaignService, ServiceHTTPServer

    store = None if args.no_cache else ResultStore(
        args.cache_dir if args.cache_dir else default_cache_dir())

    def event(message):
        sys.stderr.write(f"[serve] {message}\n")

    kwargs = {}
    if args.heartbeat_timeout is not None:
        kwargs["heartbeat_timeout"] = args.heartbeat_timeout
    service = CampaignService(
        store=store, scheduler_bind=args.bind,
        min_workers=args.min_workers, cell_timeout=args.cell_timeout,
        on_event=event, secret=args.secret, **kwargs)
    service.start()
    from repro.campaign.wire import format_address

    host, port = service.scheduler_address
    connect = format_address((host, port))
    workers = []
    for _ in range(args.local_workers):
        command = [sys.executable, "-m", "repro.cli", "worker",
                   "--connect", connect]
        if args.worker_cores:
            command += ["--cores", str(args.worker_cores)]
        # The secret travels by environment, not argv — `ps` must not
        # leak it on a shared host.
        env = dict(os.environ)
        if service.secret:
            env["REPRO_SECRET"] = service.secret
        workers.append(subprocess.Popen(command, env=env))
    httpd = ServiceHTTPServer(args.http, service, token=service.secret)
    out.write(f"campaign service: http://{format_address(httpd.address)} "
              f"(scheduler {connect}, cache "
              f"{store.cache_dir if store else 'off'}, "
              f"{'secured, ' if service.secret else ''}"
              f"{len(workers)} local workers)\n")
    out.flush()

    def _sigterm(signum, frame):
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, _sigterm)
    except ValueError:  # pragma: no cover - not the main thread
        pass
    try:
        httpd.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        pass
    finally:
        httpd.server_close()
        service.close()
        for proc in workers:
            proc.terminate()
        for proc in workers:
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:  # pragma: no cover
                proc.kill()
    out.write("campaign service stopped\n")
    return 0


def _counts_line(counts):
    return " ".join(f"{state}={counts[state]}"
                    for state in sorted(counts)) or "(empty)"


def cmd_submit(args, out):
    client = ServiceClient(args.server, secret=args.secret)
    request = {
        "tenant": args.tenant,
        "priority": args.priority,
        "circuits": args.circuit if args.circuit else ["s27"],
        "schemes": args.scheme,
        "attacks": args.attack,
        "scale": args.scale,
        "seed": args.seed,
        "max_dips": args.max_dips,
        "time_budget": args.time_budget,
    }
    summary = client.submit(request)
    out.write(f"campaign {summary['id']} (tenant {summary['tenant']}): "
              f"{summary['cells']} cells, {summary['shipped']} shipped, "
              f"{summary['counts'].get('hit', 0)} warm hits\n")
    if not args.wait:
        return 0
    detail = client.wait(summary["id"], poll=args.poll)
    counts = detail["counts"]
    out.write(f"campaign {summary['id']} {detail['status']}: "
              f"{_counts_line(counts)}\n")
    clean = detail["status"] == "done" and not any(
        counts.get(state) for state in ("failed", "timeout", "cancelled"))
    return 0 if clean else 1


def cmd_status(args, out):
    client = ServiceClient(args.server, secret=args.secret)
    if args.id is None:
        jobs = client.campaigns()
        if args.json:
            out.write(json.dumps(jobs, indent=2) + "\n")
            return 0
        if not jobs:
            out.write("no campaigns\n")
            return 0
        rows = [{
            "id": job["id"], "tenant": job["tenant"],
            "status": job["status"], "cells": job["cells"],
            "shipped": job["shipped"],
            "counts": _counts_line(job["counts"]),
        } for job in jobs]
        out.write(format_table(rows) + "\n")
        return 0
    detail = client.status(args.id)
    if args.json:
        out.write(json.dumps(detail, indent=2) + "\n")
        return 0
    out.write(f"campaign {detail['id']} (tenant {detail['tenant']}, "
              f"priority {detail['priority']}): {detail['status']}, "
              f"{_counts_line(detail['counts'])}\n")
    rows = [{
        "cell": cell["index"], "label": cell["label"],
        "state": cell["state"], "T(s)": round(cell["elapsed"], 3),
        "error": (f"{cell['error']['type']}: {cell['error']['message']}"
                  if cell.get("error") else ""),
    } for cell in detail["cell_states"]]
    out.write(format_table(rows) + "\n")
    return 0


def cmd_results(args, out):
    client = ServiceClient(args.server, secret=args.secret)
    for row in client.results(args.id):
        out.write(json.dumps(row) + "\n")
    return 0


def cmd_cancel(args, out):
    client = ServiceClient(args.server, secret=args.secret)
    summary = client.cancel(args.id)
    out.write(f"campaign {summary['id']}: {summary['status']}, "
              f"{_counts_line(summary['counts'])}\n")
    return 0


def cmd_campaign(args, out):
    store = ResultStore(args.cache_dir if args.cache_dir
                        else default_cache_dir())
    if args.action == "clear":
        removed = store.clear()
        out.write(f"cleared {removed} cached cells from "
                  f"{os.path.abspath(store.cache_dir)}\n")
        return 0
    if args.action == "compact":
        report = store.compact()
        where = (f" into {os.path.basename(report['pack'])}"
                 if report["pack"] else "")
        out.write(f"packed {report['packed']} cells{where}, "
                  f"evicted {report['evicted']} corrupt entries\n")
        return 0
    out.write(render_status(store.status()) + "\n")
    return 0


_COMMANDS = {
    "lock": cmd_lock,
    "verify": cmd_verify,
    "attack": cmd_attack,
    "report": cmd_report,
    "circuits": cmd_circuits,
    "schemes": cmd_schemes,
    "attacks": cmd_attacks,
    "matrix": cmd_matrix,
    "scaling": cmd_scaling,
    "worker": cmd_worker,
    "serve": cmd_serve,
    "submit": cmd_submit,
    "status": cmd_status,
    "results": cmd_results,
    "cancel": cmd_cancel,
    "campaign": cmd_campaign,
}


def main(argv=None, out=None):
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args, out)
    except ReproError as error:
        out.write(f"error: {error}\n")
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
