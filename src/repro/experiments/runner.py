"""Experiment runner CLI.

Regenerate every table/figure of the paper::

    python -m repro.experiments all --scale 0.08 --out results/
    python -m repro.experiments table1 --effort standard --jobs 4
    repro-experiments fig7 --circuits b12 s9234

Each experiment prints a plain-text table mirroring the paper artifact
plus notes comparing against the published numbers.

Experiments run through the campaign layer: ``--jobs N`` attacks
independent cells on a process pool, and finished cells are cached
content-addressed under ``--cache-dir`` (default ``.repro-cache``, or
``$REPRO_CACHE_DIR``) so reruns and interrupted campaigns only pay for
the cells that changed.  ``--no-cache`` recomputes everything;
``repro-experiments status`` summarises the cache.

Sweeps too big for one host scale out with ``--backend distributed``
(plus ``--bind``/``--workers``): cells are shipped to ``repro-lock
worker`` agents on any reachable hosts, one cell per advertised core,
and written back through the shared cache.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro._cliutils import add_backend_arguments, make_executor_backend
from repro.campaign import Campaign, ResultStore, default_cache_dir, \
    render_status
from repro.errors import ReproError
from repro.experiments import (
    fig3_error_tables,
    fig4_tradeoff,
    fig6_overhead,
    fig7_fc,
    scaling,
    table1_sat_resilience,
    table2_removal,
)
from repro.experiments.common import DEFAULT_SCALE

EXPERIMENTS = {
    "fig3": lambda args, campaign: fig3_error_tables.run(
        campaign=campaign),
    "fig4": lambda args, campaign: fig4_tradeoff.run(
        campaign=campaign),
    "table1": lambda args, campaign: table1_sat_resilience.run(
        scale=args.scale, effort=args.effort, seed=args.seed,
        campaign=campaign, dip_batch=args.dip_batch),
    "fig7": lambda args, campaign: fig7_fc.run(
        scale=args.scale, names=args.circuits, seed=args.seed,
        n_samples=args.samples, campaign=campaign),
    "table2": lambda args, campaign: table2_removal.run(
        scale=args.scale, names=args.circuits, seed=args.seed,
        campaign=campaign),
    "fig6": lambda args, campaign: fig6_overhead.run(
        scale=args.scale, names=args.circuits, seed=args.seed,
        campaign=campaign),
    # Tiny sweep by default so `repro-experiments all` stays tractable;
    # the full-size sweep (and the JSON artifact) lives behind
    # `repro-lock scaling`.
    "scaling": lambda args, campaign: scaling.run(
        sizes=(60, 120, 240), ffs=10, pis=5, pos=5, seed=args.seed,
        max_dips=128, campaign=campaign),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the TriLock paper's tables and figures.")
    parser.add_argument("experiment",
                        choices=sorted(EXPERIMENTS) + ["all", "status"],
                        help="which artifact to regenerate, or 'status' "
                             "to summarise the campaign result cache")
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE,
                        help="suite size scale (default %(default)s; "
                             "interface widths never scale)")
    parser.add_argument("--effort", default="quick",
                        choices=["quick", "standard", "full"],
                        help="how many Table I cells to attack for real")
    parser.add_argument("--samples", type=int, default=800,
                        help="FC samples per point (paper: 800)")
    parser.add_argument("--circuits", nargs="*", default=None,
                        help="subset of suite circuits")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None,
                        help="directory for .txt dumps of each artifact")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for independent cells "
                             "(default %(default)s = serial)")
    parser.add_argument("--cache-dir", default=None,
                        help="campaign result cache directory (default "
                             "$REPRO_CACHE_DIR or .repro-cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="recompute every cell; do not read or write "
                             "the result cache")
    parser.add_argument("--cell-timeout", type=float, default=None,
                        help="seconds one cell may run before it is "
                             "recorded as failed; enforced by the pool "
                             "(--jobs >= 2) and distributed backends "
                             "only — the inline backend cannot "
                             "interrupt a cell and warns")
    add_backend_arguments(parser)
    parser.add_argument("--dip-batch", type=int, default=1,
                        help="distinguishing input patterns extracted "
                             "and pinned per miter round (default "
                             "%(default)s = classic SAT-attack loop)")
    return parser


def resolve_cache_dir(args):
    return args.cache_dir if args.cache_dir else default_cache_dir()


def make_campaign(args, err=None):
    """Build the campaign execution policy from CLI flags."""
    err = err if err is not None else sys.stderr
    store = None if args.no_cache else ResultStore(resolve_cache_dir(args))
    backend = make_executor_backend(args, err)
    progress = None
    if args.jobs > 1 or backend is not None:
        def progress(index, total, result):
            err.write(f"  [{index + 1}/{total}] {result.spec.describe()}: "
                      f"{result.status} ({result.elapsed:.2f}s)\n")
    return Campaign(jobs=args.jobs, store=store,
                    cell_timeout=args.cell_timeout, progress=progress,
                    backend=backend)


def run_experiment(name, args, campaign=None):
    campaign = campaign if campaign is not None else make_campaign(args)
    start = time.perf_counter()
    result = EXPERIMENTS[name](args, campaign)
    elapsed = time.perf_counter() - start
    text = result.render()
    if name == "fig3":
        text += "\n" + fig3_error_tables.render_tables(result)
    text += f"\n[{name} regenerated in {elapsed:.1f}s]\n"
    return text


#: Experiments that actually run a SAT attack and consume the
#: attack-engine knob --dip-batch.
ATTACK_EXPERIMENTS = frozenset(["table1"])


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.experiment == "status":
        store = ResultStore(resolve_cache_dir(args))
        sys.stdout.write(render_status(store.status()) + "\n")
        return 0
    names = sorted(EXPERIMENTS) if args.experiment == "all" \
        else [args.experiment]
    if args.dip_batch != 1 and not ATTACK_EXPERIMENTS.intersection(names):
        sys.stderr.write(
            "warning: --dip-batch only affects "
            f"SAT-attack experiments ({', '.join(sorted(ATTACK_EXPERIMENTS))})"
            f"; {', '.join(names)} ignores it\n")
    try:
        campaign = make_campaign(args)
    except ReproError as error:
        sys.stderr.write(f"error: {error}\n")
        return 2
    exit_code = 0
    for name in names:
        try:
            text = run_experiment(name, args, campaign=campaign)
        except Exception as error:  # pragma: no cover - CLI robustness
            text = f"== {name}: FAILED: {error} ==\n"
            exit_code = 1
        sys.stdout.write(text + "\n")
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            path = os.path.join(args.out, f"{name}.txt")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
    stats = campaign.stats()
    if stats is not None:
        sys.stderr.write(f"[cache: {stats.summary()}]\n")
    return exit_code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
