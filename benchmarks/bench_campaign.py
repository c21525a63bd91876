"""Campaign-cache and scale-out benchmarks: a cold Table I campaign pays
for the real SAT attack; the warm rerun is pure content-addressed cache
hits and must be at least 5x faster while rendering a byte-identical
table.  Further cells compare the local pool (the scheduler over one
forked loopback agent) with the distributed backend over two loopback
workers, and time the pool's per-cell overhead against inline runs
(identical results; wall-clocks land in
``BENCH_campaign_scaleout.json``)."""

import multiprocessing
import tempfile
import time

from repro.campaign import Campaign, CellSpec, DistributedBackend, \
    InlineBackend, PoolBackend
from repro.campaign.worker import run_worker
from repro.experiments import table1_sat_resilience

from conftest import run_once


def test_campaign_warm_cache_speedup(benchmark, artifact_sink,
                                     bench_json_sink):
    with tempfile.TemporaryDirectory() as cache:
        start = time.perf_counter()
        cold = table1_sat_resilience.run(
            scale=0.08, effort="quick", campaign=Campaign(cache_dir=cache))
        cold_seconds = time.perf_counter() - start

        warm_campaign = Campaign(jobs=4, cache_dir=cache)
        start = time.perf_counter()
        warm = run_once(benchmark, table1_sat_resilience.run, 0.08, "quick",
                        campaign=warm_campaign)
        warm_seconds = time.perf_counter() - start

        assert warm.render() == cold.render()
        assert warm_campaign.store.stats.hits == 1
        assert warm_campaign.store.stats.misses == 0
        assert cold_seconds >= 5 * warm_seconds
        artifact_sink(
            "campaign_cache",
            f"cold campaign: {cold_seconds:.2f}s\n"
            f"warm campaign: {warm_seconds:.3f}s (all cache hits)\n"
            f"speedup: {cold_seconds / warm_seconds:.0f}x\n")
        bench_json_sink("campaign_cache", {
            "workload": "table1 quick scale=0.08",
            "cold_seconds": cold_seconds,
            "warm_seconds": warm_seconds,
            "speedup": cold_seconds / warm_seconds,
        })


def bench_sleep_cell(tag, seconds):
    """A deterministic, compute-shaped stand-in for an attack cell."""
    time.sleep(seconds)
    return {"tag": tag, "slept": seconds}


def test_distributed_two_workers_matches_pool(benchmark, artifact_sink,
                                              bench_json_merge):
    """Scale-out cell: the same campaign through a 2-wide local pool
    (the scheduler over one forked 2-core agent) and through the
    distributed scheduler with two loopback single-core CLI-style
    workers must produce identical results — both sides are the same
    scheduler, with different fleets — and the distributed run must
    actually overlap cells (i.e. beat the serial sum): the loopback
    protocol overhead is bounded, not free."""
    cell_seconds = 0.25
    specs = [
        CellSpec.make("bench_campaign:bench_sleep_cell",
                      {"tag": tag, "seconds": cell_seconds},
                      experiment="bench", label=f"sleep/{tag}")
        for tag in range(8)
    ]
    serial_seconds = cell_seconds * len(specs)

    start = time.perf_counter()
    pool = Campaign(backend=PoolBackend(2)).run(specs)
    pool_seconds = time.perf_counter() - start

    backend = DistributedBackend(bind="127.0.0.1:0", min_workers=2)
    workers = [
        multiprocessing.Process(
            target=run_worker, args=("%s:%d" % backend.address,),
            kwargs={"cores": 1, "retry_for": 30.0, "name": f"bench{i}"})
        for i in range(2)
    ]
    for worker in workers:
        worker.start()
    try:
        start = time.perf_counter()
        distributed = run_once(
            benchmark, Campaign(backend=backend).run, specs)
        distributed_seconds = time.perf_counter() - start
    finally:
        for worker in workers:
            worker.join(timeout=15)
            if worker.is_alive():
                worker.terminate()
        backend.close()

    assert [r.value for r in distributed] == [r.value for r in pool]
    assert [r.key for r in distributed] == [r.key for r in pool]
    # Two single-core workers must overlap the cells: anything at or
    # above the serial sum means the scheduler serialized the campaign.
    assert distributed_seconds < serial_seconds * 0.9
    artifact_sink(
        "campaign_scaleout",
        f"workload: 8 x {cell_seconds}s cells "
        f"(serial sum {serial_seconds:.1f}s)\n"
        f"pool --jobs 2:            {pool_seconds:.2f}s\n"
        f"distributed (2 workers):  {distributed_seconds:.2f}s "
        "(loopback TCP, scheduler-side cache writes)\n")
    bench_json_merge("campaign_scaleout", {
        "workload": f"8x{cell_seconds}s sleep cells",
        "serial_sum_seconds": serial_seconds,
        "pool_jobs2_seconds": pool_seconds,
        "distributed_2workers_seconds": distributed_seconds,
    })


def test_pool_overhead_per_cell(benchmark, artifact_sink, bench_json_merge):
    """Per-cell cost of the pool: 40 ``sleep(0)`` cells through
    ``Campaign(jobs=2)`` and through the inline backend.  The pool run
    must stay under 1 s: an agent that polls its pipes instead of waking
    on them, or sockets that hold small frames for a delayed ACK, cost
    about twice that."""
    specs = [
        CellSpec.make("bench_campaign:bench_sleep_cell",
                      {"tag": tag, "seconds": 0},
                      experiment="bench", label=f"overhead/{tag}")
        for tag in range(40)
    ]
    start = time.perf_counter()
    inline = Campaign(backend=InlineBackend()).run(specs)
    inline_seconds = time.perf_counter() - start

    start = time.perf_counter()
    pool = run_once(benchmark, Campaign(jobs=2).run, specs)
    pool_seconds = time.perf_counter() - start

    assert [r.value for r in pool] == [r.value for r in inline]
    assert all(r.ok for r in pool)
    assert pool_seconds < 1.0
    per_cell = {
        "pool_jobs2_ms_per_cell": 1e3 * pool_seconds / len(specs),
        "inline_ms_per_cell": 1e3 * inline_seconds / len(specs),
    }
    artifact_sink(
        "campaign_pool_overhead",
        f"workload: {len(specs)} x sleep(0) cells\n"
        f"pool --jobs 2: {pool_seconds:.3f}s "
        f"({per_cell['pool_jobs2_ms_per_cell']:.2f} ms/cell)\n"
        f"inline:        {inline_seconds:.4f}s "
        f"({per_cell['inline_ms_per_cell']:.3f} ms/cell)\n")
    bench_json_merge("campaign_scaleout", {"pool_overhead": {
        "workload": f"{len(specs)}x sleep(0) cells",
        "pool_jobs2_seconds": pool_seconds,
        "inline_seconds": inline_seconds,
        **per_cell,
    }})


def test_campaign_tiered_warm_rerun(benchmark, artifact_sink,
                                    bench_json_sink):
    """Two-tier cache cell: a cold distributed run populates the
    worker's local shard; the warm rerun (fresh worker process, fresh
    authority store, same shard) must ship **zero** cell-kwargs frames —
    every cell is answered key-only from the shard — and must beat the
    cold run."""
    cell_seconds = 0.25
    specs = [
        CellSpec.make("bench_campaign:bench_sleep_cell",
                      {"tag": tag, "seconds": cell_seconds},
                      experiment="bench", label=f"tier/{tag}")
        for tag in range(8)
    ]

    def fleet_run(campaign, backend, shard):
        worker = multiprocessing.Process(
            target=run_worker, args=("%s:%d" % backend.address,),
            kwargs={"cores": 2, "retry_for": 30.0, "name": "tier",
                    "shard_dir": shard})
        worker.start()
        try:
            start = time.perf_counter()
            results = campaign.run(specs)
            return results, time.perf_counter() - start
        finally:
            worker.join(timeout=15)
            if worker.is_alive():
                worker.terminate()

    with tempfile.TemporaryDirectory() as tier:
        shard = f"{tier}/shard"
        backend = DistributedBackend(bind="127.0.0.1:0", min_workers=1)
        try:
            cold, cold_seconds = fleet_run(
                Campaign(backend=backend, cache_dir=f"{tier}/authority1"),
                backend, shard)
            cold_stats = backend.last_run_stats
            warm_campaign = Campaign(backend=backend,
                                     cache_dir=f"{tier}/authority2")
            warm, warm_seconds = run_once(
                benchmark, fleet_run, warm_campaign, backend, shard)
            warm_stats = backend.last_run_stats
        finally:
            backend.close()

    assert [r.value for r in warm] == [r.value for r in cold]
    assert cold_stats["kwargs_frames"] == len(specs)
    # The acceptance bar: a warm fleet rerun ships zero kwargs frames.
    assert warm_stats["kwargs_frames"] == 0
    assert warm_stats["shard_hits"] == len(specs)
    assert warm_seconds < cold_seconds
    artifact_sink(
        "campaign_tiered",
        f"workload: 8 x {cell_seconds}s cells, 1 worker, loopback TCP\n"
        f"cold fleet run:  {cold_seconds:.2f}s "
        f"({cold_stats['kwargs_frames']} kwargs frames shipped)\n"
        f"warm fleet run:  {warm_seconds:.2f}s "
        f"(0 kwargs frames, {warm_stats['shard_hits']} shard hits)\n"
        f"speedup: {cold_seconds / warm_seconds:.1f}x\n")
    bench_json_sink("campaign_tiered", {
        "workload": f"8x{cell_seconds}s sleep cells, 1 worker",
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "cold_kwargs_frames": cold_stats["kwargs_frames"],
        "warm_kwargs_frames": warm_stats["kwargs_frames"],
        "warm_shard_hits": warm_stats["shard_hits"],
        "speedup": cold_seconds / warm_seconds,
    })
