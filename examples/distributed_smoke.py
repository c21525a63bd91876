#!/usr/bin/env python3
"""Distributed campaign smoke: scheduler + two loopback CLI workers.

The end-to-end scale-out story in one script (this is what CI runs):

1. expand a small scheme x attack matrix grid and run it **inline**
   (in this process, no cache),
2. run it through the local **pool** backend into one cache — the
   scheduler over one worker agent forked from this process,
3. run the *same* grid through the **distributed** backend — the same
   scheduler plus two real ``repro-lock worker`` subprocesses, each a
   fresh interpreter, over localhost — into a second cache,
4. assert inline == pool == distributed: byte-identical cell values
   and cache keys, in spec order,
5. rerun the distributed campaign warm and assert it is pure cache
   hits (no workers needed at all).

Usage::

    PYTHONPATH=src python examples/distributed_smoke.py
"""

import subprocess
import sys
import tempfile

from repro.api import matrix_cells
from repro.campaign import (
    Campaign,
    DistributedBackend,
    InlineBackend,
    PoolBackend,
    canonical_json,
)


def stable(value):
    """A cell value minus its measured attack wall-clock: ``seconds``
    and the ``timing`` phase breakdown are the genuinely
    nondeterministic fields (any two runs differ, even on the same
    backend); everything else must match to the byte."""
    return canonical_json({key: item for key, item in value.items()
                           if key not in ("seconds", "timing")})


def spawn_worker(address, index):
    host, port = address
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "worker",
         "--connect", f"{host}:{port}", "--cores", "2",
         "--retry-for", "60", "--name", f"smoke{index}"])


def main():
    specs = matrix_cells(
        ["s27"], ["trilock?kappa_s=1..2", "harpoon?kappa=2"],
        ["seq-sat", "removal"], max_dips=256)
    print(f"matrix grid: {len(specs)} cells "
          f"({', '.join(spec.describe() for spec in specs)})")

    inline_results = Campaign(backend=InlineBackend()).run(specs)
    assert all(r.ok for r in inline_results), "inline campaign failed"
    with tempfile.TemporaryDirectory() as pool_cache, \
            tempfile.TemporaryDirectory() as dist_cache:
        pool = Campaign(backend=PoolBackend(2), cache_dir=pool_cache)
        pool_results = pool.run(specs)
        assert all(r.ok for r in pool_results), "pool campaign failed"
        assert [r.key for r in pool_results] \
            == [r.key for r in inline_results], "cache keys diverged"
        assert [stable(r.value) for r in pool_results] \
            == [stable(r.value) for r in inline_results], \
            "cell values diverged between inline and pool"
        print(f"pool backend: {pool.stats().summary()}")

        backend = DistributedBackend(
            bind="127.0.0.1:0", min_workers=2,
            on_event=lambda message: print(f"[scheduler] {message}"))
        workers = [spawn_worker(backend.address, i) for i in range(2)]
        try:
            cold = Campaign(backend=backend, cache_dir=dist_cache)
            cold_results = cold.run(specs)
        except BaseException:
            # The scheduler never reached its shutdown broadcast — the
            # workers are still waiting on live sockets; reap them so
            # the real failure (not a wait timeout) surfaces.
            for worker in workers:
                worker.kill()
            raise
        finally:
            for worker in workers:
                try:
                    worker.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    worker.kill()
                    worker.wait()
        assert all(r.ok for r in cold_results), "distributed campaign failed"
        assert all(worker.returncode == 0 for worker in workers), \
            "a worker exited uncleanly"
        print(f"distributed backend (cold): {cold.stats().summary()}")

        assert [r.key for r in cold_results] \
            == [r.key for r in pool_results], "cache keys diverged"
        assert [stable(r.value) for r in cold_results] \
            == [stable(r.value) for r in pool_results], \
            "cell values diverged between pool and distributed"
        assert [r.spec for r in cold_results] == specs, "spec order lost"

        warm = Campaign(backend=backend, cache_dir=dist_cache)
        warm_results = warm.run(specs)
        stats = warm.stats()
        assert all(r.cached for r in warm_results), \
            "warm rerun recomputed cells"
        assert stats.hits == len(specs) and stats.misses == 0, \
            f"warm rerun was not all hits: {stats.summary()}"
        print(f"distributed backend (warm): {stats.summary()}")
        backend.close()

    print("distributed smoke OK: inline == pool == distributed, "
          "warm rerun all hits")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
