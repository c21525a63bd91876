"""ResultStore under concurrent multi-process writers.

The shared-cache / NFS story of the distributed runner rests on one
invariant: ``put`` is atomic (temp file + rename), so a reader racing
any number of writers — even writers that die mid-write — sees either
nothing or a complete, valid entry, never a torn one.  These tests race
real processes at the same store directory and check exactly that.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.campaign import CellSpec, ResultStore

pytestmark = pytest.mark.smoke


def _spec_for(n):
    return CellSpec.make("tests.test_store_concurrency:payload_cell",
                         {"n": n}, experiment="race", label=f"race/{n}")


def payload_cell(n):  # referenced by the spec's fn path only
    return _value_for(n)


def _value_for(n):
    # Big enough that a write takes real time (so kills land mid-write)
    # and a torn read could never parse as the full value.
    return {"n": n, "blob": list(range(n, n + 4096))}


def _hammer(cache_dir, keys_ns, rounds, start_gate):
    """Writer process: put every (key, n) pair, `rounds` times over."""
    store = ResultStore(cache_dir)
    start_gate.wait()
    for _ in range(rounds):
        for n in keys_ns:
            store.put(_spec_for(n).key(), _spec_for(n), _value_for(n))


def _endless_writer(cache_dir, n, start_gate):
    """Writer that puts one key forever (until killed mid-flight)."""
    store = ResultStore(cache_dir)
    start_gate.wait()
    while True:
        store.put(_spec_for(n).key(), _spec_for(n), _value_for(n))


class TestConcurrentWriters:
    def test_same_key_racing_writers_never_tear_a_read(self, tmp_path):
        cache = str(tmp_path / "cache")
        gate = multiprocessing.Event()
        writers = [
            multiprocessing.Process(target=_hammer,
                                    args=(cache, [7], 25, gate))
            for _ in range(4)
        ]
        for writer in writers:
            writer.start()
        reader = ResultStore(cache)
        key = _spec_for(7).key()
        gate.set()
        observed = 0
        deadline = time.monotonic() + 30
        while any(w.is_alive() for w in writers):
            assert time.monotonic() < deadline, "writers hung"
            value = reader.get(key)
            if value is not None:
                assert value == _value_for(7)  # complete or absent, never torn
                observed += 1
        for writer in writers:
            writer.join()
            assert writer.exitcode == 0
        assert observed > 0
        assert reader.get(key) == _value_for(7)
        # A torn read would have been evicted as corrupt — none were.
        assert reader.stats.invalidations == 0

    def test_distinct_keys_from_many_processes_all_land(self, tmp_path):
        cache = str(tmp_path / "cache")
        gate = multiprocessing.Event()
        per_writer = [list(range(base, base + 12)) for base in
                      (0, 100, 200, 300)]
        writers = [
            multiprocessing.Process(target=_hammer,
                                    args=(cache, ns, 3, gate))
            for ns in per_writer
        ]
        for writer in writers:
            writer.start()
        gate.set()
        for writer in writers:
            writer.join(timeout=60)
            assert writer.exitcode == 0
        store = ResultStore(cache)
        for ns in per_writer:
            for n in ns:
                assert store.get(_spec_for(n).key()) == _value_for(n)
        status = store.status()
        assert status["entries"] == 48
        assert status["by_experiment"] == {"race": 48}
        assert store.stats.as_dict() == {
            "hits": 48, "misses": 0, "puts": 0, "invalidations": 0}
        # Clean completion leaves no temp litter behind.
        assert not _tmp_files(cache)

    def test_killed_writer_cannot_corrupt_the_store(self, tmp_path):
        cache = str(tmp_path / "cache")
        store = ResultStore(cache)
        key = _spec_for(5).key()
        for _ in range(3):
            # A fresh gate per round: a writer killed while it waits on
            # the gate takes the Event's lock with it.  And no entry, so
            # the kill below lands after this writer's own first put,
            # never while it still sits in the gate.
            gate = multiprocessing.Event()
            if os.path.exists(store.path_of(key)):
                os.remove(store.path_of(key))
            writer = multiprocessing.Process(
                target=_endless_writer, args=(cache, 5, gate))
            writer.start()
            gate.set()
            # Let it complete at least one put, then kill mid-flight.
            deadline = time.monotonic() + 30
            while store.get(key) is None:
                assert time.monotonic() < deadline, "first put never landed"
            os.kill(writer.pid, signal.SIGKILL)
            writer.join(timeout=10)
            # The entry is still the complete value...
            assert store.get(key) == _value_for(5)
            # ...and the entry file itself parses as a full envelope.
            with open(store.path_of(key), encoding="utf-8") as handle:
                entry = json.load(handle)
            assert entry["key"] == key and entry["value"] == _value_for(5)
        assert store.stats.invalidations == 0
        # A mid-write kill may orphan temp files, but they are invisible
        # to reads and inspection: only *.json entries count.
        assert store.status()["entries"] == 1
        for leftover in _tmp_files(cache):
            assert leftover.endswith(".tmp")


def _tmp_files(cache_dir):
    found = []
    for root, _, names in os.walk(cache_dir):
        found.extend(os.path.join(root, name) for name in names
                     if not name.endswith(".json"))
    return found


# ----------------------------------------------------------------------
# Pack compaction: unit behaviour, then compaction racing live readers.
# ----------------------------------------------------------------------
def _reader_loop(cache_dir, keys_ns, stop_gate):
    """Reader process: every key must stay visible at every instant."""
    store = ResultStore(cache_dir)
    while not stop_gate.is_set():
        for n in keys_ns:
            value = store.get(_spec_for(n).key())
            assert value == _value_for(n), f"key {n} vanished mid-compaction"


class TestCompaction:
    def test_compact_moves_loose_entries_into_a_pack(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        for n in range(5):
            store.put(_spec_for(n).key(), _spec_for(n), _value_for(n))
        report = store.compact()
        assert report["packed"] == 5 and report["evicted"] == 0
        assert os.path.isfile(report["pack"])
        # No loose entries remain; every key answers from the pack —
        # both via the in-memory index and via a cold process-alike
        # fresh store that must discover the pack from disk.
        assert not list(store._entry_paths())
        for reader in (store, ResultStore(store.cache_dir)):
            for n in range(5):
                assert reader.get(_spec_for(n).key()) == _value_for(n)
        status = store.status()
        assert status["entries"] == 5
        assert status["packed"] == 5 and status["packs"] == 1
        assert status["by_experiment"] == {"race": 5}

    def test_repeated_compaction_layers_packs(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        for n in range(3):
            store.put(_spec_for(n).key(), _spec_for(n), _value_for(n))
        assert store.compact()["packed"] == 3
        for n in range(3, 7):
            store.put(_spec_for(n).key(), _spec_for(n), _value_for(n))
        assert store.compact()["packed"] == 4
        status = store.status()
        assert status["packed"] == 7 and status["packs"] == 2
        assert all(store.get(_spec_for(n).key()) == _value_for(n)
                   for n in range(7))
        # An empty compaction is a no-op, not an empty pack file.
        report = store.compact()
        assert report == {"packed": 0, "evicted": 0, "pack": None}
        assert store.status()["packs"] == 2

    def test_corrupt_loose_entries_are_evicted_not_packed(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        store.put(_spec_for(1).key(), _spec_for(1), _value_for(1))
        bogus = os.path.join(store.cache_dir, "de", "deadbeef.json")
        os.makedirs(os.path.dirname(bogus), exist_ok=True)
        with open(bogus, "w", encoding="utf-8") as handle:
            handle.write("{ not json")
        report = store.compact()
        assert report["packed"] == 1 and report["evicted"] == 1
        assert not os.path.exists(bogus)
        assert store.get(_spec_for(1).key()) == _value_for(1)

    def test_clear_also_drops_packs(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        for n in range(4):
            store.put(_spec_for(n).key(), _spec_for(n), _value_for(n))
        store.compact()
        store.put(_spec_for(9).key(), _spec_for(9), _value_for(9))
        assert store.clear() == 5
        status = store.status()
        assert (status["entries"], status["packed"], status["packs"]) == \
            (0, 0, 0)
        assert status["by_experiment"] == {}
        assert store.get(_spec_for(0).key()) is None
        assert not os.path.isdir(store.pack_dir) or \
            not os.listdir(store.pack_dir)

    def test_compaction_racing_readers_never_hides_a_key(self, tmp_path):
        """The pack+index land (atomically) *before* loose unlink, so a
        reader polling every key throughout repeated compactions must
        never observe a miss."""
        cache = str(tmp_path / "cache")
        store = ResultStore(cache)
        ns = list(range(24))
        for n in ns:
            store.put(_spec_for(n).key(), _spec_for(n), _value_for(n))
        stop = multiprocessing.Event()
        readers = [multiprocessing.Process(target=_reader_loop,
                                           args=(cache, ns, stop))
                   for _ in range(3)]
        for reader in readers:
            reader.start()
        try:
            time.sleep(0.2)  # let readers warm their loose-file paths
            packed = 0
            # Re-put then re-compact: each round turns the whole key
            # space loose again and packs it while readers poll.
            for _ in range(4):
                packed += store.compact()["packed"]
                for n in ns:
                    store.put(_spec_for(n).key(), _spec_for(n),
                              _value_for(n))
                time.sleep(0.1)
            packed += store.compact()["packed"]
            assert packed == 5 * len(ns)
        finally:
            stop.set()
            for reader in readers:
                reader.join(timeout=30)
        assert all(reader.exitcode == 0 for reader in readers), \
            "a reader saw a key vanish during compaction"

    def test_shard_writers_race_a_compacting_authority(self, tmp_path):
        """Tiered deployments co-locate worker shards with the authority
        directory; hammering writers racing compact() must end with
        every key readable and nothing evicted as corrupt."""
        cache = str(tmp_path / "cache")
        gate = multiprocessing.Event()
        ns = list(range(8))
        writers = [multiprocessing.Process(target=_hammer,
                                           args=(cache, ns, 6, gate))
                   for _ in range(3)]
        for writer in writers:
            writer.start()
        authority = ResultStore(cache)
        gate.set()
        while any(w.is_alive() for w in writers):
            authority.compact()
            time.sleep(0.05)
        for writer in writers:
            writer.join()
            assert writer.exitcode == 0
        authority.compact()
        for n in ns:
            assert authority.get(_spec_for(n).key()) == _value_for(n)
        fresh = ResultStore(cache)
        assert all(fresh.get(_spec_for(n).key()) == _value_for(n)
                   for n in ns)
