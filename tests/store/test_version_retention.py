"""Version retention across the memory and disk tiers (MVCC GC).

The registry keeps the last ``versions_retained`` dataset versions
warm -- their arrays, their cached indexes, and their store archives --
so in-flight reads admitted against an older snapshot can finish.
These tests pin the three retention stories the tentpole promises:

* **chain GC** -- committing past the retention horizon collects the
  oldest version everywhere (memory dataset, cached trees, disk
  archives) while the retained tail stays fully servable;
* **byte pressure** -- the store's LRU GC evicts an old version's
  archives before the current version's, because serving keeps
  touching the current one;
* **corruption isolation** -- a corrupted *old-version* archive is
  quarantined on load without disturbing the current snapshot's
  entries or answers.
"""

import os

import numpy as np
import pytest

from repro.engine import IndexRegistry
from repro.geometry import random_segments
from repro.store import IndexStore

DOMAIN = 512


def segs(seed, n=60):
    return random_segments(n, DOMAIN, 48, seed=seed)


def chain_fps(reg, fp, count):
    """Commit ``count`` single-row inserts; returns every version's fp."""
    fps = [fp]
    for i in range(count):
        row = np.array([[1.0 + i, 2.0, 30.0 + i, 40.0]])
        fps.append(reg.mutate(fps[-1], insert=row).fingerprint)
    return fps


class TestChainRetention:
    def test_last_n_versions_survive_commit_gc(self):
        reg = IndexRegistry(capacity=16, versions_retained=3)
        fp0 = reg.register(segs(1), domain=DOMAIN)
        fps = chain_fps(reg, fp0, 4)          # versions 0..4
        live = fps[-3:]
        dead = fps[:-3]
        for fp in live:
            assert reg.dataset(fp) is not None
        for fp in dead:
            with pytest.raises(KeyError):
                reg.dataset(fp)
        assert reg.versions_collected == len(dead)
        # any chain handle still resolves to the latest version
        info = reg.resolve(fps[-1])
        assert info.fingerprint == fps[-1]
        assert info.version == 4

    def test_collected_version_drops_cached_trees_and_disk(self, tmp_path):
        store = IndexStore(tmp_path)
        reg = IndexRegistry(capacity=16, store=store, versions_retained=2)
        fp0 = reg.register(segs(2), domain=DOMAIN)
        reg.get(fp0, "pmr", capacity=8)
        reg.spill_all()
        assert any(e.fingerprint == fp0 for e in store.entries())
        fps = chain_fps(reg, fp0, 2)          # retention 2: v0 collected
        for fp in fps[-2:]:
            reg.get(fp, "pmr", capacity=8)
        assert all(k.fingerprint != fp0 for k in reg.cached_keys())
        assert all(e.fingerprint != fp0 for e in store.entries())
        with pytest.raises(KeyError):
            reg.dataset(fp0)

    def test_pinned_version_survives_until_unpin(self):
        reg = IndexRegistry(capacity=16, versions_retained=1)
        fp0 = reg.register(segs(3), domain=DOMAIN)
        reg.pin(fp0)
        fps = chain_fps(reg, fp0, 2)
        # retention 1 would have collected v0, but the pin defers it
        assert reg.dataset(fp0) is not None
        reg.unpin(fp0)
        with pytest.raises(KeyError):
            reg.dataset(fp0)
        # the current version is untouched by the deferred collection
        assert reg.dataset(fps[-1]).shape[0] == reg.resolve(fp0).num_lines


class TestBytePressure:
    def test_gc_evicts_old_version_archives_before_current(self, tmp_path):
        store = IndexStore(tmp_path)
        reg = IndexRegistry(capacity=16, store=store, versions_retained=2)
        fp0 = reg.register(segs(4), domain=DOMAIN)
        reg.get(fp0, "pmr", capacity=8)
        fp1 = reg.mutate(fp0, insert=np.array([[1.0, 1.0, 9.0, 9.0]])
                         ).fingerprint
        reg.get(fp1, "pmr", capacity=8)
        reg.spill_all()
        fps_on_disk = {e.fingerprint for e in store.entries()}
        assert fps_on_disk == {fp0, fp1}
        # touch the current version's archive (a serving disk hit
        # refreshes mtime) so the LRU evictor favors keeping it
        now = os.path.getmtime(tmp_path) + 60
        for e in store.entries():
            if e.fingerprint == fp1:
                os.utime(e.path, times=(now, now))
        # budget for one archive: the old version's goes first
        sizes = {e.fingerprint: e.size_bytes for e in store.entries()}
        store.gc(budget_bytes=sizes[fp1])
        left = {e.fingerprint for e in store.entries()}
        assert left == {fp1}

    def test_store_delete_fingerprint_is_per_version(self, tmp_path):
        store = IndexStore(tmp_path)
        reg = IndexRegistry(capacity=16, store=store, versions_retained=4)
        fp0 = reg.register(segs(5), domain=DOMAIN)
        fps = chain_fps(reg, fp0, 2)
        for fp in fps:
            reg.get(fp, "pmr", capacity=8)
        reg.spill_all()
        assert {e.fingerprint for e in store.entries()} == set(fps)
        store.delete_fingerprint(fps[1])
        assert {e.fingerprint
                for e in store.entries()} == {fps[0], fps[2]}


class TestCorruptionIsolation:
    def test_corrupt_old_version_quarantines_without_touching_current(
            self, tmp_path):
        store = IndexStore(tmp_path)
        # capacity 1: getting the new version's index evicts the old
        # one from memory, so the later old-version read probes disk
        reg = IndexRegistry(capacity=1, store=store, versions_retained=2)
        lines = segs(6)
        fp0 = reg.register(lines, domain=DOMAIN)
        reg.get(fp0, "pmr", capacity=8)
        new = np.array([[5.0, 5.0, 50.0, 50.0]])
        fp1 = reg.mutate(fp0, insert=new).fingerprint
        reg.get(fp1, "pmr", capacity=8)   # evicts + spills the old tree
        reg.spill_all()
        (old_entry,) = [e for e in store.entries() if e.fingerprint == fp0]
        with open(old_entry.path, "r+b") as fh:
            fh.seek(os.path.getsize(old_entry.path) // 2)
            fh.write(b"\xff\x00" * 32)
        # loading the corrupted old version quarantines it...
        built_old = reg.get(fp0, "pmr", capacity=8)
        assert store.corrupt_evictions == 1
        assert store.quarantined() == [os.path.basename(old_entry.path)]
        # ...and transparently rebuilds the old snapshot, bit-correct
        assert built_old.num_lines == lines.shape[0]
        # the current version's archives and answers are untouched
        assert any(e.fingerprint == fp1 for e in store.entries())
        built_new = reg.get(fp1, "pmr", capacity=8)
        assert built_new.num_lines == lines.shape[0] + 1
        got = np.unique(built_new.tree.window_query(
            np.array([0.0, 0.0, DOMAIN, DOMAIN])))
        assert lines.shape[0] in got.tolist()   # the inserted row serves


class TestRecreatedContentRetention:
    """A version recreating earlier content (same fingerprint) is live.

    Chain ``[A, B, A]``: the head ``A`` also sits at version 0, outside
    a one-version window.  Retention must collect ``B`` only.
    """

    def _aba(self, reg):
        lines = segs(4)
        n = lines.shape[0]
        a = reg.register(lines, domain=DOMAIN)
        b = reg.mutate(a, insert=np.array([[1.0, 2.0, 30.0, 40.0]]))
        again = reg.mutate(a, delete_ids=[n])
        return a, b.fingerprint, again

    def test_head_is_not_collected_with_its_old_position(self):
        reg = IndexRegistry(capacity=4, versions_retained=1)
        a, b, again = self._aba(reg)
        assert (again.fingerprint, again.version) == (a, 2)
        assert reg.chain(a) == [a, b, a]
        assert reg.resolve(b).fingerprint == a
        assert reg.dataset(a) is not None            # the head survives
        with pytest.raises(KeyError):
            reg.dataset(b)                           # only B retires
        assert reg.get(a, "pmr").num_lines == segs(4).shape[0]

    def test_pinned_old_position_is_not_reaped_once_it_is_head(self):
        reg = IndexRegistry(capacity=4, versions_retained=1)
        lines = segs(4)
        a = reg.register(lines, domain=DOMAIN)
        reg.pin(a)                                   # in-flight read of A
        b = reg.mutate(a, insert=np.array([[1.0, 2.0, 30.0, 40.0]]))
        assert reg.dataset(a) is not None            # doomed, still pinned
        reg.mutate(a, delete_ids=[lines.shape[0]])   # A is head again
        reg.unpin(a)                                 # must not collect it
        assert reg.resolve(a).fingerprint == a
        assert reg.dataset(a) is not None
        with pytest.raises(KeyError):
            reg.dataset(b.fingerprint)

    def test_wider_window_keeps_both(self):
        reg = IndexRegistry(capacity=4, versions_retained=2)
        a, b, again = self._aba(reg)
        assert reg.dataset(a) is not None and reg.dataset(b) is not None
        assert reg.versions_collected == 0
