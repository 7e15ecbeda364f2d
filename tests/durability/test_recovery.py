"""Recovery edge cases: replay proven by fingerprint identity.

Every cell builds real engine history with a journal attached, then
recovers into a *fresh* engine and checks the recovered head by the
strongest predicate available: its content-addressed fingerprint must
equal the committed one, and its answers must match the brute oracle
over the shadow array.
"""

import os

import numpy as np
import pytest

from repro.baselines.brute import brute_window_query
from repro.durability import MutationJournal, RecoveryError, replay_journal
from repro.engine import SpatialQueryEngine
from repro.engine.registry import IndexRegistry
from repro.geometry import random_segments

DOMAIN = 512
RECT = (50.0, 400.0, 50.0, 400.0)


def make_engine(tmp_path, **kw):
    kw.setdefault("workers", 2)
    kw.setdefault("max_batch", 8)
    kw.setdefault("max_wait", 0.001)
    kw.setdefault("journal_dir", os.path.join(tmp_path, "wal"))
    return SpatialQueryEngine(**kw)


def seeded_lines(n=60, seed=0):
    return random_segments(n, domain=DOMAIN, max_len=40, seed=seed)


def run_commits(eng, fp, count, seed=1):
    """Blocking mutation commits; returns the acked head fingerprints."""
    rng = np.random.default_rng(seed)
    heads = []
    for i in range(count):
        if i % 3 == 2:
            n = eng.registry.resolve(fp).num_lines
            ids = np.sort(rng.choice(n, size=min(3, n), replace=False))
            heads.append(eng.delete_lines(fp, ids))
        else:
            heads.append(eng.insert_lines(
                fp, random_segments(4, domain=DOMAIN, max_len=30,
                                    seed=seed * 100 + i)))
    return heads


class TestRecoveryBasics:
    def test_empty_journal_recovers_the_base_checkpoint(self, tmp_path):
        lines = seeded_lines()
        # a journal holding only its base checkpoint -- exactly what a
        # crash right after journal creation leaves behind
        fp = IndexRegistry(capacity=1).register(lines, domain=DOMAIN)
        j = MutationJournal(os.path.join(tmp_path, "wal", fp))
        j.write_checkpoint(lines, fingerprint=fp, version=0,
                           domain=DOMAIN, seq=0)
        j.close()
        with make_engine(tmp_path) as eng2:
            (rep,) = eng2.recover()
            assert rep.records_replayed == 0
            assert rep.fingerprint == fp
            assert rep.num_lines == lines.shape[0]
            got = sorted(eng2.window(fp, RECT).tolist())
            assert got == sorted(brute_window_query(lines, RECT).tolist())

    def test_recovery_reproduces_acked_history_exactly(self, tmp_path):
        lines = seeded_lines()
        with make_engine(tmp_path) as eng:
            fp = eng.register(lines, domain=DOMAIN)
            heads = run_commits(eng, fp, 7)
            shadow = eng.registry.dataset(heads[-1]).copy()
        with make_engine(tmp_path) as eng2:
            (rep,) = eng2.recover()
            assert rep.records_replayed == 7
            assert rep.fingerprint == heads[-1]       # fingerprint identity
            # the old handle resolves onto the recovered head
            assert eng2.registry.resolve(fp).fingerprint == heads[-1]
            got = sorted(eng2.window(fp, RECT).tolist())
            assert got == sorted(brute_window_query(shadow, RECT).tolist())

    def test_duplicate_recover_is_idempotent(self, tmp_path):
        with make_engine(tmp_path) as eng:
            fp = eng.register(seeded_lines(), domain=DOMAIN)
            head = run_commits(eng, fp, 4)[-1]
        with make_engine(tmp_path) as eng2:
            (first,) = eng2.recover()
            assert first.records_replayed == 4
            (second,) = eng2.recover()
            assert second.records_replayed == 0
            assert second.records_skipped >= 1
            assert second.fingerprint == head
            assert eng2.registry.resolve(fp).fingerprint == head

    def test_mutations_continue_after_recovery(self, tmp_path):
        with make_engine(tmp_path) as eng:
            fp = eng.register(seeded_lines(), domain=DOMAIN)
            run_commits(eng, fp, 3)
        with make_engine(tmp_path) as eng2:
            eng2.recover()
            head = eng2.insert_lines(fp, [[1.0, 2.0, 3.0, 4.0]])
            assert eng2.registry.resolve(fp).fingerprint == head
        # third generation sees *both* histories
        with make_engine(tmp_path) as eng3:
            (rep,) = eng3.recover()
            assert rep.fingerprint == head


class TestTornAndCheckpointed:
    def test_torn_tail_recovers_the_acked_prefix(self, tmp_path):
        with make_engine(tmp_path) as eng:
            fp = eng.register(seeded_lines(), domain=DOMAIN)
            heads = run_commits(eng, fp, 5)
            (root_dir,) = os.listdir(os.path.join(tmp_path, "wal"))
            seg_dir = os.path.join(tmp_path, "wal", root_dir)
            (seg,) = [n for n in os.listdir(seg_dir) if n.endswith(".wal")]
            seg = os.path.join(seg_dir, seg)
        # tear the last record mid-payload: as if the process died
        # inside the append (that commit was never acked)
        os.truncate(seg, os.path.getsize(seg) - 9)
        with make_engine(tmp_path) as eng2:
            (rep,) = eng2.recover()
            assert rep.records_replayed == 4
            assert rep.fingerprint == heads[-2]
            assert eng2.registry.resolve(fp).fingerprint == heads[-2]

    def test_checkpoint_bounds_replay_and_survives_crash(self, tmp_path):
        with make_engine(tmp_path, checkpoint_every=3) as eng:
            fp = eng.register(seeded_lines(), domain=DOMAIN)
            heads = run_commits(eng, fp, 7)
            shadow = eng.registry.dataset(heads[-1]).copy()
        with make_engine(tmp_path) as eng2:
            (rep,) = eng2.recover()
            # 7 commits with a checkpoint every 3: replay covers only
            # the records past the newest checkpoint
            assert rep.checkpoint_seq == 6
            assert rep.records_replayed == 1
            assert rep.fingerprint == heads[-1]
            got = sorted(eng2.window(fp, RECT).tolist())
            assert got == sorted(brute_window_query(shadow, RECT).tolist())

    def test_manual_checkpoint_truncates_prefix(self, tmp_path):
        with make_engine(tmp_path,
                         journal_segment_bytes=4096) as eng:
            fp = eng.register(seeded_lines(), domain=DOMAIN)
            head = run_commits(eng, fp, 40)[-1]
            journal = next(iter(eng._journals.values()))
            before = len(journal.segment_paths())
            assert before > 1
            meta = eng.checkpoint(fp)
            assert meta["fingerprint"] == head
            assert len(journal.segment_paths()) < before
        with make_engine(tmp_path) as eng2:
            (rep,) = eng2.recover()
            assert rep.records_replayed == 0
            assert rep.fingerprint == head


class TestStoreTiers:
    @pytest.mark.parametrize("warm", [False, True])
    def test_recovery_with_index_store_cold_vs_warm(self, tmp_path, warm):
        cache = os.path.join(tmp_path, "cache")
        with make_engine(tmp_path, cache_dir=cache) as eng:
            fp = eng.register(seeded_lines(), domain=DOMAIN)
            heads = run_commits(eng, fp, 4)
            shadow = eng.registry.dataset(heads[-1]).copy()
        if not warm:
            # cold store: the head's index must rebuild from the
            # recovered dataset instead of loading
            for name in os.listdir(cache):
                path = os.path.join(cache, name)
                if os.path.isfile(path):
                    os.unlink(path)
        with make_engine(tmp_path, cache_dir=cache) as eng2:
            (rep,) = eng2.recover()
            assert rep.fingerprint == heads[-1]
            got = sorted(eng2.window(fp, RECT).tolist())
            assert got == sorted(brute_window_query(shadow, RECT).tolist())
            snap = eng2.store.snapshot()
            if warm:
                assert snap["disk_hits"] >= 1
            else:
                assert snap["disk_hits"] == 0


class TestRecreatedContentReplay:
    def test_insert_then_delete_replays_to_the_same_head(self, tmp_path):
        """Version 2 recreates version 0's content (same fingerprint):
        replay must apply that record, not skip it as already active."""
        lines = seeded_lines()
        n = lines.shape[0]
        rows = random_segments(8, domain=DOMAIN, max_len=30, seed=9)
        with make_engine(tmp_path) as eng:
            fp = eng.register(lines, domain=DOMAIN)
            inserted = eng.insert_lines(fp, rows)
            assert eng.delete_lines(fp, np.arange(n, n + 8)) == fp
            assert eng.registry.resolve(fp).version == 2
        with make_engine(tmp_path) as eng2:
            (rep,) = eng2.recover()
            assert (rep.records_replayed, rep.records_skipped) == (2, 0)
            assert (rep.fingerprint, rep.version) == (fp, 2)
            assert eng2.registry.chain(fp) == [fp, inserted, fp]
            got = sorted(eng2.window(fp, RECT).tolist())
            assert got == sorted(brute_window_query(lines, RECT).tolist())
            (again,) = eng2.recover()
            assert (again.records_replayed, again.records_skipped) == (0, 2)
            assert (again.fingerprint, again.version) == (fp, 2)
            # the recovered chain keeps committing on top of the replay
            assert eng2.insert_lines(fp, rows) == inserted
            assert eng2.registry.resolve(fp).version == 3


class TestRecoveryRefusals:
    def test_missing_checkpoint_is_a_recovery_error(self, tmp_path):
        with make_engine(tmp_path) as eng:
            fp = eng.register(seeded_lines(), domain=DOMAIN)
            run_commits(eng, fp, 2)
            (root_dir,) = os.listdir(os.path.join(tmp_path, "wal"))
        os.unlink(os.path.join(tmp_path, "wal", root_dir, "checkpoint.npz"))
        with make_engine(tmp_path) as eng2:
            with pytest.raises(RecoveryError, match="checkpoint"):
                eng2.recover()

    def test_corrupt_checkpoint_content_is_detected(self, tmp_path):
        with make_engine(tmp_path) as eng:
            fp = eng.register(seeded_lines(), domain=DOMAIN)
            run_commits(eng, fp, 2)
            (root_dir,) = os.listdir(os.path.join(tmp_path, "wal"))
        ck = os.path.join(tmp_path, "wal", root_dir, "checkpoint.npz")
        # rewrite the snapshot with different rows but the same manifest
        j = MutationJournal(os.path.join(tmp_path, "wal", root_dir))
        lines, meta = j.read_checkpoint()
        j.close()
        doctored = np.ascontiguousarray(lines + 1.0)
        import json
        np.savez(ck, lines=doctored,
                 meta=np.frombuffer(json.dumps(meta).encode(),
                                    dtype=np.uint8))
        with make_engine(tmp_path) as eng2:
            with pytest.raises(RecoveryError, match="hashes"):
                eng2.recover()

    def test_non_chaining_record_is_detected(self, tmp_path):
        """A journal whose records skip a link must fail, not guess."""
        reg = IndexRegistry(capacity=4)
        lines = seeded_lines(20)
        j = MutationJournal(str(tmp_path / "j"))
        j.write_checkpoint(lines, fingerprint=reg.register(lines,
                                                           domain=DOMAIN),
                           version=0, domain=DOMAIN, seq=0)
        j.append(base="feedfacefeedface", fingerprint="deadbeefdeadbeef",
                 version=1, num_lines=21, domain=DOMAIN,
                 delete_ids=np.zeros(0, dtype=np.int64),
                 insert_lines=np.zeros((1, 4)))
        with pytest.raises(RecoveryError, match="chain"):
            replay_journal(j, IndexRegistry(capacity=4), "r")
        j.close()

    def test_journal_ahead_of_registry_refuses_new_commits(self, tmp_path):
        """The fork guard: mutating over an unreplayed journal is refused."""
        with make_engine(tmp_path) as eng:
            fp = eng.register(seeded_lines(), domain=DOMAIN)
            run_commits(eng, fp, 2)
        with make_engine(tmp_path) as eng2:
            # no recover(): the journal on disk is ahead of this registry
            eng2.register(seeded_lines(), domain=DOMAIN)
            with pytest.raises(Exception, match="unreplayed"):
                eng2.insert_lines(fp, [[1.0, 2.0, 3.0, 4.0]])
