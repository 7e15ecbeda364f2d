"""Restart recovery: replay a journal and *prove* it by fingerprint.

Content addressing makes recovery cheaply verifiable (the Sun &
Blelloch augmented-map observation from PAPERS.md applied to
durability): every journal record carries both the fingerprint it was
applied to (``base``) and the fingerprint the commit produced, and the
registry recomputes fingerprints from content on registration.  So
:func:`replay_journal` does not *trust* the journal -- it re-applies
each batch to the checkpoint dataset and checks that the recomputed
content hash equals the recorded one, bit for bit.  A divergence (bit
rot below the CRC's radar, a software bug, a mismatched checkpoint)
raises :class:`RecoveryError` instead of serving silently wrong data.

Replay is **lazy** like the live mutation path: versions are staged
and activated without building indexes, so recovering a 10k-record
journal costs hashes and vstacks, not 10k tree builds -- the head's
index comes from the store's warm tier or one cold build afterwards.

Idempotence: the records the registry's chain already ends with
(checkpoint, then the first records in order) are skipped, so calling
recovery twice (or recovering a journal whose tail the caller already
applied) cannot double-apply a batch.  Matching by chain position, not
by membership, keeps a record whose content equals an earlier version
(insert rows, then delete exactly those rows) from being skipped.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..errors import EngineError
from .journal import MutationJournal

__all__ = ["RecoveryError", "RecoveryReport", "replay_journal",
           "journal_roots"]


class RecoveryError(EngineError):
    """Replay could not reproduce the journal's committed fingerprints."""

    reason = "recovery_failed"


@dataclass(frozen=True)
class RecoveryReport:
    """What one chain's recovery did (one row of ``Engine.recover()``)."""

    root: str                     # journal directory name: the original handle
    chain_root: str               # chain anchor after replay (checkpoint fp)
    checkpoint_fingerprint: str
    checkpoint_seq: int
    records_replayed: int
    records_skipped: int          # already-active duplicates (idempotence)
    fingerprint: str              # recovered head's content fingerprint
    version: int                  # recovered head's chain position
    num_lines: int

    def as_dict(self) -> Dict[str, object]:
        return {"root": self.root, "chain_root": self.chain_root,
                "checkpoint_fingerprint": self.checkpoint_fingerprint,
                "checkpoint_seq": self.checkpoint_seq,
                "records_replayed": self.records_replayed,
                "records_skipped": self.records_skipped,
                "fingerprint": self.fingerprint, "version": self.version,
                "num_lines": self.num_lines}


def journal_roots(journal_dir: str) -> List[str]:
    """The chain roots (subdirectory names) a journal directory holds."""
    if not os.path.isdir(journal_dir):
        return []
    return sorted(name for name in os.listdir(journal_dir)
                  if os.path.isdir(os.path.join(journal_dir, name)))


def _applied_prefix(chain: List[str], checkpoint: str,
                    fingerprints: List[str]) -> int:
    """How many leading records the chain already holds: the largest
    ``k`` such that the chain ends with the checkpoint followed by the
    first ``k`` record fingerprints (0 when it ends elsewhere)."""
    for k in range(min(len(fingerprints), len(chain) - 1), 0, -1):
        if chain[-k - 1] == checkpoint and chain[-k:] == fingerprints[:k]:
            return k
    return 0


def replay_journal(journal: MutationJournal, registry,
                   root: str) -> RecoveryReport:
    """Re-apply one journal's committed records onto ``registry``.

    Registers the checkpoint dataset, replays every later record
    (delete-then-insert, exactly the live commit semantics), and
    verifies each step by fingerprint identity.  Returns the
    :class:`RecoveryReport`; the caller (the engine) aliases the
    original handle onto the recovered chain and re-attaches the
    journal for new commits.
    """
    ck = journal.read_checkpoint()
    if ck is None:
        raise RecoveryError(
            f"journal {journal.directory!r} has no readable checkpoint; "
            f"cannot anchor replay")
    lines, meta = ck
    ck_fp = registry.register(lines, domain=int(meta["domain"]))
    if ck_fp != meta["fingerprint"]:
        raise RecoveryError(
            f"checkpoint content hashes to {ck_fp}, manifest says "
            f"{meta['fingerprint']} -- snapshot corrupt")
    records = list(journal.records(after_seq=int(meta["seq"])))
    skipped = _applied_prefix(registry.chain(ck_fp), ck_fp,
                              [rec.fingerprint for rec in records])
    cur_fp = registry.resolve(ck_fp).fingerprint
    replayed = 0
    for rec in records[skipped:]:
        if rec.base != cur_fp:
            raise RecoveryError(
                f"record seq {rec.seq} applies to {rec.base} but replay "
                f"is at {cur_fp} -- journal does not chain")
        old = registry.dataset(cur_fp)
        if rec.delete_ids.size and (rec.delete_ids.min() < 0
                                    or rec.delete_ids.max() >= old.shape[0]):
            raise RecoveryError(
                f"record seq {rec.seq} deletes ids out of range for "
                f"{old.shape[0]} lines")
        keep = np.ones(old.shape[0], dtype=bool)
        keep[rec.delete_ids] = False
        new_lines = np.vstack([old[keep], rec.insert_lines])
        staged = registry.stage_version(cur_fp, new_lines,
                                        delete_ids=rec.delete_ids,
                                        n_inserted=rec.insert_lines.shape[0])
        if staged.fingerprint != rec.fingerprint:
            registry.abandon_version(staged.fingerprint)
            raise RecoveryError(
                f"record seq {rec.seq} replayed to {staged.fingerprint}, "
                f"journal committed {rec.fingerprint} -- fingerprint "
                f"identity violated")
        if int(rec.num_lines) != int(staged.num_lines):
            raise RecoveryError(
                f"record seq {rec.seq}: replay has {staged.num_lines} "
                f"lines, journal recorded {rec.num_lines}")
        registry.activate_version(staged.fingerprint)
        cur_fp = staged.fingerprint
        replayed += 1
    head = registry.resolve(cur_fp)
    return RecoveryReport(
        root=root, chain_root=head.root,
        checkpoint_fingerprint=str(meta["fingerprint"]),
        checkpoint_seq=int(meta["seq"]),
        records_replayed=replayed, records_skipped=skipped,
        fingerprint=head.fingerprint, version=head.version,
        num_lines=head.num_lines)
