"""Control-plane crash safety (the management tier's own fault model).

The paper's serialized VIP/RIP manager is a single point of failure; this
package gives it the survival kit real mega-datacenter controllers carry:

* a :class:`WriteAheadJournal` of intent-before-apply records with
  monotonically increasing epochs, so a crashed manager can be restarted
  and replay the tail with epoch-fenced, idempotent applies;
* periodic :class:`Checkpoint` snapshots (a :class:`CheckpointStore`)
  bounding recovery cost by journal-tail length instead of history length;
* an :class:`AntiEntropyReconciler` that periodically diffs intended
  state (registries, DNS records, VM inventories) against actual state
  (switch tables, resolver answers) and repairs drift through the
  existing knob paths, its table checks being the one drift scan and
  repair rule per drift kind of :mod:`repro.controlplane.drift`;
* a :class:`RetryPolicy` for transient failures — bounded exponential
  backoff whose jitter is a pure hash of the retry key, so reruns stay
  byte-identical;
* a :class:`ShardedControlPlane` that partitions VIP/RIP ownership
  across N manager shards (deterministic :class:`ShardOwnershipMap`,
  epoch-fenced handoffs) and keeps them eventually consistent through
  gossip anti-entropy (the same scan and repair rules), tolerating
  per-shard crashes and shard<->shard partitions.
"""

from repro.controlplane.bridge import RipJournalBridge
from repro.controlplane.checkpoint import Checkpoint, CheckpointStore
from repro.controlplane.journal import JournalRecord, OpPhase, WriteAheadJournal
from repro.controlplane.reconciler import AntiEntropyReconciler, DriftReport
from repro.controlplane.retry import RetryPolicy, TransientError
from repro.controlplane.sharding import (
    ControlPlaneShard,
    ShardDriftReport,
    ShardedControlPlane,
    ShardOwnershipMap,
)

__all__ = [
    "AntiEntropyReconciler",
    "Checkpoint",
    "CheckpointStore",
    "ControlPlaneShard",
    "DriftReport",
    "JournalRecord",
    "OpPhase",
    "RetryPolicy",
    "RipJournalBridge",
    "ShardDriftReport",
    "ShardOwnershipMap",
    "ShardedControlPlane",
    "TransientError",
    "WriteAheadJournal",
]
