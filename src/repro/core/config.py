"""Platform configuration: every paper parameter in one place."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lbswitch.switch import SwitchLimits


@dataclass
class PlatformConfig:
    """Tunable parameters of the architecture.

    Defaults are the paper's numbers (Sections II, III, IV) scaled where
    noted.  Everything an experiment sweeps lives here; the build's sizes
    (pods, pod limits, control-plane shards) are keywords of
    :class:`~repro.core.datacenter.MegaDataCenter`.
    """

    # -- LB switches (Section II) ----------------------------------------------
    switch_limits: SwitchLimits = field(default_factory=SwitchLimits)
    #: "Configuring the load balancing switches takes only several seconds."
    switch_reconfig_s: float = 3.0

    # -- RIPs (Section II) ---------------------------------------------------------
    #: "on average 20 VM instances per application" (Section II).
    mean_rips_per_app: float = 20.0

    # -- DNS / exposure (Section IV-A) -----------------------------------------
    dns_ttl_s: float = 30.0
    ttl_violator_fraction: float = 0.1
    ttl_violation_factor: float = 10.0

    # -- BGP (Section IV-A) -----------------------------------------------------
    bgp_convergence_s: float = 30.0

    # -- control thresholds -------------------------------------------------------
    #: Utilization above which a component counts as overloaded.
    overload_threshold: float = 0.85
    #: Utilization below which a pod may donate servers.
    donor_threshold: float = 0.5
    #: Residual DNS share below which a VIP counts as drained (K2 pause).
    drain_epsilon: float = 0.02
    #: Max seconds K2 waits for a drain before giving up.
    drain_timeout_s: float = 600.0

    # -- fault handling -------------------------------------------------------------
    #: Time between a component dying and the management stack noticing
    #: (health-check interval); every recovery flow starts after this.
    fault_detection_s: float = 10.0
    #: Total time budget for re-homing one VIP off a failed switch before
    #: giving up (bounds the serialized queue's exposure to flapping).
    fault_rehome_timeout_s: float = 120.0
    #: Initial retry backoff of a failed re-home attempt (doubles per try).
    fault_rehome_backoff_s: float = 2.0

    # -- control-plane crash safety (repro.controlplane) ----------------------
    #: Period of the VIP/RIP manager's checkpoint daemon (0 disables
    #: periodic checkpoints; recovery then replays the whole journal).
    checkpoint_interval_s: float = 120.0
    #: Supervisor delay before a crashed manager is restarted.
    manager_restart_s: float = 15.0
    #: Recovery cost charged per replayed journal record.
    journal_replay_s: float = 0.2
    #: Width of the move_vip half-configured window (crash-safe mode only;
    #: 0 keeps the legacy atomic remove+install).
    manager_cutover_s: float = 0.5
    #: Period of the anti-entropy reconciliation pass.
    reconcile_interval_s: float = 30.0

    # -- control-plane sharding (repro.controlplane.sharding) ------------------
    #: Period of the sharded plane's anti-entropy gossip rounds (0 leaves
    #: gossip to explicit ``converge()`` calls).
    shard_gossip_interval_s: float = 30.0

    # -- epochs -------------------------------------------------------------------
    epoch_s: float = 60.0

    # -- hosts ----------------------------------------------------------------------
    server_cpu: float = 1.0
    server_mem_gb: float = 32.0
    slice_adjust_s: float = 2.0

    def __post_init__(self):
        if not 0 < self.overload_threshold <= 1.5:
            raise ValueError("overload_threshold out of range")
        if self.donor_threshold >= self.overload_threshold:
            raise ValueError("donor_threshold must be below overload_threshold")
        if self.epoch_s <= 0:
            raise ValueError("epoch_s must be positive")
        if self.fault_detection_s < 0 or self.fault_rehome_timeout_s <= 0:
            raise ValueError("fault timing parameters out of range")
        if self.checkpoint_interval_s < 0 or self.manager_restart_s < 0:
            raise ValueError("control-plane timing parameters out of range")
        if self.journal_replay_s < 0 or self.manager_cutover_s < 0:
            raise ValueError("control-plane timing parameters out of range")
        if self.reconcile_interval_s <= 0:
            raise ValueError("reconcile_interval_s must be positive")
        if self.shard_gossip_interval_s < 0:
            raise ValueError("shard_gossip_interval_s must be non-negative")
