//! The adaptive-replication control loop (paper §VII, Fig. 6).
//!
//! The manager records partition accesses (①), predicts future accesses
//! (②), and when the prediction exceeds the threshold initiates
//! replication (③), which executes between the two data stores over the
//! simulated network (④).

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use megastream_flow::time::Timestamp;
use megastream_netsim::topology::{Network, NodeId, TransferError};
use megastream_replication::policy::ReplicationPolicy;
use megastream_replication::tracker::AccessTracker;
use megastream_telemetry::{Scope, Telemetry};

/// Why [`ReplicationController::on_access`] could not serve an access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessError {
    /// The partition id was never registered with the controller.
    UnknownPartition(usize),
    /// Neither the owner nor any replica could ship the result: every
    /// candidate source was down or unreachable at access time.
    NoAvailableSource {
        /// The partition whose sources were all unavailable.
        partition: usize,
        /// The error from the last source tried, if any transfer was
        /// attempted at all.
        last_error: Option<TransferError>,
    },
    /// A network transfer failed with a non-recoverable routing error.
    Transfer(TransferError),
}

impl fmt::Display for AccessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessError::UnknownPartition(p) => {
                write!(f, "partition {p} was never registered")
            }
            AccessError::NoAvailableSource {
                partition,
                last_error,
            } => {
                write!(f, "no available source for partition {partition}")?;
                if let Some(e) = last_error {
                    write!(f, " (last error: {e})")?;
                }
                Ok(())
            }
            AccessError::Transfer(e) => write!(f, "access transfer failed: {e}"),
        }
    }
}

impl Error for AccessError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AccessError::Transfer(e) => Some(e),
            AccessError::NoAvailableSource {
                last_error: Some(e),
                ..
            } => Some(e),
            _ => None,
        }
    }
}

/// A partition registered with the controller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionInfo {
    /// Node hosting the authoritative copy.
    pub owner: NodeId,
    /// Bytes a replication transfer moves.
    pub size_bytes: u64,
    /// Nodes holding replicas.
    pub replicas: Vec<NodeId>,
}

/// A replication the controller decided to start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicationOrder {
    /// Which partition.
    pub partition: usize,
    /// From the owner…
    pub from: NodeId,
    /// …to the accessing store.
    pub to: NodeId,
    /// Transfer volume.
    pub bytes: u64,
}

/// The manager's replication controller.
#[derive(Debug, Clone)]
pub struct ReplicationController {
    policy: ReplicationPolicy,
    tracker: AccessTracker,
    partitions: Vec<PartitionInfo>,
    /// (accessor node, partition) pairs served locally.
    local_hits: u64,
    remote_hits: u64,
    shipped_bytes: u64,
    replication_bytes: u64,
    orders: Vec<ReplicationOrder>,
    /// Per-accessor tracking: a replica helps only the node that has it.
    replica_index: HashMap<(usize, NodeId), bool>,
    /// Reads served by a surviving replica because the owner was down.
    failovers: u64,
    /// Replica placements skipped because the target or transfer was
    /// unavailable (the read itself still succeeded).
    placements_skipped: u64,
    tel: Telemetry,
}

impl ReplicationController {
    /// Creates a controller running `policy`.
    pub fn new(policy: ReplicationPolicy) -> Self {
        ReplicationController {
            policy,
            tracker: AccessTracker::new(0),
            partitions: Vec::new(),
            local_hits: 0,
            remote_hits: 0,
            shipped_bytes: 0,
            replication_bytes: 0,
            orders: Vec::new(),
            replica_index: HashMap::new(),
            failovers: 0,
            placements_skipped: 0,
            tel: Telemetry::disabled(),
        }
    }

    /// Connects the controller (and its access tracker) to a telemetry
    /// handle: hit/miss counters, shipped and replication volumes, and
    /// replica churn are recorded under `replication.*`. Every remote
    /// access is a `replication.access` trace — a `replication.ship` scope
    /// for the result transfer and, when the policy fires, a
    /// `replication.replicate` scope stamping the placement decision
    /// (partition, source, destination, volume).
    pub fn set_telemetry(&mut self, tel: &Telemetry) {
        self.tel = tel.clone();
        self.tracker.set_telemetry(tel);
    }

    /// Registers a partition; returns its id.
    pub fn register_partition(&mut self, owner: NodeId, size_bytes: u64) -> usize {
        self.partitions.push(PartitionInfo {
            owner,
            size_bytes,
            replicas: Vec::new(),
        });
        self.tracker = {
            let mut t = AccessTracker::new(self.partitions.len());
            t.seed_history(self.tracker.history().iter().copied());
            t.set_telemetry(&self.tel);
            // Preserve nothing else: registration happens before replay.
            t
        };
        self.partitions.len() - 1
    }

    /// Seeds the volume history used by the distribution-aware policy.
    pub fn seed_history(&mut self, volumes: impl IntoIterator<Item = u64>) {
        self.tracker.seed_history(volumes);
    }

    /// Records that `accessor` queried `partition`, shipping
    /// `result_bytes` if remote. Executes the query transfer on `network`
    /// and, if the policy says so, the replication transfer (Fig. 6 ③④).
    ///
    /// Reads tolerate partial failure: when the owner is down or the
    /// transfer from it fails, the controller fails the read over to the
    /// first surviving replica (in placement order). Replica placement is
    /// best-effort — a placement whose target node is down or whose
    /// transfer hits a transient fault is skipped (the read already
    /// succeeded), never retried within the same access.
    ///
    /// Returns the replication order if one was issued.
    ///
    /// # Errors
    ///
    /// Returns [`AccessError::UnknownPartition`] for an unregistered
    /// partition id, [`AccessError::NoAvailableSource`] when no source
    /// (owner or replica) could ship the result, and
    /// [`AccessError::Transfer`] when the replication transfer fails with
    /// a non-transient routing error.
    pub fn on_access(
        &mut self,
        partition: usize,
        accessor: NodeId,
        result_bytes: u64,
        network: &mut Network,
        now: Timestamp,
    ) -> Result<Option<ReplicationOrder>, AccessError> {
        let info = self
            .partitions
            .get(partition)
            .cloned()
            .ok_or(AccessError::UnknownPartition(partition))?;
        let has_replica = *self
            .replica_index
            .get(&(partition, accessor))
            .unwrap_or(&false)
            || info.owner == accessor;
        if has_replica {
            self.local_hits += 1;
            self.tel.counter("replication.local_hits_total").inc();
            return Ok(None);
        }
        self.remote_hits += 1;
        self.shipped_bytes += result_bytes;
        self.tel.counter("replication.remote_hits_total").inc();
        self.tel
            .counter("replication.shipped_bytes_total")
            .add(result_bytes);
        // Records on drop, so every remote return path (failover, error)
        // lands in `replication.access.micros`.
        let mut access = self.tel.root("replication.access");
        access.annotate("partition", partition);
        access.annotate("accessor", accessor);
        // Candidate sources in preference order: the owner, then every
        // replica (any copy can serve a read).
        let mut sources = vec![info.owner];
        sources.extend(
            info.replicas
                .iter()
                .copied()
                .filter(|r| *r != accessor && *r != info.owner),
        );
        let mut served_by = None;
        let mut last_error = None;
        for source in sources {
            if !network.node_up(source, now) {
                last_error = Some(TransferError::NodeDown(source));
                continue;
            }
            let mut ship = self.tel.scope("replication.ship");
            ship.annotate("source", source);
            ship.add_bytes(result_bytes);
            match network.transfer(source, accessor, result_bytes, now) {
                Ok(_) => {
                    if source != info.owner {
                        self.failovers += 1;
                        self.tel.counter("replication.failovers_total").inc();
                        access.annotate("failover", source);
                    }
                    served_by = Some(source);
                    break;
                }
                Err(e) => {
                    ship.annotate("error", &e);
                    last_error = Some(e);
                }
            }
        }
        let Some(served_by) = served_by else {
            return Err(AccessError::NoAvailableSource {
                partition,
                last_error,
            });
        };
        let state = self.tracker.record_access(partition, result_bytes, now);
        if self
            .policy
            .should_replicate(partition, state, info.size_bytes, self.tracker.history())
        {
            // Placement is best-effort: the read already succeeded, so a
            // down target or a transient transfer fault skips the replica
            // instead of failing the access.
            if !network.node_up(accessor, now) {
                self.skip_placement(&mut access, "target node down");
                return Ok(None);
            }
            let mut replicate = self.tel.scope("replication.replicate");
            replicate.annotate("from", served_by);
            replicate.annotate("to", accessor);
            replicate.add_bytes(info.size_bytes);
            match network.transfer(served_by, accessor, info.size_bytes, now) {
                Ok(_) => {}
                Err(e) if e.is_transient() => {
                    replicate.annotate("error", &e);
                    drop(replicate);
                    self.skip_placement(&mut access, &e.to_string());
                    return Ok(None);
                }
                Err(e) => return Err(AccessError::Transfer(e)),
            }
            self.tracker.mark_replicated(partition);
            self.replication_bytes += info.size_bytes;
            self.tel
                .counter("replication.replication_bytes_total")
                .add(info.size_bytes);
            self.replica_index.insert((partition, accessor), true);
            self.partitions[partition].replicas.push(accessor);
            self.tel.gauge("replication.replicas").set(
                self.partitions
                    .iter()
                    .map(|p| p.replicas.len())
                    .sum::<usize>() as i64,
            );
            let order = ReplicationOrder {
                partition,
                from: served_by,
                to: accessor,
                bytes: info.size_bytes,
            };
            self.orders.push(order);
            return Ok(Some(order));
        }
        Ok(None)
    }

    fn skip_placement(&mut self, access: &mut Scope, why: &str) {
        self.placements_skipped += 1;
        self.tel
            .counter("replication.placement_skipped_total")
            .inc();
        access.annotate("placement_skipped", why);
    }

    /// Replication orders issued so far.
    pub fn orders(&self) -> &[ReplicationOrder] {
        &self.orders
    }

    /// Accesses answered from a local replica.
    pub fn local_hits(&self) -> u64 {
        self.local_hits
    }

    /// Accesses that shipped results remotely.
    pub fn remote_hits(&self) -> u64 {
        self.remote_hits
    }

    /// Bytes shipped for remote query results.
    pub fn shipped_bytes(&self) -> u64 {
        self.shipped_bytes
    }

    /// Bytes spent on replication transfers.
    pub fn replication_bytes(&self) -> u64 {
        self.replication_bytes
    }

    /// Reads served by a surviving replica because the owner was
    /// unavailable.
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// Replica placements skipped because the target or the transfer was
    /// unavailable at placement time.
    pub fn placements_skipped(&self) -> u64 {
        self.placements_skipped
    }

    /// The policy in force.
    pub fn policy(&self) -> &ReplicationPolicy {
        &self.policy
    }

    /// Deterministic logical memory of the controller's bookkeeping,
    /// following the accounting-plane convention (a pure function of
    /// element counts, never allocator capacities): the access tracker,
    /// the partition table with its replica lists, the order log, and
    /// the replica index. The unbounded parts — retirement history,
    /// order log, replica index — are exactly what an operator watching
    /// a long-lived manager needs to see grow.
    pub fn deep_bytes(&self) -> usize {
        let replicas: usize = self
            .partitions
            .iter()
            .map(|p| p.replicas.len() * std::mem::size_of::<NodeId>())
            .sum();
        self.tracker.deep_bytes()
            + self.partitions.len() * std::mem::size_of::<PartitionInfo>()
            + replicas
            + self.orders.len() * std::mem::size_of::<ReplicationOrder>()
            + self.replica_index.len()
                * (std::mem::size_of::<(usize, NodeId)>() + std::mem::size_of::<bool>())
            + std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use megastream_netsim::topology::{LinkSpec, NodeKind};

    fn setup() -> (Network, NodeId, NodeId) {
        let mut net = Network::new();
        let owner = net.add_node("owner", NodeKind::DataStore);
        let remote = net.add_node("remote", NodeKind::DataStore);
        net.connect(owner, remote, LinkSpec::wan_100m());
        (net, owner, remote)
    }

    #[test]
    fn deep_bytes_tracks_bookkeeping_growth() {
        let (mut net, owner, remote) = setup();
        let mut ctl = ReplicationController::new(ReplicationPolicy::Always);
        let empty = ctl.deep_bytes();
        let p = ctl.register_partition(owner, 1_000);
        let registered = ctl.deep_bytes();
        assert!(registered > empty, "partition table must be accounted");
        ctl.on_access(p, remote, 300, &mut net, Timestamp::ZERO)
            .unwrap();
        // The replica list, the order log, and the replica index all grew.
        assert!(ctl.deep_bytes() > registered);
        // Pure function of counts: a clone agrees exactly.
        assert_eq!(ctl.clone().deep_bytes(), ctl.deep_bytes());
    }

    #[test]
    fn break_even_loop_replicates_after_threshold() {
        let (mut net, owner, remote) = setup();
        let mut ctl = ReplicationController::new(ReplicationPolicy::BreakEven { factor: 1.0 });
        let p = ctl.register_partition(owner, 1_000);
        let mut order_at = None;
        for i in 0..10u64 {
            let order = ctl
                .on_access(p, remote, 300, &mut net, Timestamp::from_secs(i))
                .unwrap();
            if order.is_some() && order_at.is_none() {
                order_at = Some(i);
            }
        }
        // 300+300+300 = 900 < 1000; fourth access crosses 1200 ≥ 1000.
        assert_eq!(order_at, Some(3));
        assert_eq!(ctl.remote_hits(), 4);
        assert_eq!(ctl.local_hits(), 6);
        assert_eq!(ctl.shipped_bytes(), 1_200);
        assert_eq!(ctl.replication_bytes(), 1_000);
        assert_eq!(ctl.orders().len(), 1);
        // Network accounted both query results and the replica transfer.
        assert_eq!(net.total_bytes(), 1_200 + 1_000);
    }

    #[test]
    fn owner_access_is_always_local() {
        let (mut net, owner, _) = setup();
        let mut ctl = ReplicationController::new(ReplicationPolicy::Always);
        let p = ctl.register_partition(owner, 1_000);
        let order = ctl
            .on_access(p, owner, 500, &mut net, Timestamp::ZERO)
            .unwrap();
        assert!(order.is_none());
        assert_eq!(ctl.local_hits(), 1);
        assert_eq!(net.total_bytes(), 0);
    }

    #[test]
    fn never_policy_keeps_shipping() {
        let (mut net, owner, remote) = setup();
        let mut ctl = ReplicationController::new(ReplicationPolicy::Never);
        let p = ctl.register_partition(owner, 10);
        for i in 0..5u64 {
            assert!(ctl
                .on_access(p, remote, 100, &mut net, Timestamp::from_secs(i))
                .unwrap()
                .is_none());
        }
        assert_eq!(ctl.shipped_bytes(), 500);
        assert_eq!(ctl.replication_bytes(), 0);
    }

    #[test]
    fn replication_failure_propagates() {
        let mut net = Network::new();
        let owner = net.add_node("owner", NodeKind::DataStore);
        let island = net.add_node("island", NodeKind::DataStore);
        let mut ctl = ReplicationController::new(ReplicationPolicy::Always);
        let p = ctl.register_partition(owner, 10);
        let err = ctl.on_access(p, island, 100, &mut net, Timestamp::ZERO);
        assert!(err.is_err());
    }

    #[test]
    fn unknown_partition_is_an_error_not_a_panic() {
        let (mut net, _, remote) = setup();
        let mut ctl = ReplicationController::new(ReplicationPolicy::Always);
        let err = ctl
            .on_access(7, remote, 100, &mut net, Timestamp::ZERO)
            .unwrap_err();
        assert_eq!(err, AccessError::UnknownPartition(7));
    }

    #[test]
    fn read_fails_over_to_surviving_replica() {
        use megastream_netsim::FaultPlan;
        let mut net = Network::new();
        let owner = net.add_node("owner", NodeKind::DataStore);
        let replica = net.add_node("replica", NodeKind::DataStore);
        let reader = net.add_node("reader", NodeKind::DataStore);
        net.connect(owner, replica, LinkSpec::wan_100m());
        net.connect(owner, reader, LinkSpec::wan_100m());
        net.connect(replica, reader, LinkSpec::wan_100m());

        let mut ctl = ReplicationController::new(ReplicationPolicy::Always);
        let p = ctl.register_partition(owner, 1_000);
        // First access from the replica node places a copy there.
        let order = ctl
            .on_access(p, replica, 100, &mut net, Timestamp::ZERO)
            .unwrap()
            .expect("Always policy replicates on first remote access");
        assert_eq!(order.to, replica);

        // Owner goes down; a read from `reader` must be served by the
        // replica instead of failing.
        let mut plan = FaultPlan::seeded(1);
        plan.node_down(owner, Timestamp::from_secs(5), Timestamp::from_secs(50));
        net.install_faults(plan);
        let result = ctl.on_access(p, reader, 100, &mut net, Timestamp::from_secs(10));
        // The read succeeded via failover (the partition is already
        // replicated, so no new order is issued).
        assert!(result.unwrap().is_none());
        assert_eq!(ctl.failovers(), 1);
        assert_eq!(ctl.remote_hits(), 2);
    }

    #[test]
    fn lossy_placement_is_skipped_but_read_succeeds() {
        use megastream_netsim::FaultPlan;
        let (mut net, owner, remote) = setup();
        let mut ctl = ReplicationController::new(ReplicationPolicy::Always);
        let p = ctl.register_partition(owner, 1_000);
        // Seed 9 draws (delivered, lost) for the first two transfers on
        // this link: the result ship succeeds, the replication transfer
        // is lost, and the controller must skip the placement instead of
        // failing the already-served read.
        let mut plan = FaultPlan::seeded(9);
        plan.link_loss(owner, remote, 0.5);
        net.install_faults(plan);
        let result = ctl.on_access(p, remote, 100, &mut net, Timestamp::ZERO);
        assert!(result.unwrap().is_none());
        assert_eq!(ctl.placements_skipped(), 1);
        assert_eq!(ctl.replication_bytes(), 0);
        assert!(ctl.orders().is_empty());
        // Once the loss clears, the next access can still replicate: the
        // skipped placement did not mark the tracker.
        net.clear_faults();
        let order = ctl
            .on_access(p, remote, 100, &mut net, Timestamp::from_secs(1))
            .unwrap();
        assert!(order.is_some());
        assert_eq!(ctl.replication_bytes(), 1_000);
    }

    #[test]
    fn total_loss_reports_no_available_source() {
        use megastream_netsim::FaultPlan;
        let (mut net, owner, remote) = setup();
        let mut ctl = ReplicationController::new(ReplicationPolicy::Always);
        let p = ctl.register_partition(owner, 1_000);
        let mut plan = FaultPlan::seeded(2);
        plan.link_loss(owner, remote, 1.0);
        net.install_faults(plan);
        let result = ctl.on_access(p, remote, 100, &mut net, Timestamp::ZERO);
        // Total loss kills the read itself: every source transfer fails.
        assert!(matches!(result, Err(AccessError::NoAvailableSource { .. })));
    }

    #[test]
    fn all_sources_down_reports_no_available_source() {
        use megastream_netsim::FaultPlan;
        let (mut net, owner, remote) = setup();
        let mut ctl = ReplicationController::new(ReplicationPolicy::Never);
        let p = ctl.register_partition(owner, 1_000);
        let mut plan = FaultPlan::seeded(3);
        plan.node_down(owner, Timestamp::ZERO, Timestamp::from_secs(100));
        net.install_faults(plan);
        let err = ctl
            .on_access(p, remote, 100, &mut net, Timestamp::from_secs(1))
            .unwrap_err();
        assert_eq!(
            err,
            AccessError::NoAvailableSource {
                partition: p,
                last_error: Some(TransferError::NodeDown(owner)),
            }
        );
    }
}
