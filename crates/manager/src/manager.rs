//! The manager façade: "the manager controls all components of the
//! architecture."

use megastream_datastore::DataStore;
use megastream_replication::policy::ReplicationPolicy;
use megastream_telemetry::Telemetry;

use crate::placement::PlacementPlan;
use crate::replication_ctl::ReplicationController;
use crate::requirements::{AppRequirement, RequirementRegistry};
use crate::resources::ResourceTracker;

/// The control plane of one deployment (Fig. 3b).
#[derive(Debug)]
pub struct Manager {
    requirements: RequirementRegistry,
    resources: ResourceTracker,
    replication: ReplicationController,
    tel: Telemetry,
}

impl Manager {
    /// Creates a manager with the given replication policy.
    pub fn new(replication_policy: ReplicationPolicy) -> Self {
        Manager {
            requirements: RequirementRegistry::new(),
            resources: ResourceTracker::new(),
            replication: ReplicationController::new(replication_policy),
            tel: Telemetry::disabled(),
        }
    }

    /// Connects the control plane to a telemetry handle: placement
    /// decisions are counted under `manager.placement.*`, control ticks
    /// under `manager.ticks_total`, and the replication controller records
    /// its `replication.*` families. Placement installation is a
    /// `manager.plan_and_install` trace (one `manager.install` scope per
    /// store touched) and the controller traces its access/replicate
    /// decisions.
    pub fn set_telemetry(&mut self, tel: &Telemetry) {
        self.tel = tel.clone();
        self.replication.set_telemetry(tel);
    }

    /// Registers an application requirement ("app. reqs" in Fig. 3b).
    pub fn register_requirement(&mut self, req: AppRequirement) {
        self.requirements.register(req);
    }

    /// Removes every requirement of an application.
    pub fn unregister_app(&mut self, app: &str) -> usize {
        self.requirements.unregister_app(app)
    }

    /// The requirement registry.
    pub fn requirements(&self) -> &RequirementRegistry {
        &self.requirements
    }

    /// Derives the current placement plan (decisions (a)–(c)).
    pub fn plan(&self) -> PlacementPlan {
        PlacementPlan::derive(&self.requirements)
    }

    /// Plans and (re)installs aggregators on the given stores. The plan is
    /// authoritative over the stores passed in: a store no requirement
    /// targets has all aggregators removed. Returns the number of
    /// aggregators installed in total.
    pub fn plan_and_install(&self, stores: &mut [&mut DataStore]) -> usize {
        let plan = self.plan();
        self.tel.counter("manager.placement.plans_total").inc();
        let mut root = self.tel.root("manager.plan_and_install");
        let mut cleared = 0u64;
        let installed: usize = stores
            .iter_mut()
            .map(|s| {
                let mut scope = self.tel.scope("manager.install");
                let n = if plan.installs.contains_key(s.name()) {
                    plan.apply_to(s)
                } else {
                    for id in s.aggregator_ids() {
                        s.remove_aggregator(id);
                    }
                    cleared += 1;
                    0
                };
                scope.annotate("store", s.name());
                scope.add_records(n as u64);
                n
            })
            .sum();
        root.annotate("installed", installed);
        root.annotate("cleared", cleared);
        self.tel
            .counter("manager.placement.installs_total")
            .add(installed as u64);
        self.tel
            .counter("manager.placement.stores_cleared_total")
            .add(cleared);
        installed
    }

    /// Resource tracking (mutable, for setting budgets).
    pub fn resources_mut(&mut self) -> &mut ResourceTracker {
        &mut self.resources
    }

    /// Resource tracking (read).
    pub fn resources(&self) -> &ResourceTracker {
        &self.resources
    }

    /// The replication controller (mutable, for registering partitions and
    /// recording accesses).
    pub fn replication_mut(&mut self) -> &mut ReplicationController {
        &mut self.replication
    }

    /// The replication controller (read).
    pub fn replication(&self) -> &ReplicationController {
        &self.replication
    }

    /// One control-plane tick: observes each store and lets its
    /// aggregators adapt within budget ("resource status" → "change
    /// parameter" in Fig. 3b).
    pub fn tick(&mut self, stores: &mut [&mut DataStore], ingest_rates: &[f64]) {
        self.tel.counter("manager.ticks_total").inc();
        for (store, rate) in stores.iter_mut().zip(ingest_rates.iter()) {
            self.resources.observe_store(store, *rate);
            self.resources.adapt(store);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::requirements::AggregationFormat;
    use megastream_datastore::StorageStrategy;
    use megastream_flow::record::FlowRecord;
    use megastream_flow::time::{TimeDelta, Timestamp};

    fn store(name: &str) -> DataStore {
        DataStore::new(
            name,
            StorageStrategy::RoundRobin {
                budget_bytes: 1 << 20,
            },
            TimeDelta::from_secs(60),
        )
    }

    #[test]
    fn end_to_end_plan_install_adapt() {
        let mut mgr = Manager::new(ReplicationPolicy::BreakEven { factor: 1.0 });
        mgr.register_requirement(AppRequirement {
            app: "traffic-matrix".into(),
            store: "region-0".into(),
            streams: vec![],
            format: AggregationFormat::Flowtree,
            precision: 1.0,
            timeliness: TimeDelta::from_secs(60),
        });
        mgr.register_requirement(AppRequirement {
            app: "billing".into(),
            store: "region-0".into(),
            streams: vec![],
            format: AggregationFormat::TopFlows,
            precision: 0.5,
            timeliness: TimeDelta::from_mins(5),
        });
        let mut s = store("region-0");
        let installed = mgr.plan_and_install(&mut [&mut s]);
        assert_eq!(installed, 2);
        assert_eq!(s.aggregator_count(), 2);

        // Feed data, then tick with a tight budget: the store must shrink.
        for i in 0..2_000u32 {
            s.ingest_flow(
                &"r0".into(),
                &FlowRecord::builder()
                    .proto(6)
                    .src(format!("10.{}.{}.9", i % 8, i % 250).parse().unwrap(), 1)
                    .dst("1.1.1.1".parse().unwrap(), 2)
                    .packets(1)
                    .build(),
                Timestamp::ZERO,
            );
        }
        let used = s.footprint_bytes();
        mgr.resources_mut()
            .set_storage_budget("region-0", used / 10);
        mgr.tick(&mut [&mut s], &[2_000.0]);
        assert!(s.footprint_bytes() < used);
    }

    #[test]
    fn unregister_shrinks_plan() {
        let mut mgr = Manager::new(ReplicationPolicy::Never);
        mgr.register_requirement(AppRequirement {
            app: "a".into(),
            store: "s".into(),
            streams: vec![],
            format: AggregationFormat::Sample,
            precision: 0.5,
            timeliness: TimeDelta::from_secs(1),
        });
        assert_eq!(mgr.plan().total_installs(), 1);
        assert_eq!(mgr.unregister_app("a"), 1);
        assert_eq!(mgr.plan().total_installs(), 0);
        assert!(mgr.requirements().is_empty());
    }
}
