//! The deployment-facing **ops plane**: one object bundling a
//! [`MetricSampler`] and a [`HealthMonitor`] over a deployment's
//! telemetry registry, plus terminal-dashboard, JSON, and Prometheus
//! rendering.
//!
//! [`OpsPlane::standard`] installs the default rule set over the
//! aggregate signals the data plane exposes — spill-buffer occupancy,
//! export-retry and failover rates, query errors and completeness,
//! watermark freshness — so an example or test gets a meaningful health
//! model in one call. `tick` runs on *simulated* time: call it once per
//! simulated second (or whatever cadence the sampler is configured for)
//! and the sampler/health pipeline stays deterministic.

use megastream_flow::time::Timestamp;
use megastream_telemetry::{
    BurnSource, HealthMonitor, HealthRule, HealthStatus, MetricSampler, SamplerConfig, Signal,
    Telemetry,
};
use std::sync::Arc;

const SEC: u64 = 1_000_000;

/// The sparkline ramp, dimmest to brightest.
const SPARKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Renders a series of values as a one-line unicode sparkline, scaled to
/// the series' own maximum. Empty input renders as an empty string.
pub fn sparkline<I: IntoIterator<Item = u64>>(values: I) -> String {
    let values: Vec<u64> = values.into_iter().collect();
    let max = values.iter().copied().max().unwrap_or(0);
    values
        .iter()
        .map(|&v| {
            if max == 0 {
                SPARKS[0]
            } else {
                let idx = (v as u128 * (SPARKS.len() as u128 - 1) / max as u128) as usize;
                SPARKS[idx]
            }
        })
        .collect()
}

/// A deployment's ops plane: sampler + health model over one telemetry
/// registry.
#[derive(Debug)]
pub struct OpsPlane {
    sampler: MetricSampler,
    monitor: HealthMonitor,
}

impl OpsPlane {
    /// An ops plane over `tel`'s registry with no rules installed.
    /// `None` when telemetry is disabled (nothing to observe).
    pub fn new(tel: &Telemetry, config: SamplerConfig) -> Option<Self> {
        let registry = tel.registry()?;
        Some(OpsPlane {
            sampler: MetricSampler::new(Arc::clone(registry), config),
            monitor: HealthMonitor::new(),
        })
    }

    /// An ops plane with the default 1 s cadence and the standard rule
    /// set over the aggregate data-plane signals. `None` when telemetry
    /// is disabled.
    pub fn standard(tel: &Telemetry) -> Option<Self> {
        let mut plane = Self::new(tel, SamplerConfig::default())?;
        for rule in standard_rules() {
            plane.monitor.add_rule(rule);
        }
        Some(plane)
    }

    /// Installs an additional health rule.
    pub fn add_rule(&mut self, rule: HealthRule) {
        self.monitor.add_rule(rule);
    }

    /// One ops-plane step at simulated time `now`: records a frame if the
    /// sampler's cadence has elapsed and, on a new frame, re-evaluates
    /// every health rule. Returns whether a frame was recorded.
    pub fn tick(&mut self, now: Timestamp) -> bool {
        let now_micros = now.as_micros();
        if !self.sampler.sample(now_micros) {
            return false;
        }
        self.monitor.evaluate(&self.sampler, now_micros);
        true
    }

    /// [`OpsPlane::tick`] ignoring the cadence gate — records a frame
    /// unconditionally (monotonic stamps still required).
    pub fn force_tick(&mut self, now: Timestamp) {
        let now_micros = now.as_micros();
        self.sampler.force_sample(now_micros);
        self.monitor.evaluate(&self.sampler, now_micros);
    }

    /// The time-series sampler (windowed rates and percentiles).
    pub fn sampler(&self) -> &MetricSampler {
        &self.sampler
    }

    /// The health monitor (rule states and the alert log).
    pub fn health(&self) -> &HealthMonitor {
        &self.monitor
    }

    /// The worst state across every rule.
    pub fn overall(&self) -> HealthStatus {
        self.monitor.overall()
    }

    /// Human-readable health report: states per component/rule plus the
    /// alert log.
    pub fn health_report(&self) -> String {
        self.monitor.render_text()
    }

    /// The health state as JSON (see
    /// [`HealthMonitor::render_json`]).
    pub fn health_json(&self) -> String {
        self.monitor.render_json()
    }

    /// Renders a terminal dashboard: overall health, per-component
    /// states, key windowed rates with sparklines, query latency
    /// percentiles, and the most recent alerts.
    pub fn render_dashboard(&self) -> String {
        let window = 60 * SEC;
        let mut out = String::new();
        out.push_str(&format!(
            "── ops ─ overall: {} ─ frames: {} ─ series: {}\n",
            self.overall(),
            self.sampler.frames(),
            self.sampler.series(),
        ));
        for component in self.monitor.components() {
            out.push_str(&format!(
                "   {:<12} {}\n",
                component,
                self.monitor.component_status(&component)
            ));
        }
        out.push_str("── rates (60 s window, per tick)\n");
        for name in [
            "flowstream.query.total",
            "hierarchy.export.retries_total",
            "hierarchy.spill.spilled_total",
            "hierarchy.spill.flushed_total",
            "replication.failovers_total",
        ] {
            let series = self.sampler.counter_increments(name, window);
            if series.is_empty() {
                continue;
            }
            let rate = self.sampler.counter_rate(name, window).unwrap_or(0.0);
            out.push_str(&format!(
                "   {name:<40} {:>8.2}/s {}\n",
                rate,
                sparkline(series)
            ));
        }
        out.push_str("── gauges\n");
        for name in [
            "hierarchy.spill.buffered_bytes",
            "flowdb.exec.completeness_pct",
            "flowdb.index_bytes",
        ] {
            let series = self.sampler.gauge_series(name, window);
            if series.is_empty() {
                continue;
            }
            let last = self.sampler.gauge_last(name).unwrap_or(0);
            out.push_str(&format!(
                "   {name:<40} {last:>10} {}\n",
                sparkline(series.iter().map(|&v| v.max(0) as u64))
            ));
        }
        out.push_str("── latency (60 s window)\n");
        for name in ["flowstream.query.micros", "flowstream.rotate.micros"] {
            let Some(w) = self.sampler.histogram_window(name, window) else {
                continue;
            };
            if w.count == 0 {
                continue;
            }
            out.push_str(&format!(
                "   {name:<40} n={:<6} p50≤{}µs p95≤{}µs p99≤{}µs\n",
                w.count,
                w.quantile(0.5),
                w.quantile(0.95),
                w.quantile(0.99),
            ));
        }
        let mut slo_lines = String::new();
        for rule in ["latency-burn", "completeness-burn"] {
            if let Some(v) = self.monitor.rule_value(rule) {
                slo_lines.push_str(&format!(
                    "   {rule:<40} {v:>8.2}x {}\n",
                    self.monitor.rule_status(rule)
                ));
            }
        }
        if !slo_lines.is_empty() {
            out.push_str("── slo burn rates (long ∧ short window)\n");
            out.push_str(&slo_lines);
        }
        // Per-store accounted memory, newest value per gauge.
        let mut memory_lines = String::new();
        for name in self.sampler.gauge_names() {
            if !name.starts_with("store.memory.bytes") {
                continue;
            }
            if let Some(last) = self.sampler.gauge_last(&name) {
                memory_lines.push_str(&format!("   {name:<40} {last:>10} B\n"));
            }
        }
        if !memory_lines.is_empty() {
            out.push_str("── store memory (accounted deep bytes)\n");
            out.push_str(&memory_lines);
        }
        let notes = self.monitor.notes();
        if !notes.is_empty() {
            out.push_str("── notes\n");
            for n in notes {
                out.push_str(&format!("   {n}\n"));
            }
        }
        let alerts = self.monitor.alerts();
        if !alerts.is_empty() {
            out.push_str("── alerts (newest last)\n");
            for a in alerts.iter().rev().take(5).rev() {
                out.push_str(&format!("   {a}\n"));
            }
        }
        out
    }
}

/// The default rule set [`OpsPlane::standard`] installs, over the
/// aggregate metric names the data-plane crates record. Rules evaluate
/// as `Healthy` until their metric first appears, so the set is safe to
/// install on any deployment — but a rule whose metric *never* registers
/// surfaces a one-time "signal missing" note in the health report (see
/// [`HealthMonitor::notes`]) rather than staying silently green.
///
/// The set includes two multi-window SLO burn-rate rules
/// ([`Signal::BurnRate`]): `latency-burn` over the end-to-end FlowQL
/// latency histogram and `completeness-burn` over the partial-answer
/// ratio.
pub fn standard_rules() -> Vec<HealthRule> {
    vec![
        // Any spilled bytes mean an uplink is down and data is buffering;
        // half the default 4 MiB spill capacity is critical.
        HealthRule::new(
            "spill-occupancy",
            "hierarchy",
            Signal::GaugeLevel {
                name: "hierarchy.spill.buffered_bytes".into(),
            },
            0.0,
            (2 << 20) as f64,
        ),
        // Sustained export retries: transient faults are being absorbed.
        HealthRule::new(
            "export-retries",
            "hierarchy",
            Signal::CounterRate {
                name: "hierarchy.export.retries_total".into(),
                window_micros: 30 * SEC,
            },
            0.2,
            5.0,
        ),
        // Failing queries and partial answers degrade the query plane.
        HealthRule::new(
            "query-errors",
            "flowdb",
            Signal::CounterRate {
                name: "flowstream.query.errors_total".into(),
                window_micros: 30 * SEC,
            },
            0.2,
            5.0,
        ),
        HealthRule::new(
            "completeness",
            "flowdb",
            Signal::GaugeLevel {
                name: "flowdb.exec.completeness_pct".into(),
            },
            99.0,
            50.0,
        )
        .below(),
        // Owner-down reads served by replicas: availability is holding,
        // but the deployment is running on its spare copies.
        HealthRule::new(
            "failovers",
            "replication",
            Signal::CounterRate {
                name: "replication.failovers_total".into(),
                window_micros: 30 * SEC,
            },
            0.2,
            5.0,
        ),
        // SLO burn rates (multi-window: both the long and the short window
        // must burn, so single blips cannot trip the rule).
        //
        // Latency SLO: 99% of FlowQL round-trips complete within 100 ms.
        // Burn > 2 means the budget drains twice as fast as allowed.
        HealthRule::new(
            "latency-burn",
            "flowdb",
            Signal::BurnRate {
                source: BurnSource::HistogramAbove {
                    name: "flowstream.query.micros".into(),
                    threshold_micros: 100_000,
                },
                objective_pct: 99.0,
                long_window_micros: 60 * SEC,
                short_window_micros: 15 * SEC,
            },
            2.0,
            10.0,
        ),
        // Completeness SLO: 99% of answers complete. An outage turning
        // the standing queries partial burns the budget ~100x and flips
        // the rule Degraded/Critical after the 2-tick hysteresis; the
        // short window clears quickly on recovery.
        HealthRule::new(
            "completeness-burn",
            "flowdb",
            Signal::BurnRate {
                source: BurnSource::CounterRatio {
                    bad: "flowstream.query.partial_total".into(),
                    total: "flowstream.query.total".into(),
                },
                objective_pct: 99.0,
                long_window_micros: 60 * SEC,
                short_window_micros: 15 * SEC,
            },
            2.0,
            10.0,
        ),
        // Disk health of the durable cold tier: recovery quarantining
        // corrupt frames means the disk (or a write path) is flipping
        // bits — any sustained rate is critical. Deployments without a
        // cold tier never register the metric and see only the one-time
        // "signal missing" note.
        HealthRule::new(
            "disk-corruption",
            "storage",
            Signal::CounterRate {
                name: "storage.recovery.corrupt_frames".into(),
                window_micros: 30 * SEC,
            },
            0.0,
            0.1,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flowstream::{Flowstream, FlowstreamConfig};
    use megastream_flow::record::FlowRecord;
    use megastream_flow::time::TimeDelta;
    use megastream_workloads::netflow::{FlowTraceConfig, FlowTraceGenerator};

    #[test]
    fn sparkline_scales_to_max() {
        assert_eq!(sparkline([0, 7]), "▁█");
        assert_eq!(sparkline([0, 0, 0]), "▁▁▁");
        assert_eq!(sparkline([]), "");
        assert_eq!(sparkline([1]), "█");
    }

    #[test]
    fn disabled_telemetry_has_no_ops_plane() {
        assert!(OpsPlane::standard(&Telemetry::disabled()).is_none());
    }

    #[test]
    fn standard_plane_stays_healthy_on_clean_run() {
        let tel = Telemetry::new();
        let mut fs = Flowstream::new(2, 2, FlowstreamConfig::default()).with_telemetry(&tel);
        let mut ops = OpsPlane::standard(&tel).expect("telemetry is enabled");
        let trace: Vec<FlowRecord> = FlowTraceGenerator::new(FlowTraceConfig {
            flows_per_sec: 50.0,
            duration: TimeDelta::from_secs(120),
            ..Default::default()
        })
        .collect();
        for rec in &trace {
            fs.ingest_round_robin(rec);
            ops.tick(rec.ts);
        }
        fs.finish();
        let _ = fs.query("SELECT QUERY FROM ALL WHERE location = \"region-0\"");
        ops.force_tick(Timestamp::from_secs(121));
        assert_eq!(ops.overall(), HealthStatus::Healthy);
        assert!(ops.health().alerts().is_empty());
        assert!(ops.sampler().frames() > 60);
        let dash = ops.render_dashboard();
        assert!(dash.contains("overall: healthy"));
        assert!(dash.contains("flowstream.query.total"));
        let json = ops.health_json();
        assert!(json.contains("\"overall\":\"healthy\""));
        // The export rules read the hierarchy's metrics from the first
        // frame, so a clean run raises no "signal missing" note for them.
        for note in ops.health().notes() {
            assert!(
                !note.contains("spill-occupancy") && !note.contains("export-retries"),
                "{note}"
            );
        }
    }

    #[test]
    fn tick_is_cadence_gated() {
        let tel = Telemetry::new();
        tel.counter("c").inc();
        let mut ops = OpsPlane::standard(&tel).expect("enabled");
        assert!(ops.tick(Timestamp::ZERO));
        assert!(!ops.tick(Timestamp::from_micros(10)));
        assert!(ops.tick(Timestamp::from_secs(1)));
        assert_eq!(ops.sampler().frames(), 2);
        assert_eq!(ops.health().evaluations(), 2);
    }
}
