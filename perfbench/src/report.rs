//! The metrics a run can emit, and the report it prints.
//!
//! Every metric is declared once here with its unit and better-direction;
//! `run.py` checks each emitted name against `BENCHMARK.json` before it
//! prints a result.

use crate::json::Json;

/// Which table of `BENCHMARK.json` a metric belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Printed by untraced runs; bounded.
    EndToEnd,
    /// Printed by traced runs; unbounded.
    Layer,
}

/// `(name, unit, better, kind)` of every metric.
pub const METRICS: &[(&str, &str, &str, Kind)] = &[
    ("setup_s", "s", "lower", Kind::EndToEnd),
    ("latency_p50_ms", "ms", "lower", Kind::EndToEnd),
    ("latency_p90_ms", "ms", "lower", Kind::EndToEnd),
    ("cpu_ms_per_query", "ms", "lower", Kind::EndToEnd),
    ("peak_rss_mb", "MiB", "lower", Kind::EndToEnd),
    ("ok_share", "share", "higher", Kind::EndToEnd),
    ("bfs.generate_s", "s", "lower", Kind::Layer),
    ("bfs.save_s", "s", "lower", Kind::Layer),
    ("bfs.load_ms", "ms", "lower", Kind::Layer),
    ("bfs.store_mb", "MiB", "lower", Kind::Layer),
    ("bfs.classes", "count", "higher", Kind::Layer),
    ("core.search_s", "s", "lower", Kind::Layer),
    ("core.considered", "count", "lower", Kind::Layer),
    ("core.gated", "count", "higher", Kind::Layer),
    ("core.canonicalized", "count", "lower", Kind::Layer),
    ("core.probed", "count", "lower", Kind::Layer),
    ("core.gate_selectivity", "share", "higher", Kind::Layer),
    ("core.ns_per_candidate", "ns", "lower", Kind::Layer),
    ("core.lists_scanned", "count", "lower", Kind::Layer),
    ("perm.compose_ns", "ns", "lower", Kind::Layer),
    ("perm.inverse_ns", "ns", "lower", Kind::Layer),
    ("perm.conjugate_ns", "ns", "lower", Kind::Layer),
    ("canon.canonical_ns", "ns", "lower", Kind::Layer),
    ("table.invariant_key_ns", "ns", "lower", Kind::Layer),
    ("table.admits_ns", "ns", "lower", Kind::Layer),
    ("table.probe_hit_ns", "ns", "lower", Kind::Layer),
    ("table.probe_miss_ns", "ns", "lower", Kind::Layer),
    ("canon.canonicalize_ns", "ns", "lower", Kind::Layer),
    ("canon.replay_ns", "ns", "lower", Kind::Layer),
    ("serve.protocol.decode_ns", "ns", "lower", Kind::Layer),
    ("serve.protocol.encode_ns", "ns", "lower", Kind::Layer),
    ("serve.cache.get_ns", "ns", "lower", Kind::Layer),
    ("serve.server_cpu_ms_per_query", "ms", "lower", Kind::Layer),
    ("serve.client_cpu_ms_per_query", "ms", "lower", Kind::Layer),
    ("serve.hits", "count", "higher", Kind::Layer),
    ("serve.searches", "count", "lower", Kind::Layer),
    ("serve.batches", "count", "lower", Kind::Layer),
    ("serve.max_batch", "count", "lower", Kind::Layer),
    ("serve.coalesced", "count", "higher", Kind::Layer),
    ("serve.shed", "count", "lower", Kind::Layer),
    ("serve.errors", "count", "lower", Kind::Layer),
    ("serve.queue_wait_ms", "ms", "lower", Kind::Layer),
    ("serve.batch_search_ms", "ms", "lower", Kind::Layer),
    ("host.steal_share", "share", "lower", Kind::Layer),
    ("trace.overhead_share", "share", "lower", Kind::Layer),
];

fn spec(name: &str) -> (&'static str, &'static str) {
    METRICS
        .iter()
        .find(|m| m.0 == name)
        .map(|&(_, unit, better, _)| (unit, better))
        .unwrap_or_else(|| panic!("metric {name} is not declared in report::METRICS"))
}

/// One answer check: what was checked, whether it held, and detail.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Everything one run prints.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64)>,
    diagnostics: Vec<(String, Json)>,
    checks: Vec<Check>,
    /// Queries issued in the measured phase(s).
    pub attempted: u64,
    /// Queries whose answer was missing, refused or wrong.
    pub failed: u64,
    /// Fold of the per-query optimal sizes.
    pub digest: u64,
}

impl Report {
    /// Sets a declared metric (panics on an undeclared name: a bug here).
    pub fn set(&mut self, name: &str, value: f64) {
        spec(name);
        match self.metrics.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name.to_string(), value)),
        }
    }

    /// Records a diagnostic: shown in the detailed result, never gated.
    pub fn diag(&mut self, name: &str, value: Json) {
        self.diagnostics.push((name.to_string(), value));
    }

    /// Records an answer check.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        });
    }

    /// Whether every check held and no query failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    /// The full result as one JSON object.
    pub fn to_json(&self, workload: &str, provenance: Json) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let (unit, better) = spec(name);
                (
                    name.clone(),
                    Json::obj([
                        ("value", Json::Num(*value)),
                        ("unit", Json::str(unit)),
                        ("better", Json::str(better)),
                    ]),
                )
            })
            .collect::<Vec<_>>();
        let checks = self
            .checks
            .iter()
            .map(|c| {
                Json::obj([
                    ("name", Json::str(c.name.clone())),
                    ("ok", Json::Bool(c.ok)),
                    ("detail", Json::str(c.detail.clone())),
                ])
            })
            .collect();
        Json::obj([
            ("workload", Json::str(workload)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("digest", Json::str(format!("{:016x}", self.digest))),
            ("metrics", Json::Obj(metrics)),
            ("diagnostics", Json::Obj(self.diagnostics.clone())),
            ("checks", Json::Arr(checks)),
            ("provenance", provenance),
        ])
    }
}

/// FNV-1a fold of optimal sizes, in query order.
pub fn size_digest(sizes: impl IntoIterator<Item = usize>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for s in sizes {
        h ^= s as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        for (i, (name, unit, better, _)) in METRICS.iter().enumerate() {
            assert!(!name.is_empty() && name.len() <= 64, "{name}");
            assert!(
                name.chars().next().unwrap().is_ascii_alphanumeric(),
                "{name}"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(["lower", "higher"].contains(better));
            assert!(
                METRICS[..i].iter().all(|m| m.0 != *name),
                "duplicate {name}"
            );
        }
        assert!(METRICS
            .iter()
            .any(|m| m.0 == "setup_s" && m.1 == "s" && m.2 == "lower"));
    }

    #[test]
    fn failed_queries_or_checks_make_a_run_incorrect() {
        let mut r = Report::default();
        r.set("ok_share", 1.0);
        assert!(r.correct());
        r.check("digest", false, "mismatch");
        assert!(!r.correct());
        let mut r = Report {
            failed: 1,
            ..Report::default()
        };
        r.check("digest", true, "");
        assert!(!r.correct());
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metric_is_a_bug() {
        Report::default().set("no.such_metric", 1.0);
    }

    #[test]
    fn digest_depends_on_order() {
        assert_ne!(size_digest([12, 13]), size_digest([13, 12]));
        assert_eq!(size_digest([12, 13]), size_digest(vec![12, 13]));
    }
}
