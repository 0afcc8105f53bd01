//! The metric catalogue and the result document every run prints.

use sthsl_obs::Json;

/// End-to-end metrics: every untraced run of every workload prints each of
/// these, as `(name, unit)`. The set and the units are mirrored in
/// `BENCHMARK.json` (checked by a test).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("throughput_rps", "1/s"),
    ("goodput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
];

/// Tensor op families given their own per-layer rows, and whether the cost
/// model charges them FLOPs (it charges data movement none, so a GFLOP/s
/// row for `permute` or `reshape` would read 0 by definition).
pub const TENSOR_OPS: &[(&str, bool)] = &[
    ("sparse_matmul", true),
    ("conv2d", true),
    ("conv1d", true),
    ("matmul", true),
    ("leaky_relu", true),
    ("dropout", true),
    ("permute", false),
    ("reshape", false),
];

/// Encoders probed one at a time through their public constructors.
pub const ENCODERS: &[&str] =
    &["embedding", "local", "hypergraph", "global_temporal", "infomax", "contrastive", "predict"];

/// Per-layer metrics: every traced run prints each of these, as
/// `(name, unit)`; a traced run probes the layers its workload does not
/// drive (see README).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut push = |name: &str, unit: &'static str| out.push((name.to_string(), unit));
    for (name, unit) in [
        ("trainer.step_ms", "ms"),
        ("trainer.step_tail_ms", "ms"),
        ("trainer.step_residual_ms", "ms"),
        ("trainer.epoch_overhead_ms", "ms"),
        ("trainer.steps", "count"),
        ("graphcheck.train_audit_ms", "ms"),
        ("graphcheck.serve_audit_ms", "ms"),
        ("serve.startup.load_ms", "ms"),
        ("autograd.forward_ms", "ms"),
        ("autograd.backward_ms", "ms"),
        ("autograd.tape_nodes", "count"),
    ] {
        push(name, unit);
    }
    for enc in ENCODERS {
        push(&format!("core.{enc}.fwd_ms"), "ms");
        push(&format!("core.{enc}.bwd_ms"), "ms");
    }
    for &(op, has_flops) in TENSOR_OPS {
        push(&format!("tensor.{op}.ms"), "ms");
        if has_flops {
            push(&format!("tensor.{op}.gflops"), "GFLOP/s");
        }
    }
    for (name, unit) in [
        ("tensor.total_gflops", "GFLOP/s"),
        ("data.sample_us", "us"),
        ("core.evaluate_s", "s"),
        ("serve.server_p50_ms", "ms"),
        ("serve.server_p99_ms", "ms"),
        ("serve.accept_wait_ms", "ms"),
        ("serve.requests_per_batch", "count"),
        ("serve.forwards_per_request", "count"),
        ("serve.windows_per_forward", "count"),
        ("serve.cache.hit_rate", "fraction"),
        ("serve.cache.evictions", "count"),
        ("serve.engine.forecast_ms", "ms"),
        ("core.predict_batch.b1_ms", "ms"),
        ("core.predict_batch.bn_ms_per_window", "ms"),
        ("serve.cache.get_us", "us"),
        ("serve.cache.insert_us", "us"),
        ("serve.http.read_us", "us"),
        ("serve.http.write_us", "us"),
        ("trace.overhead_ms", "ms"),
        ("trace.spans", "count"),
    ] {
        push(name, unit);
    }
    out
}

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
    /// How many samples the value summarises (1 for a single measurement).
    pub samples: usize,
    /// Free-form qualifier printed next to the value, e.g. the percentile
    /// the tail rule picked.
    pub note: String,
}

impl Metric {
    pub fn new(name: &str, unit: &str, value: f64, samples: usize) -> Self {
        Metric { name: name.into(), unit: unit.into(), value, samples, note: String::new() }
    }

    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Figures printed in their own table but left out of the result
    /// document, so no bound applies to them (see README).
    pub reported: Vec<Metric>,
    /// Counters and context printed in the report but not gated.
    pub info: Vec<(String, Json)>,
    /// Why the run is not correct, one line each.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn info(&mut self, key: &str, value: Json) {
        self.info.push((key.to_string(), value));
    }

    pub fn fail(&mut self, why: impl Into<String>) {
        self.correct = false;
        self.problems.push(why.into());
    }
}

/// Render the human-readable metric table.
pub fn render_table(metrics: &[Metric]) -> String {
    let mut out = String::new();
    for m in metrics {
        let note = if m.note.is_empty() { String::new() } else { format!("  ({})", m.note) };
        out.push_str(&format!(
            "  {:<40} {:>14.6} {:<8} n={}{}\n",
            m.name, m.value, m.unit, m.samples, note
        ));
    }
    out
}

/// The result document: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric as `{"value": v, "unit": u}`.
pub fn result_json(outcome: &Outcome) -> Json {
    let as_int = |v: u64| Json::Int(i64::try_from(v).unwrap_or(i64::MAX));
    Json::Obj(vec![
        ("correct".into(), Json::Bool(outcome.correct)),
        ("attempted".into(), as_int(outcome.attempted)),
        ("failed".into(), as_int(outcome.failed)),
        (
            "metrics".into(),
            Json::Obj(
                outcome
                    .metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.clone(),
                            Json::Obj(vec![
                                ("value".into(), Json::Float(m.value)),
                                ("unit".into(), Json::Str(m.unit.clone())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Check that `metrics` holds exactly the catalogue `want`, each once, with
/// its unit and a finite value. Returns the first discrepancy.
pub fn check_catalogue(metrics: &[Metric], want: &[(String, &str)]) -> Result<(), String> {
    for (name, unit) in want {
        let found: Vec<&Metric> = metrics.iter().filter(|m| &m.name == name).collect();
        match found.as_slice() {
            [m] if m.unit == *unit && m.value.is_finite() => {}
            [m] => return Err(format!("metric {name}: unit {} value {}", m.unit, m.value)),
            [] => return Err(format!("metric {name} missing")),
            _ => return Err(format!("metric {name} reported {} times", found.len())),
        }
    }
    if let Some(extra) = metrics.iter().find(|m| !want.iter().any(|(n, _)| *n == m.name)) {
        return Err(format!("metric {} is not in the catalogue", extra.name));
    }
    Ok(())
}

/// `END_TO_END` in the shape [`check_catalogue`] takes.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        sthsl_obs::parse_json(&text).expect("BENCHMARK.json parses")
    }

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field =
                    |k: &str| m.get(k).and_then(Json::as_str).expect("name/unit").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_manifest() {
        let doc = manifest();
        let want_e2e: Vec<(String, String)> =
            END_TO_END.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(listed(&doc, "end_to_end"), want_e2e);
        let want_layer: Vec<(String, String)> =
            per_layer().into_iter().map(|(n, u)| (n, u.to_string())).collect();
        assert_eq!(listed(&doc, "per_layer"), want_layer);
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn catalogue_names_are_unique() {
        let layer = per_layer();
        let mut names: Vec<&str> = END_TO_END.iter().map(|&(n, _)| n).collect();
        names.extend(layer.iter().map(|(n, _)| n.as_str()));
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
    }

    #[test]
    fn check_catalogue_flags_missing_extra_and_wrong_unit() {
        let want = end_to_end();
        let full: Vec<Metric> =
            END_TO_END.iter().map(|&(n, u)| Metric::new(n, u, 1.5, 1)).collect();
        assert_eq!(check_catalogue(&full, &want), Ok(()));
        assert!(check_catalogue(&full[1..], &want).unwrap_err().contains("missing"));
        let mut extra = full.clone();
        extra.push(Metric::new("bogus", "s", 1.0, 1));
        assert!(check_catalogue(&extra, &want).unwrap_err().contains("bogus"));
        let mut wrong = full.clone();
        wrong[0].unit = "ms".into();
        assert!(check_catalogue(&wrong, &want).is_err());
        let mut nan = full;
        nan[0].value = f64::NAN;
        assert!(check_catalogue(&nan, &want).is_err());
    }

    #[test]
    fn result_document_parses_with_exactly_the_four_keys() {
        let outcome = Outcome {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: END_TO_END.iter().map(|&(n, u)| Metric::new(n, u, 0.123_456_789, 3)).collect(),
            ..Outcome::default()
        };
        let line = result_json(&outcome).render();
        assert!(!line.contains('\n'));
        let doc = sthsl_obs::parse_json(&line).expect("result line parses");
        let keys: Vec<&str> =
            doc.as_obj().expect("object").iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(12));
        let metrics = doc.get("metrics").expect("metrics");
        for &(name, unit) in END_TO_END {
            let m = metrics.get(name).expect("every metric present");
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit));
            assert_eq!(m.get("value").and_then(Json::as_f64), Some(0.123_456_789));
        }
    }
}
