//! The run's output: one JSON context line, then the result line the
//! benchmark contract asks for (`correct`, `attempted`, `failed`, `metrics`).
//! Both are `serde::Value` trees rendered by `serde_json`.

use serde::{Serialize, Value};

/// An object from key/value pairs, keeping their order.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Compact JSON text of a value tree.
pub fn render(v: &Value) -> String {
    struct Tree<'a>(&'a Value);
    impl Serialize for Tree<'_> {
        fn to_value(&self) -> Value {
            self.0.clone()
        }
    }
    serde_json::to_string(&Tree(v)).expect("rendering a value tree cannot fail")
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Collects metrics, context facts and failed checks for one run.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub info: Vec<(String, Value)>,
    pub check_failures: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.to_string(), value, unit });
    }

    pub fn info(&mut self, key: &str, value: impl Serialize) {
        self.info_value(key, value.to_value());
    }

    pub fn info_value(&mut self, key: &str, value: Value) {
        self.info.push((key.to_string(), value));
    }

    /// Records the outcome of an output check; a false `ok` makes the run
    /// incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    /// Whether every check passed and every metric is finite (a non-finite
    /// value renders as `null`).
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty() && self.metrics.iter().all(|m| m.value.is_finite())
    }

    pub fn result_json(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let body = obj(vec![("value", m.value.to_value()), ("unit", m.unit.to_value())]);
                (m.name.clone(), body)
            })
            .collect();
        obj(vec![
            ("correct", self.correct().to_value()),
            ("attempted", self.attempted.to_value()),
            ("failed", self.failed.to_value()),
            ("metrics", Value::Object(metrics)),
        ])
    }
}
