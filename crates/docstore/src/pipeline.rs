//! A multi-stage aggregation pipeline.
//!
//! Models the MongoDB aggregation-pipeline feature the paper highlights
//! as the user's customization instrument: "multi-stage pipelines can be
//! used to transform documents into an aggregated result … filtering,
//! transformation, grouping and sorting".

use std::cmp::Ordering;
use std::collections::HashMap;

use crate::query::Filter;
use crate::value::{Document, Value};

/// Aggregation accumulator used by [`Stage::Group`].
#[derive(Debug, Clone, PartialEq)]
pub enum Accumulator {
    /// Count of documents in the group.
    Count,
    /// Sum of a numeric path.
    Sum(String),
    /// Average of a numeric path.
    Avg(String),
    /// Minimum value at a path.
    Min(String),
    /// Maximum value at a path.
    Max(String),
    /// Collect the values at a path into an array.
    Push(String),
    /// First value encountered (by pipeline order).
    First(String),
}

impl Accumulator {
    /// The accumulated value over one group's documents, in stream order.
    fn over(&self, docs: &[&Document]) -> Value {
        let values = |p| docs.iter().filter_map(move |d| d.get_path(p));
        let floats = |p| docs.iter().filter_map(move |d| d.get_f64(p));
        match self {
            Accumulator::Count => Value::Int(docs.len() as i64),
            Accumulator::Sum(p) => Value::Float(floats(p).fold(0.0, |sum, x| sum + x)),
            Accumulator::Avg(p) => {
                let (sum, n) = floats(p).fold((0.0, 0_u64), |(sum, n), x| (sum + x, n + 1));
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / n as f64)
                }
            }
            Accumulator::Min(p) => extreme(values(p), Ordering::Less),
            Accumulator::Max(p) => extreme(values(p), Ordering::Greater),
            Accumulator::Push(p) => Value::Array(values(p).cloned().collect()),
            Accumulator::First(p) => values(p).next().cloned().unwrap_or(Value::Null),
        }
    }
}

/// The value that compares `wins` against every other; the first of
/// equal extremes wins.
fn extreme<'a>(values: impl Iterator<Item = &'a Value>, wins: Ordering) -> Value {
    values
        .reduce(|best, v| if v.total_cmp(best) == wins { v } else { best })
        .cloned()
        .unwrap_or(Value::Null)
}

/// A single pipeline stage.
#[derive(Debug, Clone)]
pub enum Stage {
    /// Keep documents matching the filter.
    Match(Filter),
    /// Keep only the listed (dotted) paths.
    Project(Vec<String>),
    /// Group by the value at `by`; produce one document per group with
    /// `_key` plus one field per named accumulator.
    Group {
        /// Grouping path; documents lacking it group under `Null`.
        by: String,
        /// `(output field, accumulator)` pairs.
        accumulators: Vec<(String, Accumulator)>,
    },
    /// Sort by the value at the path.
    Sort {
        /// Sorting path.
        by: String,
        /// Sort descending instead of ascending.
        descending: bool,
    },
    /// Skip the first `n` documents.
    Skip(usize),
    /// Keep at most `n` documents.
    Limit(usize),
    /// Replace the stream by a single `{ count: n }` document.
    Count,
}

impl Stage {
    /// Apply this stage to a document stream. External executors (the
    /// carve-query planner) chain stages through this one transform, and
    /// interleave stages the docstore does not model, such as sampling.
    pub fn apply(&self, docs: Vec<Document>) -> Vec<Document> {
        match self {
            Stage::Match(f) => docs.into_iter().filter(|d| f.matches(d)).collect(),
            Stage::Project(paths) => {
                let refs: Vec<&str> = paths.iter().map(String::as_str).collect();
                docs.iter().map(|d| d.project(&refs)).collect()
            }
            Stage::Group { by, accumulators } => {
                // Groups in first-seen order, keyed by the stable hash of
                // the grouping value; each keeps its first value as `_key`.
                let mut slots: HashMap<u64, usize> = HashMap::new();
                let mut groups: Vec<(Value, Vec<&Document>)> = Vec::new();
                for doc in &docs {
                    let key = doc.get_path(by).cloned().unwrap_or(Value::Null);
                    let at = *slots.entry(key.stable_hash()).or_insert_with(|| {
                        groups.push((key, Vec::new()));
                        groups.len() - 1
                    });
                    groups[at].1.push(doc);
                }
                groups
                    .into_iter()
                    .map(|(key, members)| {
                        let mut out = Document::new();
                        out.set("_key", key);
                        for (name, acc) in accumulators {
                            out.set(name.clone(), acc.over(&members));
                        }
                        out
                    })
                    .collect()
            }
            Stage::Sort { by, descending } => {
                let mut docs = docs;
                docs.sort_by(|a, b| {
                    let va = a.get_path(by).cloned().unwrap_or(Value::Null);
                    let vb = b.get_path(by).cloned().unwrap_or(Value::Null);
                    let ord = va.total_cmp(&vb);
                    if *descending {
                        ord.reverse()
                    } else {
                        ord
                    }
                });
                docs
            }
            Stage::Skip(n) => docs.into_iter().skip(*n).collect(),
            Stage::Limit(n) => docs.into_iter().take(*n).collect(),
            Stage::Count => {
                let mut d = Document::new();
                d.set("count", docs.len() as i64);
                vec![d]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc;

    fn docs() -> Vec<Document> {
        vec![
            doc! { "county" => "WAKE", "age" => 30_i64 },
            doc! { "county" => "WAKE", "age" => 50_i64 },
            doc! { "county" => "DURHAM", "age" => 40_i64 },
        ]
    }

    /// Run `stages` in order over `docs`.
    fn run(stages: &[Stage], docs: Vec<Document>) -> Vec<Document> {
        stages.iter().fold(docs, |docs, stage| stage.apply(docs))
    }

    #[test]
    fn match_project() {
        let out = run(
            &[
                Stage::Match(Filter::eq("county", "WAKE")),
                Stage::Project(vec!["age".into()]),
            ],
            docs(),
        );
        assert_eq!(out.len(), 2);
        assert!(out[0].get_path("county").is_none());
        assert!(out[0].get_i64("age").is_some());
    }

    #[test]
    fn group_accumulators() {
        let out = run(
            &[
                Stage::Group {
                    by: "county".into(),
                    accumulators: vec![
                        ("n".into(), Accumulator::Count),
                        ("total".into(), Accumulator::Sum("age".into())),
                        ("avg".into(), Accumulator::Avg("age".into())),
                        ("young".into(), Accumulator::Min("age".into())),
                        ("old".into(), Accumulator::Max("age".into())),
                        ("ages".into(), Accumulator::Push("age".into())),
                        ("first".into(), Accumulator::First("age".into())),
                    ],
                },
                Stage::Sort {
                    by: "_key".into(),
                    descending: false,
                },
            ],
            docs(),
        );
        let keys: Vec<&str> = out.iter().map(|d| d.get_str("_key").unwrap()).collect();
        assert_eq!(keys, ["DURHAM", "WAKE"], "sorted ascending");
        let wake = &out[1];
        assert_eq!(wake.get_i64("n"), Some(2));
        assert_eq!(wake.get_f64("total"), Some(80.0));
        assert_eq!(wake.get_f64("avg"), Some(40.0));
        assert_eq!(wake.get_i64("young"), Some(30));
        assert_eq!(wake.get_i64("old"), Some(50));
        assert_eq!(wake.get_array("ages").unwrap().len(), 2);
        assert_eq!(wake.get_i64("first"), Some(30));
    }

    #[test]
    fn sort_skip_limit() {
        let out = run(
            &[
                Stage::Sort {
                    by: "age".into(),
                    descending: true,
                },
                Stage::Skip(1),
                Stage::Limit(1),
            ],
            docs(),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get_i64("age"), Some(40));
    }

    #[test]
    fn count_stage() {
        let out = run(
            &[Stage::Match(Filter::gt("age", 35_i64)), Stage::Count],
            docs(),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get_i64("count"), Some(2));
    }

    #[test]
    fn group_missing_key_is_null() {
        let group = Stage::Group {
            by: "a".into(),
            accumulators: vec![("n".into(), Accumulator::Count)],
        };
        let out = group.apply(vec![doc! { "a" => 1_i64 }, doc! { "b" => 2_i64 }]);
        assert_eq!(out.len(), 2);
        assert!(out.iter().any(|d| d.get_path("_key") == Some(&Value::Null)));
    }
}
