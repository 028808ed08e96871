//! Access planning: which conjuncts of a [`Filter`](crate::query::Filter)
//! an index can serve, and why the rest fall back to a scan.
//!
//! [`Collection::plan`](crate::collection::Collection::plan) is the public
//! face of the index-selection logic that `find`/`find_ids` have always
//! used internally. It returns both the candidate posting list (exactly
//! what the private fast path computes) and one [`ConjunctDecision`] per
//! leaf conjunct so callers — the nc-query explain endpoint, the
//! `/metrics` indexed-vs-scanned counters — can report *why* an access
//! path was chosen without re-deriving index rules.

use crate::collection::DocId;
use crate::query::Filter;
use crate::value::Value;

/// Why a conjunct could not be answered from an index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanReason {
    /// No index exists on the conjunct's path.
    NoIndex,
    /// The path has a hash index, which cannot answer range predicates.
    RangeOnHashIndex,
    /// The predicate shape is not indexable (`ne`, `in`, `exists`,
    /// `contains`, `or`, `not`). The label names the shape.
    UnsupportedPredicate(&'static str),
}

impl ScanReason {
    /// Stable, lowercase label for explain output and metrics.
    pub fn label(&self) -> &'static str {
        match self {
            ScanReason::NoIndex => "no-index",
            ScanReason::RangeOnHashIndex => "range-on-hash-index",
            ScanReason::UnsupportedPredicate(_) => "unsupported-predicate",
        }
    }
}

/// How one leaf conjunct is answered.
#[derive(Debug, Clone, PartialEq)]
pub enum ConjunctAccess {
    /// Served by an equality posting-list lookup.
    IndexedEq {
        /// Length of the posting list the index returned.
        postings: usize,
    },
    /// Served by an ordered-index range lookup (bounds are a superset of
    /// the true predicate; the residual `matches` pass tightens them).
    IndexedRange {
        /// Length of the posting list the index returned.
        postings: usize,
    },
    /// Evaluated only by the residual scan/filter pass.
    Scanned(ScanReason),
}

/// The planner's verdict on one leaf conjunct of a filter.
#[derive(Debug, Clone, PartialEq)]
pub struct ConjunctDecision {
    /// Human-readable rendering of the conjunct (`age >= 40`).
    pub conjunct: String,
    /// The dotted path the conjunct constrains, when it has one.
    pub path: Option<String>,
    /// The chosen access method.
    pub access: ConjunctAccess,
}

impl ConjunctDecision {
    /// Whether an index serves this conjunct.
    pub fn is_indexed(&self) -> bool {
        !matches!(self.access, ConjunctAccess::Scanned(_))
    }
}

/// The access plan for one filter: candidate ids (when any index
/// applies) plus the per-conjunct decision list.
#[derive(Debug, Clone, Default)]
pub struct AccessPlan {
    /// Candidate document ids from posting-list intersection, ordered by
    /// `_id`; `None` means no index applies and only a full scan will
    /// do. Candidates are a superset of the true matches — callers
    /// always re-filter.
    pub candidates: Option<Vec<DocId>>,
    /// One decision per leaf conjunct, in filter order.
    pub decisions: Vec<ConjunctDecision>,
}

impl AccessPlan {
    /// Number of conjuncts served from an index.
    pub fn indexed_conjuncts(&self) -> usize {
        self.decisions.iter().filter(|d| d.is_indexed()).count()
    }

    /// Number of conjuncts left to the residual scan pass.
    pub fn scanned_conjuncts(&self) -> usize {
        self.decisions.len() - self.indexed_conjuncts()
    }

    /// Whether executing this plan reads every document.
    pub fn is_full_scan(&self) -> bool {
        self.candidates.is_none()
    }

    /// Estimated rows the executor will touch: the candidate-list length
    /// when indexed, or `total` documents on a full scan.
    pub fn estimated_rows(&self, total: usize) -> usize {
        match &self.candidates {
            Some(ids) => ids.len(),
            None => total,
        }
    }
}

/// Compact single-line rendering of a filter leaf for explain output.
pub(crate) fn describe_conjunct(f: &Filter) -> String {
    match f {
        Filter::True => "true".into(),
        Filter::Eq(p, v) => format!("{p} == {}", fmt_value(v)),
        Filter::Ne(p, v) => format!("{p} != {}", fmt_value(v)),
        Filter::Gt(p, v) => format!("{p} > {}", fmt_value(v)),
        Filter::Gte(p, v) => format!("{p} >= {}", fmt_value(v)),
        Filter::Lt(p, v) => format!("{p} < {}", fmt_value(v)),
        Filter::Lte(p, v) => format!("{p} <= {}", fmt_value(v)),
        Filter::In(p, vs) => format!("{p} in [{} values]", vs.len()),
        Filter::Exists(p) => format!("exists({p})"),
        Filter::Contains(p, s) => format!("contains({p}, {})", fmt_value(&Value::Str(s.clone()))),
        Filter::And(fs) => format!("and[{}]", fs.len()),
        Filter::Or(fs) => format!("or[{}]", fs.len()),
        Filter::Not(_) => "not(..)".into(),
    }
}

fn fmt_value(v: &Value) -> String {
    match v {
        Value::Str(s) => format!("{s:?}"),
        other => {
            let mut s = String::new();
            other.render_json(&mut s);
            s
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::Collection;
    use crate::doc;
    use crate::index::IndexKind;

    fn indexed() -> Collection {
        let mut c = Collection::new("t");
        for i in 0..20_i64 {
            c.insert(doc! {
                "name" => if i % 2 == 0 { "SMITH" } else { "JONES" },
                "age" => 20 + i,
                "county" => format!("C{}", i % 4),
            })
            .unwrap();
        }
        c.create_index("name", IndexKind::Hash);
        c.create_index("age", IndexKind::Ordered);
        c
    }

    #[test]
    fn plan_reports_indexed_conjuncts() {
        let c = indexed();
        let f = Filter::and(vec![
            Filter::eq("name", "SMITH"),
            Filter::between("age", 22_i64, 27_i64),
        ]);
        let plan = c.plan(&f);
        assert!(!plan.is_full_scan());
        assert_eq!(plan.indexed_conjuncts(), 3, "eq + gte + lte");
        assert_eq!(plan.scanned_conjuncts(), 0);
        // Candidates agree with the private fast path used by find_ids.
        assert!(plan.candidates.is_some());
        let matched = c.find_ids(&f);
        for id in &matched {
            assert!(plan.candidates.as_ref().unwrap().contains(id));
        }
    }

    #[test]
    fn plan_names_scan_reasons() {
        let c = indexed();
        let f = Filter::and(vec![
            Filter::eq("county", "C1"),                   // no index
            Filter::gt("name", "A"),                      // range on hash index
            Filter::Contains("name".into(), "MIT".into()), // unsupported shape
        ]);
        let plan = c.plan(&f);
        assert!(plan.is_full_scan(), "no conjunct is indexable");
        let reasons: Vec<ScanReason> = plan
            .decisions
            .iter()
            .map(|d| match d.access {
                ConjunctAccess::Scanned(r) => r,
                _ => panic!("expected scan decision, got {d:?}"),
            })
            .collect();
        assert_eq!(
            reasons,
            vec![
                ScanReason::NoIndex,
                ScanReason::RangeOnHashIndex,
                ScanReason::UnsupportedPredicate("contains"),
            ]
        );
        assert_eq!(plan.estimated_rows(c.len()), c.len());
    }

    #[test]
    fn plan_treats_disjunctions_as_one_scanned_conjunct() {
        let c = indexed();
        let f = Filter::or(vec![Filter::eq("name", "SMITH"), Filter::eq("name", "JONES")]);
        let plan = c.plan(&f);
        assert!(plan.is_full_scan());
        assert_eq!(plan.decisions.len(), 1);
        assert_eq!(plan.decisions[0].conjunct, "or[2]");
    }

    #[test]
    fn estimated_rows_tracks_candidates() {
        let c = indexed();
        let f = Filter::eq("name", "SMITH");
        let plan = c.plan(&f);
        assert_eq!(plan.estimated_rows(c.len()), 10);
        assert_eq!(plan.candidates.as_ref().unwrap().len(), 10);
    }
}
