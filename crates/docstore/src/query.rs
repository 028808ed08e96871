//! Declarative filters over documents.

use crate::value::{Document, Value};
use std::cmp::Ordering;

/// A predicate over a [`Document`].
#[derive(Debug, Clone, PartialEq)]
pub enum Filter {
    /// Always true.
    True,
    /// Path value equals the operand (numeric cross-type equality).
    Eq(String, Value),
    /// Path value differs from the operand (absent fields match).
    Ne(String, Value),
    /// Path value strictly greater than the operand.
    Gt(String, Value),
    /// Path value greater than or equal to the operand.
    Gte(String, Value),
    /// Path value strictly less than the operand.
    Lt(String, Value),
    /// Path value less than or equal to the operand.
    Lte(String, Value),
    /// Path value is a member of the operand list.
    In(String, Vec<Value>),
    /// The path resolves to some value (including `Null`).
    Exists(String),
    /// String value at the path contains the operand as a substring.
    Contains(String, String),
    /// All sub-filters hold.
    And(Vec<Filter>),
    /// At least one sub-filter holds.
    Or(Vec<Filter>),
    /// The sub-filter does not hold.
    Not(Box<Filter>),
}

impl Filter {
    /// `path == value`.
    pub fn eq(path: impl Into<String>, value: impl Into<Value>) -> Self {
        Filter::Eq(path.into(), value.into())
    }
    /// `path != value`.
    pub fn ne(path: impl Into<String>, value: impl Into<Value>) -> Self {
        Filter::Ne(path.into(), value.into())
    }
    /// `path > value`.
    pub fn gt(path: impl Into<String>, value: impl Into<Value>) -> Self {
        Filter::Gt(path.into(), value.into())
    }
    /// `path >= value`.
    pub fn gte(path: impl Into<String>, value: impl Into<Value>) -> Self {
        Filter::Gte(path.into(), value.into())
    }
    /// `path < value`.
    pub fn lt(path: impl Into<String>, value: impl Into<Value>) -> Self {
        Filter::Lt(path.into(), value.into())
    }
    /// `path <= value`.
    pub fn lte(path: impl Into<String>, value: impl Into<Value>) -> Self {
        Filter::Lte(path.into(), value.into())
    }
    /// `value ∈ list`.
    pub fn is_in(path: impl Into<String>, values: Vec<Value>) -> Self {
        Filter::In(path.into(), values)
    }
    /// Conjunction.
    pub fn and(filters: Vec<Filter>) -> Self {
        Filter::And(filters)
    }
    /// Disjunction.
    pub fn or(filters: Vec<Filter>) -> Self {
        Filter::Or(filters)
    }
    /// Negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(filter: Filter) -> Self {
        Filter::Not(Box::new(filter))
    }
    /// Numeric/lexicographic range: `lo <= path <= hi`.
    pub fn between(path: &str, lo: impl Into<Value>, hi: impl Into<Value>) -> Self {
        Filter::And(vec![Filter::gte(path, lo), Filter::lte(path, hi)])
    }

    /// Evaluate against a document.
    pub fn matches(&self, doc: &Document) -> bool {
        fn cmp(doc: &Document, path: &str, v: &Value) -> Option<Ordering> {
            doc.get_path(path).map(|x| x.total_cmp(v))
        }
        match self {
            Filter::True => true,
            Filter::Eq(p, v) => cmp(doc, p, v) == Some(Ordering::Equal),
            Filter::Ne(p, v) => cmp(doc, p, v) != Some(Ordering::Equal),
            Filter::Gt(p, v) => cmp(doc, p, v) == Some(Ordering::Greater),
            Filter::Gte(p, v) => matches!(cmp(doc, p, v), Some(Ordering::Greater | Ordering::Equal)),
            Filter::Lt(p, v) => cmp(doc, p, v) == Some(Ordering::Less),
            Filter::Lte(p, v) => matches!(cmp(doc, p, v), Some(Ordering::Less | Ordering::Equal)),
            Filter::In(p, vs) => doc
                .get_path(p)
                .is_some_and(|x| vs.iter().any(|v| x.query_eq(v))),
            Filter::Exists(p) => doc.get_path(p).is_some(),
            Filter::Contains(p, s) => doc.get_str(p).is_some_and(|x| x.contains(s.as_str())),
            Filter::And(fs) => fs.iter().all(|f| f.matches(doc)),
            Filter::Or(fs) => fs.iter().any(|f| f.matches(doc)),
            Filter::Not(f) => !f.matches(doc),
        }
    }

    /// If this filter (or a conjunct of it) pins `path` to a single
    /// equality value, return that value — used for index selection.
    pub fn equality_on(&self, path: &str) -> Option<&Value> {
        match self {
            Filter::Eq(p, v) if p == path => Some(v),
            Filter::And(fs) => fs.iter().find_map(|f| f.equality_on(path)),
            _ => None,
        }
    }

    /// If this filter (or a conjunct) constrains `path` to a closed range
    /// `[lo, hi]` (from `Gte`/`Lte`/`Eq` conjuncts), return the bounds —
    /// used for ordered-index selection.
    pub fn range_on(&self, path: &str) -> Option<(Option<&Value>, Option<&Value>)> {
        fn collect<'a>(
            f: &'a Filter,
            path: &str,
            lo: &mut Option<&'a Value>,
            hi: &mut Option<&'a Value>,
        ) {
            match f {
                Filter::Eq(p, v) if p == path => {
                    *lo = Some(v);
                    *hi = Some(v);
                }
                Filter::Gte(p, v) | Filter::Gt(p, v) if p == path
                    && lo.is_none_or(|cur| v.total_cmp(cur) == Ordering::Greater) => {
                        *lo = Some(v);
                    }
                Filter::Lte(p, v) | Filter::Lt(p, v) if p == path
                    && hi.is_none_or(|cur| v.total_cmp(cur) == Ordering::Less) => {
                        *hi = Some(v);
                    }
                Filter::And(fs) => {
                    for f in fs {
                        collect(f, path, lo, hi);
                    }
                }
                _ => {}
            }
        }
        let mut lo = None;
        let mut hi = None;
        collect(self, path, &mut lo, &mut hi);
        if lo.is_none() && hi.is_none() {
            None
        } else {
            Some((lo, hi))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc;

    fn d() -> Document {
        doc! {
            "name" => "SMITH",
            "age" => 44_i64,
            "tags" => vec!["a", "b"],
            "nested" => doc! { "x" => 1.5 },
        }
    }

    #[test]
    fn eq_ne() {
        assert!(Filter::eq("name", "SMITH").matches(&d()));
        assert!(!Filter::eq("name", "JONES").matches(&d()));
        assert!(Filter::ne("name", "JONES").matches(&d()));
        // Absent field: Eq fails, Ne succeeds.
        assert!(!Filter::eq("absent", 1_i64).matches(&d()));
        assert!(Filter::ne("absent", 1_i64).matches(&d()));
    }

    #[test]
    fn ordering_comparisons() {
        assert!(Filter::gt("age", 40_i64).matches(&d()));
        assert!(!Filter::gt("age", 44_i64).matches(&d()));
        assert!(Filter::gte("age", 44_i64).matches(&d()));
        assert!(Filter::lt("age", 45_i64).matches(&d()));
        assert!(Filter::lte("age", 44_i64).matches(&d()));
        // Cross-type numeric comparison.
        assert!(Filter::gt("nested.x", 1_i64).matches(&d()));
    }

    #[test]
    fn in_exists_contains() {
        assert!(Filter::is_in("age", vec![Value::Int(44), Value::Int(50)]).matches(&d()));
        assert!(!Filter::is_in("age", vec![Value::Int(50)]).matches(&d()));
        assert!(Filter::Exists("nested.x".into()).matches(&d()));
        assert!(!Filter::Exists("nested.y".into()).matches(&d()));
        assert!(Filter::Contains("name".into(), "MIT".into()).matches(&d()));
        assert!(!Filter::Contains("name".into(), "ZZZ".into()).matches(&d()));
    }

    #[test]
    fn boolean_combinators() {
        let f = Filter::and(vec![Filter::eq("name", "SMITH"), Filter::gt("age", 40_i64)]);
        assert!(f.matches(&d()));
        let g = Filter::or(vec![Filter::eq("name", "JONES"), Filter::gt("age", 40_i64)]);
        assert!(g.matches(&d()));
        assert!(!Filter::not(g).matches(&d()));
        assert!(Filter::True.matches(&d()));
        assert!(Filter::and(vec![]).matches(&d()));
        assert!(!Filter::or(vec![]).matches(&d()));
    }

    #[test]
    fn between_is_inclusive() {
        assert!(Filter::between("age", 44_i64, 44_i64).matches(&d()));
        assert!(Filter::between("age", 40_i64, 50_i64).matches(&d()));
        assert!(!Filter::between("age", 45_i64, 50_i64).matches(&d()));
    }

    #[test]
    fn equality_extraction() {
        let f = Filter::and(vec![Filter::eq("name", "SMITH"), Filter::gt("age", 40_i64)]);
        assert_eq!(f.equality_on("name"), Some(&Value::Str("SMITH".into())));
        assert_eq!(f.equality_on("age"), None);
    }

    #[test]
    fn range_extraction() {
        let f = Filter::and(vec![
            Filter::gte("age", 40_i64),
            Filter::lte("age", 50_i64),
            Filter::eq("name", "SMITH"),
        ]);
        let (lo, hi) = f.range_on("age").unwrap();
        assert_eq!(lo, Some(&Value::Int(40)));
        assert_eq!(hi, Some(&Value::Int(50)));
        assert!(f.range_on("zzz").is_none());
    }
}
