//! The nested document data model.
//!
//! [`Value`] is a JSON/BSON-like tree; [`Document`] is an ordered map of
//! field name to [`Value`]. Dotted paths (`"records.0.person.last_name"`)
//! address nested fields, with non-negative integer segments indexing
//! into arrays.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;

use crate::json;

/// A dynamically typed document value.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum Value {
    /// Explicit null (distinct from an absent field).
    #[default]
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Ordered array of values.
    Array(Vec<Value>),
    /// Nested document.
    Doc(Document),
}

impl Value {
    /// Type rank used for cross-type total ordering (Null < Bool < number
    /// < Str < Array < Doc), mirroring BSON comparison semantics.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 2,
            Value::Str(_) => 3,
            Value::Array(_) => 4,
            Value::Doc(_) => 5,
        }
    }

    /// Total order over all values: by type rank first, then within the
    /// type (numbers compare numerically across `Int`/`Float`; floats use
    /// IEEE total ordering so `NaN` is ordered, not poisonous).
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        let (ra, rb) = (self.type_rank(), other.type_rank());
        if ra != rb {
            return ra.cmp(&rb);
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Int(a), Value::Float(b)) => (*a as f64).total_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.total_cmp(&(*b as f64)),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Array(a), Value::Array(b)) => {
                for (x, y) in a.iter().zip(b.iter()) {
                    let c = x.total_cmp(y);
                    if c != Ordering::Equal {
                        return c;
                    }
                }
                a.len().cmp(&b.len())
            }
            (Value::Doc(a), Value::Doc(b)) => {
                let mut ita = a.iter();
                let mut itb = b.iter();
                loop {
                    match (ita.next(), itb.next()) {
                        (None, None) => return Ordering::Equal,
                        (None, Some(_)) => return Ordering::Less,
                        (Some(_), None) => return Ordering::Greater,
                        (Some((ka, va)), Some((kb, vb))) => {
                            let c = ka.cmp(kb).then_with(|| va.total_cmp(vb));
                            if c != Ordering::Equal {
                                return c;
                            }
                        }
                    }
                }
            }
            _ => unreachable!("type ranks matched"),
        }
    }

    /// Whether two values compare equal under query semantics
    /// (`Int(3) == Float(3.0)`).
    pub fn query_eq(&self, other: &Value) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }

    /// Borrow as `&str` when the value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric view (`Int` and `Float` both yield `f64`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view (exact ints only).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Borrow as array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Borrow as nested document.
    pub fn as_doc(&self) -> Option<&Document> {
        match self {
            Value::Doc(d) => Some(d),
            _ => None,
        }
    }

    /// Whether this is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Render as JSON into `out`. Field order is the document's own
    /// (sorted) order, so the rendering is canonical: equal documents
    /// render byte-identically. Finite floats render with `{:?}` — the
    /// shortest digits that re-parse to the same bits, always with a
    /// `.` or an exponent — so [`json::parse`] reads every rendering
    /// back to an equal value. Non-finite floats render as `null`.
    pub fn render_json(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => {
                use fmt::Write as _;
                let _ = write!(out, "{i}");
            }
            Value::Float(f) => {
                if f.is_finite() {
                    use fmt::Write as _;
                    let _ = write!(out, "{f:?}");
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => render_json_str(s, out),
            Value::Array(a) => {
                out.push('[');
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_json(out);
                }
                out.push(']');
            }
            Value::Doc(d) => d.render_json(out),
        }
    }

    /// [`Value::render_json`] into a fresh string.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        self.render_json(&mut s);
        s
    }

    /// A stable hash of the value, consistent with [`Value::query_eq`]
    /// (equal values hash equally; ints hash as their float image when
    /// integral so that `Int(3)` and `Float(3.0)` collide as required).
    pub fn stable_hash(&self) -> u64 {
        // FNV-1a over a tagged byte encoding.
        fn fnv(h: &mut u64, bytes: &[u8]) {
            for &b in bytes {
                *h ^= u64::from(b);
                *h = h.wrapping_mul(0x100000001b3);
            }
        }
        fn go(v: &Value, h: &mut u64) {
            match v {
                Value::Null => fnv(h, &[0]),
                Value::Bool(b) => fnv(h, &[1, u8::from(*b)]),
                Value::Int(i) => {
                    // Hash numerically: encode as float bits when exactly
                    // representable so Int/Float agree, else as int bits.
                    let f = *i as f64;
                    if f as i64 == *i {
                        fnv(h, &[2]);
                        fnv(h, &f.to_bits().to_le_bytes());
                    } else {
                        fnv(h, &[3]);
                        fnv(h, &i.to_le_bytes());
                    }
                }
                Value::Float(f) => {
                    fnv(h, &[2]);
                    fnv(h, &f.to_bits().to_le_bytes());
                }
                Value::Str(s) => {
                    fnv(h, &[4]);
                    fnv(h, s.as_bytes());
                }
                Value::Array(a) => {
                    fnv(h, &[5]);
                    fnv(h, &a.len().to_le_bytes());
                    for x in a {
                        go(x, h);
                    }
                }
                Value::Doc(d) => {
                    fnv(h, &[6]);
                    for (k, x) in d.iter() {
                        fnv(h, k.as_bytes());
                        go(x, h);
                    }
                }
            }
        }
        let mut h = 0xcbf29ce484222325u64;
        go(self, &mut h);
        h
    }
}

/// Render `s` as a JSON string literal (quotes, escapes) into `out`.
fn render_json_str(s: &str, out: &mut String) {
    out.push('"');
    json::escape_into(out, s);
    out.push('"');
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Array(a) => {
                write!(f, "[")?;
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Doc(d) => write!(f, "{d}"),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}
impl From<u32> for Value {
    fn from(i: u32) -> Self {
        Value::Int(i64::from(i))
    }
}
/// Counts. Beyond `i64::MAX` they become a `Float`, which is also how
/// [`json::parse`] reads an integer lexeme of that size.
impl From<u64> for Value {
    fn from(n: u64) -> Self {
        i64::try_from(n).map_or(Value::Float(n as f64), Value::Int)
    }
}
impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::from(n as u64)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}
impl From<Document> for Value {
    fn from(d: Document) -> Self {
        Value::Doc(d)
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map_or(Value::Null, Into::into)
    }
}

/// An ordered (by field name) map of field name to [`Value`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Document {
    fields: BTreeMap<String, Value>,
}

impl Document {
    /// Create an empty document.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of top-level fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the document has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Set a top-level field.
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<Value>) -> &mut Self {
        self.fields.insert(key.into(), value.into());
        self
    }

    /// Iterate over `(name, value)` pairs in field-name order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.fields.iter()
    }

    /// Look up a value by dotted path. Integer segments index arrays.
    ///
    /// Returns `None` for absent fields (use [`Value::Null`] for explicit
    /// nulls).
    pub fn get_path(&self, path: &str) -> Option<&Value> {
        let mut cur: Option<&Value> = None;
        for seg in path.split('.') {
            cur = match cur {
                None => self.fields.get(seg),
                Some(Value::Doc(d)) => d.fields.get(seg),
                Some(Value::Array(a)) => seg.parse::<usize>().ok().and_then(|i| a.get(i)),
                _ => None,
            };
            cur?;
        }
        cur
    }

    /// Look up a top-level field.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.fields.get(key)
    }

    /// String view of a dotted path.
    pub fn get_str(&self, path: &str) -> Option<&str> {
        self.get_path(path).and_then(Value::as_str)
    }

    /// Integer view of a dotted path.
    pub fn get_i64(&self, path: &str) -> Option<i64> {
        self.get_path(path).and_then(Value::as_i64)
    }

    /// Count view of a dotted path (non-negative exact ints only).
    pub fn get_u64(&self, path: &str) -> Option<u64> {
        self.get_i64(path).and_then(|i| u64::try_from(i).ok())
    }

    /// Float view of a dotted path (ints coerce).
    pub fn get_f64(&self, path: &str) -> Option<f64> {
        self.get_path(path).and_then(Value::as_f64)
    }

    /// Array view of a dotted path.
    pub fn get_array(&self, path: &str) -> Option<&[Value]> {
        self.get_path(path).and_then(Value::as_array)
    }

    /// Set a value at a dotted path, creating intermediate documents as
    /// needed. Array segments must already exist and be in range; path
    /// segments through non-documents fail.
    ///
    /// Returns `true` on success.
    pub fn set_path(&mut self, path: &str, value: impl Into<Value>) -> bool {
        let segs: Vec<&str> = path.split('.').collect();
        let value = value.into();
        fn go(doc: &mut Document, segs: &[&str], value: Value) -> bool {
            match segs {
                [] => false,
                [last] => {
                    doc.fields.insert((*last).to_owned(), value);
                    true
                }
                [head, rest @ ..] => {
                    let entry = doc
                        .fields
                        .entry((*head).to_owned())
                        .or_insert_with(|| Value::Doc(Document::new()));
                    match entry {
                        Value::Doc(d) => go(d, rest, value),
                        Value::Array(a) => {
                            let Some(idx) = rest.first().and_then(|s| s.parse::<usize>().ok())
                            else {
                                return false;
                            };
                            let Some(slot) = a.get_mut(idx) else {
                                return false;
                            };
                            match (&rest[1..], slot) {
                                ([], slot) => {
                                    *slot = value;
                                    true
                                }
                                (more, Value::Doc(d)) => go(d, more, value),
                                _ => false,
                            }
                        }
                        _ => false,
                    }
                }
            }
        }
        go(self, &segs, value)
    }

    /// Render as a JSON object into `out`. Fields appear in the
    /// document's sorted field order, making the rendering canonical.
    pub fn render_json(&self, out: &mut String) {
        out.push('{');
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            render_json_str(k, out);
            out.push(':');
            v.render_json(out);
        }
        out.push('}');
    }

    /// [`Document::render_json`] into a fresh string.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        self.render_json(&mut s);
        s
    }

    /// Keep only the named top-level fields (projection).
    pub fn project(&self, fields: &[&str]) -> Document {
        let mut out = Document::new();
        for &f in fields {
            if let Some(v) = self.get_path(f) {
                // Nested projections rebuild the nested structure so that
                // the same dotted path addresses the value in the output.
                out.set_path(f, v.clone());
            }
        }
        out
    }
}

impl fmt::Display for Document {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}: {v}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<(String, Value)> for Document {
    fn from_iter<T: IntoIterator<Item = (String, Value)>>(iter: T) -> Self {
        Document {
            fields: iter.into_iter().collect(),
        }
    }
}

/// Build a [`Document`] literal: `doc! { "a" => 1_i64, "b" => "x" }`.
#[macro_export]
macro_rules! doc {
    () => { $crate::value::Document::new() };
    ( $( $k:expr => $v:expr ),+ $(,)? ) => {{
        let mut d = $crate::value::Document::new();
        $( d.set($k, $v); )+
        d
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Document {
        doc! {
            "ncid" => "AA1",
            "person" => doc! { "last_name" => "SMITH", "age" => 44_i64 },
            "records" => vec![
                Value::Doc(doc! { "snap" => "2008-01-01" }),
                Value::Doc(doc! { "snap" => "2010-05-06" }),
            ],
        }
    }

    #[test]
    fn path_lookup() {
        let d = sample();
        assert_eq!(d.get_str("ncid"), Some("AA1"));
        assert_eq!(d.get_str("person.last_name"), Some("SMITH"));
        assert_eq!(d.get_i64("person.age"), Some(44));
        assert_eq!(d.get_str("records.1.snap"), Some("2010-05-06"));
        assert!(d.get_path("person.missing").is_none());
        assert!(d.get_path("records.9.snap").is_none());
        assert!(d.get_path("ncid.sub").is_none());
    }

    #[test]
    fn set_path_creates_intermediates() {
        let mut d = Document::new();
        assert!(d.set_path("a.b.c", 7_i64));
        assert_eq!(d.get_i64("a.b.c"), Some(7));
        assert!(d.set_path("a.b.c", "now a string"));
        assert_eq!(d.get_str("a.b.c"), Some("now a string"));
    }

    #[test]
    fn set_path_into_array_element() {
        let mut d = sample();
        assert!(d.set_path("records.0.snap", "2009-09-09"));
        assert_eq!(d.get_str("records.0.snap"), Some("2009-09-09"));
        assert!(!d.set_path("records.7.snap", "x"));
    }

    #[test]
    fn cross_type_total_order() {
        let vals = [
            Value::Null,
            Value::Bool(false),
            Value::Int(1),
            Value::Str("a".into()),
            Value::Array(vec![]),
            Value::Doc(Document::new()),
        ];
        for w in vals.windows(2) {
            assert_eq!(w[0].total_cmp(&w[1]), Ordering::Less);
        }
    }

    #[test]
    fn numeric_cross_type_equality() {
        assert!(Value::Int(3).query_eq(&Value::Float(3.0)));
        assert!(!Value::Int(3).query_eq(&Value::Float(3.5)));
        assert_eq!(
            Value::Int(3).stable_hash(),
            Value::Float(3.0).stable_hash()
        );
    }

    #[test]
    fn stable_hash_distinguishes() {
        assert_ne!(
            Value::Str("A".into()).stable_hash(),
            Value::Str("B".into()).stable_hash()
        );
        assert_ne!(Value::Null.stable_hash(), Value::Bool(false).stable_hash());
    }

    #[test]
    fn projection() {
        let d = sample();
        let p = d.project(&["ncid", "person.age", "absent"]);
        assert_eq!(p.get_str("ncid"), Some("AA1"));
        assert_eq!(p.get_i64("person.age"), Some(44));
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn json_round_trip() {
        let d = sample();
        let back = json::parse(d.to_json().as_bytes()).unwrap();
        assert_eq!(Value::Doc(d), back);
    }

    #[test]
    fn display_formats() {
        let d = doc! { "a" => 1_i64, "b" => vec![Value::Null] };
        let s = format!("{d}");
        assert!(s.contains("a: 1"));
        assert!(s.contains("[null]"));
    }
}
