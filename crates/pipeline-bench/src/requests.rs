//! The four carve request forms, each usable over HTTP and in-process.
//!
//! `refresh` re-answers them in-process, `serve_mix` sends them over TCP
//! and checks the bytes it gets against the in-process answer, so both
//! spellings of one request live here, built from the same key/value
//! pairs the server itself parses.

use nc_query::CarveQuery;
use nc_serve::carve::parse_carve_request;
use nc_serve::{CarveEngine, CarveError, CarveOutcome, CarveRequest, ServeConfig};

/// Clusters a carve samples (the issue's serve-side shape).
pub const CARVE_SAMPLE: usize = 600;
/// Clusters a carve keeps.
pub const CARVE_OUTPUT: usize = 100;

/// How a carve is requested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Form {
    /// `GET /datasets/nc{1,2,3}`.
    Preset,
    /// Form-encoded `POST /carve` with explicit heterogeneity bounds.
    Knob,
    /// JSON-query `POST /carve`.
    Query,
    /// `GET /datasets/nc{1,2,3}?encode=clk`.
    Clk,
}

/// The forms, in the order request mixes cycle through them.
pub const FORMS: [Form; 4] = [Form::Preset, Form::Knob, Form::Query, Form::Clk];

const PRESETS: [&str; 3] = ["nc1", "nc2", "nc3"];
const KNOB_BOUNDS: [(&str, &str); 3] = [("0.1", "0.3"), ("0.3", "0.6"), ("0.05", "0.9")];
/// Leading `match` of the query form: an indexed range, an indexed
/// range plus a scorer-dependent one, and a scan-only error count.
const QUERY_MATCHES: [&str; 3] = [
    r#"{"size":{"gte":2}}"#,
    r#"{"size":{"gte":2},"het":{"gte":0.1}}"#,
    r#"{"errors.typo":{"gte":1}}"#,
];

/// One carve request: a form and the seed that makes it distinct. The
/// seed also picks which preset, bounds or predicate the form uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CarveSpec {
    /// Request form.
    pub form: Form,
    /// Sampling seed.
    pub seed: u64,
}

/// A [`CarveSpec`] parsed into what the carve engine takes.
#[derive(Debug, Clone)]
pub enum Prepared {
    /// A knob carve (preset, explicit bounds, or either encoded).
    Knob(CarveRequest),
    /// A query carve.
    Query(CarveQuery),
}

impl CarveSpec {
    fn variant(&self) -> usize {
        (self.seed % 3) as usize
    }

    /// The key/value pairs of the non-query forms, as the server sees
    /// them after decoding the query string or form body.
    fn pairs(&self) -> Vec<(String, String)> {
        let mut pairs: Vec<(&str, String)> = match self.form {
            Form::Preset | Form::Clk => vec![("preset", PRESETS[self.variant()].to_string())],
            Form::Knob => {
                let (lo, hi) = KNOB_BOUNDS[self.variant()];
                vec![("h_low", lo.to_string()), ("h_high", hi.to_string())]
            }
            Form::Query => unreachable!("query carves have a JSON body, not pairs"),
        };
        pairs.push(("sample", CARVE_SAMPLE.to_string()));
        pairs.push(("output", CARVE_OUTPUT.to_string()));
        pairs.push(("seed", self.seed.to_string()));
        if self.form == Form::Clk {
            pairs.push(("encode", "clk".to_string()));
        }
        pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
    }

    fn query_body(&self) -> String {
        format!(
            r#"{{"pipeline":[{{"match":{}}},{{"sample":{{"size":{CARVE_OUTPUT},"seed":{}}}}}]}}"#,
            QUERY_MATCHES[self.variant()],
            self.seed
        )
    }

    /// The request as bytes on the wire.
    pub fn http_request(&self) -> Vec<u8> {
        let encoded = |pairs: Vec<(String, String)>| {
            pairs
                .iter()
                .filter(|(k, _)| k != "preset")
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join("&")
        };
        let post = |content_type: &str, body: String| {
            format!(
                "POST /carve HTTP/1.1\r\nHost: bench\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
        };
        match self.form {
            Form::Preset | Form::Clk => format!(
                "GET /datasets/{}?{} HTTP/1.1\r\nHost: bench\r\n\r\n",
                PRESETS[self.variant()],
                encoded(self.pairs())
            ),
            Form::Knob => post("application/x-www-form-urlencoded", encoded(self.pairs())),
            Form::Query => post("application/json", self.query_body()),
        }
        .into_bytes()
    }

    /// Parse the request exactly as the server's handlers do.
    pub fn prepare(&self) -> Prepared {
        match self.form {
            Form::Query => Prepared::Query(
                CarveQuery::parse(self.query_body().as_bytes()).expect("benchmark query parses"),
            ),
            _ => Prepared::Knob(
                parse_carve_request(&self.pairs(), &ServeConfig::default().defaults)
                    .expect("benchmark request parses"),
            ),
        }
    }
}

impl Prepared {
    /// Answer the request in-process.
    pub fn answer(&self, engine: &CarveEngine) -> Result<CarveOutcome, CarveError> {
        match self {
            Prepared::Knob(request) => engine.carve(request),
            Prepared::Query(query) => engine.carve_query(query),
        }
    }

    /// The HTTP body the server sends for `outcome`: the requested page
    /// of a knob carve, every line of a query carve, one line each.
    pub fn body(&self, outcome: &CarveOutcome) -> Vec<u8> {
        let lines = match self {
            Prepared::Knob(request) => outcome.result.page(request.page, request.page_size),
            Prepared::Query(_) => &outcome.result.lines[..],
        };
        let mut body = Vec::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
        for line in lines {
            body.extend_from_slice(line.as_bytes());
            body.push(b'\n');
        }
        body
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_form_and_variant_parses_and_frames() {
        for form in FORMS {
            for seed in 0..3 {
                let spec = CarveSpec { form, seed };
                let wire = String::from_utf8(spec.http_request()).unwrap();
                assert!(wire.contains(" HTTP/1.1\r\nHost: bench\r\n"));
                match (form, spec.prepare()) {
                    (Form::Query, Prepared::Query(_)) => assert!(wire.ends_with("}]}")),
                    (Form::Clk, Prepared::Knob(r)) => {
                        assert!(r.encoding.is_some() && wire.contains("encode=clk"))
                    }
                    (_, Prepared::Knob(r)) => {
                        assert_eq!(r.params.seed, seed);
                        assert_eq!(r.params.sample_clusters, CARVE_SAMPLE);
                        assert!(r.encoding.is_none());
                    }
                    other => panic!("form and prepared request disagree: {other:?}"),
                }
            }
        }
    }
}
