//! Seed-driven properties of `read_request_limited`, the one place
//! bytes from the network enter the service. Parser level only: the
//! inputs are byte slices, so there are no sockets and no timeouts.
//!
//! Whatever arrives, the parser never panics; it returns a request
//! whose body is within the cap or a [`ParseError`] answered with 400
//! or 413; it says 413 only when a cap really was exceeded; and a
//! well-formed request comes back field for field.

use nc_propcheck::{check, Gen, DIGITS, LOWER, UPPER};
use nc_serve::http::{read_request_limited, ParseError, Request, MAX_HEAD_BYTES};

/// A well-formed request, as the parser should hand it back: upper-case
/// method, lower-case header names, trimmed values, and the
/// `content-length` header [`wire`] frames the body with.
fn request(g: &mut Gen) -> Request {
    let token = format!("{LOWER}{DIGITS}-_");
    let text = format!("{LOWER}{UPPER}{DIGITS}/=&%+-_.~:;,*");
    let mut headers = g.vec(0..5, |g| {
        let name = format!("x-{}", g.string(&token, 0..10));
        // Inner spaces survive; the parser trims the ends.
        let value = g.string(&format!("{text} "), 0..24).trim().to_owned();
        (name, value)
    });
    let body = bytes(g, 0..64);
    if !body.is_empty() || g.bool() {
        let at = g.range(0..=headers.len());
        headers.insert(at, ("content-length".into(), body.len().to_string()));
    }
    Request {
        method: g.string(UPPER, 1..8),
        path: format!("/{}", g.string(&text, 0..30)),
        query: g.string(&format!("{text}?"), 0..30),
        headers,
        body,
    }
}

/// The bytes of `req` with `eol` (`\r\n` or `\n`) ending every head line.
fn wire(req: &Request, eol: &str) -> Vec<u8> {
    let mut head = format!("{} {}", req.method, req.path);
    if !req.query.is_empty() {
        head += &format!("?{}", req.query);
    }
    head += &format!(" HTTP/1.1{eol}");
    for (name, value) in &req.headers {
        head += &format!("{name}: {value}{eol}");
    }
    head += eol;
    [head.as_bytes(), &req.body].concat()
}

/// Any bytes at all.
fn bytes(g: &mut Gen, len: std::ops::Range<usize>) -> Vec<u8> {
    g.vec(len, |g| g.range(0..=u8::MAX))
}

fn eol(g: &mut Gen) -> &'static str {
    g.pick(&["\r\n", "\n"])
}

/// The largest `Content-Length` the head of `input` declares, read the
/// simplest way that can be right: line by line up to the blank line.
fn declared_length(input: &[u8]) -> Option<usize> {
    let head = String::from_utf8_lossy(input);
    head.split('\n')
        .take_while(|line| !line.trim_end_matches('\r').is_empty())
        .filter_map(|line| line.split_once(':'))
        .filter(|(name, _)| name.trim().eq_ignore_ascii_case("content-length"))
        .filter_map(|(_, value)| value.trim().parse().ok())
        .max()
}

/// What holds of every outcome, whatever the input was.
fn assert_outcome_is_sound(input: &[u8], cap: usize, outcome: &Result<Request, ParseError>) {
    match outcome {
        Ok(req) => assert!(req.body.len() <= cap, "body of {} over cap {cap}", req.body.len()),
        Err(err) => {
            let over_cap = input.len() >= MAX_HEAD_BYTES || declared_length(input).is_some_and(|n| n > cap);
            match err.status() {
                400 => {}
                413 => assert!(over_cap, "413 with no cap exceeded: {:?}", String::from_utf8_lossy(input)),
                other => panic!("{err:?} answers {other}"),
            }
        }
    }
}

/// Bytes with no structure at all, and bytes that look like text.
#[test]
fn arbitrary_bytes_never_panic() {
    check("arbitrary_bytes_never_panic", |g| {
        let input = if g.bool() {
            bytes(g, 0..200)
        } else {
            g.string(&format!("{UPPER}{DIGITS} /:.\r\n\n"), 0..200).into_bytes()
        };
        let cap = g.range(0..100);
        assert_outcome_is_sound(&input, cap, &read_request_limited(&input[..], cap));
    });
}

/// A well-formed request is read back exactly, under either line
/// ending, and bytes after the declared body are not the parser's.
#[test]
fn well_formed_requests_round_trip_field_for_field() {
    check("well_formed_requests_round_trip_field_for_field", |g| {
        let req = request(g);
        let mut input = wire(&req, eol(g));
        input.extend(bytes(g, 0..20));
        let cap = req.body.len() + g.range(0..3);
        assert_eq!(read_request_limited(&input[..], cap).unwrap(), req);
    });
}

/// A peer that stops early — anywhere in the head or the body — gets a
/// 400: never a request with fewer headers or a shorter body, and never
/// a 413 for a head that was merely cut off.
#[test]
fn every_proper_prefix_of_a_request_is_a_400() {
    check("every_proper_prefix_of_a_request_is_a_400", |g| {
        let input = wire(&request(g), eol(g));
        for cut in 0..input.len() {
            let err = read_request_limited(&input[..cut], 64).expect_err("a proper prefix");
            assert_eq!(err.status(), 400, "cut {cut} of {}: {err:?}", input.len());
        }
    });
}

/// One region of a well-formed request overwritten with noise, doubled
/// or dropped: any outcome is allowed but an unsound one.
#[test]
fn one_damaged_region_never_panics_or_mislabels() {
    check("one_damaged_region_never_panics_or_mislabels", |g| {
        let mut input = wire(&request(g), eol(g));
        let start = g.range(0..input.len());
        let end = g.range(start..=input.len().min(start + 40));
        let replacement = match g.range(0..3) {
            0 => bytes(g, 0..40),
            1 => [&input[start..end], &input[start..end]].concat(),
            _ => Vec::new(),
        };
        input.splice(start..end, replacement);
        let cap = g.range(0..100);
        assert_outcome_is_sound(&input, cap, &read_request_limited(&input[..], cap));
    });
}

/// A head of exactly `MAX_HEAD_BYTES` (blank line included) is read in
/// full; one byte more is a 413.
#[test]
fn the_head_cap_is_exact() {
    check("the_head_cap_is_exact", |g| {
        let mut req = request(g);
        let eol = eol(g);
        let head_len = |req: &Request| wire(req, eol).len() - req.body.len();
        // One more header, its value sized to land the head on the target.
        req.headers.push(("x-pad".into(), String::new()));
        let target = MAX_HEAD_BYTES - 3 + g.range(0..7);
        let pad = "p".repeat(target - head_len(&req));
        req.headers.last_mut().unwrap().1 = pad;
        assert_eq!(head_len(&req), target);

        let outcome = read_request_limited(&wire(&req, eol)[..], 64);
        if target <= MAX_HEAD_BYTES {
            assert_eq!(outcome.unwrap(), req);
        } else {
            assert!(matches!(outcome, Err(ParseError::TooLarge)), "{target}: {outcome:?}");
        }
    });
}

/// `Content-Length` against the body actually sent and against the
/// cap: over the cap is a 413 before any body byte is read, more than
/// was sent is a 400, and otherwise the body is the declared prefix.
#[test]
fn content_length_is_held_to_the_cap_and_to_the_bytes_sent() {
    check("content_length_is_held_to_the_cap_and_to_the_bytes_sent", |g| {
        let sent = bytes(g, 0..64);
        let declared = (sent.len() + g.range(0..5)).saturating_sub(2);
        let cap = (declared + g.range(0..5)).saturating_sub(2);
        let head = format!("POST /carve HTTP/1.1\r\nContent-Length: {declared}\r\n\r\n");
        let input = [head.as_bytes(), &sent].concat();

        let outcome = read_request_limited(&input[..], cap);
        assert_outcome_is_sound(&input, cap, &outcome);
        if declared > cap {
            assert!(matches!(outcome, Err(ParseError::TooLarge)), "{outcome:?}");
        } else if declared > sent.len() {
            assert_eq!(outcome.expect_err("a short body").status(), 400);
        } else {
            assert_eq!(outcome.unwrap().body, sent[..declared]);
        }
    });
}
