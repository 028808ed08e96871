//! The fast kernels against their oracles, to the bit.
//!
//! `Jaro` and `JaroWinkler` take a word-parallel path when both values
//! are ASCII and at most 64 bytes long, and the scalar kernel
//! otherwise; both must give `f64::to_bits`-equal scores to the
//! reference `jaro::jaro` over `char` slices. The OSA distance takes
//! Hyyrö's bit-vector path under the same condition and must equal
//! `damerau::osa_distance`. Monge–Elkan over Damerau–Levenshtein reads
//! both directions from one token-pair matrix and must equal the
//! two-pass `directed_with` form. Soundex codes must equal the
//! `String`-building algorithm they replaced. The assignment keeps its
//! working set on the stack for small matrices and in
//! [`AssignScratch`] above that; both storages must find a maximum
//! matching.

use nc_propcheck::{check, check_n, Gen, UPPER};
use nc_similarity::assignment::{max_weight_assignment, max_weight_assignment_with, AssignScratch};
use nc_similarity::damerau::{self, osa_distance, DamerauLevenshtein};
use nc_similarity::jaro::{jaro, Jaro, JaroWinkler};
use nc_similarity::monge_elkan::MongeElkan;
use nc_similarity::soundex::soundex;
use nc_similarity::token::tokens;
use nc_similarity::{Scratch, StringSimilarity};

/// Jaro–Winkler with the default parameters, computed from the
/// reference Jaro.
fn reference_jaro_winkler(a: &[char], b: &[char]) -> f64 {
    let jw = JaroWinkler::new();
    let j = jaro(a, b);
    if j <= jw.boost_threshold {
        return j;
    }
    let prefix = a
        .iter()
        .zip(b)
        .take(jw.max_prefix)
        .take_while(|(x, y)| x == y)
        .count();
    (j + prefix as f64 * jw.prefix_scale * (1.0 - j)).clamp(0.0, 1.0)
}

/// Both measures, through the caller's scratch and through the
/// thread's, equal the reference to the bit.
fn assert_bit_equal(scratch: &mut Scratch, a: &str, b: &str) {
    let (ca, cb): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let want = jaro(&ca, &cb).to_bits();
    assert_eq!(
        Jaro.sim_with(scratch, a, b).to_bits(),
        want,
        "Jaro {a:?} {b:?}"
    );
    assert_eq!(Jaro.sim(a, b).to_bits(), want, "Jaro {a:?} {b:?}");
    let want = reference_jaro_winkler(&ca, &cb).to_bits();
    let jw = JaroWinkler::new();
    assert_eq!(
        jw.sim_with(scratch, a, b).to_bits(),
        want,
        "Jaro–Winkler {a:?} {b:?}"
    );
    assert_eq!(jw.sim(a, b).to_bits(), want, "Jaro–Winkler {a:?} {b:?}");
}

/// The OSA distance and the Damerau–Levenshtein similarity, through
/// the caller's scratch and through the thread's, equal the reference
/// distance over `char` slices and the formula over it.
fn assert_osa_equal(scratch: &mut Scratch, a: &str, b: &str) {
    let (ca, cb): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let want = osa_distance(&ca, &cb);
    assert_eq!(damerau::distance_with(scratch, a, b), want, "OSA {a:?} {b:?}");
    assert_eq!(damerau::distance(a, b), want, "OSA {a:?} {b:?}");
    let max_len = ca.len().max(cb.len());
    let sim = if max_len == 0 {
        1.0
    } else {
        (1.0 - want as f64 / max_len as f64).clamp(0.0, 1.0)
    };
    assert_eq!(
        DamerauLevenshtein.sim_with(scratch, a, b).to_bits(),
        sim.to_bits(),
        "Damerau–Levenshtein {a:?} {b:?}"
    );
}

/// Every string of length ≤ 5 over {A, B, C}: 364 of them.
fn short_ternary_words() -> Vec<String> {
    let mut words = vec![String::new()];
    let mut last = vec![String::new()];
    for _ in 0..5 {
        last = last
            .iter()
            .flat_map(|w| ['A', 'B', 'C'].map(|c| format!("{w}{c}")))
            .collect();
        words.extend(last.iter().cloned());
    }
    assert_eq!(words.len(), 364);
    words
}

/// Every ordered pair of strings of length ≤ 5 over {A, B, C}: 364²
/// pairs, through one scratch, so a pattern-table bit left behind by
/// one call would show in a later one.
#[test]
fn jaro_equals_reference_on_every_short_ternary_pair() {
    let words = short_ternary_words();
    let mut scratch = Scratch::new();
    for a in &words {
        for b in &words {
            assert_bit_equal(&mut scratch, a, b);
        }
    }
}

/// The same 364² pairs for the OSA distance: every adjacent
/// transposition of up to five symbols is among them.
#[test]
fn osa_equals_reference_on_every_short_ternary_pair() {
    let words = short_ternary_words();
    let mut scratch = Scratch::new();
    for a in &words {
        for b in &words {
            assert_osa_equal(&mut scratch, a, b);
        }
    }
}

/// Apply one random edit (substitute, insert, delete or swap two
/// neighbours) to `s`, drawing new letters from `alphabet`.
fn edit(g: &mut Gen, s: &str, alphabet: &str) -> String {
    let mut cs: Vec<char> = s.chars().collect();
    let letter = |g: &mut Gen| g.pick(&alphabet.chars().collect::<Vec<_>>());
    match (g.range(0..4), cs.len()) {
        (_, 0) | (1, _) => {
            let at = g.range(0..=cs.len());
            cs.insert(at, letter(g));
        }
        (0, n) => cs[g.range(0..n)] = letter(g),
        (2, n) => {
            cs.remove(g.range(0..n));
        }
        (_, 1) => {}
        (_, n) => {
            let at = g.range(0..n - 1);
            cs.swap(at, at + 1);
        }
    }
    cs.into_iter().collect()
}

/// A pair of values shaped like register data and its errors.
fn value_pair(g: &mut Gen) -> (String, String) {
    let (a, b) = match g.range(0..7) {
        // Padded: blanks or leading zeros around the same value.
        0 => {
            let v = g.string(UPPER, 1..=12);
            let pad = g.pick(&[" ", "0", "  "]).repeat(g.range(1..=6));
            let b = if g.bool() {
                format!("{pad}{v}")
            } else {
                format!("{v}{pad}")
            };
            (v, b)
        }
        // Repeated letters: long runs, many candidates per window.
        1 => (g.string("AAB", 0..=24), g.string("ABB", 0..=24)),
        // OCR confusions.
        2 => {
            let a = g.string("0O1I5S8BAE", 1..=16);
            let b = a
                .chars()
                .map(|c| match c {
                    '0' if g.bool() => 'O',
                    'O' if g.bool() => '0',
                    '1' if g.bool() => 'I',
                    'I' if g.bool() => '1',
                    '5' if g.bool() => 'S',
                    'S' if g.bool() => '5',
                    '8' if g.bool() => 'B',
                    'B' if g.bool() => '8',
                    c => c,
                })
                .collect();
            (a, b)
        }
        // Near-equal: one or two edits apart.
        3 => {
            let a = g.string(UPPER, 0..=20);
            let mut b = edit(g, &a, UPPER);
            if g.bool() {
                b = edit(g, &b, UPPER);
            }
            (a, b)
        }
        // Around the word size: 63, 64 or 65 bytes against a value of
        // any length, often an edit of the long one.
        4 => {
            let n = g.pick(&[63, 64, 65]);
            let a = g.string("ABCD", n..=n);
            let b = match g.range(0..3) {
                0 => edit(g, &a, "ABCD"),
                1 => {
                    let n = g.pick(&[1, 10, 32, 63, 64, 65]);
                    g.string("ABCD", n..=n)
                }
                _ => a.chars().take(g.range(1..=a.len())).collect(),
            };
            (a, b)
        }
        // Non-ASCII against its ASCII spelling or an edit of it.
        5 => {
            let a = g
                .pick(&["ÅSA", "JOSÉ", "MÜLLER", "ÅSA LINDSTRÖM"])
                .to_owned();
            let b = match g.range(0..3) {
                0 => a
                    .replace('Å', "A")
                    .replace('É', "E")
                    .replace('Ü', "U")
                    .replace('Ö', "O"),
                1 => edit(g, &a, "ÅÉAE"),
                _ => g.string(UPPER, 0..=8),
            };
            (a, b)
        }
        // Unrelated values up past the word size.
        _ => (g.string(UPPER, 0..=70), g.string(UPPER, 0..=70)),
    };
    if g.bool() {
        (b, a)
    } else {
        (a, b)
    }
}

fn jaro_matches_reference_prop(g: &mut Gen) {
    let (a, b) = value_pair(g);
    assert_bit_equal(&mut Scratch::new(), &a, &b);
}

#[test]
fn jaro_matches_reference_on_register_shaped_pairs() {
    check(
        "jaro_matches_reference_on_register_shaped_pairs",
        jaro_matches_reference_prop,
    );
}

#[test]
#[ignore = "wide sweep: cargo test -- --ignored"]
fn jaro_matches_reference_on_register_shaped_pairs_wide() {
    check_n(
        "jaro_matches_reference_on_register_shaped_pairs",
        3_000,
        jaro_matches_reference_prop,
    );
}

fn osa_matches_reference_prop(g: &mut Gen) {
    let (a, b) = value_pair(g);
    assert_osa_equal(&mut Scratch::new(), &a, &b);
}

#[test]
fn osa_matches_reference_on_register_shaped_pairs() {
    check(
        "osa_matches_reference_on_register_shaped_pairs",
        osa_matches_reference_prop,
    );
}

#[test]
#[ignore = "wide sweep: cargo test -- --ignored"]
fn osa_matches_reference_on_register_shaped_pairs_wide() {
    check_n(
        "osa_matches_reference_on_register_shaped_pairs",
        3_000,
        osa_matches_reference_prop,
    );
}

/// Two multi-token values: register-shaped token pairs, some tokens
/// dropped or added on one side, the order sometimes reversed, and
/// runs of blanks between tokens.
fn token_values(g: &mut Gen) -> (String, String) {
    let (mut ta, mut tb) = (Vec::new(), Vec::new());
    for _ in 0..g.range(0..=4) {
        let (x, y) = value_pair(g);
        ta.push(x);
        if g.bool() {
            tb.push(y);
        }
    }
    for _ in 0..g.range(0..=2) {
        tb.push(g.string(UPPER, 1..=8));
    }
    if g.bool() {
        tb.reverse();
    }
    let sep = g.pick(&[" ", "  ", " \t "]);
    (ta.join(sep), tb.join(" "))
}

fn monge_elkan_one_matrix_prop(g: &mut Gen) {
    let (a, b) = token_values(g);
    let me = MongeElkan::new(DamerauLevenshtein::new());
    let mut scratch = Scratch::new();
    let (ta, tb) = (tokens(&a), tokens(&b));
    let two_pass = me.sim_tokens_with(&mut scratch, &ta, &tb).to_bits();
    assert_eq!(
        me.sim_with(&mut scratch, &a, &b).to_bits(),
        two_pass,
        "{a:?} {b:?}"
    );
    assert_eq!(me.sim(&a, &b).to_bits(), two_pass, "{a:?} {b:?}");
    assert_eq!(
        me.sim_with(&mut scratch, &b, &a).to_bits(),
        me.sim_tokens_with(&mut scratch, &tb, &ta).to_bits(),
        "{b:?} {a:?}"
    );
}

#[test]
fn monge_elkan_one_matrix_equals_two_pass() {
    check(
        "monge_elkan_one_matrix_equals_two_pass",
        monge_elkan_one_matrix_prop,
    );
}

#[test]
#[ignore = "wide sweep: cargo test -- --ignored"]
fn monge_elkan_one_matrix_equals_two_pass_wide() {
    check_n(
        "monge_elkan_one_matrix_equals_two_pass",
        3_000,
        monge_elkan_one_matrix_prop,
    );
}

/// The `String`-building Soundex the four-byte code replaced, kept
/// verbatim as the oracle.
fn reference_soundex(s: &str) -> Option<String> {
    let letters: Vec<char> = s
        .chars()
        .filter(|c| c.is_ascii_alphabetic())
        .map(|c| c.to_ascii_uppercase())
        .collect();
    let first = *letters.first()?;

    fn code(c: char) -> u8 {
        match c {
            'B' | 'F' | 'P' | 'V' => 1,
            'C' | 'G' | 'J' | 'K' | 'Q' | 'S' | 'X' | 'Z' => 2,
            'D' | 'T' => 3,
            'L' => 4,
            'M' | 'N' => 5,
            'R' => 6,
            'A' | 'E' | 'I' | 'O' | 'U' | 'Y' => 0,
            _ => 7,
        }
    }

    let mut out = String::with_capacity(4);
    out.push(first);
    let mut last_code = code(first);
    for &c in letters.iter().skip(1) {
        let k = code(c);
        match k {
            0 => last_code = 0,
            7 => {}
            _ => {
                if k != last_code {
                    out.push(char::from(b'0' + k));
                    if out.len() == 4 {
                        return Some(out);
                    }
                }
                last_code = k;
            }
        }
    }
    while out.len() < 4 {
        out.push('0');
    }
    Some(out)
}

fn soundex_matches_reference_prop(g: &mut Gen) {
    let s = match g.range(0..3) {
        0 => g.string("ABCDEFGHIJKLMNOPQRSTUVWXYZ", 0..=12),
        1 => g.string("abcdefghijklmnopqrstuvwxyzHW", 0..=12),
        _ => g.string("AEHWYBCDLMR'- .09ÅÉÜß", 0..=16),
    };
    assert_eq!(
        soundex(&s).as_deref(),
        reference_soundex(&s).as_deref(),
        "{s:?}"
    );
}

#[test]
fn soundex_matches_reference() {
    check("soundex_matches_reference", soundex_matches_reference_prop);
}

#[test]
#[ignore = "wide sweep: cargo test -- --ignored"]
fn soundex_matches_reference_wide() {
    check_n(
        "soundex_matches_reference",
        3_000,
        soundex_matches_reference_prop,
    );
}

/// The largest total over matchings of size `min(rows, cols)` (with
/// non-negative weights, no smaller matching does better).
fn brute_force_max(weights: &[f64], rows: usize, cols: usize) -> f64 {
    fn best(w: &dyn Fn(usize, usize) -> f64, i: usize, n: usize, used: &mut [bool]) -> f64 {
        if i == n {
            return 0.0;
        }
        let mut top = f64::NEG_INFINITY;
        for j in 0..used.len() {
            if !used[j] {
                used[j] = true;
                top = top.max(w(i, j) + best(w, i + 1, n, used));
                used[j] = false;
            }
        }
        top
    }
    if rows == 0 || cols == 0 {
        return 0.0;
    }
    if rows <= cols {
        best(
            &|i, j| weights[i * cols + j],
            0,
            rows,
            &mut vec![false; cols],
        )
    } else {
        best(
            &|i, j| weights[j * cols + i],
            0,
            cols,
            &mut vec![false; rows],
        )
    }
}

/// A weight: a tie-prone value or a random one.
fn weight(g: &mut Gen) -> f64 {
    if g.bool() {
        g.pick(&[0.0, 0.5, 1.0])
    } else {
        (g.u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[test]
fn assignment_is_a_maximum_matching_on_both_storages() {
    check("assignment_is_a_maximum_matching_on_both_storages", |g| {
        let (rows, cols) = (g.range(0..=9usize), g.range(0..=9usize));
        let weights = g.vec(rows * cols..=rows * cols, weight);
        // A scratch that last ran on a larger matrix: stale contents
        // must not leak into this run.
        let mut scratch = AssignScratch::default();
        let warm: Vec<f64> = g.vec(81..=81, weight);
        max_weight_assignment_with(&mut scratch, &warm, 9, 9);

        let total = max_weight_assignment_with(&mut scratch, &weights, rows, cols);
        let pairs = scratch.pairs();
        assert_eq!(pairs.len(), rows.min(cols), "{rows}x{cols}");
        let mut seen_rows = vec![false; rows];
        let mut seen_cols = vec![false; cols];
        for &(i, j) in pairs {
            assert!(!std::mem::replace(&mut seen_rows[i], true), "row {i} twice");
            assert!(
                !std::mem::replace(&mut seen_cols[j], true),
                "column {j} twice"
            );
        }
        let sum: f64 = pairs.iter().map(|&(i, j)| weights[i * cols + j]).sum();
        assert!((sum - total).abs() < 1e-12, "total {total} != sum {sum}");
        let best = brute_force_max(&weights, rows, cols);
        assert!(
            (total - best).abs() < 1e-12,
            "{rows}x{cols}: {total} < {best}"
        );

        let matrix: Vec<Vec<f64>> = weights.chunks(cols.max(1)).map(<[f64]>::to_vec).collect();
        let owned = max_weight_assignment(&matrix);
        assert_eq!(owned.pairs, pairs);
        assert_eq!(owned.total.to_bits(), total.to_bits());
    });
}
