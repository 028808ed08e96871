//! The runner held to its own rules: a failing property names a seed,
//! that seed replays the same failure, and the cases a property sees
//! are a function of its name and nothing else.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};

use nc_propcheck::{check, check_n, replay, Gen, CASES, DIGITS, UPPER};

/// Fails on about one case in ten.
fn never_draws_three(g: &mut Gen) {
    let x = g.range(0..10u32);
    assert!(x != 3, "drew {x}");
}

/// The message `run` panics with.
fn panic_message(run: impl FnOnce()) -> String {
    let panic = catch_unwind(AssertUnwindSafe(run)).expect_err("must panic");
    panic.downcast_ref::<String>().expect("a formatted message").clone()
}

#[test]
#[should_panic(expected = "property `selftest` failed at case")]
fn a_failing_property_fails_the_test() {
    check("selftest", never_draws_three);
}

#[test]
fn the_reported_seed_replays_the_same_failure() {
    let message = panic_message(|| check("selftest", never_draws_three));
    assert!(message.ends_with("): drew 3"), "{message}");
    let (_, after) = message.split_once("replay(0x").expect("a seed in the message");
    let (hex, _) = after.split_once(',').unwrap();
    let seed = u64::from_str_radix(hex, 16).unwrap();
    assert_eq!(panic_message(|| replay(seed, never_draws_three)), "drew 3");

    // The case number counts from 1 and every case before it passed.
    let (_, after) = message.split_once("at case ").unwrap();
    let failed: u32 = after.split_once('/').unwrap().0.parse().unwrap();
    check_n("selftest", failed - 1, never_draws_three);
}

#[test]
fn cases_depend_on_the_name_alone() {
    let first_draws = |name: &str, cases: u32| {
        let seen = RefCell::new(Vec::new());
        check_n(name, cases, |g| seen.borrow_mut().push(g.u64()));
        seen.into_inner()
    };
    let a = first_draws("a", CASES);
    assert_eq!(a.len(), CASES as usize);
    assert_eq!(a, first_draws("a", CASES), "the same on every run");
    assert_eq!(a[..5], first_draws("a", 5), "a prefix under a smaller count");
    assert_ne!(a, first_draws("b", CASES));
    let mut distinct = a.clone();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(distinct.len(), a.len(), "every case has its own stream");
}

#[test]
fn draws_stay_inside_what_was_asked_for() {
    check("draws_stay_inside_what_was_asked_for", |g| {
        let code = g.string(UPPER, 2..=2) + &g.string(DIGITS, 0..4);
        assert!((2..=5).contains(&code.len()), "{code}");
        assert!(code[..2].bytes().all(|b| b.is_ascii_uppercase()), "{code}");
        assert!(code[2..].bytes().all(|b| b.is_ascii_digit()), "{code}");

        let items = g.vec(1..9, |g| g.range(-4..=4));
        assert!((1..9).contains(&items.len()));
        assert!(items.iter().all(|x| (-4..=4).contains(x)));
        assert!(items.contains(&g.pick(&items)));
        assert!((0.0..1.0).contains(&g.range(0.0..1.0)));
        let _: (bool, u64) = (g.bool(), g.u64());
    });
}
