//! The registry orchestrator: population evolution and snapshot emission.

use std::collections::HashSet;

use crate::config::GeneratorConfig;
use crate::date::Date;
use crate::names;
use crate::person::{Person, Status};
use crate::rng::Rng;
use crate::snapshot::{Snapshot, SnapshotInfo};

/// The simulated State Board of Elections: owns the voter population and
/// publishes snapshots.
///
/// Call [`Registry::generate_snapshot`] with the entries of a calendar
/// (see [`crate::snapshot::standard_calendar`]) **in order**; the
/// population evolves between consecutive snapshots.
#[derive(Debug)]
pub struct Registry {
    cfg: GeneratorConfig,
    rng: Rng,
    persons: Vec<Person>,
    next_person_id: u64,
    ncid_seq: u64,
    /// NCIDs of purged voters, available for (erroneous) reuse.
    retired_ncids: Vec<String>,
    /// NCIDs that were actually reused → known-unsound clusters.
    reused_ncids: HashSet<String>,
    /// Ids of persons already past retention whose NCID was retired.
    purged: HashSet<u64>,
    last_date: Option<Date>,
}

impl Registry {
    /// Create a registry. Panics when the configuration is invalid.
    pub fn new(cfg: GeneratorConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid generator config: {e}");
        }
        let rng = Rng::seed_from_u64(cfg.seed);
        Registry {
            cfg,
            rng,
            persons: Vec::new(),
            next_person_id: 0,
            ncid_seq: 0,
            retired_ncids: Vec::new(),
            reused_ncids: HashSet::new(),
            purged: HashSet::new(),
            last_date: None,
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &GeneratorConfig {
        &self.cfg
    }

    /// Number of voters ever created.
    pub fn population(&self) -> usize {
        self.persons.len()
    }

    /// NCIDs that were reused for a different person — the ground truth
    /// for evaluating the plausibility check (these clusters are
    /// unsound by construction).
    pub fn unsound_ncids(&self) -> &HashSet<String> {
        &self.reused_ncids
    }

    fn fresh_ncid(&mut self) -> String {
        let n = self.ncid_seq;
        self.ncid_seq += 1;
        let l1 = char::from(b'A' + ((n / 2_600_000) % 26) as u8);
        let l2 = char::from(b'A' + ((n / 100_000) % 26) as u8);
        format!("{l1}{l2}{:06}", n % 100_000)
    }

    fn spawn_person(&mut self, year: i32, registration: Date) -> Person {
        // Occasionally reuse a purged NCID — the data-management error
        // behind the paper's unsound clusters (Figure 3, cluster DR19657).
        let reuse = !self.retired_ncids.is_empty() && self.rng.gen_bool(self.cfg.ncid_reuse_rate);
        let ncid = if reuse {
            let i = self.rng.gen_range(0..self.retired_ncids.len());
            let id = self.retired_ncids.swap_remove(i);
            self.reused_ncids.insert(id.clone());
            id
        } else {
            self.fresh_ncid()
        };
        let id = self.next_person_id;
        self.next_person_id += 1;
        let mut p = Person::random(&mut self.rng, id, ncid, year);
        p.register(&mut self.rng, &self.cfg, registration);
        p
    }

    /// Evolve the population from the previous snapshot to `date` and
    /// emit the full voter roll.
    pub fn generate_snapshot(&mut self, info: &SnapshotInfo) -> Snapshot {
        let date = info.date;
        if let Some(last) = self.last_date {
            assert!(date > last, "snapshots must be generated in order");
        }

        if self.persons.is_empty() {
            // Initial population, registered over the preceding years.
            for _ in 0..self.cfg.initial_population {
                let years_ago = self.rng.gen_range(0..10);
                let reg = Date::new(date.year - years_ago, self.rng.gen_range(1..=12), 15);
                let p = self.spawn_person(date.year, reg);
                self.persons.push(p);
            }
        } else {
            let last = self.last_date.expect("population implies a prior snapshot");
            let elapsed = elapsed_years(last, date);
            self.evolve(last, date, elapsed);
            self.grow(date, elapsed);
        }

        // Retire NCIDs of voters that fell past retention.
        let retention = self.cfg.removed_retention_years;
        for p in &self.persons {
            if !p.appears_in_snapshot(date.year, retention) && !self.purged.contains(&p.id) {
                self.purged.insert(p.id);
                self.retired_ncids.push(p.ncid.clone());
            }
        }

        let rows = self
            .persons
            .iter()
            .filter(|p| p.appears_in_snapshot(date.year, retention))
            .map(|p| p.emit_row(&mut self.rng, &self.cfg, date))
            .collect();

        self.last_date = Some(date);
        Snapshot {
            index: info.index,
            date: date.to_string(),
            rows,
        }
    }

    /// Apply life events over `elapsed` years.
    fn evolve(&mut self, last: Date, date: Date, elapsed: f64) {
        let cfg = self.cfg.clone();
        let p_removal = (cfg.removal_rate * elapsed).min(1.0);
        let p_move = (cfg.move_rate * elapsed).min(1.0);
        let p_name = (cfg.name_change_rate * elapsed).min(1.0);
        let p_party = (cfg.party_switch_rate * elapsed).min(1.0);
        let p_flap = (0.03 * elapsed).min(1.0);

        for p in &mut self.persons {
            if matches!(p.status, Status::Removed { .. }) {
                continue;
            }
            if self.rng.gen_bool(p_removal) {
                let reason = self.rng.gen_range(0..4);
                p.status = Status::Removed {
                    year: date.year,
                    reason,
                };
                p.cancellation_dt = Some(date);
                continue;
            }
            let mut reregister = self.rng.gen_bool(cfg.reregistration_rate);
            if self.rng.gen_bool(p_move) {
                // Move: new address; sometimes a new county.
                p.house_no = self.rng.gen_range(1..9999);
                p.street = self.rng.gen_range(0..names::STREETS.len());
                p.street_type = self.rng.gen_range(0..names::STREET_TYPES.len());
                if self.rng.gen_bool(0.4) {
                    p.county = self.rng.gen_range(0..names::COUNTIES.len());
                    p.city = self.rng.gen_range(0..names::CITIES.len());
                }
                let county_id = names::COUNTIES[p.county].0;
                p.zip = format!("27{:03}", (county_id * 7 + self.rng.gen_range(0..100)) % 1000);
                reregister = true;
            }
            if self.rng.gen_bool(p_name) {
                // Name change (marriage/divorce); occasionally hyphenated.
                let new_last = names::LAST[self.rng.gen_range(0..names::LAST.len())].to_owned();
                p.last = if self.rng.gen_bool(0.2) {
                    format!("{} {new_last}", p.last)
                } else {
                    new_last
                };
                reregister = true;
            }
            if self.rng.gen_bool(p_party) {
                p.party = (p.party + self.rng.gen_range(1..names::PARTIES.len()))
                    % names::PARTIES.len();
                // A party change is a small form update: refresh the
                // recorded party fields without a full re-registration.
                if let Some(rec) = &mut p.recorded {
                    let (cd, desc) = names::PARTIES[p.party];
                    rec.row.set(crate::schema::PARTY_CD, cd);
                    rec.row.set(crate::schema::PARTY_DESC, desc);
                }
            }
            if self.rng.gen_bool(p_flap) {
                p.status = match p.status {
                    Status::Active => Status::Inactive,
                    Status::Inactive => Status::Active,
                    s => s,
                };
            }
            if reregister {
                let month_span = months_between(last, date).max(1);
                let off = self.rng.gen_range(0..month_span);
                let (ry, rm) = add_months(last, off);
                p.register(&mut self.rng, &cfg, Date::new(ry, rm, 15));
            }
        }
    }

    /// Register new voters proportional to elapsed time (boosted in
    /// presidential election years).
    fn grow(&mut self, date: Date, elapsed: f64) {
        let boost = if date.year % 4 == 0 {
            self.cfg.election_year_boost
        } else {
            1.0
        };
        let expectation =
            self.persons.len() as f64 * self.cfg.annual_growth * elapsed * boost;
        let n = expectation.floor() as usize
            + usize::from(self.rng.gen_bool(expectation.fract().clamp(0.0, 1.0)));
        for _ in 0..n {
            let reg = Date::new(date.year, date.month, 1);
            let p = self.spawn_person(date.year, reg);
            self.persons.push(p);
        }
    }
}

/// Fractional years between two dates (month resolution).
fn elapsed_years(from: Date, to: Date) -> f64 {
    f64::from(months_between(from, to)) / 12.0
}

/// Whole months between two dates.
fn months_between(from: Date, to: Date) -> i32 {
    (to.year - from.year) * 12 + i32::from(to.month) - i32::from(from.month)
}

/// Add `off` months to a date, returning (year, month).
fn add_months(d: Date, off: i32) -> (i32, u8) {
    let total = i32::from(d.month) - 1 + off;
    (d.year + total.div_euclid(12), (total.rem_euclid(12) + 1) as u8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema;
    use crate::snapshot::standard_calendar;

    fn small_registry(seed: u64, pop: usize) -> Registry {
        let cfg = GeneratorConfig {
            seed,
            initial_population: pop,
            ..Default::default()
        };
        Registry::new(cfg)
    }

    #[test]
    fn first_snapshot_contains_initial_population() {
        let mut reg = small_registry(1, 300);
        let cal = standard_calendar();
        let snap = reg.generate_snapshot(&cal[0]);
        assert_eq!(snap.rows.len(), 300);
        assert_eq!(snap.date, "2008-11-04");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cal = standard_calendar();
        let run = |seed| {
            let mut reg = small_registry(seed, 100);
            let s0 = reg.generate_snapshot(&cal[0]);
            let s1 = reg.generate_snapshot(&cal[1]);
            (s0.rows, s1.rows)
        };
        let (a0, a1) = run(7);
        let (b0, b1) = run(7);
        assert_eq!(a0, b0);
        assert_eq!(a1, b1);
        let (c0, _) = run(8);
        assert_ne!(a0, c0);
    }

    #[test]
    fn population_grows_over_time() {
        let mut reg = small_registry(2, 200);
        let cal = standard_calendar();
        let first = reg.generate_snapshot(&cal[0]).rows.len();
        let mut last = 0;
        for info in &cal[1..10] {
            last = reg.generate_snapshot(info).rows.len();
        }
        assert!(last > first, "{last} <= {first}");
    }

    #[test]
    fn ncids_are_stable_across_snapshots() {
        let mut reg = small_registry(3, 100);
        let cal = standard_calendar();
        let s0 = reg.generate_snapshot(&cal[0]);
        let ncids0: HashSet<String> = s0
            .rows
            .iter()
            .map(|r| r.ncid().to_owned())
            .collect();
        let s1 = reg.generate_snapshot(&cal[1]);
        let ncids1: HashSet<String> = s1
            .rows
            .iter()
            .map(|r| r.ncid().to_owned())
            .collect();
        // Almost all of snapshot 0's voters persist into snapshot 1.
        let survived = ncids0.intersection(&ncids1).count();
        assert!(survived as f64 >= ncids0.len() as f64 * 0.9);
    }

    #[test]
    fn most_consecutive_rows_are_unchanged() {
        // The paper's key observation: unioning snapshots yields mostly
        // exact duplicates (after excluding dates/age from comparison).
        let mut reg = small_registry(4, 300);
        let cal = standard_calendar();
        let s0 = reg.generate_snapshot(&cal[0]);
        let s1 = reg.generate_snapshot(&cal[1]);
        let key = |r: &schema::Row| {
            let attrs = schema::hash_attrs_all();
            attrs
                .iter()
                .map(|&a| r.get(a).trim().to_owned())
                .collect::<Vec<_>>()
                .join("|")
        };
        let set0: HashSet<String> = s0.rows.iter().map(key).collect();
        let dup = s1.rows.iter().filter(|r| set0.contains(&key(r))).count();
        let rate = dup as f64 / s1.rows.len() as f64;
        assert!(rate > 0.7, "duplicate rate {rate} too low");
    }

    #[test]
    fn removed_voters_eventually_disappear() {
        let cfg = GeneratorConfig {
            seed: 5,
            initial_population: 200,
            removal_rate: 0.3,
            annual_growth: 0.0,
            ..Default::default()
        };
        let mut reg = Registry::new(cfg);
        let cal = standard_calendar();
        let first = reg.generate_snapshot(&cal[0]).rows.len();
        let mut sizes = Vec::new();
        for info in &cal[1..20] {
            sizes.push(reg.generate_snapshot(info).rows.len());
        }
        let last = *sizes.last().unwrap();
        assert!(last < first, "roll should shrink: {last} vs {first}");
    }

    #[test]
    fn ncid_reuse_creates_unsound_clusters() {
        let cfg = GeneratorConfig {
            seed: 6,
            initial_population: 500,
            removal_rate: 0.15,
            removed_retention_years: 1,
            ncid_reuse_rate: 0.5,
            ..Default::default()
        };
        let mut reg = Registry::new(cfg);
        for info in standard_calendar().iter().take(25) {
            reg.generate_snapshot(info);
        }
        assert!(
            !reg.unsound_ncids().is_empty(),
            "expected some NCID reuse with a high reuse rate"
        );
    }

    #[test]
    #[should_panic(expected = "snapshots must be generated in order")]
    fn out_of_order_generation_panics() {
        let mut reg = small_registry(7, 50);
        let cal = standard_calendar();
        reg.generate_snapshot(&cal[5]);
        reg.generate_snapshot(&cal[0]);
    }

    #[test]
    fn month_helpers() {
        let a = Date::new(2010, 11, 2);
        let b = Date::new(2011, 1, 1);
        assert_eq!(months_between(a, b), 2);
        assert!((elapsed_years(a, b) - 2.0 / 12.0).abs() < 1e-12);
        assert_eq!(add_months(a, 2), (2011, 1));
        assert_eq!(add_months(a, 0), (2010, 11));
        assert_eq!(add_months(Date::new(2010, 1, 1), 11), (2010, 12));
    }
}
