//! The simulated voter: true state, recorded state and life events.
//!
//! A voter has a *true* state (who they really are, where they really
//! live) and a *recorded* state (what the register says). The recorded
//! state is re-captured from a hand-filled form at every
//! (re-)registration — that is where errors enter — and goes stale in
//! between, which is exactly how the real register accumulates outdated
//! values.

use crate::config::GeneratorConfig;
use crate::date::Date;
use crate::errors;
use crate::names;
use crate::rng::Rng;
use crate::schema::{self, Row};

/// Voter registration status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// On the rolls and verified.
    Active,
    /// On the rolls but unconfirmed.
    Inactive,
    /// Removed from the rolls in the given year, with a reason index
    /// into the `REMOVED` entries of [`names::STATUS_REASONS`].
    Removed {
        /// Year of removal.
        year: i32,
        /// Index of the removal reason.
        reason: usize,
    },
}

/// The recorded (as-entered) register entry of a voter.
#[derive(Debug, Clone)]
pub struct Recorded {
    /// Person + election attribute values as captured from the form,
    /// errors included. District *labels* and time-dependent values are
    /// filled at emission time.
    pub row: Row,
    /// Numeric district assignments captured at registration.
    pub house_dist: u32,
    /// Congressional district.
    pub congr_dist: u32,
    /// NC senate district.
    pub senate_dist: u32,
    /// Judicial district.
    pub judic_dist: u32,
    /// Precinct number.
    pub precinct: u32,
    /// Municipal ward.
    pub ward: u32,
    /// Year of birth as recorded (may be wrong).
    pub yob_recorded: i32,
    /// Whether the recorded age is an outlier value (overrides the
    /// computed age at emission).
    pub age_outlier: Option<String>,
}

/// One simulated voter.
#[derive(Debug, Clone)]
pub struct Person {
    /// Stable simulation id.
    pub id: u64,
    /// The register identifier shared by all of this voter's records.
    pub ncid: String,
    /// True sex: `false` = male, `true` = female.
    pub female: bool,
    /// Sex recorded as undesignated (`U`).
    pub sex_undesignated: bool,
    /// True year of birth.
    pub yob: i32,
    /// Index into [`names::STATES`].
    pub birth_state: usize,
    /// Index into [`names::RACES`].
    pub race: usize,
    /// Index into [`names::ETHNICITIES`].
    pub ethnic: usize,
    /// True first name.
    pub first: String,
    /// True middle name (may be empty).
    pub midl: String,
    /// True last name.
    pub last: String,
    /// Name suffix (usually empty).
    pub suffix: String,
    /// Index into [`names::COUNTIES`].
    pub county: usize,
    /// House number of the residential address.
    pub house_no: u32,
    /// Index into [`names::STREETS`].
    pub street: usize,
    /// Index into [`names::STREET_TYPES`].
    pub street_type: usize,
    /// Index into [`names::CITIES`].
    pub city: usize,
    /// ZIP code.
    pub zip: String,
    /// Phone number (may be empty).
    pub phone: String,
    /// Whether a separate mailing address is on file.
    pub has_mail_addr: bool,
    /// PO box number of the mailing address (stable per voter).
    pub po_box: u32,
    /// Index into [`names::PARTIES`].
    pub party: usize,
    /// Driver's license on file.
    pub drivers_lic: bool,
    /// Registration date of the current registration.
    pub registr_dt: Date,
    /// Cancellation date (set when removed).
    pub cancellation_dt: Option<Date>,
    /// Current status.
    pub status: Status,
    /// The recorded register entry (None until first registration).
    pub recorded: Option<Recorded>,
}

impl Person {
    /// Create a random voter (true state only; call
    /// [`Person::register`] to capture the recorded entry).
    pub fn random(rng: &mut Rng, id: u64, ncid: String, current_year: i32) -> Self {
        let female = rng.gen_bool(0.52);
        let sex_undesignated = rng.gen_bool(0.02);
        let first_pool = if female {
            names::FEMALE_FIRST
        } else {
            names::MALE_FIRST
        };
        let midl = if rng.gen_bool(0.85) {
            names::MIDDLE[rng.gen_range(0..names::MIDDLE.len())].to_owned()
        } else {
            String::new()
        };
        let suffix = if !female && rng.gen_bool(0.06) {
            names::SUFFIXES[rng.gen_range(0..names::SUFFIXES.len())].to_owned()
        } else {
            String::new()
        };
        let county = rng.gen_range(0..names::COUNTIES.len());
        let age = 18 + (rng.gen_range(0f64..1.0).powf(1.4) * 70.0) as i32;
        let county_id = names::COUNTIES[county].0;
        Person {
            id,
            ncid,
            female,
            sex_undesignated,
            yob: current_year - age,
            birth_state: if rng.gen_bool(0.6) {
                0 // NC
            } else {
                rng.gen_range(0..names::STATES.len())
            },
            race: rng.gen_range(0..names::RACES.len()),
            ethnic: rng.gen_range(0..names::ETHNICITIES.len()),
            first: first_pool[rng.gen_range(0..first_pool.len())].to_owned(),
            midl,
            last: names::LAST[rng.gen_range(0..names::LAST.len())].to_owned(),
            suffix,
            county,
            house_no: rng.gen_range(1..9999),
            street: rng.gen_range(0..names::STREETS.len()),
            street_type: rng.gen_range(0..names::STREET_TYPES.len()),
            city: rng.gen_range(0..names::CITIES.len()),
            zip: format!("27{:03}", (county_id * 7 + rng.gen_range(0..100)) % 1000),
            phone: if rng.gen_bool(0.4) {
                let area = ["919", "704", "336", "910", "828", "252"][rng.gen_range(0..6)];
                format!("{area}{:07}", rng.gen_range(0..10_000_000u32))
            } else {
                String::new()
            },
            has_mail_addr: rng.gen_bool(0.02),
            po_box: rng.gen_range(1..9000),
            party: weighted_party(rng),
            drivers_lic: rng.gen_bool(0.9),
            registr_dt: Date::new(current_year.max(1900), 1, 1),
            cancellation_dt: None,
            status: Status::Active,
            recorded: None,
        }
    }

    /// True residential street address string.
    pub fn true_street_address(&self) -> String {
        format!(
            "{} {} {}",
            self.house_no,
            names::STREETS[self.street],
            names::STREET_TYPES[self.street_type]
        )
    }

    /// Capture the recorded register entry from a hand-filled form,
    /// injecting errors per the configured rates.
    pub fn register(&mut self, rng: &mut Rng, cfg: &GeneratorConfig, date: Date) {
        self.registr_dt = date;
        let rates = &cfg.error_rates;
        let mut row = Row::empty();
        row.set(schema::NCID, self.ncid.clone());
        row.set(schema::FIRST_NAME, errors::corrupt_value(rng, rates, &self.first));
        row.set(schema::MIDL_NAME, errors::corrupt_value(rng, rates, &self.midl));
        row.set(schema::LAST_NAME, errors::corrupt_value(rng, rates, &self.last));
        row.set(schema::NAME_SUFX, self.suffix.clone());

        // Multi-attribute name irregularities.
        if rng.gen_bool(cfg.confusion_rate) {
            errors::confuse_values(rng, &mut row);
        } else if rng.gen_bool(cfg.integration_rate) {
            errors::integrate_value(&mut row);
        } else if rng.gen_bool(cfg.scatter_rate) {
            errors::scatter_values(rng, &mut row);
        }

        let (sex_code, sex_desc) = if self.sex_undesignated {
            ("U", "UNDESIGNATED")
        } else if self.female {
            ("F", "FEMALE")
        } else {
            ("M", "MALE")
        };
        row.set(schema::SEX_CODE, sex_code);
        row.set(schema::SEX, sex_desc);
        let (race_code, race_desc) = names::RACES[self.race];
        row.set(schema::RACE_CODE, race_code);
        row.set(schema::RACE_DESC, errors::corrupt_value(rng, rates, race_desc));
        let (eth_code, eth_desc) = names::ETHNICITIES[self.ethnic];
        row.set(schema::ETHNIC_CODE, eth_code);
        row.set(schema::ETHNIC_DESC, eth_desc);
        let (_, birth_state_name) = names::STATES[self.birth_state];
        row.set(
            schema::BIRTH_PLACE,
            errors::corrupt_value(rng, rates, birth_state_name),
        );
        row.set(schema::FULL_PHONE, self.phone.clone());
        row.set(
            schema::RES_STREET,
            errors::corrupt_value(rng, rates, &self.true_street_address()),
        );
        row.set(
            schema::RES_CITY,
            errors::corrupt_value(rng, rates, names::CITIES[self.city]),
        );
        row.set(schema::RES_STATE, "NC");
        row.set(schema::ZIP_CODE, self.zip.clone());
        if self.has_mail_addr {
            row.set(schema::MAIL_ADDR1, format!("PO BOX {}", self.po_box));
            row.set(schema::MAIL_CITY, names::CITIES[self.city]);
            row.set(schema::MAIL_STATE, "NC");
            row.set(schema::MAIL_ZIP, self.zip.clone());
        }

        let (county_id, county_name) = names::COUNTIES[self.county];
        row.set(schema::COUNTY_ID, county_id.to_string());
        row.set(schema::COUNTY_DESC, county_name);
        let precinct = (county_id * 7 + self.house_no) % 30 + 1;
        row.set(schema::PRECINCT_ABBRV, format!("{precinct:02}"));
        row.set(schema::PRECINCT_DESC, format!("PRECINCT {precinct:02}"));
        row.set(schema::SCHOOL_DIST, format!("SCH {}", county_id % 12 + 1));
        row.set(schema::MUNIC_ABBRV, &names::CITIES[self.city][..3.min(names::CITIES[self.city].len())]);
        row.set(schema::MUNIC_DESC, names::CITIES[self.city]);

        let (party_cd, party_desc) = names::PARTIES[self.party];
        row.set(schema::PARTY_CD, party_cd);
        row.set(schema::PARTY_DESC, party_desc);
        row.set(schema::REGISTR_DT, date.to_string());
        row.set(schema::DRIVERS_LIC, if self.drivers_lic { "Y" } else { "N" });

        let yob_recorded = if rng.gen_bool(0.01) {
            // Mis-entered year of birth.
            self.yob + rng.gen_range(-9i32..=9)
        } else {
            self.yob
        };
        let age_outlier = if rng.gen_bool(cfg.age_outlier_rate) {
            Some(errors::make_outlier_age(rng))
        } else {
            None
        };

        self.recorded = Some(Recorded {
            row,
            house_dist: (county_id * 3 + self.house_no % 7) % 120 + 1,
            congr_dist: county_id % 13 + 1,
            senate_dist: county_id % 50 + 1,
            judic_dist: county_id % 30 + 1,
            precinct,
            ward: self.house_no % 8 + 1,
            yob_recorded,
            age_outlier,
        });
    }

    /// Whether the voter currently appears in published snapshots.
    pub fn appears_in_snapshot(&self, year: i32, retention_years: i32) -> bool {
        match self.status {
            Status::Active | Status::Inactive => true,
            Status::Removed { year: removed, .. } => year - removed <= retention_years,
        }
    }

    /// Emit the voter's row for a snapshot. `recorded` must be present
    /// (the voter must have registered at least once).
    ///
    /// Per-emission effects (stray whitespace, age jitter) are re-rolled
    /// here; everything else comes from the recorded entry.
    pub fn emit_row(
        &self,
        rng: &mut Rng,
        cfg: &GeneratorConfig,
        snapshot_date: Date,
    ) -> Row {
        let rec = self.recorded.as_ref().expect("voter has registered");
        let mut row = rec.row.clone();
        let year = snapshot_date.year;

        // Time-dependent values.
        let age_exact = year - rec.yob_recorded;
        let age = if let Some(outlier) = &rec.age_outlier {
            outlier.clone()
        } else if rng.gen_bool(cfg.age_jitter_rate) {
            (age_exact - 1).to_string()
        } else {
            age_exact.to_string()
        };
        row.set(schema::AGE, age);
        row.set(schema::AGE_GROUP, crate::snapshot::format_age_group(age_exact, year));

        // Era-dependent district labels.
        row.set(schema::NC_HOUSE, crate::snapshot::format_house_district(rec.house_dist, year));
        row.set(schema::CONGR_DIST, crate::snapshot::format_congressional(rec.congr_dist, year));
        row.set(schema::NC_SENATE, crate::snapshot::format_senate(rec.senate_dist));
        row.set(schema::JUDIC_DIST, format!("{:02}", rec.judic_dist));
        row.set(schema::WARD_ABBRV, format!("W{}", rec.ward));

        // Live status.
        let (status, reason) = match self.status {
            Status::Active => ("ACTIVE", "VERIFIED"),
            Status::Inactive => ("INACTIVE", "CONFIRMATION NOT RETURNED"),
            Status::Removed { reason, .. } => {
                let removed: Vec<&(&str, &str)> = names::STATUS_REASONS
                    .iter()
                    .filter(|(s, _)| *s == "REMOVED")
                    .collect();
                ("REMOVED", removed[reason % removed.len()].1)
            }
        };
        row.set(schema::STATUS, status);
        row.set(schema::STATUS_REASON, reason);
        if let Some(c) = self.cancellation_dt {
            row.set(schema::CANCELLATION_DT, c.to_string());
        }

        // Meta.
        row.set(schema::SNAPSHOT_DT, snapshot_date.to_string());
        let load_day = (u32::from(snapshot_date.day) % 20 + 1) as u8;
        row.set(
            schema::LOAD_DT,
            Date::new(year, snapshot_date.month, load_day).to_string(),
        );

        // Stray whitespace, re-rolled per emission.
        if cfg.whitespace_rate > 0.0 {
            for id in 0..schema::NUM_ATTRS {
                if !row.get(id).is_empty() && rng.gen_bool(cfg.whitespace_rate) {
                    let padded = errors::pad_whitespace(rng, row.get(id));
                    row.set(id, padded);
                }
            }
        }
        row
    }
}

/// Party selection with realistic weights.
fn weighted_party(rng: &mut Rng) -> usize {
    let roll: f64 = rng.gen();
    if roll < 0.38 {
        0 // DEM
    } else if roll < 0.68 {
        1 // REP
    } else if roll < 0.99 {
        2 // UNA
    } else {
        3 // LIB
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_person(seed: u64) -> (Rng, Person, GeneratorConfig) {
        let mut rng = Rng::seed_from_u64(seed);
        let cfg = GeneratorConfig::small(seed);
        let mut p = Person::random(&mut rng, 1, "AA000001".into(), 2008);
        p.register(&mut rng, &cfg, Date::new(2008, 1, 15));
        (rng, p, cfg)
    }

    #[test]
    fn random_person_is_plausible() {
        let (_, p, _) = mk_person(1);
        assert!(!p.first.is_empty());
        assert!(!p.last.is_empty());
        let age = 2008 - p.yob;
        assert!((18..=95).contains(&age), "age {age}");
        assert!(p.zip.starts_with("27"));
    }

    #[test]
    fn register_fills_recorded_row() {
        let (_, p, _) = mk_person(2);
        let rec = p.recorded.as_ref().unwrap();
        assert_eq!(rec.row.get(schema::NCID), "AA000001");
        assert!(!rec.row.get(schema::LAST_NAME).is_empty());
        assert!(!rec.row.get(schema::COUNTY_DESC).is_empty());
        assert!(rec.house_dist >= 1 && rec.house_dist <= 120);
        assert!(rec.congr_dist >= 1 && rec.congr_dist <= 13);
    }

    #[test]
    fn emit_row_sets_snapshot_fields() {
        let (mut rng, p, cfg) = mk_person(3);
        let row = p.emit_row(&mut rng, &cfg, Date::new(2010, 11, 2));
        assert_eq!(row.get(schema::SNAPSHOT_DT), "2010-11-02");
        assert!(!row.get(schema::AGE).is_empty());
        assert!(!row.get(schema::NC_HOUSE).is_empty());
        assert_eq!(row.get(schema::STATUS), "ACTIVE");
    }

    #[test]
    fn emitted_age_tracks_snapshot_year() {
        let (mut rng, p, mut cfg) = mk_person(4);
        cfg.age_jitter_rate = 0.0;
        let rec_yob = p.recorded.as_ref().unwrap().yob_recorded;
        if p.recorded.as_ref().unwrap().age_outlier.is_none() {
            let r1 = p.emit_row(&mut rng, &cfg, Date::new(2010, 1, 1));
            let r2 = p.emit_row(&mut rng, &cfg, Date::new(2015, 1, 1));
            let a1: i32 = r1.get(schema::AGE).trim().parse().unwrap();
            let a2: i32 = r2.get(schema::AGE).trim().parse().unwrap();
            assert_eq!(a1, 2010 - rec_yob);
            assert_eq!(a2 - a1, 5);
        }
    }

    #[test]
    fn district_labels_follow_era() {
        let (mut rng, p, mut cfg) = mk_person(5);
        cfg.whitespace_rate = 0.0;
        let rec = p.recorded.clone().unwrap();
        let r_old = p.emit_row(&mut rng, &cfg, Date::new(2013, 1, 1));
        let r_new = p.emit_row(&mut rng, &cfg, Date::new(2014, 1, 1));
        assert!(r_old.get(schema::NC_HOUSE).ends_with("HOUSE"));
        assert_eq!(
            r_new.get(schema::NC_HOUSE),
            format!("NC HOUSE DISTRICT {}", rec.house_dist)
        );
    }

    #[test]
    fn removed_voters_keep_appearing_then_purge() {
        let (_, mut p, _) = mk_person(6);
        p.status = Status::Removed { year: 2012, reason: 0 };
        assert!(p.appears_in_snapshot(2014, 3));
        assert!(!p.appears_in_snapshot(2016, 3));
    }

    #[test]
    fn emission_is_stable_without_per_emission_noise() {
        let (_, p, mut cfg) = mk_person(7);
        cfg.whitespace_rate = 0.0;
        cfg.age_jitter_rate = 0.0;
        let mut rng1 = Rng::seed_from_u64(100);
        let mut rng2 = Rng::seed_from_u64(200);
        let r1 = p.emit_row(&mut rng1, &cfg, Date::new(2016, 3, 15));
        let r2 = p.emit_row(&mut rng2, &cfg, Date::new(2016, 3, 15));
        assert_eq!(r1, r2, "emission must be deterministic modulo noise");
    }
}
