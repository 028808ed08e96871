//! The cluster document is a view derived from the stored rows, and it
//! is the document the store used to keep: the files `persist::save`
//! writes for it are pinned to the MD5s recorded at the last commit
//! that materialised a `BTreeMap` tree per record.

use nc_core::cluster::ClusterStore;
use nc_core::import::import_snapshot;
use nc_core::md5::md5;
use nc_core::record::DedupPolicy;
use nc_docstore::persist;
use nc_votergen::config::GeneratorConfig;
use nc_votergen::registry::Registry;
use nc_votergen::snapshot::standard_calendar;

/// Per policy, in `DedupPolicy::ALL` order: stored records of the 613
/// imported rows, and the MD5 of the saved file.
const PINS: [(u64, &str); 4] = [
    (613, "6ae3a9a378116ef85754dd68419a63c4"),
    (595, "cb0f3218227e3950ccb6fbe34ba5a9f1"),
    (269, "107f6a5f67f744d10c2fe558f2299ce0"),
    (257, "afe5b75ff115360db85e42a5b0ed23d5"),
];

/// Three snapshots, one version each, with the rates raised so that
/// 200 voters produce padded values, swapped names and reused NCIDs.
fn build(policy: DedupPolicy) -> ClusterStore {
    let mut registry = Registry::new(GeneratorConfig {
        seed: 2021,
        initial_population: 200,
        whitespace_rate: 0.05,
        confusion_rate: 0.05,
        integration_rate: 0.05,
        scatter_rate: 0.05,
        ..Default::default()
    });
    let mut store = ClusterStore::new();
    for (i, info) in standard_calendar().iter().take(3).enumerate() {
        let snapshot = registry.generate_snapshot(info);
        import_snapshot(&mut store, &snapshot, policy, i as u32 + 1);
    }
    store
}

#[test]
fn persisted_view_is_byte_identical_to_the_stored_documents_it_replaced() {
    for (policy, (records, digest)) in DedupPolicy::ALL.into_iter().zip(PINS) {
        let store = build(policy);
        assert_eq!(
            (store.rows_imported(), store.record_count()),
            (613, records),
            "{policy:?}"
        );
        let path = std::env::temp_dir().join(format!(
            "nc_derived_view_{}_{policy:?}.jsonl",
            std::process::id()
        ));
        persist::save(&store.to_collection(), &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let loaded = persist::load("clusters", &path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(
            md5(&bytes).to_hex(),
            digest,
            "{policy:?}: {} bytes",
            bytes.len()
        );

        // One view: what was saved is what `cluster_doc` derives.
        assert_eq!(loaded.len(), store.cluster_count());
        for (ncid, id) in store.cluster_ids() {
            assert_eq!(
                loaded.get(id),
                store.cluster_doc(&ncid).as_ref(),
                "{policy:?} {ncid}"
            );
        }
    }
}
