//! Golden-file harness for the ingestion pipeline and the `.krb`
//! snapshot format.
//!
//! * **Byte-exact pinning** — ingesting the committed fixture inputs
//!   (`tests/fixtures/tiny.edges` + attribute TSVs) must reproduce the
//!   committed snapshot bytes exactly. Any change to the format, the
//!   loaders, or the writer shows up as a diff against the golden files.
//!   Regenerate deliberately with `KR_BLESS_GOLDEN=1 cargo test --test
//!   snapshot_golden` after a *intentional* format revision (and bump
//!   the snapshot version).
//! * **Corruption matrix** — flipping any header byte and truncating at
//!   every byte boundary (a superset of "every section boundary") must
//!   produce typed [`SnapshotError`]s, never panics.
//! * **Forward compatibility** — a higher minor version with unknown
//!   optional sections loads (skipping them); a higher major version and
//!   unknown required sections are typed errors.

use krcore::core::decomp::{
    indexed_snapshot_to_bytes, read_indexed_snapshot_bytes, DecompositionIndex,
};
use krcore::graph::io::{read_edge_list_streaming_file, LoadedGraph};
use krcore::graph::snapshot::{
    add_graph_sections, fnv1a64, section, SnapshotError, SnapshotWriter, HEADER_LEN,
    SECTION_ENTRY_LEN, SECTION_FLAG_OPTIONAL, VERSION_MINOR,
};
use krcore::prelude::*;
use krcore::similarity::snapshot::encode_attributes;
use krcore::similarity::{
    read_keywords_mapped, read_points_mapped, read_snapshot_bytes, snapshot_to_bytes, TableOracle,
};
use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// The fixture edge list and attribute table, parsed exactly the way
/// `krcore-cli ingest` does.
fn load_fixture(points: bool) -> (LoadedGraph, AttributeTable, Metric) {
    let loaded = read_edge_list_streaming_file(fixture("tiny.edges")).expect("fixture edges");
    let id_map = &loaded.id_map;
    let n = loaded.graph.num_vertices();
    let (attrs, metric, stats) = if points {
        let f = std::fs::File::open(fixture("tiny.points.tsv")).expect("fixture points");
        let (attrs, stats) = read_points_mapped(f, id_map, n).expect("parse points");
        (attrs, Metric::Euclidean, stats)
    } else {
        let f = std::fs::File::open(fixture("tiny.keywords.tsv")).expect("fixture keywords");
        let (attrs, stats) = read_keywords_mapped(f, id_map, n).expect("parse keywords");
        (attrs, Metric::WeightedJaccard, stats)
    };
    // Both fixture attribute files carry exactly one row for a vertex
    // the edge list never mentions.
    assert_eq!(stats.unmatched, 1, "fixture has one unmatched row");
    assert_eq!(stats.matched, 5);
    (loaded, attrs, metric)
}

/// Ingests the fixture, returning the snapshot bytes.
fn ingest_fixture(points: bool) -> Vec<u8> {
    let (loaded, attrs, metric) = load_fixture(points);
    snapshot_to_bytes(&loaded.graph, &loaded.original_ids, &attrs, metric)
}

/// `ingest_fixture(points)` the way `krcore-cli ingest --with-index`
/// does it: the same four sections plus the optional decomposition
/// section. Deterministic (the default band derivation is exact at this
/// size), so the output is golden-pinnable.
fn ingest_fixture_indexed(points: bool) -> Vec<u8> {
    let (loaded, attrs, metric) = load_fixture(points);
    let threshold = if points {
        Threshold::MaxDistance(1.0)
    } else {
        Threshold::MinSimilarity(0.5)
    };
    let oracle = TableOracle::new(attrs.clone(), metric, threshold);
    let index = DecompositionIndex::build_default(&loaded.graph, &oracle);
    indexed_snapshot_to_bytes(&loaded.graph, &loaded.original_ids, &attrs, metric, &index)
}

fn check_golden(golden_name: &str, built: &[u8]) {
    let path = fixture(golden_name);
    if std::env::var("KR_BLESS_GOLDEN").is_ok() {
        std::fs::write(&path, built).expect("bless golden");
        return;
    }
    let committed = std::fs::read(&path)
        .unwrap_or_else(|e| panic!("missing golden {path:?} ({e}); bless with KR_BLESS_GOLDEN=1"));
    assert_eq!(
        committed, built,
        "{golden_name}: ingestion output drifted from the committed golden bytes"
    );
}

#[test]
fn golden_points_snapshot_is_byte_exact() {
    check_golden("tiny_points.krb", &ingest_fixture(true));
}

#[test]
fn golden_keywords_snapshot_is_byte_exact() {
    check_golden("tiny_keywords.krb", &ingest_fixture(false));
}

#[test]
fn golden_points_snapshot_loads_and_answers_queries() {
    let ds = read_snapshot_bytes(std::fs::read(fixture("tiny_points.krb")).expect("golden"))
        .expect("load golden");
    assert_eq!(ds.graph.num_vertices(), 5);
    assert_eq!(ds.graph.num_edges(), 7, "4-clique + pendant");
    assert_eq!(ds.original_ids, vec![100, 200, 300, 400, 7]);
    assert_eq!(ds.metric, Metric::Euclidean);
    assert!(ds.skipped_sections.is_empty());

    // k=3, r=2: the unit-square clique survives, the far pendant cannot.
    let problem = ProblemInstance::new(
        ds.graph,
        ds.attributes,
        ds.metric,
        Threshold::MaxDistance(2.0),
        3,
    );
    let cores = krcore::core::enumerate_maximal(&problem, &AlgoConfig::adv_enum()).cores;
    assert_eq!(cores.len(), 1);
    assert_eq!(cores[0].vertices, vec![0, 1, 2, 3]);
}

#[test]
fn golden_keywords_snapshot_loads() {
    let ds = read_snapshot_bytes(std::fs::read(fixture("tiny_keywords.krb")).expect("golden"))
        .expect("load golden");
    assert_eq!(ds.metric, Metric::WeightedJaccard);
    match &ds.attributes {
        AttributeTable::Keywords(lists) => {
            assert_eq!(lists[0], vec![(1, 2.0), (2, 1.0)]);
            assert_eq!(lists[4], vec![(9, 1.0)]);
        }
        other => panic!("wrong attribute family {other:?}"),
    }
}

#[test]
fn golden_indexed_snapshot_is_byte_exact() {
    check_golden("tiny_points_indexed.krb", &ingest_fixture_indexed(true));
}

/// The keyword fixture's fractional weights keep its band derivation
/// off the integer keyword kernel: this pins the fallback path's bytes.
#[test]
fn golden_keywords_indexed_snapshot_is_byte_exact() {
    check_golden("tiny_keywords_indexed.krb", &ingest_fixture_indexed(false));
}

/// The indexed golden loads through the indexed reader with the index
/// recovered, and through the plain (pre-index) reader with the section
/// skipped — the live proof that old readers keep serving new snapshots.
#[test]
fn golden_indexed_snapshot_loads_both_ways() {
    let bytes = std::fs::read(fixture("tiny_points_indexed.krb")).expect("golden");

    let (ds, index) = read_indexed_snapshot_bytes(bytes.clone()).expect("indexed load");
    let index = index.expect("golden carries an index");
    assert!(ds.skipped_sections.is_empty());
    assert_eq!(index.num_vertices(), ds.graph.num_vertices());
    assert!(index.is_distance());
    assert!(!index.bands().is_empty());
    // The stored index resolves the same candidates a fresh build does.
    let oracle = TableOracle::new(
        ds.attributes.clone(),
        ds.metric,
        Threshold::MaxDistance(1.0),
    );
    let fresh = DecompositionIndex::build_default(&ds.graph, &oracle);
    assert_eq!(index, fresh);

    let plain = read_snapshot_bytes(bytes).expect("plain reader must still load");
    assert_eq!(plain.skipped_sections, vec![section::DECOMP_INDEX]);
    assert_eq!(plain.graph, ds.graph);
    assert_eq!(plain.original_ids, ds.original_ids);
}

/// Corrupting any byte of the decomposition section's payload trips the
/// container checksum; a *re-sealed* corrupt payload (valid checksum,
/// garbage content) is caught by the section decoder instead. Either
/// way: typed errors, never panics, and the plain reader stays unharmed
/// by the checksum-level flips it verifies.
#[test]
fn corruption_matrix_decomp_section() {
    let good = ingest_fixture_indexed(true);
    // Locate the decomposition payload inside the container by content:
    // rebuild the (deterministic) index and search for its section bytes.
    let loaded = read_edge_list_streaming_file(fixture("tiny.edges")).expect("fixture edges");
    let f = std::fs::File::open(fixture("tiny.points.tsv")).expect("fixture points");
    let (attrs, _) =
        read_points_mapped(f, &loaded.id_map, loaded.graph.num_vertices()).expect("points");
    let oracle = TableOracle::new(
        attrs.clone(),
        Metric::Euclidean,
        Threshold::MaxDistance(1.0),
    );
    let payload = DecompositionIndex::build_default(&loaded.graph, &oracle).to_section_bytes();
    let offset = good
        .windows(payload.len())
        .position(|w| w == &payload[..])
        .expect("decomp payload present in the container");
    let len = payload.len();
    for at in (offset..offset + len).step_by(7) {
        let mut bad = good.clone();
        bad[at] ^= 0xFF;
        assert!(
            matches!(
                read_indexed_snapshot_bytes(bad),
                Err(SnapshotError::SectionChecksumMismatch { .. })
            ),
            "decomp payload byte {at}: flip must trip the section checksum"
        );
    }
    // Re-seal a corrupt payload behind valid container checksums: the
    // decoder's structural validation must reject it as Malformed.
    let mut payload = payload;
    payload[0..4].copy_from_slice(&9u32.to_le_bytes()); // bogus direction code
    let mut w = SnapshotWriter::new();
    add_graph_sections(&mut w, &loaded.graph, &loaded.original_ids);
    w.add_section(
        section::ATTRIBUTES,
        0,
        encode_attributes(&attrs, Metric::Euclidean),
    );
    w.add_section(section::DECOMP_INDEX, SECTION_FLAG_OPTIONAL, payload);
    let resealed = w.to_bytes();
    assert!(matches!(
        read_indexed_snapshot_bytes(resealed.clone()),
        Err(SnapshotError::Malformed(_))
    ));
    // The plain reader never decodes the section, so the same bytes load
    // fine for a pre-index consumer.
    let plain = read_snapshot_bytes(resealed).expect("plain reader skips the section");
    assert_eq!(plain.skipped_sections, vec![section::DECOMP_INDEX]);
}

/// A re-sealed attribute section whose vertex 0 sits at `x = NaN`
/// (valid checksums, a value no metric can use) is rejected as
/// `Malformed` by both readers, so it never reaches a threshold sort.
#[test]
fn corruption_matrix_non_finite_point() {
    let loaded = read_edge_list_streaming_file(fixture("tiny.edges")).expect("fixture edges");
    let f = std::fs::File::open(fixture("tiny.points.tsv")).expect("fixture points");
    let (attrs, _) =
        read_points_mapped(f, &loaded.id_map, loaded.graph.num_vertices()).expect("points");
    let AttributeTable::Points(mut pts) = attrs else {
        panic!("points fixture loads as points")
    };
    for bad_x in [f64::NAN, f64::INFINITY] {
        pts[0].0 = bad_x;
        let mut w = SnapshotWriter::new();
        add_graph_sections(&mut w, &loaded.graph, &loaded.original_ids);
        w.add_section(
            section::ATTRIBUTES,
            0,
            encode_attributes(&AttributeTable::points(pts.clone()), Metric::Euclidean),
        );
        let resealed = w.to_bytes();
        assert!(matches!(
            read_snapshot_bytes(resealed.clone()),
            Err(SnapshotError::Malformed(_))
        ));
        assert!(matches!(
            read_indexed_snapshot_bytes(resealed),
            Err(SnapshotError::Malformed(_))
        ));
    }
}

/// Truncating indexed bytes at every boundary stays typed (the indexed
/// analogue of `corruption_matrix_truncation_everywhere`).
#[test]
fn corruption_matrix_indexed_truncation() {
    let good = ingest_fixture_indexed(true);
    for cut in (0..good.len()).step_by(11) {
        let err = read_indexed_snapshot_bytes(good[..cut].to_vec())
            .expect_err(&format!("truncation to {cut} bytes must not load"));
        assert!(
            matches!(
                err,
                SnapshotError::Truncated { .. }
                    | SnapshotError::HeaderChecksumMismatch
                    | SnapshotError::BadMagic { .. }
            ),
            "cut {cut}: unexpected error class {err}"
        );
    }
}

/// Flipping any single header byte must yield a typed error: bytes 0..4
/// are the magic, 4..6 the major version, and everything else in the
/// checksummed range 0..24 (minor, flags, section count, total length)
/// plus the stored checksum itself (24..32) trips the header checksum.
#[test]
fn corruption_matrix_every_header_byte() {
    let good = ingest_fixture(true);
    for at in 0..HEADER_LEN {
        let mut bad = good.clone();
        bad[at] ^= 0xFF;
        let err =
            read_snapshot_bytes(bad).expect_err(&format!("flipped header byte {at} must not load"));
        match at {
            0..=3 => assert!(
                matches!(err, SnapshotError::BadMagic { .. }),
                "byte {at}: {err}"
            ),
            4..=5 => assert!(
                matches!(err, SnapshotError::UnsupportedMajor { .. }),
                "byte {at}: {err}"
            ),
            _ => assert!(
                matches!(
                    err,
                    SnapshotError::HeaderChecksumMismatch | SnapshotError::Truncated { .. }
                ),
                "byte {at}: {err}"
            ),
        }
    }
}

/// Flipping the load-bearing section-table fields (kind, offset, length,
/// checksum) of every section must yield typed errors.
#[test]
fn corruption_matrix_section_table_fields() {
    let good = ingest_fixture(false);
    let snap = krcore::graph::Snapshot::from_bytes(good.clone()).expect("good bytes");
    let sections = snap.sections().len();
    for entry in 0..sections {
        let base = HEADER_LEN + entry * SECTION_ENTRY_LEN;
        // Field offsets within an entry: kind 0..4, flags 4..8 (not
        // load-bearing for known kinds), offset 8..16, len 16..24,
        // checksum 24..32.
        for field_at in (0..4).chain(8..SECTION_ENTRY_LEN) {
            let mut bad = good.clone();
            bad[base + field_at] ^= 0xFF;
            assert!(
                read_snapshot_bytes(bad).is_err(),
                "section {entry}, entry byte {field_at}: corrupt table must not load"
            );
        }
    }
}

/// Corrupting any payload byte must trip that section's checksum.
#[test]
fn corruption_matrix_payload_bytes() {
    let good = ingest_fixture(true);
    let payload_start = {
        let snap = krcore::graph::Snapshot::from_bytes(good.clone()).expect("good bytes");
        assert!(!snap.sections().is_empty());
        HEADER_LEN + snap.sections().len() * SECTION_ENTRY_LEN
    };
    for at in payload_start..good.len() {
        let mut bad = good.clone();
        bad[at] ^= 0xFF;
        match read_snapshot_bytes(bad) {
            Err(SnapshotError::SectionChecksumMismatch { .. } | SnapshotError::Malformed(_)) => {}
            // Alignment padding between sections is not covered by any
            // checksum; flipping it is harmless by design.
            Ok(_) => {}
            Err(other) => panic!("payload byte {at}: unexpected error class {other}"),
        }
    }
}

/// Truncating at *every* byte boundary — a superset of every section
/// boundary — must be a typed error, never a panic.
#[test]
fn corruption_matrix_truncation_everywhere() {
    let good = ingest_fixture(true);
    for cut in 0..good.len() {
        let err = read_snapshot_bytes(good[..cut].to_vec())
            .expect_err(&format!("truncation to {cut} bytes must not load"));
        assert!(
            matches!(
                err,
                SnapshotError::Truncated { .. }
                    | SnapshotError::HeaderChecksumMismatch
                    | SnapshotError::BadMagic { .. }
            ),
            "cut {cut}: unexpected error class {err}"
        );
    }
}

/// A file written by a newer minor version, carrying a section kind this
/// reader has never heard of (flagged optional), must load — skipping
/// the unknown section and reporting it.
#[test]
fn forward_compat_higher_minor_with_unknown_optional_section() {
    let loaded = read_edge_list_streaming_file(fixture("tiny.edges")).expect("fixture edges");
    let f = std::fs::File::open(fixture("tiny.points.tsv")).expect("fixture points");
    let (attrs, _) =
        read_points_mapped(f, &loaded.id_map, loaded.graph.num_vertices()).expect("points");

    let mut w = SnapshotWriter::new().with_version_minor(VERSION_MINOR + 3);
    add_graph_sections(&mut w, &loaded.graph, &loaded.original_ids);
    w.add_section(
        section::ATTRIBUTES,
        0,
        encode_attributes(&attrs, Metric::Euclidean),
    );
    w.add_section(0xBEEF, SECTION_FLAG_OPTIONAL, b"from the future".to_vec());
    let bytes = w.to_bytes();

    let ds = read_snapshot_bytes(bytes).expect("higher minor + optional unknown must load");
    assert_eq!(ds.skipped_sections, vec![0xBEEF]);
    assert_eq!(ds.graph, loaded.graph);
    assert_eq!(ds.original_ids, loaded.original_ids);
}

/// The same future file with the unknown section marked *required* must
/// be a typed error — the writer is telling us we cannot understand the
/// file without it.
#[test]
fn forward_compat_unknown_required_section_rejected() {
    let loaded = read_edge_list_streaming_file(fixture("tiny.edges")).expect("fixture edges");
    let f = std::fs::File::open(fixture("tiny.points.tsv")).expect("fixture points");
    let (attrs, _) =
        read_points_mapped(f, &loaded.id_map, loaded.graph.num_vertices()).expect("points");

    let mut w = SnapshotWriter::new().with_version_minor(VERSION_MINOR + 3);
    add_graph_sections(&mut w, &loaded.graph, &loaded.original_ids);
    w.add_section(
        section::ATTRIBUTES,
        0,
        encode_attributes(&attrs, Metric::Euclidean),
    );
    w.add_section(0xBEEF, 0, b"load-bearing future data".to_vec());
    assert!(matches!(
        read_snapshot_bytes(w.to_bytes()),
        Err(SnapshotError::UnknownRequiredSection { kind: 0xBEEF })
    ));
}

/// A higher *major* version is rejected up front, whatever else the file
/// contains (bytes crafted in-test: patch the major field, re-seal the
/// header checksum so only the version differs).
#[test]
fn forward_compat_higher_major_rejected() {
    let mut bytes = ingest_fixture(true);
    bytes[4..6].copy_from_slice(&2u16.to_le_bytes());
    let reseal = fnv1a64(&bytes[..24]);
    bytes[24..32].copy_from_slice(&reseal.to_le_bytes());
    assert!(matches!(
        read_snapshot_bytes(bytes),
        Err(SnapshotError::UnsupportedMajor {
            found: 2,
            supported: 1
        })
    ));
}
