//! Seeded mutation fuzz for the decoders of outside input: the wire
//! request parser, the `.krb` snapshot loader and the text readers
//! `ingest` and the one-shot CLI use. Each must answer every input with
//! `Ok` or a typed error, never a panic.
//!
//! * Requests: the worked request lines of `docs/PROTOCOL.md`, mutated
//!   byte by byte (replace, insert, delete, truncate), go through
//!   `Request::parse`.
//! * Snapshots: the four golden `.krb` fixtures get bytes of one
//!   section's payload mutated, and that section's FNV-1a checksum in the
//!   section table is recomputed, so the mutation gets past the
//!   container's checks and reaches the section decoders of
//!   `read_indexed_snapshot_bytes`.
//! * Text inputs: the tiny edge list, point table and keyword table
//!   under `tests/fixtures/` are mutated byte by byte and go through
//!   `read_edge_list_streaming`, `read_points_mapped` and
//!   `read_keywords_mapped` (the attribute tables joined against the
//!   unmutated edge list's id map).
//!
//! The seed and iteration count are fixed, so every run feeds the same
//! inputs. A failure names the seed and the iteration that panicked.

use krcore::core::decomp::read_indexed_snapshot_bytes;
use krcore::graph::io::read_edge_list_streaming;
use krcore::graph::snapshot::{fnv1a64, SnapshotError, HEADER_LEN, SECTION_ENTRY_LEN};
use krcore::server::Request;
use krcore::similarity::{read_keywords_mapped, read_points_mapped};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

const SEED: u64 = 0x00DE_C0DE;
const ITERATIONS: usize = 20_000;

/// SplitMix64: a small, seedable generator with no dependencies.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A byte worth trying at a JSON or binary position: a structural
    /// JSON character, a digit, an extreme value, or anything at all.
    fn byte(&mut self) -> u8 {
        self.byte_from(b"{}[]\":,-.eE0123456789 \\nutf\x00\x7f\xff")
    }

    /// One of `interesting` half of the time, any byte otherwise.
    fn byte_from(&mut self, interesting: &[u8]) -> u8 {
        if self.below(2) == 0 {
            interesting[self.below(interesting.len())]
        } else {
            self.next() as u8
        }
    }

    /// Mutates `bytes` in one to four places: replace, insert, delete,
    /// or truncate, the new bytes drawn by `byte`.
    fn mutate(&mut self, bytes: &mut Vec<u8>, byte: impl Fn(&mut Self) -> u8) {
        for _ in 0..1 + self.below(4) {
            let at = self.below(bytes.len() + 1);
            match self.below(4) {
                0 if at < bytes.len() => bytes[at] = byte(self),
                1 => bytes.insert(at, byte(self)),
                2 if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ => bytes.truncate(at.max(1)),
            }
        }
    }
}

fn repo_file(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// Runs `f`, turning a panic into a test failure that names where it
/// happened.
fn no_panic(what: &str, iteration: usize, f: impl FnOnce()) {
    if catch_unwind(AssertUnwindSafe(f)).is_err() {
        panic!("{what} panicked at seed {SEED:#x}, iteration {iteration}");
    }
}

#[test]
fn mutated_protocol_requests_parse_or_fail_typed() {
    let doc = std::fs::read_to_string(repo_file("docs/PROTOCOL.md")).expect("read PROTOCOL.md");
    let lines: Vec<&str> = doc
        .lines()
        .map(|l| {
            let l = l.trim();
            l.strip_prefix("C: ").unwrap_or(l)
        })
        .filter(|l| l.starts_with("{\"v\":1,") && l.contains("\"cmd\":"))
        .collect();
    assert!(lines.len() >= 5, "PROTOCOL.md lost its worked requests");
    let mut rng = Rng(SEED);
    for iteration in 0..ITERATIONS {
        let mut bytes = lines[rng.below(lines.len())].as_bytes().to_vec();
        rng.mutate(&mut bytes, Rng::byte);
        let line = String::from_utf8_lossy(&bytes).into_owned();
        no_panic("Request::parse", iteration, || {
            let _ = Request::parse(&line);
        });
    }
}

/// One section-table entry: where its payload lies and where its
/// checksum is stored.
struct SectionSpan {
    payload: std::ops::Range<usize>,
    checksum_at: usize,
}

fn section_spans(bytes: &[u8]) -> Vec<SectionSpan> {
    let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    (0..count)
        .map(|i| {
            let entry = HEADER_LEN + i * SECTION_ENTRY_LEN;
            let offset = u64_at(entry + 8);
            SectionSpan {
                payload: offset..offset + u64_at(entry + 16),
                checksum_at: entry + 24,
            }
        })
        .collect()
}

#[test]
fn mutated_snapshot_sections_load_or_fail_typed() {
    let fixtures: Vec<Vec<u8>> = [
        "tiny_points.krb",
        "tiny_keywords.krb",
        "tiny_points_indexed.krb",
        "tiny_keywords_indexed.krb",
    ]
    .iter()
    .map(|name| std::fs::read(repo_file("tests/fixtures").join(name)).expect("read fixture"))
    .collect();
    // Each golden file loads as committed.
    for bytes in &fixtures {
        read_indexed_snapshot_bytes(bytes.clone()).expect("golden fixture loads");
    }
    let mut rng = Rng(SEED);
    let mut rejected = 0;
    for iteration in 0..ITERATIONS {
        let mut bytes = fixtures[rng.below(fixtures.len())].clone();
        let spans = section_spans(&bytes);
        let span = &spans[rng.below(spans.len())];
        if span.payload.is_empty() {
            continue;
        }
        for _ in 0..1 + rng.below(4) {
            let at = span.payload.start + rng.below(span.payload.len());
            bytes[at] = rng.byte();
        }
        let checksum = fnv1a64(&bytes[span.payload.clone()]);
        bytes[span.checksum_at..span.checksum_at + 8].copy_from_slice(&checksum.to_le_bytes());
        no_panic(
            "read_indexed_snapshot_bytes",
            iteration,
            || match read_indexed_snapshot_bytes(bytes) {
                Ok(_) => {}
                Err(SnapshotError::SectionChecksumMismatch { .. }) => {
                    panic!("iteration {iteration}: the resealed checksum was rejected")
                }
                Err(_) => rejected += 1,
            },
        );
    }
    // The mutations must reach the section decoders and trip them often.
    assert!(rejected > ITERATIONS / 10, "only {rejected} rejected");
}

/// A byte worth trying in a text table: a digit, a sign, a decimal point
/// or exponent, a separator, a line break, a comment mark, letters of
/// `inf` / `nan`, or a byte that is not UTF-8.
fn text_byte(rng: &mut Rng) -> u8 {
    rng.byte_from(b"0123456789-+.eE:\t \r\n#infa\x00\xff")
}

const READERS: [&str; 3] = [
    "read_edge_list_streaming",
    "read_points_mapped",
    "read_keywords_mapped",
];

#[test]
fn mutated_text_inputs_load_or_fail_typed() {
    let read = |name: &str| std::fs::read(repo_file("tests/fixtures").join(name)).expect("read");
    let edges = read("tiny.edges");
    let tables = [read("tiny.points.tsv"), read("tiny.keywords.tsv")];
    // The committed files load, and give the join its id map.
    let loaded = read_edge_list_streaming(&edges[..]).expect("tiny.edges loads");
    let (id_map, n) = (&loaded.id_map, loaded.graph.num_vertices());
    read_points_mapped(&tables[0][..], id_map, n).expect("tiny.points.tsv loads");
    read_keywords_mapped(&tables[1][..], id_map, n).expect("tiny.keywords.tsv loads");
    let mut rng = Rng(SEED);
    let mut rejected = [0usize; 3];
    for iteration in 0..ITERATIONS {
        let which = rng.below(3);
        let mut bytes = if which == 0 {
            edges.clone()
        } else {
            tables[which - 1].clone()
        };
        rng.mutate(&mut bytes, text_byte);
        let mut failed = false;
        no_panic(READERS[which], iteration, || {
            failed = match which {
                0 => read_edge_list_streaming(&bytes[..]).is_err(),
                1 => read_points_mapped(&bytes[..], id_map, n).is_err(),
                _ => read_keywords_mapped(&bytes[..], id_map, n).is_err(),
            };
        });
        rejected[which] += failed as usize;
    }
    // Every reader must see mutations it rejects, not only ones it
    // shrugs off as comments or unmatched rows.
    for (which, count) in rejected.iter().enumerate() {
        assert!(
            *count > ITERATIONS / 30,
            "{}: only {count} rejected",
            READERS[which]
        );
    }
}
