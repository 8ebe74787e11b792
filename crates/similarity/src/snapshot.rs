//! Dataset snapshots: the attribute section and the one-call dataset
//! writer/reader on top of the `kr_graph::snapshot` container.
//!
//! A dataset snapshot is one `.krb` file holding the densified graph,
//! the original-id map, and the attribute table with its natural metric
//! — everything `kr-server` needs to host a real dataset without
//! re-parsing text files. The graph sections belong to `kr_graph`; this
//! module owns the `ATTRIBUTES` section payload:
//!
//! ```text
//! family  u32 LE   1 = keywords, 2 = points, 3 = vectors
//! metric  u32 LE   1 = jaccard, 2 = weighted jaccard, 3 = euclidean, 4 = cosine
//! n       u64 LE   vertices covered
//! points:   n × (x f64, y f64)            (f64 = IEEE-754 bits, LE)
//! keywords: (n + 1) × offset u64, then per entry (keyword u32, weight f64)
//! vectors:  dim u64, then n × dim × f64
//! ```
//!
//! Decoding rebuilds the table through the validating constructors, so a
//! crafted payload that passes the checksum still cannot smuggle in an
//! unsorted keyword list or ragged vector rows, and checks every value
//! like the text loaders do: a non-finite coordinate or vector entry, or
//! a negative or non-finite keyword weight, is `Malformed`.

use crate::attributes::{check_keywords, check_point, check_vector, AttributeTable};
use crate::metrics::Metric;
use kr_graph::io::LoadedGraph;
use kr_graph::snapshot::{
    add_graph_sections, get_u32, get_u64, put_u32, put_u64, read_graph_sections, section, Snapshot,
    SnapshotError, SnapshotWriter,
};
use kr_graph::Graph;
use std::io::Write;
use std::path::Path;

/// Attribute family codes in the section payload.
mod family {
    pub const KEYWORDS: u32 = 1;
    pub const POINTS: u32 = 2;
    pub const VECTORS: u32 = 3;
}

fn metric_code(metric: Metric) -> u32 {
    match metric {
        Metric::Jaccard => 1,
        Metric::WeightedJaccard => 2,
        Metric::Euclidean => 3,
        Metric::Cosine => 4,
    }
}

fn metric_from_code(code: u32) -> Result<Metric, SnapshotError> {
    match code {
        1 => Ok(Metric::Jaccard),
        2 => Ok(Metric::WeightedJaccard),
        3 => Ok(Metric::Euclidean),
        4 => Ok(Metric::Cosine),
        other => Err(SnapshotError::Malformed(format!(
            "unknown metric code {other}"
        ))),
    }
}

/// True when `metric` can evaluate over the attribute family (mirrors
/// the `Metric::evaluate` match arms).
fn metric_compatible(metric: Metric, attrs: &AttributeTable) -> bool {
    matches!(
        (metric, attrs),
        (Metric::Jaccard, AttributeTable::Keywords(_))
            | (Metric::WeightedJaccard, AttributeTable::Keywords(_))
            | (Metric::Euclidean, AttributeTable::Points(_))
            | (Metric::Euclidean, AttributeTable::Vectors(_))
            | (Metric::Cosine, AttributeTable::Vectors(_))
    )
}

struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], SnapshotError> {
        let end = self.at.checked_add(n).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let slice = &self.bytes[self.at..end];
                self.at = end;
                Ok(slice)
            }
            None => Err(SnapshotError::Malformed(format!(
                "attribute section ends inside {what}"
            ))),
        }
    }

    fn u32(&mut self, what: &str) -> Result<u32, SnapshotError> {
        self.take(4, what).map(|b| get_u32(b, 0))
    }

    fn u64(&mut self, what: &str) -> Result<u64, SnapshotError> {
        self.take(8, what).map(|b| get_u64(b, 0))
    }

    fn f64(&mut self, what: &str) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    fn count(&mut self, what: &str) -> Result<usize, SnapshotError> {
        let v = self.u64(what)?;
        usize::try_from(v)
            .ok()
            // An honest count can never exceed the section byte length,
            // so this also rejects allocation-bomb counts up front.
            .filter(|&v| v <= self.bytes.len())
            .ok_or_else(|| {
                SnapshotError::Malformed(format!("{what} count {v} exceeds the section payload"))
            })
    }

    fn done(&self) -> Result<(), SnapshotError> {
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err(SnapshotError::Malformed(format!(
                "attribute section has {} trailing bytes",
                self.bytes.len() - self.at
            )))
        }
    }
}

/// A stored attribute value that no metric can evaluate to a number.
fn invalid_vertex(v: usize, e: String) -> SnapshotError {
    SnapshotError::Malformed(format!("vertex {v}: {e}"))
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Encodes the attribute table + metric as an `ATTRIBUTES` section
/// payload.
///
/// # Panics
/// Panics when the metric cannot evaluate over the attribute family —
/// such a pair is unusable everywhere in the system, so writing it into
/// a snapshot is a caller bug, not a data condition.
pub fn encode_attributes(attrs: &AttributeTable, metric: Metric) -> Vec<u8> {
    assert!(
        metric_compatible(metric, attrs),
        "metric {metric:?} cannot evaluate over {attrs:?}"
    );
    let mut out = Vec::new();
    match attrs {
        AttributeTable::Keywords(lists) => {
            put_u32(&mut out, family::KEYWORDS);
            put_u32(&mut out, metric_code(metric));
            put_u64(&mut out, lists.len() as u64);
            let mut acc = 0u64;
            put_u64(&mut out, 0);
            for list in lists {
                acc += list.len() as u64;
                put_u64(&mut out, acc);
            }
            for list in lists {
                for &(kw, w) in list {
                    put_u32(&mut out, kw);
                    put_f64(&mut out, w);
                }
            }
        }
        AttributeTable::Points(pts) => {
            put_u32(&mut out, family::POINTS);
            put_u32(&mut out, metric_code(metric));
            put_u64(&mut out, pts.len() as u64);
            for &(x, y) in pts {
                put_f64(&mut out, x);
                put_f64(&mut out, y);
            }
        }
        AttributeTable::Vectors(vecs) => {
            put_u32(&mut out, family::VECTORS);
            put_u32(&mut out, metric_code(metric));
            put_u64(&mut out, vecs.len() as u64);
            let dim = vecs.first().map_or(0, Vec::len);
            put_u64(&mut out, dim as u64);
            for v in vecs {
                for &x in v {
                    put_f64(&mut out, x);
                }
            }
        }
    }
    out
}

/// Decodes an `ATTRIBUTES` section payload. Every structural property is
/// re-validated; corrupt input yields a typed error, never a panic.
pub fn decode_attributes(bytes: &[u8]) -> Result<(AttributeTable, Metric), SnapshotError> {
    let mut c = Cursor { bytes, at: 0 };
    let fam = c.u32("attribute family")?;
    let metric = metric_from_code(c.u32("metric code")?)?;
    let n = c.count("vertex")?;
    let table = match fam {
        family::KEYWORDS => {
            let mut offsets = Vec::with_capacity(n + 1);
            for _ in 0..=n {
                offsets.push(c.u64("keyword offsets")?);
            }
            if offsets[0] != 0 || offsets.windows(2).any(|w| w[0] > w[1]) {
                return Err(SnapshotError::Malformed(
                    "keyword offsets are not monotone from 0".to_string(),
                ));
            }
            let total = offsets[n];
            let total = usize::try_from(total)
                .ok()
                .filter(|&t| t <= bytes.len())
                .ok_or_else(|| {
                    SnapshotError::Malformed(format!(
                        "keyword entry count {total} exceeds the section payload"
                    ))
                })?;
            let mut lists = Vec::with_capacity(n);
            let mut flat = Vec::with_capacity(total);
            for _ in 0..total {
                let kw = c.u32("keyword id")?;
                let w = c.f64("keyword weight")?;
                flat.push((kw, w));
            }
            for v in 0..n {
                let (start, end) = (offsets[v] as usize, offsets[v + 1] as usize);
                let list = &flat[start..end];
                check_keywords(list).map_err(|e| invalid_vertex(v, e))?;
                lists.push(list.to_vec());
            }
            // The constructor re-sorts and merges duplicates: a
            // well-formed payload passes through byte-identically, a
            // crafted unsorted one is repaired instead of breaking the
            // merge-based metrics downstream.
            AttributeTable::keywords(lists)
        }
        family::POINTS => {
            let mut pts = Vec::with_capacity(n);
            for v in 0..n {
                let x = c.f64("point x")?;
                let y = c.f64("point y")?;
                check_point(x, y).map_err(|e| invalid_vertex(v, e))?;
                pts.push((x, y));
            }
            AttributeTable::points(pts)
        }
        family::VECTORS => {
            let dim = c.count("vector dimension")?;
            let mut vecs = Vec::with_capacity(n);
            for v in 0..n {
                let mut row = Vec::with_capacity(dim);
                for _ in 0..dim {
                    row.push(c.f64("vector entry")?);
                }
                check_vector(&row).map_err(|e| invalid_vertex(v, e))?;
                vecs.push(row);
            }
            // Rows are rectangular by construction, so the panicking
            // dimension check in the constructor cannot fire.
            AttributeTable::vectors(vecs)
        }
        other => {
            return Err(SnapshotError::Malformed(format!(
                "unknown attribute family {other}"
            )))
        }
    };
    c.done()?;
    if !metric_compatible(metric, &table) {
        return Err(SnapshotError::Malformed(format!(
            "metric {metric:?} cannot evaluate over the stored attribute family"
        )));
    }
    Ok((table, metric))
}

/// A fully decoded dataset snapshot.
#[derive(Debug)]
pub struct DatasetSnapshot {
    /// The densified graph.
    pub graph: Graph,
    /// `original_ids[v]` is the id vertex `v` had in the source files.
    pub original_ids: Vec<u64>,
    /// Vertex attributes.
    pub attributes: AttributeTable,
    /// The natural metric for the attributes.
    pub metric: Metric,
    /// Unknown optional section kinds skipped on load (forward compat:
    /// written by a newer minor version).
    pub skipped_sections: Vec<u32>,
}

/// The section kinds this reader understands.
const KNOWN_SECTIONS: [u32; 4] = [
    section::GRAPH_OFFSETS,
    section::GRAPH_NEIGHBORS,
    section::ORIGINAL_IDS,
    section::ATTRIBUTES,
];

/// Serializes a dataset snapshot to bytes. Deterministic byte for byte —
/// the golden fixtures pin the output.
///
/// # Panics
/// Panics when `original_ids`/`attributes` do not cover the graph's
/// vertices or the metric does not fit the attribute family (caller
/// bugs; see [`encode_attributes`]).
pub fn snapshot_to_bytes(
    graph: &Graph,
    original_ids: &[u64],
    attributes: &AttributeTable,
    metric: Metric,
) -> Vec<u8> {
    assert_eq!(
        original_ids.len(),
        graph.num_vertices(),
        "original-id map must cover every vertex"
    );
    assert_eq!(
        attributes.len(),
        graph.num_vertices(),
        "attribute table must cover every vertex"
    );
    let mut w = SnapshotWriter::new();
    add_graph_sections(&mut w, graph, original_ids);
    w.add_section(
        section::ATTRIBUTES,
        0,
        encode_attributes(attributes, metric),
    );
    w.to_bytes()
}

/// Writes a dataset snapshot to `writer` in one sequential pass.
pub fn write_snapshot<W: Write>(
    mut writer: W,
    graph: &Graph,
    original_ids: &[u64],
    attributes: &AttributeTable,
    metric: Metric,
) -> Result<(), SnapshotError> {
    writer.write_all(&snapshot_to_bytes(graph, original_ids, attributes, metric))?;
    writer.flush()?;
    Ok(())
}

/// Writes a dataset snapshot file.
pub fn write_snapshot_file(
    path: impl AsRef<Path>,
    graph: &Graph,
    original_ids: &[u64],
    attributes: &AttributeTable,
    metric: Metric,
) -> Result<(), SnapshotError> {
    write_snapshot(
        std::fs::File::create(path)?,
        graph,
        original_ids,
        attributes,
        metric,
    )
}

/// Decodes a dataset from a verified container.
pub fn read_snapshot(snapshot: &Snapshot) -> Result<DatasetSnapshot, SnapshotError> {
    let skipped_sections = snapshot.check_unknown_sections(&KNOWN_SECTIONS)?;
    let LoadedGraph {
        graph,
        original_ids,
        ..
    } = read_graph_sections(snapshot)?;
    let (attributes, metric) = decode_attributes(snapshot.require(section::ATTRIBUTES)?)?;
    if attributes.len() != graph.num_vertices() {
        return Err(SnapshotError::Malformed(format!(
            "attribute table covers {} vertices, graph has {}",
            attributes.len(),
            graph.num_vertices()
        )));
    }
    Ok(DatasetSnapshot {
        graph,
        original_ids,
        attributes,
        metric,
        skipped_sections,
    })
}

/// Parses, verifies, and decodes a dataset snapshot from raw bytes.
pub fn read_snapshot_bytes(bytes: Vec<u8>) -> Result<DatasetSnapshot, SnapshotError> {
    read_snapshot(&Snapshot::from_bytes(bytes)?)
}

/// Reads a dataset snapshot file.
pub fn read_snapshot_file(path: impl AsRef<Path>) -> Result<DatasetSnapshot, SnapshotError> {
    read_snapshot_bytes(std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point_dataset() -> (Graph, Vec<u64>, AttributeTable, Metric) {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        (
            g,
            vec![10, 20, 30],
            AttributeTable::points(vec![(0.0, 0.0), (1.5, -2.25), (100.0, 3.0)]),
            Metric::Euclidean,
        )
    }

    fn keyword_dataset() -> (Graph, Vec<u64>, AttributeTable, Metric) {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        (
            g,
            vec![7, 8, 9],
            AttributeTable::keywords(vec![
                vec![(1, 2.0), (5, 0.5)],
                vec![],
                vec![(1, 1.0), (2, 1.0), (9, 4.0)],
            ]),
            Metric::WeightedJaccard,
        )
    }

    #[test]
    fn dataset_roundtrip_points_and_keywords() {
        for (g, ids, attrs, metric) in [point_dataset(), keyword_dataset()] {
            let bytes = snapshot_to_bytes(&g, &ids, &attrs, metric);
            let ds = read_snapshot_bytes(bytes).unwrap();
            assert_eq!(ds.graph, g);
            assert_eq!(ds.original_ids, ids);
            assert_eq!(ds.attributes, attrs);
            assert_eq!(ds.metric, metric);
            assert!(ds.skipped_sections.is_empty());
        }
    }

    #[test]
    fn vectors_roundtrip() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        let attrs = AttributeTable::vectors(vec![vec![1.0, 2.0, 3.0], vec![-4.0, 0.5, 0.0]]);
        for metric in [Metric::Euclidean, Metric::Cosine] {
            let bytes = snapshot_to_bytes(&g, &[1, 2], &attrs, metric);
            let ds = read_snapshot_bytes(bytes).unwrap();
            assert_eq!(ds.attributes, attrs);
            assert_eq!(ds.metric, metric);
        }
    }

    #[test]
    fn writing_is_deterministic() {
        let (g, ids, attrs, metric) = keyword_dataset();
        assert_eq!(
            snapshot_to_bytes(&g, &ids, &attrs, metric),
            snapshot_to_bytes(&g, &ids, &attrs, metric)
        );
    }

    #[test]
    fn incompatible_metric_rejected_on_decode() {
        // Euclidean over keywords: forge the metric code.
        let attrs = AttributeTable::keywords(vec![vec![(1, 1.0)]]);
        let mut payload = encode_attributes(&attrs, Metric::Jaccard);
        payload[4..8].copy_from_slice(&3u32.to_le_bytes());
        assert!(matches!(
            decode_attributes(&payload),
            Err(SnapshotError::Malformed(_))
        ));
    }

    #[test]
    fn attribute_payload_corruption_is_typed() {
        let (_, _, attrs, metric) = keyword_dataset();
        let good = encode_attributes(&attrs, metric);
        // Truncate at every byte boundary: typed error or (for a prefix
        // that happens to decode) a structurally valid table — never a
        // panic. The container checksum normally rejects these before
        // decode; this exercises the decoder's own bounds checks.
        for cut in 0..good.len() {
            let _ = decode_attributes(&good[..cut]);
        }
        // Unknown family code.
        let mut bad = good.clone();
        bad[0..4].copy_from_slice(&77u32.to_le_bytes());
        assert!(matches!(
            decode_attributes(&bad),
            Err(SnapshotError::Malformed(_))
        ));
        // Unknown metric code.
        let mut bad = good.clone();
        bad[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            decode_attributes(&bad),
            Err(SnapshotError::Malformed(_))
        ));
        // Non-finite keyword weight.
        let mut bad = good;
        let weight_at = bad.len() - 8;
        bad[weight_at..].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        assert!(matches!(
            decode_attributes(&bad),
            Err(SnapshotError::Malformed(_))
        ));
    }

    #[test]
    fn non_finite_values_rejected_on_decode() {
        let (_, _, pts, _) = point_dataset();
        let good = encode_attributes(&pts, Metric::Euclidean);
        let vecs = AttributeTable::vectors(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        let good_vec = encode_attributes(&vecs, Metric::Cosine);
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            // The last point's y, then the last vector entry.
            for mut bad in [good.clone(), good_vec.clone()] {
                let at = bad.len() - 8;
                bad[at..].copy_from_slice(&x.to_bits().to_le_bytes());
                assert!(matches!(
                    decode_attributes(&bad),
                    Err(SnapshotError::Malformed(_))
                ));
            }
        }
    }

    #[test]
    fn mismatched_attribute_coverage_rejected() {
        // Hand-assemble a container whose attribute table covers fewer
        // vertices than the graph.
        let (g, ids, _, _) = point_dataset();
        let mut w = SnapshotWriter::new();
        add_graph_sections(&mut w, &g, &ids);
        let small = AttributeTable::points(vec![(0.0, 0.0)]);
        w.add_section(
            section::ATTRIBUTES,
            0,
            encode_attributes(&small, Metric::Euclidean),
        );
        assert!(matches!(
            read_snapshot_bytes(w.to_bytes()),
            Err(SnapshotError::Malformed(_))
        ));
    }
}
