//! SNAP-style edge-list I/O.
//!
//! The paper's Gowalla/Brightkite/Pokec graphs come from SNAP as
//! whitespace-separated edge lists with `#` comment lines. Two readers
//! share one parsing contract:
//!
//! * [`read_edge_list`] — the original line-buffered reader, kept as the
//!   behavioral reference (property tests pin the streaming reader to it);
//! * [`read_edge_list_streaming`] — the canonical ingestion path: fixed
//!   64 KiB chunks pulled through the gzip-agnostic [`ByteSource`] trait,
//!   lines reassembled across chunk boundaries, progress counters
//!   reported as the file streams by. Memory scales with the *graph*
//!   (id map + edge list), never with line length or file size.
//!
//! Both densify sparse file ids in first-seen order and fail with typed
//! [`IoError`]s instead of truncating: an input with no data lines is
//! [`IoError::Empty`], and more distinct vertices than [`VertexId`] can
//! number is [`IoError::TooManyVertices`] (previously a silent `as` cast).

use crate::graph::{Graph, GraphBuilder, VertexId};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Errors raised while parsing an edge list.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A data line did not contain two integer endpoints.
    Parse { line_no: usize, line: String },
    /// The input contained no data lines at all (empty file, or comments
    /// and blank lines only) — loading it would produce a zero-vertex
    /// graph, which is never what ingesting a dataset means.
    Empty,
    /// Densification ran out of [`VertexId`] space: the input has more
    /// distinct vertex ids than `limit`. Before this variant existed the
    /// dense id was produced by a silent `as` cast that wrapped around.
    TooManyVertices { line_no: usize, limit: usize },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Parse { line_no, line } => {
                write!(f, "parse error at line {line_no}: {line:?}")
            }
            IoError::Empty => write!(f, "edge list holds no data lines"),
            IoError::TooManyVertices { line_no, limit } => write!(
                f,
                "line {line_no} introduces vertex number {limit} but vertex ids only count to {}",
                limit.saturating_sub(1)
            ),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Largest number of distinct vertices an edge list may introduce: dense
/// ids are [`VertexId`]s, numbered from 0.
pub const MAX_DENSE_VERTICES: usize = VertexId::MAX as usize + 1;

/// Result of loading an edge list: the graph plus the mapping from original
/// (possibly sparse) ids to dense `0..n` ids — in both directions.
#[derive(Debug)]
pub struct LoadedGraph {
    /// The loaded graph with densified vertex ids.
    pub graph: Graph,
    /// `original_ids[v]` is the id vertex `v` had in the file.
    pub original_ids: Vec<u64>,
    /// The inverse map, original file id → dense id: the join key the
    /// attribute loaders use (`kr_similarity::io::read_points_mapped`
    /// and friends) to attach sparse-id attribute rows to the densified
    /// graph. The loaders build this during densification anyway, so
    /// carrying it costs nothing.
    pub id_map: HashMap<u64, VertexId>,
}

/// Builds the original-id → dense-id map for an id list (used where a
/// `LoadedGraph` is reconstructed from parts, e.g. the snapshot reader).
pub fn build_id_map(original_ids: &[u64]) -> HashMap<u64, VertexId> {
    original_ids
        .iter()
        .enumerate()
        .map(|(dense, &orig)| (orig, dense as VertexId))
        .collect()
}

/// First-seen-order densifier with a typed capacity error.
struct Densifier {
    id_map: HashMap<u64, VertexId>,
    original_ids: Vec<u64>,
    limit: usize,
}

impl Densifier {
    fn new(limit: usize) -> Self {
        Densifier {
            id_map: HashMap::new(),
            original_ids: Vec::new(),
            limit,
        }
    }

    fn dense(&mut self, orig: u64, line_no: usize) -> Result<VertexId, IoError> {
        if let Some(&id) = self.id_map.get(&orig) {
            return Ok(id);
        }
        if self.original_ids.len() >= self.limit {
            return Err(IoError::TooManyVertices {
                line_no,
                limit: self.limit,
            });
        }
        let id = self.original_ids.len() as VertexId;
        self.original_ids.push(orig);
        self.id_map.insert(orig, id);
        Ok(id)
    }
}

/// Parses one data line into its two endpoint ids. `Ok(None)` means the
/// line carries no data (blank or `#` comment). Tokens beyond the second
/// are ignored, matching SNAP files with trailing columns.
fn parse_edge_line(t: &str, line_no: usize) -> Result<Option<(u64, u64)>, IoError> {
    if t.is_empty() || t.starts_with('#') {
        return Ok(None);
    }
    let mut it = t.split_whitespace();
    let (a, b) = match (it.next(), it.next()) {
        (Some(a), Some(b)) => (a, b),
        _ => {
            return Err(IoError::Parse {
                line_no,
                line: t.to_string(),
            })
        }
    };
    match (a.parse(), b.parse()) {
        (Ok(a), Ok(b)) => Ok(Some((a, b))),
        _ => Err(IoError::Parse {
            line_no,
            line: t.to_string(),
        }),
    }
}

/// Reads a whitespace-separated edge list with `#` comments from any reader.
/// Vertex ids in the file may be sparse; they are densified in first-seen
/// order.
pub fn read_edge_list<R: Read>(reader: R) -> Result<LoadedGraph, IoError> {
    read_edge_list_with_limit(reader, MAX_DENSE_VERTICES)
}

fn read_edge_list_with_limit<R: Read>(reader: R, limit: usize) -> Result<LoadedGraph, IoError> {
    let mut reader = BufReader::new(reader);
    let mut densifier = Densifier::new(limit);
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    let mut line = String::new();
    let mut line_no = 0usize;
    let mut saw_data = false;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        line_no += 1;
        if let Some((a, b)) = parse_edge_line(line.trim(), line_no)? {
            saw_data = true;
            let u = densifier.dense(a, line_no)?;
            let v = densifier.dense(b, line_no)?;
            edges.push((u, v));
        }
    }
    if !saw_data {
        return Err(IoError::Empty);
    }
    let mut b = GraphBuilder::with_capacity(densifier.original_ids.len(), edges.len());
    for (u, v) in edges {
        b.add_edge(u, v);
    }
    Ok(LoadedGraph {
        graph: b.build(),
        original_ids: densifier.original_ids,
        id_map: densifier.id_map,
    })
}

/// A chunked byte producer the streaming loader pulls from.
///
/// The blanket impl covers every [`std::io::Read`] — a plain `File`, an
/// in-memory slice, or (once a flate dependency exists) a gzip decoder
/// wrapping either. The loader never assumes seekability or a known
/// length, so compressed sources need no special handling.
pub trait ByteSource {
    /// Fills `buf` with the next chunk; `Ok(0)` is end of stream.
    fn read_chunk(&mut self, buf: &mut [u8]) -> std::io::Result<usize>;
}

impl<R: Read> ByteSource for R {
    fn read_chunk(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            match self.read(buf) {
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                other => return other,
            }
        }
    }
}

/// Progress counters the streaming loader updates as bytes arrive.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadProgress {
    /// Raw bytes consumed from the source.
    pub bytes: u64,
    /// Physical lines seen (including comments and blanks).
    pub lines: u64,
    /// Edge records parsed (before dedup).
    pub edges: u64,
    /// Distinct vertices densified so far.
    pub vertices: u64,
}

/// Chunk size of the streaming loader (one `read_chunk` request).
const STREAM_CHUNK_BYTES: usize = 64 * 1024;

/// Streaming counterpart of [`read_edge_list`]: same grammar, same
/// densification order, same typed errors — pinned by property tests —
/// but fed by fixed-size chunks through [`ByteSource`] with no
/// line-buffered reader in between.
pub fn read_edge_list_streaming<S: ByteSource>(source: S) -> Result<LoadedGraph, IoError> {
    read_edge_list_streaming_with(source, u64::MAX, |_| {}).map(|(loaded, _)| loaded)
}

/// [`read_edge_list_streaming`] with progress reporting: `on_progress`
/// fires after every `progress_every_edges` edge records (and the final
/// counters are returned alongside the graph).
pub fn read_edge_list_streaming_with<S: ByteSource>(
    mut source: S,
    progress_every_edges: u64,
    mut on_progress: impl FnMut(&LoadProgress),
) -> Result<(LoadedGraph, LoadProgress), IoError> {
    read_streaming_impl(
        &mut source,
        MAX_DENSE_VERTICES,
        progress_every_edges,
        &mut on_progress,
    )
}

/// Streaming load from a file path.
pub fn read_edge_list_streaming_file(path: impl AsRef<Path>) -> Result<LoadedGraph, IoError> {
    read_edge_list_streaming(std::fs::File::open(path)?)
}

fn read_streaming_impl<S: ByteSource>(
    source: &mut S,
    limit: usize,
    progress_every_edges: u64,
    on_progress: &mut dyn FnMut(&LoadProgress),
) -> Result<(LoadedGraph, LoadProgress), IoError> {
    let mut densifier = Densifier::new(limit);
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    let mut progress = LoadProgress::default();
    let mut next_report = progress_every_edges.max(1);
    let mut buf = vec![0u8; STREAM_CHUNK_BYTES];
    // Holds the partial line a chunk boundary cut through; only boundary
    // lines are ever copied, complete in-chunk lines parse in place.
    let mut carry: Vec<u8> = Vec::new();
    let mut line_no = 0usize;

    let process = |bytes: &[u8],
                   line_no: usize,
                   densifier: &mut Densifier,
                   edges: &mut Vec<(VertexId, VertexId)>,
                   progress: &mut LoadProgress|
     -> Result<(), IoError> {
        // Same error class as the reference reader: `BufRead::read_line`
        // surfaces invalid UTF-8 as an InvalidData i/o error, so the
        // streaming path must too (the readers share one contract).
        let text = std::str::from_utf8(bytes).map_err(|_| {
            IoError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("stream did not contain valid UTF-8 (line {line_no})"),
            ))
        })?;
        if let Some((a, b)) = parse_edge_line(text.trim(), line_no)? {
            let u = densifier.dense(a, line_no)?;
            let v = densifier.dense(b, line_no)?;
            edges.push((u, v));
            progress.edges += 1;
        }
        progress.vertices = densifier.original_ids.len() as u64;
        Ok(())
    };

    loop {
        let n = source.read_chunk(&mut buf)?;
        if n == 0 {
            break;
        }
        progress.bytes += n as u64;
        let mut rest = &buf[..n];
        while let Some(pos) = rest.iter().position(|&b| b == b'\n') {
            let (head, tail) = rest.split_at(pos);
            rest = &tail[1..];
            line_no += 1;
            progress.lines += 1;
            if carry.is_empty() {
                process(head, line_no, &mut densifier, &mut edges, &mut progress)?;
            } else {
                carry.extend_from_slice(head);
                process(&carry, line_no, &mut densifier, &mut edges, &mut progress)?;
                carry.clear();
            }
            if progress.edges >= next_report {
                on_progress(&progress);
                next_report = progress.edges.saturating_add(progress_every_edges.max(1));
            }
        }
        carry.extend_from_slice(rest);
    }
    if !carry.is_empty() {
        line_no += 1;
        progress.lines += 1;
        process(&carry, line_no, &mut densifier, &mut edges, &mut progress)?;
    }
    if progress.edges == 0 {
        return Err(IoError::Empty);
    }
    on_progress(&progress);

    let mut b = GraphBuilder::with_capacity(densifier.original_ids.len(), edges.len());
    for (u, v) in edges {
        b.add_edge(u, v);
    }
    Ok((
        LoadedGraph {
            graph: b.build(),
            original_ids: densifier.original_ids,
            id_map: densifier.id_map,
        },
        progress,
    ))
}

/// Writes the graph as a SNAP-style edge list (each undirected edge once).
pub fn write_edge_list<W: Write>(g: &Graph, writer: W) -> std::io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(
        w,
        "# Undirected graph: {} nodes, {} edges",
        g.num_vertices(),
        g.num_edges()
    )?;
    for (u, v) in g.edges() {
        writeln!(w, "{u}\t{v}")?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_basic_edge_list() {
        let data = "# comment\n0 1\n1 2\n\n2 0\n";
        let loaded = read_edge_list(data.as_bytes()).unwrap();
        assert_eq!(loaded.graph.num_vertices(), 3);
        assert_eq!(loaded.graph.num_edges(), 3);
    }

    #[test]
    fn densifies_sparse_ids() {
        let data = "100 200\n200 300\n";
        let loaded = read_edge_list(data.as_bytes()).unwrap();
        assert_eq!(loaded.graph.num_vertices(), 3);
        assert_eq!(loaded.original_ids, vec![100, 200, 300]);
        assert_eq!(loaded.id_map[&300], 2);
    }

    #[test]
    fn parse_error_reported_with_line() {
        let data = "0 1\nnot numbers\n";
        match read_edge_list(data.as_bytes()) {
            Err(IoError::Parse { line_no, .. }) => assert_eq!(line_no, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn roundtrip() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let loaded = read_edge_list(&buf[..]).unwrap();
        assert_eq!(loaded.graph.num_edges(), 4);
        assert_eq!(loaded.graph.num_vertices(), 4);
    }

    #[test]
    fn tabs_and_duplicate_edges() {
        let data = "0\t1\n1\t0\n0\t1\n";
        let loaded = read_edge_list(data.as_bytes()).unwrap();
        assert_eq!(loaded.graph.num_edges(), 1);
    }

    #[test]
    fn empty_inputs_are_typed_errors() {
        for data in ["", "# only a comment\n", "\n\n", "# a\n\n# b"] {
            assert!(
                matches!(read_edge_list(data.as_bytes()), Err(IoError::Empty)),
                "{data:?}"
            );
            assert!(
                matches!(
                    read_edge_list_streaming(data.as_bytes()),
                    Err(IoError::Empty)
                ),
                "{data:?} (streaming)"
            );
        }
    }

    #[test]
    fn vertex_overflow_is_a_typed_error() {
        // Third distinct id with room for only two.
        let data = "10 20\n10 30\n";
        match read_edge_list_with_limit(data.as_bytes(), 2) {
            Err(IoError::TooManyVertices { line_no, limit }) => {
                assert_eq!((line_no, limit), (2, 2));
            }
            other => panic!("expected TooManyVertices, got {other:?}"),
        }
        let mut src = data.as_bytes();
        match read_streaming_impl(&mut src, 2, u64::MAX, &mut |_| {}) {
            Err(IoError::TooManyVertices { line_no, limit }) => {
                assert_eq!((line_no, limit), (2, 2));
            }
            other => panic!("expected TooManyVertices, got {other:?}"),
        }
    }

    #[test]
    fn invalid_utf8_is_an_io_error_in_both_readers() {
        let data: &[u8] = b"0 1\n\xFF\xFE not text\n";
        for result in [read_edge_list(data), read_edge_list_streaming(data)] {
            match result {
                Err(IoError::Io(e)) => {
                    assert_eq!(e.kind(), std::io::ErrorKind::InvalidData)
                }
                other => panic!("expected InvalidData i/o error, got {other:?}"),
            }
        }
    }

    #[test]
    fn streaming_matches_reference_reader() {
        let data = "# header\r\n100   200\r\n200\t300\n\n300 100\n7 100 trailing cols\n";
        let a = read_edge_list(data.as_bytes()).unwrap();
        let b = read_edge_list_streaming(data.as_bytes()).unwrap();
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.original_ids, b.original_ids);
    }

    #[test]
    fn streaming_handles_chunk_boundary_lines() {
        // One-byte chunks force every line to span chunk boundaries.
        struct OneByte<'a>(&'a [u8]);
        impl ByteSource for OneByte<'_> {
            fn read_chunk(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                match self.0.split_first() {
                    Some((&b, rest)) => {
                        buf[0] = b;
                        self.0 = rest;
                        Ok(1)
                    }
                    None => Ok(0),
                }
            }
        }
        let data = "# c\n1000000 2000000\n2000000 3000000";
        let mut src = OneByte(data.as_bytes());
        let (loaded, progress) =
            read_streaming_impl(&mut src, MAX_DENSE_VERTICES, u64::MAX, &mut |_| {}).unwrap();
        assert_eq!(loaded.graph.num_vertices(), 3);
        assert_eq!(loaded.graph.num_edges(), 2);
        assert_eq!(loaded.original_ids, vec![1_000_000, 2_000_000, 3_000_000]);
        assert_eq!(progress.bytes, data.len() as u64);
        assert_eq!(progress.lines, 3);
        assert_eq!(progress.edges, 2);
        assert_eq!(progress.vertices, 3);
    }

    #[test]
    fn streaming_progress_fires() {
        let data = "0 1\n1 2\n2 3\n3 4\n";
        let mut reports = Vec::new();
        let (_, final_progress) =
            read_edge_list_streaming_with(data.as_bytes(), 2, |p| reports.push(p.edges)).unwrap();
        assert_eq!(final_progress.edges, 4);
        // One report at >= 2 edges, one at >= 4, plus the final flush.
        assert!(reports.len() >= 2, "{reports:?}");
        assert_eq!(*reports.last().unwrap(), 4);
    }
}
