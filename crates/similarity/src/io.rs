//! Attribute-table I/O (TSV).
//!
//! Real datasets arrive as per-vertex attribute files next to the SNAP
//! edge list: Brightkite/Gowalla ship check-in locations, DBLP/Pokec ship
//! keyword lists. These loaders let real data replace the synthetic
//! presets without touching any algorithm code.
//!
//! Formats (one line per vertex, `#` comments ignored):
//!
//! * points:   `vertex_id <TAB> x <TAB> y`
//! * keywords: `vertex_id <TAB> kw:weight <TAB> kw:weight ...`
//!   (bare `kw` means weight 1)
//!
//! Values no metric can use are parse errors: non-finite coordinates
//! (`nan`, `inf`), and negative or non-finite keyword weights.

use crate::attributes::{check_keywords, check_point, AttributeTable};
use kr_graph::VertexId;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::str::SplitWhitespace;

/// Errors raised while parsing attribute files.
#[derive(Debug)]
pub enum AttrIoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed data line.
    Parse { line_no: usize, msg: String },
}

impl std::fmt::Display for AttrIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttrIoError::Io(e) => write!(f, "i/o error: {e}"),
            AttrIoError::Parse { line_no, msg } => write!(f, "line {line_no}: {msg}"),
        }
    }
}

impl std::error::Error for AttrIoError {}

impl From<std::io::Error> for AttrIoError {
    fn from(e: std::io::Error) -> Self {
        AttrIoError::Io(e)
    }
}

fn parse_err(line_no: usize, msg: impl Into<String>) -> AttrIoError {
    AttrIoError::Parse {
        line_no,
        msg: msg.into(),
    }
}

/// Parses the `x y` columns of a points row. Coordinates must be finite
/// (`nan` and `inf` parse as numbers, but no metric can use them).
fn parse_point(it: &mut SplitWhitespace<'_>, line_no: usize) -> Result<(f64, f64), AttrIoError> {
    let mut coord = |name: &str| -> Result<f64, AttrIoError> {
        it.next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| parse_err(line_no, format!("missing {name}")))
    };
    let (x, y) = (coord("x")?, coord("y")?);
    check_point(x, y).map_err(|e| parse_err(line_no, e))?;
    Ok((x, y))
}

/// Parses the `kw:weight` tokens of a keywords row (bare `kw` means
/// weight 1). Weights must be finite and non-negative.
fn parse_keywords(
    it: &mut SplitWhitespace<'_>,
    line_no: usize,
) -> Result<Vec<(u32, f64)>, AttrIoError> {
    let mut list = Vec::new();
    for token in it {
        let (kw, w) = match token.split_once(':') {
            Some((kw, w)) => {
                let w: f64 = w
                    .parse()
                    .map_err(|_| parse_err(line_no, format!("bad weight in {token:?}")))?;
                (kw, w)
            }
            None => (token, 1.0),
        };
        let kw: u32 = kw
            .parse()
            .map_err(|_| parse_err(line_no, format!("bad keyword id in {token:?}")))?;
        list.push((kw, w));
    }
    check_keywords(&list).map_err(|e| parse_err(line_no, e))?;
    Ok(list)
}

/// Reads a point table covering vertices `0..n`. Missing vertices default
/// to the origin; out-of-range ids are an error.
pub fn read_points<R: Read>(reader: R, n: usize) -> Result<AttributeTable, AttrIoError> {
    let mut pts = vec![(0.0f64, 0.0f64); n];
    for (line_no, line) in BufReader::new(reader).lines().enumerate() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let mut it = t.split_whitespace();
        let line_no = line_no + 1;
        let id: usize = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| parse_err(line_no, "missing vertex id"))?;
        if id >= n {
            return Err(parse_err(line_no, format!("vertex {id} out of range {n}")));
        }
        pts[id] = parse_point(&mut it, line_no)?;
    }
    Ok(AttributeTable::points(pts))
}

/// Reads a keyword table covering vertices `0..n`. Missing vertices get
/// empty keyword lists.
pub fn read_keywords<R: Read>(reader: R, n: usize) -> Result<AttributeTable, AttrIoError> {
    let mut lists: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
    for (line_no, line) in BufReader::new(reader).lines().enumerate() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let line_no = line_no + 1;
        let mut it = t.split_whitespace();
        let id: usize = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| parse_err(line_no, "missing vertex id"))?;
        if id >= n {
            return Err(parse_err(line_no, format!("vertex {id} out of range {n}")));
        }
        lists[id] = parse_keywords(&mut it, line_no)?;
    }
    Ok(AttributeTable::keywords(lists))
}

/// Join statistics of a mapped attribute load.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AttrJoinStats {
    /// Data lines seen (comments and blanks excluded).
    pub lines: u64,
    /// Lines whose vertex id joined against the graph's id map.
    pub matched: u64,
    /// Lines whose vertex id does not appear in the graph (real SNAP
    /// attribute dumps routinely cover users the edge list dropped);
    /// skipped, not errors.
    pub unmatched: u64,
}

/// Shared line loop of the mapped loaders: streams `reader` line by line
/// (one reused buffer, no per-line allocation), joins the leading
/// original id through `id_map`, and hands matched rows to `row`.
fn read_mapped_rows<R: Read>(
    reader: R,
    id_map: &HashMap<u64, VertexId>,
    n: usize,
    mut row: impl FnMut(VertexId, &mut SplitWhitespace<'_>, usize) -> Result<(), AttrIoError>,
) -> Result<AttrJoinStats, AttrIoError> {
    let mut reader = BufReader::new(reader);
    let mut stats = AttrJoinStats::default();
    let mut line = String::new();
    let mut line_no = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(stats);
        }
        line_no += 1;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        stats.lines += 1;
        let mut it = t.split_whitespace();
        let id: u64 = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| parse_err(line_no, "missing vertex id"))?;
        match id_map.get(&id) {
            Some(&dense) if (dense as usize) < n => {
                stats.matched += 1;
                row(dense, &mut it, line_no)?;
            }
            Some(&dense) => {
                return Err(parse_err(
                    line_no,
                    format!("id map sends {id} to dense id {dense}, out of range {n}"),
                ));
            }
            None => stats.unmatched += 1,
        }
    }
}

/// Reads a point table keyed by **original** (file) vertex ids, joining
/// each row against the graph's id map (see
/// `kr_graph::io::LoadedGraph::id_map`). Vertices without a row default
/// to the origin; rows for unknown ids are counted and skipped.
pub fn read_points_mapped<R: Read>(
    reader: R,
    id_map: &HashMap<u64, VertexId>,
    n: usize,
) -> Result<(AttributeTable, AttrJoinStats), AttrIoError> {
    let mut pts = vec![(0.0f64, 0.0f64); n];
    let stats = read_mapped_rows(reader, id_map, n, |dense, it, line_no| {
        pts[dense as usize] = parse_point(it, line_no)?;
        Ok(())
    })?;
    Ok((AttributeTable::points(pts), stats))
}

/// Reads a weighted keyword table keyed by **original** vertex ids (same
/// join semantics as [`read_points_mapped`]; token grammar of
/// [`read_keywords`]). Vertices without a row get empty keyword lists.
pub fn read_keywords_mapped<R: Read>(
    reader: R,
    id_map: &HashMap<u64, VertexId>,
    n: usize,
) -> Result<(AttributeTable, AttrJoinStats), AttrIoError> {
    let mut lists: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
    let stats = read_mapped_rows(reader, id_map, n, |dense, it, line_no| {
        lists[dense as usize] = parse_keywords(it, line_no)?;
        Ok(())
    })?;
    Ok((AttributeTable::keywords(lists), stats))
}

/// Writes an attribute table in the matching TSV format.
pub fn write_attributes<W: Write>(table: &AttributeTable, writer: W) -> std::io::Result<()> {
    let mut w = BufWriter::new(writer);
    match table {
        AttributeTable::Points(pts) => {
            writeln!(w, "# vertex\tx\ty")?;
            for (i, (x, y)) in pts.iter().enumerate() {
                writeln!(w, "{i}\t{x}\t{y}")?;
            }
        }
        AttributeTable::Keywords(lists) => {
            writeln!(w, "# vertex\tkw:weight ...")?;
            for (i, list) in lists.iter().enumerate() {
                write!(w, "{i}")?;
                for (kw, weight) in list {
                    write!(w, "\t{kw}:{weight}")?;
                }
                writeln!(w)?;
            }
        }
        AttributeTable::Vectors(vecs) => {
            writeln!(w, "# vertex\tv0 v1 ...")?;
            for (i, v) in vecs.iter().enumerate() {
                write!(w, "{i}")?;
                for x in v {
                    write!(w, "\t{x}")?;
                }
                writeln!(w)?;
            }
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn points_roundtrip() {
        let t = AttributeTable::points(vec![(1.0, 2.0), (3.5, -4.25)]);
        let mut buf = Vec::new();
        write_attributes(&t, &mut buf).unwrap();
        let back = read_points(&buf[..], 2).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn keywords_roundtrip() {
        let t = AttributeTable::keywords(vec![vec![(3, 2.0), (1, 1.0)], vec![], vec![(7, 0.5)]]);
        let mut buf = Vec::new();
        write_attributes(&t, &mut buf).unwrap();
        let back = read_keywords(&buf[..], 3).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn bare_keyword_defaults_to_unit_weight() {
        let data = "0\t5\t6:2.5\n";
        let t = read_keywords(data.as_bytes(), 1).unwrap();
        match t {
            AttributeTable::Keywords(lists) => {
                assert_eq!(lists[0], vec![(5, 1.0), (6, 2.5)]);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn missing_vertices_defaulted() {
        let data = "1\t9.0\t9.0\n";
        let t = read_points(data.as_bytes(), 3).unwrap();
        match t {
            AttributeTable::Points(p) => {
                assert_eq!(p[0], (0.0, 0.0));
                assert_eq!(p[1], (9.0, 9.0));
                assert_eq!(p[2], (0.0, 0.0));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn out_of_range_vertex_rejected() {
        let data = "5\t1.0\t1.0\n";
        assert!(read_points(data.as_bytes(), 3).is_err());
    }

    #[test]
    fn bad_weight_rejected() {
        let data = "0\t5:abc\n";
        assert!(read_keywords(data.as_bytes(), 1).is_err());
    }

    #[test]
    fn non_finite_coordinates_rejected() {
        for data in ["0\tnan\t1.0\n", "0\t1.0\tinf\n", "0\t-inf\t0\n"] {
            match read_points(data.as_bytes(), 1) {
                Err(AttrIoError::Parse { line_no: 1, msg }) => {
                    assert!(msg.contains("non-finite point"), "{msg}")
                }
                other => panic!("{data:?}: expected parse error, got {other:?}"),
            }
            let map: HashMap<u64, VertexId> = [(0u64, 0u32)].into_iter().collect();
            assert!(read_points_mapped(data.as_bytes(), &map, 1).is_err());
        }
    }

    #[test]
    fn invalid_weights_rejected() {
        for data in [
            "0\t5:nan\n",
            "0\t5:inf\n",
            "0\t5:-1\n",
            "0\t5:1e308\t5:1e308\n",
        ] {
            match read_keywords(data.as_bytes(), 1) {
                Err(AttrIoError::Parse { line_no: 1, .. }) => {}
                other => panic!("{data:?}: expected parse error, got {other:?}"),
            }
            let map: HashMap<u64, VertexId> = [(0u64, 0u32)].into_iter().collect();
            assert!(read_keywords_mapped(data.as_bytes(), &map, 1).is_err());
        }
        assert!(read_keywords("0\t5:0\n".as_bytes(), 1).is_ok());
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let data = "# header\n\n0\t1.0\t2.0\n";
        assert!(read_points(data.as_bytes(), 1).is_ok());
    }

    fn sparse_id_map() -> HashMap<u64, VertexId> {
        // Original ids 100/200/300 → dense 0/1/2.
        [(100u64, 0u32), (200, 1), (300, 2)].into_iter().collect()
    }

    #[test]
    fn mapped_points_join_and_count() {
        let data = "# id x y\n300\t9.0\t8.0\n100\t1.0\t2.0\n999\t5.0\t5.0\n";
        let (t, stats) = read_points_mapped(data.as_bytes(), &sparse_id_map(), 3).unwrap();
        assert_eq!(
            stats,
            AttrJoinStats {
                lines: 3,
                matched: 2,
                unmatched: 1
            }
        );
        match t {
            AttributeTable::Points(p) => {
                assert_eq!(p, vec![(1.0, 2.0), (0.0, 0.0), (9.0, 8.0)]);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn mapped_keywords_join_and_count() {
        let data = "200\t5:2.5\t7\n12345\t1\n";
        let (t, stats) = read_keywords_mapped(data.as_bytes(), &sparse_id_map(), 3).unwrap();
        assert_eq!((stats.matched, stats.unmatched), (1, 1));
        match t {
            AttributeTable::Keywords(lists) => {
                assert!(lists[0].is_empty());
                assert_eq!(lists[1], vec![(5, 2.5), (7, 1.0)]);
                assert!(lists[2].is_empty());
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn mapped_loader_rejects_inconsistent_map() {
        // Map says dense id 7, but the table only covers 3 vertices.
        let map: HashMap<u64, VertexId> = [(100u64, 7u32)].into_iter().collect();
        assert!(read_points_mapped("100 1 2\n".as_bytes(), &map, 3).is_err());
    }

    #[test]
    fn mapped_loader_propagates_parse_errors() {
        let data = "200\tnot-a-number\t3.0\n";
        match read_points_mapped(data.as_bytes(), &sparse_id_map(), 3) {
            Err(AttrIoError::Parse { line_no, .. }) => assert_eq!(line_no, 1),
            other => panic!("expected parse error, got {other:?}"),
        }
    }
}
