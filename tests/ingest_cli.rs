//! Drives the real `krcore-cli ingest` binary over the committed
//! fixtures and pins its output against the golden snapshots — the CLI
//! must be a thin shell over exactly the library path the golden tests
//! pin.

use std::path::PathBuf;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_krcore-cli"))
}

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn temp_out(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("kr_ingest_cli_{tag}_{}.krb", std::process::id()))
}

#[test]
fn ingest_points_reproduces_golden_bytes() {
    let out = temp_out("points");
    let status = cli()
        .args(["ingest"])
        .arg(fixture("tiny.edges"))
        .arg("--points")
        .arg(fixture("tiny.points.tsv"))
        .arg("-o")
        .arg(&out)
        .status()
        .expect("run krcore-cli ingest");
    assert!(status.success(), "ingest must exit 0");
    let built = std::fs::read(&out).expect("snapshot written");
    let golden = std::fs::read(fixture("tiny_points.krb")).expect("golden");
    assert_eq!(built, golden, "CLI output drifted from the golden snapshot");
    let _ = std::fs::remove_file(out);
}

#[test]
fn ingest_with_index_reproduces_golden_bytes() {
    let out = temp_out("indexed");
    let status = cli()
        .args(["ingest"])
        .arg(fixture("tiny.edges"))
        .arg("--points")
        .arg(fixture("tiny.points.tsv"))
        .arg("--with-index")
        .arg("-o")
        .arg(&out)
        .status()
        .expect("run krcore-cli ingest --with-index");
    assert!(status.success(), "indexed ingest must exit 0");
    let built = std::fs::read(&out).expect("snapshot written");
    let golden = std::fs::read(fixture("tiny_points_indexed.krb")).expect("golden");
    assert_eq!(
        built, golden,
        "CLI indexed output drifted from the golden snapshot"
    );
    let _ = std::fs::remove_file(out);
}

#[test]
fn ingest_rejects_non_finite_coordinate_with_typed_message() {
    let points = std::env::temp_dir().join(format!("kr_nan_{}.points.tsv", std::process::id()));
    std::fs::write(&points, "100\tnan\t0.0\n200\t1.0\t0.0\n").unwrap();
    let out = temp_out("nan");
    let output = cli()
        .args(["ingest"])
        .arg(fixture("tiny.edges"))
        .arg("--points")
        .arg(&points)
        .arg("-o")
        .arg(&out)
        .output()
        .expect("run krcore-cli ingest");
    assert!(!output.status.success(), "a nan coordinate must fail");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("line 1: non-finite point"),
        "typed parse error missing: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "ingest panicked: {stderr}");
    assert!(!out.exists(), "no snapshot may be written on failure");
    let _ = std::fs::remove_file(points);
}

#[test]
fn ingest_keywords_reproduces_golden_bytes() {
    let out = temp_out("keywords");
    let output = cli()
        .args(["ingest"])
        .arg(fixture("tiny.edges"))
        .arg("--keywords")
        .arg(fixture("tiny.keywords.tsv"))
        .arg("-o")
        .arg(&out)
        .output()
        .expect("run krcore-cli ingest");
    assert!(output.status.success(), "ingest must exit 0");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("5 vertices, 7 edges"),
        "summary line missing: {stdout}"
    );
    let built = std::fs::read(&out).expect("snapshot written");
    let golden = std::fs::read(fixture("tiny_keywords.krb")).expect("golden");
    assert_eq!(built, golden, "CLI output drifted from the golden snapshot");
    let _ = std::fs::remove_file(out);
}

#[test]
fn ingest_of_empty_edge_list_fails_with_typed_message() {
    let empty = std::env::temp_dir().join(format!("kr_empty_{}.edges", std::process::id()));
    std::fs::write(&empty, "# nothing but comments\n\n").unwrap();
    let out = temp_out("empty");
    let output = cli()
        .args(["ingest"])
        .arg(&empty)
        .arg("--points")
        .arg(fixture("tiny.points.tsv"))
        .arg("-o")
        .arg(&out)
        .output()
        .expect("run krcore-cli ingest");
    assert!(!output.status.success(), "empty input must fail");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("no data lines"),
        "typed empty-input error missing: {stderr}"
    );
    assert!(!out.exists(), "no snapshot may be written on failure");
    let _ = std::fs::remove_file(empty);
}

#[test]
fn ingest_requires_exactly_one_attribute_file() {
    let out = temp_out("both");
    let output = cli()
        .args(["ingest"])
        .arg(fixture("tiny.edges"))
        .arg("--points")
        .arg(fixture("tiny.points.tsv"))
        .arg("--keywords")
        .arg(fixture("tiny.keywords.tsv"))
        .arg("-o")
        .arg(&out)
        .output()
        .expect("run krcore-cli ingest");
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("exactly one"));
}

/// Runs `krcore-cli enum` and returns its cores, one sorted id list per
/// stdout line, after checking that it exited 0.
fn enum_cores(args: &[&std::ffi::OsStr]) -> Vec<Vec<u64>> {
    let output = cli()
        .arg("enum")
        .args(args)
        .output()
        .expect("run krcore-cli enum");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "enum must exit 0: {stderr}");
    let mut cores: Vec<Vec<u64>> = String::from_utf8_lossy(&output.stdout)
        .lines()
        .map(|line| {
            let mut ids: Vec<u64> = line.split('\t').map(|id| id.parse().unwrap()).collect();
            ids.sort_unstable();
            ids
        })
        .collect();
    cores.sort();
    cores
}

#[test]
fn one_shot_enum_joins_sparse_attribute_ids_like_ingest() {
    // The fixture served through `ingest` + `serve` answers the core
    // `0 1 2 3` in dense ids, which is 100 200 300 400 in the file's ids.
    let (edges, points) = (fixture("tiny.edges"), fixture("tiny.points.tsv"));
    let cores = enum_cores(&[
        "--edges".as_ref(),
        edges.as_os_str(),
        "--points".as_ref(),
        points.as_os_str(),
        "--k".as_ref(),
        "3".as_ref(),
        "--r".as_ref(),
        "2".as_ref(),
    ]);
    assert_eq!(cores, vec![vec![100, 200, 300, 400]]);
}

#[test]
fn one_shot_enum_answer_does_not_depend_on_first_seen_id_order() {
    // A 4-clique on 1..=4 in a unit square plus a pendant 0 far away.
    // Densified in first-seen order, the permuted file sends original id
    // 3 to dense id 0; the attribute row of id 0 must still land on the
    // pendant, not on vertex 3.
    let dir = std::env::temp_dir();
    let points = dir.join(format!("kr_order_{}.points.tsv", std::process::id()));
    std::fs::write(
        &points,
        "0\t100.0\t100.0\n1\t0.0\t0.0\n2\t1.0\t0.0\n3\t0.0\t1.0\n4\t1.0\t1.0\n",
    )
    .unwrap();
    let clique = "1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n";
    for (tag, edge_list) in [
        ("sorted", format!("0 1\n{clique}")),
        ("permuted", format!("3 4\n0 1\n{clique}")),
    ] {
        let edges = dir.join(format!("kr_order_{tag}_{}.edges", std::process::id()));
        std::fs::write(&edges, edge_list).unwrap();
        let cores = enum_cores(&[
            "--edges".as_ref(),
            edges.as_os_str(),
            "--points".as_ref(),
            points.as_os_str(),
            "--k".as_ref(),
            "3".as_ref(),
            "--r".as_ref(),
            "2".as_ref(),
        ]);
        assert_eq!(cores, vec![vec![1, 2, 3, 4]], "{tag} edge list");
        let _ = std::fs::remove_file(edges);
    }
    let _ = std::fs::remove_file(points);
}
