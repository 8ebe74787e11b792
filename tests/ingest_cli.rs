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
