//! Keeps the docs layer honest against the code:
//!
//! * `docs/PROTOCOL.md` must have a `### Request `cmd`` section for
//!   every request command and a `### Frame `kind`` section for every
//!   frame kind the protocol defines (and list no stale extras);
//! * every `{"v":1,...}` example line in PROTOCOL.md must parse through
//!   the real codec — worked examples that drift from the
//!   implementation fail here;
//! * `docs/OPERATIONS.md` must document every `serve` flag the CLI
//!   accepts (scraped from the `cmd_serve` match in `krcore-cli.rs`).

use kr_server::{Frame, Request, FRAME_KINDS, REQUEST_CMDS};
use std::path::PathBuf;

fn repo_file(rel: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

#[test]
fn protocol_doc_covers_every_request_cmd_and_frame_kind() {
    let doc = repo_file("docs/PROTOCOL.md");
    for cmd in REQUEST_CMDS {
        let heading = format!("### Request `{cmd}`");
        assert!(
            doc.contains(&heading),
            "docs/PROTOCOL.md is missing a section for request `{cmd}` \
             (expected heading {heading:?})"
        );
    }
    for kind in FRAME_KINDS {
        let heading = format!("### Frame `{kind}`");
        assert!(
            doc.contains(&heading),
            "docs/PROTOCOL.md is missing a section for frame `{kind}` \
             (expected heading {heading:?})"
        );
    }
    // And no stale sections for messages the code no longer defines.
    for line in doc.lines() {
        if let Some(name) = line
            .strip_prefix("### Request `")
            .and_then(|r| r.strip_suffix('`'))
        {
            assert!(
                REQUEST_CMDS.contains(&name),
                "docs/PROTOCOL.md documents unknown request `{name}`"
            );
        }
        if let Some(name) = line
            .strip_prefix("### Frame `")
            .and_then(|r| r.strip_suffix('`'))
        {
            assert!(
                FRAME_KINDS.contains(&name),
                "docs/PROTOCOL.md documents unknown frame `{name}`"
            );
        }
    }
}

#[test]
fn protocol_doc_examples_parse_through_the_real_codec() {
    let doc = repo_file("docs/PROTOCOL.md");
    let mut requests = 0;
    let mut frames = 0;
    for raw in doc.lines() {
        let line = raw.trim();
        // Worked-exchange lines carry a direction prefix.
        let line = line
            .strip_prefix("C: ")
            .or_else(|| line.strip_prefix("S: "))
            .unwrap_or(line);
        if !line.starts_with("{\"v\":1,") {
            continue;
        }
        if line.contains("\"cmd\":") {
            Request::parse(line).unwrap_or_else(|e| {
                panic!("PROTOCOL.md request example does not parse: {e}\n  {line}")
            });
            requests += 1;
        } else if line.contains("\"frame\":") {
            Frame::parse(line).unwrap_or_else(|e| {
                panic!("PROTOCOL.md frame example does not parse: {e}\n  {line}")
            });
            frames += 1;
        } else {
            panic!("PROTOCOL.md example is neither request nor frame: {line}");
        }
    }
    // At least one worked example per message kind exists (the section
    // coverage test guarantees the sections; this guards the examples).
    assert!(
        requests >= REQUEST_CMDS.len(),
        "expected at least one parseable example per request cmd, found {requests}"
    );
    assert!(
        frames >= FRAME_KINDS.len(),
        "expected at least one parseable example per frame kind, found {frames}"
    );
}

#[test]
fn operations_doc_covers_every_serve_flag() {
    let cli = repo_file("src/bin/krcore-cli.rs");
    let serve = cli
        .split("fn cmd_serve()")
        .nth(1)
        .expect("krcore-cli.rs has cmd_serve")
        .split("\nfn ")
        .next()
        .unwrap();
    // Scrape the `"--flag" =>` match arms; the doc must mention each.
    // Only exact flag tokens count — error-message literals that happen
    // to start with `--` do not.
    let mut flags = Vec::new();
    for part in serve.split('"').skip(1).step_by(2) {
        let is_flag = part.starts_with("--")
            && part[2..]
                .chars()
                .all(|c| c.is_ascii_lowercase() || c == '-');
        if is_flag && !flags.contains(&part.to_string()) {
            flags.push(part.to_string());
        }
    }
    assert!(
        flags.len() >= 10,
        "flag scrape looks broken, found only {flags:?}"
    );
    let doc = repo_file("docs/OPERATIONS.md");
    for flag in &flags {
        assert!(
            doc.contains(flag.as_str()),
            "docs/OPERATIONS.md does not document serve flag {flag}"
        );
    }
}

/// The request-field row for `field` in PROTOCOL.md's `enumerate` table.
fn field_row(doc: &str, field: &str) -> String {
    let prefix = format!("| `{field}` |");
    doc.lines()
        .find(|l| l.starts_with(&prefix))
        .unwrap_or_else(|| panic!("docs/PROTOCOL.md has no row for `{field}`"))
        .to_string()
}

/// A minimal `enumerate` request with one extra field.
fn enumerate_with(extra: &str) -> String {
    format!(r#"{{"v":1,"cmd":"enumerate","id":"d","dataset":"x","k":3,{extra}}}"#)
}

#[test]
fn protocol_doc_pins_threads_as_accepted_validated_and_ignored() {
    let doc = repo_file("docs/PROTOCOL.md");
    let row = field_row(&doc, "threads");
    for phrase in ["integer ≤ 1024", "ignored"] {
        assert!(
            row.contains(phrase),
            "`threads` row lacks {phrase:?}: {row}"
        );
    }
    assert!(
        doc.contains("The `threads` request field is accepted, validated and ignored"),
        "PROTOCOL.md's compat notes must say `threads` is ignored"
    );
    // The codec keeps the documented range.
    for threads in [0, 1, 1024] {
        let line = enumerate_with(&format!(r#""r":1,"threads":{threads}"#));
        Request::parse(&line).unwrap_or_else(|e| panic!("threads {threads} rejected: {e:?}"));
    }
    assert!(Request::parse(&enumerate_with(r#""r":1,"threads":1025"#)).is_err());
}

#[test]
fn protocol_doc_pins_the_r_upper_bound() {
    let doc = repo_file("docs/PROTOCOL.md");
    let row = field_row(&doc, "r");
    assert!(row.contains("9.22 × 10⁹"), "`r` row lacks its bound: {row}");
    assert!(Request::parse(&enumerate_with(r#""r":9.2e9"#)).is_ok());
    assert!(Request::parse(&enumerate_with(r#""r":9.3e9"#)).is_err());
}
