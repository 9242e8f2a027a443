//! The CLI's leg of "the table is the vocabulary": an unknown
//! `--semiring` is answered with the wire's `bad_request` code and the
//! very detail text `mpcjoin::with_semiring` hands the server (the
//! server's leg is `every_wire_semiring_updates_and_requeries_byte_identically`
//! in the integration suite). Lives here because cargo exposes a binary's
//! path only to its own package's tests.

use mpcjoin::mpc::json::Json;
use mpcjoin::prelude::Semiring;
use std::process::Command;

struct Probe;

impl mpcjoin::SemiringVisitor for Probe {
    type Out = ();

    fn visit<S: Semiring>(self, _weight: fn(Option<i64>) -> S) -> Self::Out {}
}

#[test]
fn unknown_semiring_is_a_bad_request_with_the_tables_detail() {
    let expected = mpcjoin::with_semiring("tropical", Probe).expect_err("not in the table");
    let out = Command::new(env!("CARGO_BIN_EXE_mpcjoin-cli"))
        .args(["--query", "Q(a, c) :- R(a, b), S(b, c)"])
        .args(["--semiring", "tropical", "--format", "json"])
        .output()
        .expect("mpcjoin-cli runs");
    assert!(!out.status.success(), "a failed run exits nonzero");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let frame = Json::parse(stdout.trim()).expect("one JSON error frame on stdout");
    assert_eq!(frame.get("type").and_then(Json::as_str), Some("error"));
    assert_eq!(
        frame.get("code").and_then(Json::as_str),
        Some("bad_request")
    );
    assert_eq!(
        frame.get("detail").and_then(Json::as_str),
        Some(expected.as_str())
    );
}
