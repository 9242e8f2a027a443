//! Drives the `mpcjoin-check` binary itself: the usage contract, one
//! valid trace, and the committed server baseline diffed against itself.

use mpcjoin::prelude::*;
use std::process::{Command, Output};

fn check(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mpcjoin-check"))
        .args(args)
        .output()
        .expect("the checker runs")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

#[test]
fn usage_lists_the_three_subcommands_and_only_help_exits_zero() {
    for (args, ok) in [
        (&[][..], false),
        (&["frobnicate"], false),
        (&["--help"], true),
    ] {
        let out = check(args);
        assert_eq!(out.status.success(), ok, "{args:?}");
        let usage = text(if ok { &out.stdout } else { &out.stderr });
        for needle in [
            "usage: mpcjoin-check <subcommand>",
            "trace TRACE.json",
            "obs   LOG.jsonl [--stats STATS.json] [--bench BENCH.json]",
            "bench BASELINE.json FRESH.json [--tol FRAC]",
        ] {
            assert!(
                usage.contains(needle),
                "{args:?}: missing `{needle}` in:\n{usage}"
            );
        }
    }
    // A failure inside a subcommand is prefixed with its name.
    let out = check(&["trace", "/no/such/trace.json"]);
    assert!(!out.status.success());
    let err = text(&out.stderr);
    assert!(err.starts_with("mpcjoin-check trace: cannot read"), "{err}");
}

#[test]
fn a_valid_trace_and_the_committed_server_baseline_pass() {
    let (a, b, c) = (Attr(0), Attr(1), Attr(2));
    let q = TreeQuery::new(vec![Edge::binary(a, b), Edge::binary(b, c)], [a, c]);
    let rels = vec![
        Relation::<Count>::binary_ones(a, b, (0..24u64).map(|i| (i % 6, i % 4))),
        Relation::<Count>::binary_ones(b, c, (0..24u64).map(|i| (i % 4, i % 5))),
    ];
    let result = QueryEngine::new(4).trace(true).run(&q, &rels).unwrap();
    let trace = result.trace.as_ref().expect("tracing was enabled");
    let dir = std::env::temp_dir().join(format!("mpcjoin_check_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.json");
    std::fs::write(
        &path,
        trace.to_json(Some(&result.audit.to_json()), None, None),
    )
    .unwrap();
    let out = check(&["trace", path.to_str().unwrap()]);
    std::fs::remove_dir_all(&dir).ok();
    assert!(out.status.success(), "{}", text(&out.stderr));
    let stdout = text(&out.stdout);
    assert!(
        stdout.starts_with("mpcjoin-check trace: trace OK (mpcjoin-trace-v3): 4 servers"),
        "{stdout}"
    );

    let baseline = format!(
        "{}/../../results/BENCH_baseline_server.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let out = check(&["bench", &baseline, &baseline]);
    assert!(out.status.success(), "{}", text(&out.stderr));
    let stdout = text(&out.stdout);
    assert!(
        stdout.starts_with("mpcjoin-check bench: mpcjoin-bench-server-v1 OK: 4 records"),
        "{stdout}"
    );
}
