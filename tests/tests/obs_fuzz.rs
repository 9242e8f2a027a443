//! Seeded fuzz coverage for the observability plane's readers:
//! `mpcjoin-log-v1` lines (`LogEventView::parse` / `check_log`) and
//! `mpcjoin-serverstats-v1` payloads (`StatsView::parse`).
//!
//! Same discipline as `json_fuzz.rs`: deterministic `DetRng`, no
//! third-party fuzz framework. The contract under test is that the
//! readers never panic on truncated, corrupted, or arbitrary input,
//! that every rejection is a contextual message (not a bare `false`),
//! and that valid documents keep round-tripping.

use mpcjoin::mpc::json::Json;
use mpcjoin::mpc::DetRng;
use mpcjoin_server::obs::{check_log, LogEventView, StatsView};
use mpcjoin_server::{Scheduler, ServerConfig};

const LEVELS: [&str; 3] = ["info", "warn", "error"];
const EVENTS: [&str; 7] = [
    "server_start",
    "conn_open",
    "request",
    "reject",
    "complete",
    "drain",
    "shutdown",
];

/// Deterministically generate one valid `mpcjoin-log-v1` line with the
/// event's required members plus random extras.
fn gen_log_line(rng: &mut DetRng, ts_ns: u64) -> String {
    let event = EVENTS[rng.gen_range(0usize..EVENTS.len())];
    let mut members = vec![
        (
            "schema".to_string(),
            Json::Str(mpcjoin_server::LOG_SCHEMA.into()),
        ),
        ("ts_ns".to_string(), Json::Num(ts_ns as f64)),
        (
            "level".to_string(),
            Json::Str(LEVELS[rng.gen_range(0usize..LEVELS.len())].into()),
        ),
        ("event".to_string(), Json::Str(event.into())),
    ];
    match event {
        "request" => members.push(("kind".into(), Json::Str("query".into()))),
        "reject" => members.push(("reason".into(), Json::Str("overloaded".into()))),
        "complete" => members.extend([
            ("kind".into(), Json::Str("query".into())),
            ("outcome".into(), Json::Str("result".into())),
            ("cached".into(), Json::Bool(rng.gen_bool(0.5))),
        ]),
        _ => {}
    }
    for extra in 0..rng.gen_range(0usize..3) {
        members.push((
            format!("x{extra}"),
            match rng.gen_range(0u32..3) {
                0 => Json::Num(rng.gen_range(0u64..1_000_000) as f64),
                1 => Json::Str("s\"\\\n".into()),
                _ => Json::Null,
            },
        ));
    }
    Json::Obj(members)
        .to_string_compact()
        .expect("generated lines are finite")
}

/// The hardening contract: parsing returns (never panics) and failures
/// carry a non-empty, contextual message.
fn assert_line_hardened(input: &str) {
    if let Err(msg) = LogEventView::parse(input) {
        assert!(!msg.is_empty(), "empty error for {input:?}");
    }
}

#[test]
fn truncated_log_lines_never_panic() {
    let mut rng = DetRng::seed_from_u64(0x10C);
    for round in 0..100 {
        let line = gen_log_line(&mut rng, round);
        for (cut, _) in line.char_indices() {
            let prefix = &line[..cut];
            if prefix == line {
                continue;
            }
            assert!(
                LogEventView::parse(prefix).is_err(),
                "round {round}: strict prefix {prefix:?} of a log object parsed"
            );
            assert_line_hardened(prefix);
        }
    }
}

#[test]
fn corrupted_log_lines_never_panic() {
    let mut rng = DetRng::seed_from_u64(0xBAD10C);
    for _ in 0..300 {
        let line = gen_log_line(&mut rng, 1);
        let mut bytes = line.clone().into_bytes();
        for _ in 0..rng.gen_range(1usize..4) {
            let at = rng.gen_range(0usize..bytes.len());
            bytes[at] = (rng.next_u64() & 0xff) as u8;
        }
        // The wire/file layer hands the reader &str, so skip non-UTF-8
        // mutations — they can't reach the parser.
        if let Ok(mutated) = String::from_utf8(bytes) {
            assert_line_hardened(&mutated);
        }
    }
}

#[test]
fn log_byte_soup_never_panics() {
    let mut rng = DetRng::seed_from_u64(0x50C5);
    for _ in 0..300 {
        let len = rng.gen_range(0usize..80);
        let soup: String = (0..len)
            .map(|_| {
                const SIG: &[u8] = b"{}[]\",:\\-0123456789.schema_tsnleveint";
                if rng.gen_bool(0.7) {
                    SIG[rng.gen_range(0usize..SIG.len())] as char
                } else {
                    char::from_u32(rng.gen_range(0x20u32..0x7f)).unwrap()
                }
            })
            .collect();
        assert_line_hardened(&soup);
    }
}

#[test]
fn check_log_pinpoints_broken_lines_and_keeps_good_ones() {
    let mut rng = DetRng::seed_from_u64(0xF11E);
    for _ in 0..50 {
        // A log of valid lines with monotone timestamps, with a known
        // set of lines smashed.
        let total = rng.gen_range(4usize..12);
        let mut lines: Vec<String> = (0..total)
            .map(|i| gen_log_line(&mut rng, (i as u64 + 1) * 100))
            .collect();
        let mut broken = std::collections::BTreeSet::new();
        for _ in 0..rng.gen_range(1usize..3) {
            let at = rng.gen_range(0usize..lines.len());
            lines[at] = format!("{{broken #{at}");
            broken.insert(at + 1); // 1-indexed, like the errors
        }
        let text = lines.join("\n");
        let errors = check_log(&text).expect_err("smashed lines must fail validation");
        for want in &broken {
            assert!(
                errors
                    .iter()
                    .any(|e| e.starts_with(&format!("line {want}:"))),
                "no error names broken line {want}: {errors:?}"
            );
        }
    }
    // And valid logs keep validating (round-trip sanity).
    let mut rng = DetRng::seed_from_u64(0x600D);
    let text: Vec<String> = (0..20).map(|i| gen_log_line(&mut rng, i * 7 + 1)).collect();
    let summary = check_log(&text.join("\n")).expect("valid log validates");
    assert_eq!(summary.lines, 20);
}

#[test]
fn check_log_rejects_backwards_timestamps() {
    let mut rng = DetRng::seed_from_u64(0x7155);
    let early = gen_log_line(&mut rng, 500);
    let late = gen_log_line(&mut rng, 100);
    let errors = check_log(&format!("{early}\n{late}")).expect_err("non-monotone ts");
    assert!(errors.iter().any(|e| e.contains("backwards")), "{errors:?}");
}

/// A real (empty-workload) serverstats payload straight from the
/// scheduler — the canonical valid input.
fn real_stats_payload() -> String {
    let sched = Scheduler::new(ServerConfig::default());
    let doc = sched.stats_doc().to_string_sanitized();
    sched.shutdown();
    doc
}

#[test]
fn stats_payload_round_trips_and_survives_truncation() {
    let text = real_stats_payload();
    let view = StatsView::parse(&text).expect("real payload parses");
    assert_eq!(view.num(&["sched", "completed"]), Some(0));
    assert_eq!(view.counter("no.such.counter"), 0);

    for (cut, _) in text.char_indices() {
        let prefix = &text[..cut];
        if prefix == text {
            continue;
        }
        let err = StatsView::parse(prefix).expect_err("strict prefix cannot validate");
        assert!(!err.is_empty());
    }
}

#[test]
fn corrupted_stats_payloads_never_panic() {
    let text = real_stats_payload();
    let mut rng = DetRng::seed_from_u64(0x57A75);
    for _ in 0..300 {
        let mut bytes = text.clone().into_bytes();
        for _ in 0..rng.gen_range(1usize..4) {
            let at = rng.gen_range(0usize..bytes.len());
            bytes[at] = (rng.next_u64() & 0xff) as u8;
        }
        if let Ok(mutated) = String::from_utf8(bytes) {
            if let Ok(view) = StatsView::parse(&mutated) {
                // Still-valid mutations must still answer queries
                // without panicking.
                let _ = view.num(&["sched", "completed"]);
                let _ = view.counter("error.overloaded");
            }
        }
    }
}

#[test]
fn stats_schema_tag_is_enforced() {
    let text = real_stats_payload().replace("mpcjoin-serverstats-v1", "mpcjoin-serverstats-v0");
    let err = StatsView::parse(&text).expect_err("wrong schema tag");
    assert!(err.contains("schema"), "{err}");
}
