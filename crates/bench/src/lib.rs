//! The benchmark harness: experiments that regenerate every table and
//! figure of the paper (see DESIGN.md §4 for the experiment index).
//!
//! Each experiment is a plain function returning printable rows (and the
//! machine-readable records behind them), called by the `cargo run`
//! harness binaries. The quantity measured is the MPC *load* — the
//! paper's cost metric — read off the simulator's exact ledger,
//! alongside the closed-form bounds of Table 1. Wall-clock is not
//! measured here: the repo benchmark (`benchmark/`) owns it.

pub mod artifact;
pub mod experiments;
pub mod table;

pub use artifact::{
    Artifact, BenchArtifact, BenchRecord, DeltaBenchArtifact, DeltaBenchRecord, ServerArtifact,
    ServerRecord,
};
pub use table::{print_table, to_csv, Cell, Table};

/// Configure the simulator's local-execution thread pool for a harness
/// binary: `--threads N` on the command line wins, then the
/// `MPCJOIN_THREADS` environment variable, then all available cores.
/// Returns the chosen thread count.
pub fn init_threads() -> usize {
    let mut threads = None;
    let args: Vec<String> = std::env::args().collect();
    for (i, arg) in args.iter().enumerate() {
        if let Some(v) = arg.strip_prefix("--threads=") {
            threads = v.parse().ok();
        } else if arg == "--threads" {
            threads = args.get(i + 1).and_then(|v| v.parse().ok());
        }
    }
    let threads = threads
        .or_else(|| {
            std::env::var("MPCJOIN_THREADS")
                .ok()
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or_else(mpcjoin::mpc::exec::available_threads);
    mpcjoin::mpc::exec::set_default_threads(threads);
    threads
}

/// Harness-binary output helper: print the table, and when the
/// environment variable `MPCJOIN_CSV_DIR` is set, also write it there as
/// `<slug>.csv`.
pub fn emit(table: &Table, slug: &str) {
    print_table(table);
    if let Ok(dir) = std::env::var("MPCJOIN_CSV_DIR") {
        let path = std::path::Path::new(&dir).join(format!("{slug}.csv"));
        if let Err(e) = std::fs::write(&path, to_csv(table)) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
}

/// Write a machine-readable bench artifact (schema `mpcjoin-bench-v1`)
/// as `<name>` into `MPCJOIN_BENCH_DIR` (preferred) or
/// `MPCJOIN_CSV_DIR`, or next to the current directory when neither is
/// set. Returns the path written, for the harness to log.
pub fn emit_json(artifact: &BenchArtifact, name: &str) -> std::path::PathBuf {
    let dir = std::env::var("MPCJOIN_BENCH_DIR")
        .or_else(|_| std::env::var("MPCJOIN_CSV_DIR"))
        .unwrap_or_else(|_| ".".into());
    let path = std::path::Path::new(&dir).join(name);
    if let Err(e) = std::fs::write(&path, artifact.to_json_string()) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        println!(
            "wrote {} ({} records)",
            path.display(),
            artifact.records.len()
        );
    }
    path
}

/// Like [`emit`] for execution traces: print a short summary, and when
/// `MPCJOIN_CSV_DIR` is set, write the full JSON next to the CSVs as
/// `<slug>_trace.json`.
pub fn emit_trace(trace: &mpcjoin::mpc::Trace, slug: &str) {
    let report = trace.report();
    println!("\n== trace: {slug} ==");
    println!(
        "{} exchange events over {} rounds, load {}, traffic {}",
        trace.events.len(),
        trace.cost.rounds,
        trace.cost.load,
        trace.cost.total_units
    );
    if let Some(c) = &report.critical {
        println!(
            "critical cell: server {} in round {} received {} units during `{}`",
            c.server, c.round, c.units, c.label
        );
    }
    if let Ok(dir) = std::env::var("MPCJOIN_CSV_DIR") {
        let path = std::path::Path::new(&dir).join(format!("{slug}_trace.json"));
        if let Err(e) = std::fs::write(&path, trace.to_json(None, None, None)) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
}

// The serving and incremental schemas' differ tests sit in crate-root
// test modules, so the suite reports them as `server::tests::*` and
// `delta::tests::*` — the names the tier-1 floor tracks them under.
#[cfg(test)]
mod server {
    mod tests {
        use crate::artifact::{diff, Artifact, ServerArtifact, ServerRecord};

        fn diff_of(base: &ServerArtifact, fresh: &ServerArtifact) -> Result<String, Vec<String>> {
            diff(&base.to_json_string(), &fresh.to_json_string(), 0.05)
        }

        fn record(workload: &str, load_sum: u64) -> ServerRecord {
            ServerRecord {
                workload: workload.into(),
                sent: 128,
                responses: 128,
                lost: 0,
                duplicated: 0,
                retries: 3,
                cache_hits: 32,
                load_sum,
            }
        }

        fn artifact(load_sum: u64) -> ServerArtifact {
            ServerArtifact {
                sessions: 32,
                per_session: 4,
                seed: 7,
                records: vec![record("mm", load_sum), record("line", 500)],
                chaos: false,
                updates: 16,
                revalidations: 16,
            }
        }

        #[test]
        fn round_trips_through_json() {
            let art = artifact(1000);
            let text = art.to_json_string();
            assert!(text.starts_with("{\"schema\":\"mpcjoin-bench-server-v1\""));
            assert_eq!(ServerArtifact::parse(&text).unwrap(), art);
        }

        #[test]
        fn rejects_foreign_schemas() {
            assert!(ServerArtifact::parse("{\"schema\":\"mpcjoin-bench-v1\"}").is_err());
            assert!(ServerArtifact::parse("nope").is_err());
        }

        #[test]
        fn diff_ignores_machine_dependent_fields() {
            let base = artifact(1000);
            let mut fresh = artifact(1000);
            fresh.records[0].retries = 99;
            fresh.records[0].cache_hits = 0;
            fresh.chaos = true;
            assert!(diff_of(&base, &fresh).is_ok());
        }

        #[test]
        fn a_document_carrying_unknown_legacy_members_still_parses() {
            // The committed baselines were recorded with wall-clock
            // members this crate no longer declares (`artifact::tests`
            // loads the real files); the parser reads the members it
            // declares and ignores the rest, whatever their type.
            let art = artifact(1000);
            let text = art
                .to_json_string()
                .replace(
                    ",\"load_sum\":1000",
                    ",\"load_sum\":1000,\"legacy_ns\":1000000,\"legacy_list\":[9]",
                )
                .replace(
                    ",\"chaos\":",
                    ",\"legacy_rate\":400.5,\"legacy_null\":null,\"chaos\":",
                );
            assert!(text.contains("legacy_list") && text.contains("legacy_null"));
            assert_eq!(ServerArtifact::parse(&text).unwrap(), art);
            assert!(diff(&text, &art.to_json_string(), 0.05).is_ok());
        }

        #[test]
        fn artifacts_without_update_counts_still_parse() {
            // Committed baselines predate the incremental plane;
            // `updates` and `revalidations` are optional on parse,
            // default to 0, and a fresh non-`--updates` run also reports
            // 0, so old baselines keep diffing cleanly.
            let mut art = artifact(1000);
            let text = art
                .to_json_string()
                .replace(",\"updates\":16", "")
                .replace(",\"revalidations\":16", "");
            let parsed = ServerArtifact::parse(&text).unwrap();
            assert_eq!((parsed.updates, parsed.revalidations), (0, 0));
            art.updates = 0;
            art.revalidations = 0;
            assert_eq!(parsed, art);

            assert!(diff(&text, &art.to_json_string(), 0.05).is_ok());

            let errors = diff_of(&artifact(1000), &art).unwrap_err();
            assert!(
                errors[0].contains("`updates` changed 16 -> 0"),
                "{errors:?}"
            );
        }

        #[test]
        fn diff_fails_on_deterministic_drift_and_invariants() {
            let base = artifact(1000);
            let errors = diff_of(&base, &artifact(1001)).unwrap_err();
            assert!(
                errors[0].contains("load_sum changed 1000 -> 1001"),
                "{errors:?}"
            );

            let mut lossy = artifact(1000);
            lossy.records[1].lost = 2;
            let errors = diff_of(&base, &lossy).unwrap_err();
            assert!(errors[0].contains("protocol invariant"), "{errors:?}");

            let mut cfg = artifact(1000);
            cfg.seed = 8;
            assert!(diff_of(&base, &cfg).is_err());

            let mut missing = artifact(1000);
            missing.records.pop();
            let errors = diff_of(&base, &missing).unwrap_err();
            assert!(
                errors[0].contains("missing from the fresh run"),
                "{errors:?}"
            );
        }

        #[test]
        fn fresh_side_invariants_bind_workloads_the_baseline_never_recorded() {
            // A baseline recorded without `--fault-plan` / `--updates`
            // has no `fault` record; a fresh run that loses a frame
            // there must still fail.
            let base = artifact(1000);
            let mut fresh = artifact(1000);
            fresh.records.push(ServerRecord {
                lost: 1,
                ..record("fault", 120)
            });
            let errors = diff_of(&base, &fresh).unwrap_err();
            assert_eq!(errors.len(), 1, "{errors:?}");
            assert!(
                errors[0].starts_with("fault: protocol invariant"),
                "{errors:?}"
            );
            fresh.records[2].lost = 0;
            let msg = diff_of(&base, &fresh).unwrap();
            assert!(msg.contains("1 new rows"), "{msg}");
        }
    }
}

#[cfg(test)]
mod delta {
    mod tests {
        use crate::artifact::{diff, Artifact, DeltaBenchArtifact, DeltaBenchRecord};

        fn diff_of(
            base: &DeltaBenchArtifact,
            fresh: &DeltaBenchArtifact,
        ) -> Result<String, Vec<String>> {
            diff(&base.to_json_string(), &fresh.to_json_string(), 0.05)
        }

        fn record(case: &str, class: &str, base: u64, delta: u64) -> DeltaBenchRecord {
            DeltaBenchRecord {
                case: case.into(),
                plan: "MatMul".into(),
                semiring: "count".into(),
                class: class.into(),
                delta_in: 4,
                delta_out: 9,
                base_load: base,
                delta_load: delta,
            }
        }

        fn artifact() -> DeltaBenchArtifact {
            DeltaBenchArtifact {
                seed: 7,
                servers: 8,
                records: vec![
                    record("mm/count", "ring_delta", 500, 40),
                    record("mm/bool", "rerun_fallback", 500, 500),
                ],
            }
        }

        #[test]
        fn round_trips_through_json() {
            let art = artifact();
            let text = art.to_json_string();
            assert!(text.starts_with("{\"schema\":\"mpcjoin-bench-delta-v1\""));
            assert_eq!(DeltaBenchArtifact::parse(&text).unwrap(), art);
        }

        #[test]
        fn diff_accepts_identical_runs_and_ignores_wall_clock() {
            assert!(diff_of(&artifact(), &artifact()).is_ok());
            // The committed baseline still carries the run's wall-clock;
            // a fresh document (which cannot) diffs clean against it.
            let path = format!(
                "{}/../../results/BENCH_baseline_delta.json",
                env!("CARGO_MANIFEST_DIR")
            );
            let committed = std::fs::read_to_string(path).unwrap();
            let fresh = DeltaBenchArtifact::parse(&committed)
                .unwrap()
                .to_json_string();
            assert!(fresh.len() < committed.len());
            assert!(diff(&committed, &fresh, 0.05).is_ok());
        }

        #[test]
        fn diff_fails_on_drift_missing_cases_and_lost_advantage() {
            let base = artifact();

            let mut drifted = artifact();
            drifted.records[0].delta_load = 41;
            let errors = diff_of(&base, &drifted).unwrap_err();
            assert!(
                errors[0].contains("delta_load changed 40 -> 41"),
                "{errors:?}"
            );

            let mut missing = artifact();
            missing.records.pop();
            let errors = diff_of(&base, &missing).unwrap_err();
            assert!(
                errors[0].contains("missing from the fresh run"),
                "{errors:?}"
            );

            // The advantage invariant binds even when baseline and fresh
            // agree — a regressed baseline cannot grandfather itself in.
            let mut level = artifact();
            level.records[0].base_load = 40;
            let errors = diff_of(&level, &level.clone()).unwrap_err();
            assert!(
                errors.iter().any(|e| e.contains("lost its advantage")),
                "{errors:?}"
            );

            let mut fb = artifact();
            fb.records[1].delta_load = 499;
            let errors = diff_of(&base, &fb).unwrap_err();
            assert!(
                errors.iter().any(|e| e.contains("delta_load changed")),
                "{errors:?}"
            );
            assert!(
                errors
                    .iter()
                    .any(|e| e.contains("differs from the recompute ledger")),
                "{errors:?}"
            );
        }
    }
}
