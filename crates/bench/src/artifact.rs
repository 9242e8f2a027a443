//! The committed regression ledgers: one envelope for the three bench
//! artifact schemas, and the one differ behind `mpcjoin-check bench`.
//!
//! The paper's cost metric is the load `L`, which the simulator measures
//! exactly, so the repo's regression story is three committed documents
//! diffed field for field against fresh runs:
//!
//! * `mpcjoin-bench-v1` ([`BenchArtifact`]) — one [`BenchRecord`] per
//!   Table-1 experiment row (`table1`, the `primitives` bench), baseline
//!   `results/BENCH_baseline_table1.json`;
//! * `mpcjoin-bench-server-v1` ([`ServerArtifact`]) — one
//!   [`ServerRecord`] per `loadgen` workload class, baseline
//!   `results/BENCH_baseline_server.json`;
//! * `mpcjoin-bench-delta-v1` ([`DeltaBenchArtifact`]) — one
//!   [`DeltaBenchRecord`] per `delta_bench` case, baseline
//!   `results/BENCH_baseline_delta.json`.
//!
//! Each schema is **one declaration** (the `wire_struct!` blocks below):
//! every member is written once, with its type and its [`Check`] — how
//! [`diff`] treats it. Serialisation, parsing and diffing are derived
//! from that declaration, so adding a member is one line.
//!
//! The artifacts are *ledgers only*. Wall-clock has one owner, the repo
//! benchmark (`benchmark/`, `BENCHMARK.json`), which measures it with
//! statistics; the single-sample wall-clock, latency-percentile and
//! throughput members earlier artifacts carried are gone, and since the
//! parser ignores unknown members, baselines recorded with them still
//! load.
//! `threads` survives on [`BenchRecord`] as provenance: loads are
//! bit-identical across thread counts, and a baseline that says which
//! backend configuration produced it is what makes a diff against a run
//! at another thread count evidence of that.

use mpcjoin::mpc::json::Json;
use mpcjoin::prelude::*;

/// How [`diff`] treats one member.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Check {
    /// Part of the record's identity: baseline and fresh records are
    /// matched on the tuple of their key members.
    Key,
    /// Deterministic: must equal the baseline.
    Exact,
    /// A measured load: at most `baseline · (1 + tol)`.
    AtMost,
    /// A verdict: may not flip `true → false`.
    NoFlip,
    /// A protocol invariant: must be 0 on the fresh side, baseline
    /// counterpart or not.
    Zero,
    /// Recorded for the reader, never compared.
    Info,
    /// The header's record array: matched by key, each record's members
    /// diffed under their own rules.
    Rows,
}

/// One declared member of a [`Wire`] object.
#[derive(Clone, Copy, Debug)]
pub struct Field {
    /// Wire name.
    pub name: &'static str,
    /// How [`diff`] treats it.
    pub check: Check,
    /// Whether a document may omit the member (older baselines predate
    /// some members; an absent one reads as the type's default).
    pub optional: bool,
    /// The member table of the records inside a [`Check::Rows`] member
    /// (empty for scalar members).
    pub rows: &'static [Field],
}

/// A member type: how it is read out of, and written into, an object.
pub trait Member: Sized + Default {
    /// See [`Field::rows`].
    const ROWS: &'static [Field] = &[];
    /// Read required member `key` of `obj`.
    fn read(obj: &Json, key: &str) -> Result<Self, String>;
    /// The member's JSON value.
    fn write(&self) -> Json;
}

impl Member for u64 {
    fn read(obj: &Json, key: &str) -> Result<u64, String> {
        obj.field_u64(key)
    }
    fn write(&self) -> Json {
        Json::Num(*self as f64)
    }
}

impl Member for f64 {
    fn read(obj: &Json, key: &str) -> Result<f64, String> {
        obj.field_f64(key)
    }
    fn write(&self) -> Json {
        Json::Num(*self)
    }
}

impl Member for bool {
    fn read(obj: &Json, key: &str) -> Result<bool, String> {
        obj.field_bool(key)
    }
    fn write(&self) -> Json {
        Json::Bool(*self)
    }
}

impl Member for String {
    fn read(obj: &Json, key: &str) -> Result<String, String> {
        obj.field_str(key).map(str::to_string)
    }
    fn write(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl<R: Wire> Member for Vec<R> {
    const ROWS: &'static [Field] = R::FIELDS;
    fn read(obj: &Json, key: &str) -> Result<Vec<R>, String> {
        obj.field_arr(key)?.iter().map(R::from_json).collect()
    }
    fn write(&self) -> Json {
        Json::Arr(self.iter().map(R::to_json).collect())
    }
}

/// An object whose members are declared once (by `wire_struct!`).
pub trait Wire: Sized {
    /// The declared members, in emission order.
    const FIELDS: &'static [Field];
    /// The object, members in declaration order.
    fn to_json(&self) -> Json;
    /// Parse an object; unknown members are ignored.
    fn from_json(obj: &Json) -> Result<Self, String>;
}

/// Read member `key` of an `owner` object.
fn read_member<T: Member>(obj: &Json, key: &str, optional: bool, owner: &str) -> Result<T, String> {
    if optional && obj.get(key).is_none() {
        return Ok(T::default());
    }
    T::read(obj, key).map_err(|e| format!("{owner}: {e}"))
}

/// One declaration per object: the struct, its member table, its
/// serialiser and its parser all come from the same field list. A
/// member is `name: type => Check`, plus `optional` when documents may
/// omit it.
macro_rules! wire_struct {
    (@optional) => { false };
    (@optional optional) => { true };
    ($(#[$meta:meta])* pub struct $name:ident {
        $($(#[$fmeta:meta])* $field:ident: $ty:ty => $check:ident $($optional:ident)?,)*
    }) => {
        $(#[$meta])*
        #[derive(Clone, Debug, Default, PartialEq)]
        pub struct $name {
            $($(#[$fmeta])* pub $field: $ty,)*
        }

        impl Wire for $name {
            const FIELDS: &'static [Field] = &[$(Field {
                name: stringify!($field),
                check: Check::$check,
                optional: wire_struct!(@optional $($optional)?),
                rows: <$ty as Member>::ROWS,
            },)*];

            fn to_json(&self) -> Json {
                Json::Obj(vec![$((stringify!($field).into(), self.$field.write()),)*])
            }

            fn from_json(obj: &Json) -> Result<$name, String> {
                Ok($name {$(
                    $field: read_member(
                        obj,
                        stringify!($field),
                        wire_struct!(@optional $($optional)?),
                        stringify!($name),
                    )?,
                )*})
            }
        }
    };
}

/// A whole artifact document: a [`Wire`] header (which carries the
/// record array as one of its members) under a schema tag.
pub trait Artifact: Wire {
    /// The document's `schema` tag.
    const SCHEMA: &'static str;

    /// Invariants a *fresh* run must uphold whatever the baseline says
    /// (beyond the [`Check::Zero`] members); one message per violation.
    fn fresh_invariants(&self, _errors: &mut Vec<String>) {}

    /// Serialise: the `schema` tag, then the members in declaration
    /// order.
    fn to_json_string(&self) -> String {
        let mut members = vec![("schema".into(), Json::Str(Self::SCHEMA.into()))];
        if let Json::Obj(declared) = self.to_json() {
            members.extend(declared);
        }
        Json::Obj(members)
            .to_string_compact()
            .expect("artifact members are finite numbers")
    }

    /// Parse a document of this schema (the one parser every artifact
    /// reader goes through).
    fn parse(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
        doc.expect_schema(Self::SCHEMA)?;
        Self::from_json(&doc)
    }
}

wire_struct! {
    /// One experiment configuration's measured outcome.
    pub struct BenchRecord {
        /// Experiment family, e.g. `"table1_mm"`.
        experiment: String => Key,
        /// Workload point within the family, e.g. `"side=8"`.
        workload: String => Key,
        /// Servers.
        p: u64 => Key,
        /// Input size N under the experiment's convention (total size
        /// for matrix multiplication, max relation size for the join
        /// families).
        n: u64 => Key,
        /// Output size.
        out: u64 => Key,
        /// Measured load of the distributed Yannakakis baseline (0 when
        /// the experiment has no baseline arm).
        base_load: u64 => Info,
        /// Measured load of the paper's algorithm.
        load: u64 => AtMost,
        /// The closed-form bound audited against (units, constants
        /// stripped).
        bound: f64 => Info,
        /// `load / bound` (0 when the bound is 0).
        ratio: f64 => Info,
        /// The audit verdict: `load ≤ slack·bound + p`.
        within: bool => NoFlip,
        /// Local-execution threads the run used (provenance; see the
        /// module docs).
        threads: u64 => Info,
    }
}

impl BenchRecord {
    /// Build a record from a finished engine run (plus its baseline's
    /// load, when the experiment ran one).
    pub fn from_run<S: Semiring>(
        experiment: &str,
        workload: &str,
        p: usize,
        n: u64,
        out: u64,
        result: &ExecutionResult<S>,
        base_load: u64,
    ) -> BenchRecord {
        let a = &result.audit;
        BenchRecord {
            experiment: experiment.to_string(),
            workload: workload.to_string(),
            p: p as u64,
            n,
            out,
            base_load,
            load: result.cost.load,
            bound: a.bound,
            ratio: if a.ratio.is_finite() { a.ratio } else { 0.0 },
            within: a.within,
            threads: mpcjoin::mpc::exec::default_threads() as u64,
        }
    }
}

wire_struct! {
    /// A harness run's full set of records (`mpcjoin-bench-v1`).
    pub struct BenchArtifact {
        /// One per experiment row.
        records: Vec<BenchRecord> => Rows,
    }
}

impl Artifact for BenchArtifact {
    const SCHEMA: &'static str = "mpcjoin-bench-v1";
}

wire_struct! {
    /// One `loadgen` workload class's aggregate outcome across all
    /// sessions. Query counts and `load_sum` are seed-determined;
    /// retries and cache hits depend on scheduling races (how often a
    /// burst overflows the admission queue is real nondeterminism, by
    /// design) and are recorded for `mpcjoin-check obs`, never diffed.
    pub struct ServerRecord {
        /// Workload class, e.g. `"mm"`, `"line"`, `"star"`.
        workload: String => Key,
        /// Queries sent (excluding rejected attempts that were retried).
        sent: u64 => Exact,
        /// Result frames received for distinct ids.
        responses: u64 => Exact,
        /// Ids that never received a response.
        lost: u64 => Zero,
        /// Ids that received more than one response.
        duplicated: u64 => Zero,
        /// Backpressure rejections that were retried.
        retries: u64 => Info,
        /// Responses served from the result cache.
        cache_hits: u64 => Info,
        /// Sum of simulated MPC loads over the responses — exactly
        /// reproducible on any machine, because instances are
        /// seed-generated and the simulator's ledger is exact.
        load_sum: u64 => Exact,
    }
}

wire_struct! {
    /// A full loadgen run (`mpcjoin-bench-server-v1`): configuration
    /// echo + per-workload records.
    pub struct ServerArtifact {
        /// Concurrent client sessions the run drove.
        sessions: u64 => Exact,
        /// Queries per session per workload class.
        per_session: u64 => Exact,
        /// Instance-generator seed.
        seed: u64 => Exact,
        /// Per-workload aggregates.
        records: Vec<ServerRecord> => Rows,
        /// The run went through a fault-injecting proxy (`loadgen
        /// --chaos`): client-vs-server cross-checks become one-sided
        /// bounds instead of exact equalities (a response the proxy ate
        /// was still counted server-side).
        chaos: bool => Info optional,
        /// Successful `update` frames acknowledged across the run
        /// (`loadgen --updates`). Absent in artifacts that predate the
        /// incremental plane; a run without `--updates` reports 0 too,
        /// so old baselines keep diffing cleanly.
        updates: u64 => Exact optional,
        /// Re-queries whose cached response body was verified
        /// byte-identical to the last update frame's revalidated body.
        revalidations: u64 => Exact optional,
    }
}

impl Artifact for ServerArtifact {
    const SCHEMA: &'static str = "mpcjoin-bench-server-v1";
}

wire_struct! {
    /// One `delta_bench` (query shape, semiring) case: one seeded small
    /// delta batch against a materialized view, both sides of the
    /// incremental bargain. Both loads are exact simulator ledgers over
    /// seeded instances, so every member is diffed exactly.
    pub struct DeltaBenchRecord {
        /// Case label, e.g. `"mm/count"` (unique within the artifact).
        case: String => Key,
        /// The view's physical plan (`PlanKind` debug name).
        plan: String => Exact,
        /// Semiring wire name (`count`, `sumint`, `bool`, `minplus`).
        semiring: String => Exact,
        /// Maintainability class the batch classified into
        /// (`ring_delta` / `insert_only` / `rerun_fallback`).
        class: String => Exact,
        /// Canonicalized delta tuples entering the costed exchanges.
        delta_in: u64 => Exact,
        /// Output rows whose annotation the batch changed.
        delta_out: u64 => Exact,
        /// Full-recompute ledger on the updated instance.
        base_load: u64 => Exact,
        /// `QueryEngine::apply_delta` ledger for the same batch.
        delta_load: u64 => Exact,
    }
}

wire_struct! {
    /// A full `delta_bench` run (`mpcjoin-bench-delta-v1`):
    /// configuration echo + per-case records.
    pub struct DeltaBenchArtifact {
        /// Instance-generator seed.
        seed: u64 => Exact,
        /// Simulated servers.
        servers: u64 => Exact,
        /// Per-case records.
        records: Vec<DeltaBenchRecord> => Rows,
    }
}

impl Artifact for DeltaBenchArtifact {
    const SCHEMA: &'static str = "mpcjoin-bench-delta-v1";

    /// The subsystem's reason to exist, binding even when baseline and
    /// fresh agree (a regressed baseline cannot grandfather itself in):
    /// a small delta must cost less than recomputing on the incremental
    /// classes, and a `rerun_fallback` *is* the recompute.
    fn fresh_invariants(&self, errors: &mut Vec<String>) {
        for r in &self.records {
            match r.class.as_str() {
                "ring_delta" | "insert_only" if r.delta_load >= r.base_load => {
                    errors.push(format!(
                        "{}: incremental path lost its advantage (delta_load {} >= base_load {})",
                        r.case, r.delta_load, r.base_load
                    ))
                }
                "rerun_fallback" if r.delta_load != r.base_load => errors.push(format!(
                    "{}: fallback ledger {} differs from the recompute ledger {}",
                    r.case, r.delta_load, r.base_load
                )),
                "ring_delta" | "insert_only" | "rerun_fallback" => {}
                other => errors.push(format!("{}: unknown class `{other}`", r.case)),
            }
        }
    }
}

/// Compare a fresh artifact against a committed baseline of any of the
/// three schemas, dispatching on the baseline's `schema` tag (the fresh
/// document must carry the same one).
///
/// Every member is treated as its declared [`Check`] says. Beyond that:
/// a baseline record with no fresh counterpart is lost coverage and
/// fails; a fresh record with no baseline counterpart is reported in
/// the success summary (new coverage is fine, the baseline just wants
/// regenerating) — but the fresh-side invariants ([`Check::Zero`]
/// members, [`Artifact::fresh_invariants`]) bind every fresh record,
/// matched or not. `tol` is the fractional band of [`Check::AtMost`]
/// (e.g. `0.05`; loads are deterministic, the band only absorbs
/// intentional re-tuning). Returns the one-line summary, or every
/// violation.
pub fn diff(baseline: &str, fresh: &str, tol: f64) -> Result<String, Vec<String>> {
    let doc = Json::parse(baseline).map_err(|e| vec![format!("baseline: invalid JSON: {e}")])?;
    match doc.field_str("schema") {
        Ok(BenchArtifact::SCHEMA) => diff_as::<BenchArtifact>(&doc, fresh, tol),
        Ok(ServerArtifact::SCHEMA) => diff_as::<ServerArtifact>(&doc, fresh, tol),
        Ok(DeltaBenchArtifact::SCHEMA) => diff_as::<DeltaBenchArtifact>(&doc, fresh, tol),
        Ok(other) => Err(vec![format!("baseline: unknown artifact schema `{other}`")]),
        Err(e) => Err(vec![format!("baseline: {e}")]),
    }
}

/// [`diff`] once the baseline's tag has picked the schema.
fn diff_as<A: Artifact>(baseline: &Json, fresh: &str, tol: f64) -> Result<String, Vec<String>> {
    let old = A::from_json(baseline).map_err(|e| vec![format!("baseline: {e}")])?;
    let new = A::parse(fresh).map_err(|e| vec![format!("fresh: {e}")])?;
    let mut differ = Differ {
        tol,
        errors: Vec::new(),
    };
    // Diffed as normalised JSON: defaults filled in, unknown members
    // gone, every member paired with its rule.
    let run_level = |name: &str| format!("run-level `{name}`");
    let summary = differ.members(A::FIELDS, &old.to_json(), &new.to_json(), &run_level);
    new.fresh_invariants(&mut differ.errors);
    if differ.errors.is_empty() {
        Ok(format!("{} OK: {summary}", A::SCHEMA))
    } else {
        Err(differ.errors)
    }
}

/// A value as the messages print it.
fn show(v: &Json) -> String {
    v.to_string_sanitized()
}

struct Differ {
    tol: f64,
    errors: Vec<String>,
}

impl Differ {
    /// Apply each member's rule to one baseline/fresh object pair;
    /// `label` words a member name for the messages. Returns the summary
    /// clause of the [`Check::Rows`] member, if the object has one.
    fn members(
        &mut self,
        fields: &[Field],
        old: &Json,
        new: &Json,
        label: &dyn Fn(&str) -> String,
    ) -> String {
        let mut summary = String::new();
        for f in fields {
            let problem = match (f.check, old.get(f.name), new.get(f.name)) {
                (Check::Rows, Some(Json::Arr(o)), Some(Json::Arr(n))) => {
                    summary = self.rows(f.rows, o, n);
                    continue;
                }
                (Check::Exact, Some(o), Some(n)) if o != n => {
                    format!("changed {} -> {} (deterministic field)", show(o), show(n))
                }
                (Check::AtMost, Some(Json::Num(o)), Some(Json::Num(n)))
                    if *n > (o * (1.0 + self.tol)).ceil() =>
                {
                    format!("regressed {o} -> {n} (tolerance {})", self.tol)
                }
                (Check::NoFlip, Some(Json::Bool(true)), Some(Json::Bool(false))) => {
                    "flipped true -> false: new bound violation".to_string()
                }
                _ => continue,
            };
            self.errors.push(format!("{} {problem}", label(f.name)));
        }
        summary
    }

    /// Match two record arrays on their [`Check::Key`] members and diff
    /// each pair; returns the summary clause.
    fn rows(&mut self, fields: &[Field], old: &[Json], new: &[Json]) -> String {
        // A record's identity: string keys joined by `/`, numeric keys
        // appended as `name=value` — e.g. `table1_mm/side=8 p=16 n=4608`.
        let id = |row: &Json| {
            let mut id = String::new();
            for f in fields.iter().filter(|f| f.check == Check::Key) {
                match row.get(f.name) {
                    Some(Json::Str(s)) if id.is_empty() => id.push_str(s),
                    Some(Json::Str(s)) => id.push_str(&format!("/{s}")),
                    Some(v) => id.push_str(&format!(" {}={}", f.name, show(v))),
                    None => {}
                }
            }
            id
        };
        let fresh_by_id: std::collections::BTreeMap<String, &Json> =
            new.iter().map(|row| (id(row), row)).collect();
        let mut matched = 0usize;
        for old_row in old {
            let id = id(old_row);
            let Some(new_row) = fresh_by_id.get(&id) else {
                self.errors.push(format!(
                    "{id}: present in baseline but missing from the fresh run"
                ));
                continue;
            };
            matched += 1;
            self.members(fields, old_row, new_row, &|name| format!("{id}: {name}"));
        }
        // Fresh-side invariants bind every fresh record, matched or not.
        for new_row in new {
            for f in fields.iter().filter(|f| f.check == Check::Zero) {
                let value = new_row.get(f.name);
                if value != Some(&Json::Num(0.0)) {
                    self.errors.push(format!(
                        "{}: protocol invariant broken (`{}` is {}, must be 0)",
                        id(new_row),
                        f.name,
                        value.map_or_else(String::new, show)
                    ));
                }
            }
        }
        format!(
            "{matched} records match the baseline (load tolerance {}), {} new rows not in baseline",
            self.tol,
            new.len().saturating_sub(matched)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diff_of(base: &BenchArtifact, fresh: &BenchArtifact) -> Result<String, Vec<String>> {
        diff(&base.to_json_string(), &fresh.to_json_string(), 0.05)
    }

    fn record(load: u64, within: bool) -> BenchRecord {
        BenchRecord {
            experiment: "table1_mm".into(),
            workload: "side=8".into(),
            p: 16,
            n: 4608,
            out: 4608,
            base_load: 1826,
            load,
            bound: 867.81,
            ratio: load as f64 / 867.81,
            within,
            threads: 4,
        }
    }

    fn bench(records: Vec<BenchRecord>) -> BenchArtifact {
        BenchArtifact { records }
    }

    #[test]
    fn artifact_round_trips_through_json() {
        let art = bench(vec![record(700, true), record(900, false)]);
        let text = art.to_json_string();
        assert!(text.starts_with("{\"schema\":\"mpcjoin-bench-v1\""));
        assert_eq!(BenchArtifact::parse(&text).unwrap(), art);
    }

    #[test]
    fn parse_rejects_foreign_schemas() {
        assert!(BenchArtifact::parse("{\"schema\":\"other\",\"records\":[]}").is_err());
        assert!(BenchArtifact::parse("{\"records\":[]}").is_err());
        assert!(BenchArtifact::parse("not json").is_err());
        // The differ dispatches on the baseline's tag and holds the
        // fresh document to the same one.
        let base = bench(vec![]).to_json_string();
        let errors = diff(&base, "{\"schema\":\"mpcjoin-bench-delta-v1\"}", 0.05).unwrap_err();
        assert!(
            errors[0].contains("fresh: unsupported schema"),
            "{errors:?}"
        );
        let errors = diff("{\"schema\":\"other\"}", &base, 0.05).unwrap_err();
        assert!(errors[0].contains("unknown artifact schema"), "{errors:?}");
    }

    #[test]
    fn the_committed_baselines_load_diff_clean_and_reserialise_to_a_fixed_point() {
        fn check<A: Artifact + std::fmt::Debug + PartialEq>(file: &str) {
            let path = format!("{}/../../results/{file}", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
            let summary = diff(&text, &text, 0.05).unwrap_or_else(|e| panic!("{file}: {e:?}"));
            assert!(summary.starts_with(A::SCHEMA), "{summary}");
            // The baselines still carry the wall-clock members this
            // crate no longer writes; on the surviving members,
            // parse → serialise → parse is a fixed point, and the
            // rewritten document diffs clean against the original.
            let parsed = A::parse(&text).unwrap();
            let rewritten = parsed.to_json_string();
            assert!(rewritten.len() < text.len() && !rewritten.contains("_ns\""));
            assert_eq!(A::parse(&rewritten).unwrap(), parsed);
            assert_eq!(A::parse(&rewritten).unwrap().to_json_string(), rewritten);
            assert!(diff(&text, &rewritten, 0.05).is_ok());
        }
        check::<BenchArtifact>("BENCH_baseline_table1.json");
        check::<ServerArtifact>("BENCH_baseline_server.json");
        check::<DeltaBenchArtifact>("BENCH_baseline_delta.json");
    }

    #[test]
    fn diff_passes_identical_and_improved_runs() {
        let base = bench(vec![record(700, true)]);
        assert!(diff_of(&base, &base).is_ok());
        assert!(diff_of(&base, &bench(vec![record(600, true)])).is_ok());
        // Inside the tolerance band is fine too.
        assert!(diff_of(&base, &bench(vec![record(731, true)])).is_ok());
    }

    #[test]
    fn diff_fails_on_injected_load_regression() {
        // The synthetic-regression guarantee: inflate one row's load and
        // the differ must fail, naming the offending configuration.
        let base = bench(vec![record(700, true)]);
        let errors = diff_of(&base, &bench(vec![record(1400, true)])).unwrap_err();
        assert_eq!(errors.len(), 1);
        assert!(
            errors[0].contains("load regressed 700 -> 1400"),
            "{errors:?}"
        );
        assert!(errors[0].contains("table1_mm/side=8"), "{errors:?}");
    }

    #[test]
    fn diff_fails_on_new_bound_violations_only() {
        let base = bench(vec![record(700, true)]);
        let errors = diff_of(&base, &bench(vec![record(701, false)])).unwrap_err();
        assert!(errors[0].contains("new bound violation"), "{errors:?}");
        // A violation already in the baseline is not *new*.
        let known = bench(vec![record(700, false)]);
        assert!(diff_of(&known, &known).is_ok());
    }

    #[test]
    fn diff_fails_on_lost_coverage() {
        let base = bench(vec![record(700, true)]);
        let errors = diff_of(&base, &bench(vec![])).unwrap_err();
        assert!(
            errors[0].contains("missing from the fresh run"),
            "{errors:?}"
        );
        // Extra fresh rows are fine and reported.
        let more = bench(vec![record(700, true), {
            let mut r = record(50, true);
            r.workload = "side=32".into();
            r
        }]);
        let msg = diff_of(&base, &more).unwrap();
        assert!(msg.contains("1 new rows"), "{msg}");
    }
}
