//! `trace_check` — validate a trace JSON document emitted by
//! `mpcjoin-cli --trace` (or `Trace::to_json`) without any third-party
//! JSON dependency. Used by CI to keep the exporter honest.
//!
//! ```text
//! trace_check out/trace.json
//! ```
//!
//! Checks, in order: the document parses, carries the schema tag
//! `mpcjoin-trace-v3` (the only one any producer has written since the
//! fault plane landed; older tags are refused as unsupported), every
//! event's traffic matrix is `servers × servers` and re-sums to its
//! received vector, the events account for exactly `total_units` of
//! traffic, the maximum (server, round) cell equals `load`, and the
//! embedded report (per-server histogram, critical cell) agrees with the
//! recomputation. When the `audit` member is non-null, the verdict must
//! audit this very trace (`audit.measured == load`) and its `within`
//! flag must be consistent with `measured ≤ slack·bound + additive`.
//! Documents also carry the fault plane's story: a `recovery` event
//! array (every event well-formed, a known kind, in round range) and a
//! `recovery_report` whose counters must agree with those events
//! (retransmissions vs `retries`, crash replays vs `servers_lost`,
//! `recovered` vs `unrecoverable`).

use mpcjoin::mpc::json::Json;
use std::collections::HashMap;
use std::process::ExitCode;

const SCHEMA: &str = "mpcjoin-trace-v3";

fn check(text: &str) -> Result<String, String> {
    let doc = Json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;

    let str_field = |j: &Json, k: &str| -> Result<String, String> {
        j.get(k)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("missing string field `{k}`"))
    };
    let num_field = |j: &Json, k: &str| -> Result<u64, String> {
        j.get(k)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing numeric field `{k}`"))
    };

    let schema = str_field(&doc, "schema")?;
    if schema != SCHEMA {
        return Err(format!(
            "unsupported schema `{schema}` (only `{SCHEMA}` is accepted)"
        ));
    }
    let servers = num_field(&doc, "servers")? as usize;
    if servers == 0 {
        return Err("servers must be positive".into());
    }
    let load = num_field(&doc, "load")?;
    let rounds = num_field(&doc, "rounds")?;
    let total_units = num_field(&doc, "total_units")?;

    let events = doc
        .get("events")
        .and_then(Json::as_arr)
        .ok_or("missing `events` array")?;
    let mut unit_sum = 0u64;
    let mut cells: HashMap<(usize, u64), u64> = HashMap::new();
    let mut per_server = vec![0u64; servers];
    for (i, event) in events.iter().enumerate() {
        let round = num_field(event, "round")?;
        if round >= rounds {
            return Err(format!(
                "event {i}: round {round} out of range (rounds = {rounds})"
            ));
        }
        let received: Vec<u64> = event
            .get("received")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("event {i}: missing `received`"))?
            .iter()
            .map(|v| {
                v.as_u64()
                    .ok_or_else(|| format!("event {i}: bad unit count"))
            })
            .collect::<Result<_, _>>()?;
        if received.len() != servers {
            return Err(format!(
                "event {i}: received vector has {} entries for {servers} servers",
                received.len()
            ));
        }
        let traffic = event
            .get("traffic")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("event {i}: missing `traffic`"))?;
        if traffic.len() != servers {
            return Err(format!(
                "event {i}: traffic matrix is not {servers}×{servers}"
            ));
        }
        for (dst, &got) in received.iter().enumerate() {
            let mut col_sum = 0u64;
            for row in traffic {
                let row = row
                    .as_arr()
                    .ok_or_else(|| format!("event {i}: traffic row is not an array"))?;
                if row.len() != servers {
                    return Err(format!(
                        "event {i}: traffic matrix is not {servers}×{servers}"
                    ));
                }
                col_sum += row[dst]
                    .as_u64()
                    .ok_or_else(|| format!("event {i}: bad traffic cell"))?;
            }
            if col_sum != got {
                return Err(format!(
                    "event {i}: traffic column {dst} sums to {col_sum}, received says {got}"
                ));
            }
            *cells.entry((dst, round)).or_default() += got;
            per_server[dst] += got;
            unit_sum += got;
        }
    }
    if unit_sum != total_units {
        return Err(format!(
            "events account for {unit_sum} units, header says {total_units}"
        ));
    }
    let max_cell = cells.values().copied().max().unwrap_or(0);
    if max_cell != load {
        return Err(format!(
            "max (server, round) cell is {max_cell}, header says load = {load}"
        ));
    }

    let report = doc.get("report").ok_or("missing `report`")?;
    let reported: Vec<u64> = report
        .get("per_server")
        .and_then(Json::as_arr)
        .ok_or("missing `report.per_server`")?
        .iter()
        .map(|v| v.as_u64().ok_or("bad per_server entry".to_string()))
        .collect::<Result<_, _>>()?;
    if reported != per_server {
        return Err("report.per_server disagrees with the events".into());
    }
    match report.get("critical") {
        Some(Json::Null) | None => {
            if load > 0 {
                return Err("load is positive but report.critical is null".into());
            }
        }
        Some(critical) => {
            let units = num_field(critical, "units")?;
            if units != load {
                return Err(format!("report.critical.units = {units} but load = {load}"));
            }
            let server = num_field(critical, "server")? as usize;
            let round = num_field(critical, "round")?;
            if cells.get(&(server, round)).copied().unwrap_or(0) != load {
                return Err("report.critical does not point at a maximal cell".into());
            }
        }
    }

    // The embedded bound-audit verdict, when present, must audit this
    // very trace and be internally consistent.
    let mut audit_note = String::new();
    match doc.get("audit") {
        None => return Err(format!("{schema} document missing `audit`")),
        Some(Json::Null) => {}
        Some(audit) => {
            let measured = num_field(audit, "measured")?;
            if measured != load {
                return Err(format!(
                    "audit.measured = {measured} but the trace's load is {load}"
                ));
            }
            let f64_field = |k: &str| -> Result<f64, String> {
                audit
                    .get(k)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("missing numeric field `audit.{k}`"))
            };
            let bound = f64_field("bound")?;
            let slack = f64_field("slack")?;
            let additive = f64_field("additive")?;
            let within = match audit.get("within") {
                Some(Json::Bool(b)) => *b,
                _ => return Err("missing boolean field `audit.within`".into()),
            };
            if within != (measured as f64 <= slack * bound + additive) {
                return Err(format!(
                    "audit.within = {within} contradicts {measured} vs {slack}·{bound} + {additive}"
                ));
            }
            audit_note = format!(", audit {}", if within { "ok" } else { "VIOLATION" });
        }
    }

    // The fault plane's recovery story: the event list and the embedded
    // report must tell the same one.
    let mut recovery_note = String::new();
    const KINDS: [&str; 7] = [
        "retransmit",
        "dedup",
        "resequence",
        "crash_replay",
        "straggler",
        "compute_retry",
        "unrecoverable",
    ];
    let recovery = doc
        .get("recovery")
        .and_then(Json::as_arr)
        .ok_or("v3 document missing `recovery` array")?;
    let mut by_kind: HashMap<&str, u64> = HashMap::new();
    for (i, event) in recovery.iter().enumerate() {
        let kind = str_field(event, "kind").map_err(|e| format!("recovery event {i}: {e}"))?;
        let Some(known) = KINDS.iter().find(|k| **k == kind) else {
            return Err(format!("recovery event {i}: unknown kind `{kind}`"));
        };
        *by_kind.entry(known).or_default() += 1;
        // Recovery fires at round *boundaries*: a compute retry can
        // sit at the boundary after the last credited round, so the
        // legal range is one wider than the events' strict `< rounds`.
        let round = num_field(event, "round").map_err(|e| format!("recovery event {i}: {e}"))?;
        if round > rounds {
            return Err(format!(
                "recovery event {i}: round {round} out of range (rounds = {rounds})"
            ));
        }
        for k in ["attempt", "units", "delay_ns"] {
            num_field(event, k).map_err(|e| format!("recovery event {i}: {e}"))?;
        }
        for k in ["phase", "label"] {
            str_field(event, k).map_err(|e| format!("recovery event {i}: {e}"))?;
        }
    }
    match doc.get("recovery_report") {
        None => return Err("v3 document missing `recovery_report`".into()),
        Some(Json::Null) => {
            if !recovery.is_empty() {
                return Err("recovery events present but `recovery_report` is null".into());
            }
        }
        Some(report) => {
            let rschema = str_field(report, "schema").map_err(|e| format!("recovery: {e}"))?;
            if rschema != "mpcjoin-recovery-v1" {
                return Err(format!("unknown recovery report schema `{rschema}`"));
            }
            let rnum = |k: &str| num_field(report, k).map_err(|e| format!("recovery: {e}"));
            let retries = rnum("retries")?;
            if retries != by_kind.get("retransmit").copied().unwrap_or(0) {
                return Err(format!(
                    "recovery_report.retries = {retries} but the trace carries {} retransmit events",
                    by_kind.get("retransmit").copied().unwrap_or(0)
                ));
            }
            let lost = report
                .get("servers_lost")
                .and_then(Json::as_arr)
                .ok_or("recovery: missing `servers_lost` array")?
                .len() as u64;
            if lost != by_kind.get("crash_replay").copied().unwrap_or(0) {
                return Err(format!(
                    "recovery_report.servers_lost has {lost} entries but the trace carries {} crash_replay events",
                    by_kind.get("crash_replay").copied().unwrap_or(0)
                ));
            }
            let recovered = match report.get("recovered") {
                Some(Json::Bool(b)) => *b,
                _ => return Err("recovery: missing boolean field `recovered`".into()),
            };
            let poisoned = !matches!(report.get("unrecoverable"), Some(Json::Null) | None);
            if recovered == poisoned {
                return Err(format!(
                    "recovery_report.recovered = {recovered} contradicts its `unrecoverable` member"
                ));
            }
            let embedded = report
                .get("events")
                .and_then(Json::as_arr)
                .ok_or("recovery: missing `events` array")?;
            if embedded.len() != recovery.len() {
                return Err(format!(
                    "recovery_report.events has {} entries, trace `recovery` has {}",
                    embedded.len(),
                    recovery.len()
                ));
            }
            recovery_note = format!(
                ", recovery {} ({} events)",
                if recovered { "ok" } else { "FAILED" },
                recovery.len()
            );
        }
    }

    Ok(format!(
        "trace OK ({schema}): {} servers, {} events, load {load}, {rounds} rounds, {total_units} units{audit_note}{recovery_note}",
        servers,
        events.len()
    ))
}

fn main() -> ExitCode {
    let Some(path) = std::env::args().nth(1) else {
        eprintln!("usage: trace_check <trace.json>");
        return ExitCode::FAILURE;
    };
    let checked = std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|text| check(&text));
    match checked {
        Ok(msg) => {
            println!("{msg}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("trace_check: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::check;

    /// A minimal traffic-free document under the given schema tag.
    fn empty_trace(schema: &str) -> String {
        format!(
            r#"{{"schema":"{schema}","servers":2,"load":0,"rounds":0,"total_units":0,
               "events":[],"report":{{"per_server":[0,0],"critical":null}},
               "audit":null,"recovery":[],"recovery_report":null}}"#
        )
    }

    #[test]
    fn only_v3_documents_are_accepted() {
        assert!(check(&empty_trace("mpcjoin-trace-v3")).is_ok());
        for old in ["mpcjoin-trace-v1", "mpcjoin-trace-v2"] {
            let err = check(&empty_trace(old)).unwrap_err();
            assert!(err.contains("unsupported schema"), "{old}: {err}");
        }
    }
}
