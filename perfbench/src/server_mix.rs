//! server-mix: one client against two in-process `dcr-server`s, one
//! worker each, sharing a fresh cache directory. Each round submits a
//! never-seen tiny spec and waits for its SSE `done` (cold: compute plus
//! cache write), resubmits it once (cached: cache read) and branches it
//! (checkpoint write plus lineage append).
//!
//! The resubmission goes to a second server on the same cache directory,
//! as after a restart or on a replica. Its registry has never seen the
//! spec, so it answers from `DiskCache::load`. A resubmission to the
//! first server would be answered from its in-memory registry and read
//! no cache at all.

use crate::measure::{median_time, secs, MetricTable, Samples, Tally};
use crate::specs::{self, Case, Template};
use crate::trace::Trace;
use crate::{mix, Loop, Workload};
use dcr_bench::runspec::{self, ExperimentSpec};
use dcr_server::cache::{CacheEntry, DiskCache};
use dcr_server::{Server, ServerConfig};
use dcr_sim::engine::slots_executed_total;
use dcr_stats::ExperimentReport;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A 4-trial, 32-job ALOHA spec: small enough that server, cache and
/// statistics code set the latency, and checkpointable for branching.
const TINY: Template = Template {
    case: "server-aloha",
    json: r#"{"protocol": {"Aloha": {"p": 0.05}},
        "workload": {"Staggered": {"n": 32, "stride": 16, "w": 256}},
        "fidelity": "Exact", "scheduling": "EventDriven",
        "adversary": {"spec": {"Policy": "Never"}, "p_jam": 0.0}, "probe": null,
        "max_slots": 100000, "seed": {seed}, "trials": 4}"#,
};

/// Seconds a round takes on the reference machine.
const ROUND_S: f64 = 0.05;

/// Two perturbed adversaries forked at slot 200.
const BRANCH_BODY: &str = r#"{"prefix_slots": 200, "branches": [
    {"spec": {"Policy": "AllSuccesses"}, "p_jam": 0.5},
    {"spec": {"Policy": "Never"}, "p_jam": 0.0}]}"#;

/// Client-side limit on any one exchange.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// One blocking exchange on a fresh connection (the server closes each
/// connection after its response): `(status, body)`.
fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String), String> {
    let io = |e: std::io::Error| format!("{method} {path}: {e}");
    let mut stream = TcpStream::connect(addr).map_err(io)?;
    stream.set_read_timeout(Some(IO_TIMEOUT)).map_err(io)?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nhost: perfbench\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .map_err(io)?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw).map_err(io)?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or(format!("{method} {path}: no header end"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or(format!("{method} {path}: bad status line"))?;
    Ok((status, body.to_string()))
}

/// `request` that also requires `want` as the status, parsing JSON.
fn request_json(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    want: u16,
) -> Result<serde::Value, String> {
    let (status, text) = request(addr, method, path, body)?;
    if status != want {
        return Err(format!(
            "{method} {path}: status {status}, want {want}: {text}"
        ));
    }
    serde_json::from_str(&text).map_err(|e| format!("{method} {path}: bad JSON: {e:?}"))
}

fn str_field<'a>(v: &'a serde::Value, k: &str) -> Result<&'a str, String> {
    v.get(k)
        .and_then(serde::Value::as_str)
        .ok_or(format!("missing string field {k}"))
}

/// The last SSE event name of a complete stream.
fn last_event(stream: &str) -> Option<&str> {
    stream.lines().rev().find_map(|l| l.strip_prefix("event: "))
}

/// Sum of every sample of the family `name` in a text exposition.
fn metric_sum(exposition: &str, name: &str) -> f64 {
    exposition
        .lines()
        .filter(|l| {
            l.strip_prefix(name)
                .is_some_and(|r| r.starts_with(' ') || r.starts_with('{'))
        })
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .fold(0.0, |a, b| a + b)
}

/// Bind a one-worker server on `cache_dir`, start it and wait for its
/// first healthy `/healthz`.
fn start_server(cache_dir: &Path) -> Result<SocketAddr, String> {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        cache_dir: cache_dir.to_path_buf(),
        workers: 1,
        io_timeout: Some(Duration::from_secs(10)),
    })
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server.run_background().map_err(|e| format!("start: {e}"))?;
    let health = request_json(addr, "GET", "/healthz", "", 200)?;
    if str_field(&health, "status")? != "ok" {
        return Err(format!("unhealthy: {health:?}"));
    }
    Ok(addr)
}

pub struct ServerMix {
    /// The server that computes and branches.
    addr: SocketAddr,
    /// A second server on the same cache directory, which answers the
    /// resubmissions from disk.
    replica: SocketAddr,
    seed: u64,
    cycle: u64,
    work_dir: PathBuf,
    /// The last cold spec with its in-process output, for the probes.
    last: Option<(ExperimentSpec, runspec::SpecOutput)>,
    report_bytes: u64,
}

impl ServerMix {
    pub fn setup(seed: u64, work_dir: &Path, n: usize) -> Result<Self, String> {
        let cache_dir = work_dir.join(format!("server-cache-{n}"));
        let _ = std::fs::remove_dir_all(&cache_dir);
        Ok(Self {
            addr: start_server(&cache_dir)?,
            replica: start_server(&cache_dir)?,
            seed,
            cycle: 0,
            work_dir: work_dir.to_path_buf(),
            last: None,
            report_bytes: 0,
        })
    }

    /// Submit a never-seen spec and wait for its SSE `done`. Returns the
    /// experiment id.
    fn cold(&mut self, text: &str, trace: &mut Trace, lp: &mut Loop) -> Result<String, String> {
        let trials_before = specs::trials_completed();
        let t = Instant::now();
        let (id, done) = trace.span("server.cold", |trace| -> Result<_, String> {
            let posted = trace.span("server.post", |_| {
                request_json(self.addr, "POST", "/experiments", text, 202)
            })?;
            if posted.get("cached").and_then(serde::Value::as_bool) != Some(false) {
                return Err(format!("fresh spec answered as cached: {posted:?}"));
            }
            let id = str_field(&posted, "id")?.to_string();
            let path = format!("/experiments/{id}/events");
            let (status, events) =
                trace.span("server.events", |_| request(self.addr, "GET", &path, ""))?;
            let done = status == 200 && last_event(&events) == Some("done");
            Ok((id, done))
        })?;
        let latency = secs(t);
        let trials = specs::trials_completed() - trials_before;
        lp.op("cold", latency, trials);
        if !done {
            return Err(format!("experiment {id} did not end with an SSE done"));
        }
        Ok(id)
    }

    /// The served report must equal an in-process `run_spec`, byte for
    /// byte, and its success rate must sit in the reference band.
    fn check_served(&mut self, id: &str, spec: ExperimentSpec, case: &str) -> Result<(), String> {
        let status = request_json(self.addr, "GET", &format!("/experiments/{id}"), "", 200)?;
        let report = status.get("report").ok_or("status has no report")?;
        let served: ExperimentReport =
            serde_json::from_value(report).map_err(|e| format!("report: {e:?}"))?;
        self.report_bytes = serde_json::to_string(report)
            .expect("values serialize")
            .len() as u64;
        let local = runspec::run_spec(&spec).map_err(|e| e.to_string())?;
        let view = |r: &ExperimentReport| {
            serde_json::to_string(&r.deterministic_view()).expect("reports serialize")
        };
        if view(&served) != view(&local.report) {
            return Err(format!(
                "served report of {id} differs from an in-process run_spec"
            ));
        }
        let rate = specs::success_rate(&served);
        let (lo, hi) = specs::band(case);
        if !rate.is_some_and(|r| (lo..=hi).contains(&r)) {
            return Err(format!(
                "success rate {rate:?} outside reference band [{lo}, {hi}]"
            ));
        }
        self.last = Some((spec, local));
        Ok(())
    }

    /// Resubmit a finished spec to the replica, which reads it from the
    /// disk cache: `cached:true`, and no engine slot runs.
    fn cached(&mut self, text: &str, trace: &mut Trace, lp: &mut Loop) -> Result<(), String> {
        let slots_before = slots_executed_total();
        let t = Instant::now();
        let posted = trace.span("server.cached", |_| {
            request_json(self.replica, "POST", "/experiments", text, 202)
        });
        lp.op("cached", secs(t), 0);
        let posted = posted?;
        let slots = slots_executed_total() - slots_before;
        if posted.get("cached").and_then(serde::Value::as_bool) != Some(true) {
            return Err(format!("resubmission not cached: {posted:?}"));
        }
        if slots != 0 {
            return Err(format!("cached resubmission executed {slots} engine slots"));
        }
        Ok(())
    }

    fn branch(&mut self, id: &str, trace: &mut Trace, lp: &mut Loop) -> Result<(), String> {
        let path = format!("/experiments/{id}/branch");
        let t = Instant::now();
        let resp = trace.span("server.branch", |_| {
            request_json(self.addr, "POST", &path, BRANCH_BODY, 200)
        });
        lp.op("branch", secs(t), 0);
        let n = resp?
            .get("branches")
            .and_then(serde::Value::as_array)
            .map(Vec::len);
        if n != Some(2) {
            return Err(format!("branch returned {n:?} branches, want 2"));
        }
        Ok(())
    }
}

impl Workload for ServerMix {
    fn round_s(&self) -> f64 {
        ROUND_S
    }

    fn round(&mut self, trace: &mut Trace, tally: &mut Tally, lp: &mut Loop) {
        // A seed no earlier round used: the spec has never been seen.
        let case = match Case::setup(&TINY, mix(self.seed, self.cycle)) {
            Ok(c) => c,
            Err(e) => {
                tally.check(false, || e);
                return;
            }
        };
        self.cycle += 1;
        let text = TINY.text(case.spec.seed);
        let Some(id) = tally.attempt("cold", self.cold(&text, trace, lp)) else {
            return;
        };
        let served = self.check_served(&id, case.spec, case.name);
        tally.attempt("served report", served);
        let cached = self.cached(&text, trace, lp);
        tally.attempt("cached", cached);
        let branched = self.branch(&id, trace, lp);
        tally.attempt("branch", branched);
    }

    fn layers(
        &mut self,
        trace: &mut Trace,
        tally: &mut Tally,
        m: &mut MetricTable,
        unreached: &mut Vec<String>,
    ) {
        let median_ms = |trace: &Trace, name: &str| {
            let mut s = Samples::new();
            for d in trace.durations(name) {
                s.push(d * 1e3);
            }
            s.median().unwrap_or(0.0)
        };
        m.set("server.accept_ms", median_ms(trace, "server.post"), "ms");
        m.set("server.run_ms", median_ms(trace, "server.events"), "ms");
        m.set("server.cold_p50_ms", median_ms(trace, "server.cold"), "ms");
        m.set(
            "server.cached_p50_ms",
            median_ms(trace, "server.cached"),
            "ms",
        );
        m.set(
            "server.branch_p50_ms",
            median_ms(trace, "server.branch"),
            "ms",
        );
        m.set("stats.report_bytes", self.report_bytes as f64, "bytes");

        // dcr-telemetry: the exposition scrape, and the server counters.
        let mut scrapes = Samples::new();
        let mut exposition = String::new();
        for _ in 0..20 {
            let t = Instant::now();
            let r = trace.span("telemetry.scrape", |_| {
                request(self.addr, "GET", "/metrics", "")
            });
            scrapes.push(secs(t) * 1e3);
            if let Some((status, text)) = tally.attempt("scrape", r) {
                tally.check(status == 200, || format!("/metrics status {status}"));
                exposition = text;
            }
        }
        m.set("telemetry.scrape_ms", scrapes.median().unwrap_or(0.0), "ms");
        for (metric, family) in [
            ("server.cache_hits", "dcr_server_cache_hits_total"),
            ("server.cache_misses", "dcr_server_cache_misses_total"),
            ("server.cache_stores", "dcr_server_cache_stores_total"),
            ("server.errors", "dcr_server_errors_total"),
        ] {
            m.set(metric, metric_sum(&exposition, family), "count");
        }

        // dcr-server::cache, timed through its public store/load.
        if let Some((spec, out)) = &self.last {
            let probe = DiskCache::open(self.work_dir.join("cache-probe"));
            if let Some(cache) = tally.attempt("cache open", probe) {
                let entry = CacheEntry {
                    key: runspec::cache_key(spec, "perfbench"),
                    code_version: "perfbench".into(),
                    spec: spec.clone(),
                    report: out.report.clone(),
                    events: out.events.clone(),
                    text: out.text.clone(),
                };
                let (store_s, stored) =
                    trace.span("cache.store", |_| median_time(5, || cache.store(&entry)));
                tally.attempt("cache store", stored);
                let (load_s, loaded) =
                    trace.span("cache.load", |_| median_time(5, || cache.load(&entry.key)));
                tally.check(loaded.is_some_and(|l| l.report == entry.report), || {
                    "cache load did not return the stored report".into()
                });
                let bytes = std::fs::metadata(cache.dir().join(format!("{}.json", entry.key)))
                    .map_or(0, |md| md.len());
                m.set("cache.store_s", store_s, "s");
                m.set("cache.load_s", load_s, "s");
                m.set("cache.entry_bytes", bytes as f64, "bytes");
            }
        }

        match Case::setup(&TINY, mix(self.seed, 0)) {
            Ok(case) => specs::probe_layers(&[&case], trace, tally, m, unreached),
            Err(e) => {
                tally.check(false, || e);
            }
        }
    }

    fn describe(&self, lp: &Loop, out: &mut Vec<String>) {
        for kind in ["cold", "cached", "branch"] {
            if let Some(s) = lp.kinds.get(kind) {
                let tail = s.tail().map_or("n/a".into(), |(q, v)| {
                    format!("{v:.4} ms at {}", crate::measure::pct_label(q))
                });
                out.push(format!(
                    "{kind}_p50_ms {:.4} ms, {kind}_tail_ms {tail} (n={})",
                    s.median().unwrap_or(0.0),
                    s.len()
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resubmissions_read_the_disk_cache() {
        let _turn = crate::specs::tests::runner_turn();
        let dir = crate::work_dir().join("test-server-mix");
        let mut w = ServerMix::setup(3, &dir, 0).expect("servers start");
        let (mut tally, mut lp) = (Tally::new(), Loop::default());
        w.round(&mut Trace::off(), &mut tally, &mut lp);
        assert_eq!(tally.failed, 0, "{:?}", tally.messages);
        let counts: Vec<usize> = ["cold", "cached", "branch"]
            .iter()
            .map(|k| lp.kinds.get(k).map_or(0, Samples::len))
            .collect();
        assert_eq!(counts, [1, 1, 1]);

        // With its entry gone from disk, the replica has nothing to
        // answer a resubmission from.
        let text = TINY.text(mix(3, 1_000));
        let id = w.cold(&text, &mut Trace::off(), &mut lp).expect("cold run");
        std::fs::remove_file(dir.join("server-cache-0").join(format!("{id}.json")))
            .expect("the cold run stored its entry");
        let err = w
            .cached(&text, &mut Trace::off(), &mut lp)
            .expect_err("no entry to read");
        assert!(err.contains("not cached"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
