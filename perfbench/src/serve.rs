//! Workloads `serve_cold` and `serve_hot`: open-loop Poisson
//! `GET /recommend` traffic against `llm-pilot serve --workers 2
//! --watch-secs 0 --cache 4096` serving a full-grid dataset, from this
//! one process over two keep-alive connections (two threads).
//!
//! * `serve_cold` walks a fixed cycle of 6000 distinct (model, users,
//!   SLA) keys — more than the cache holds, so every query misses the
//!   LRU cache and runs `ServingModel::recommend`.
//! * `serve_hot` draws queries Zipf-style from 64 hot keys (well over 99%
//!   cache hits) while the dataset file is rewritten — alternating two
//!   seeded datasets — and `POST /reload` is sent on a fixed period, so
//!   each reload retrains on one of the two workers beside the reads.
//!
//! The timed phase is a reference window at a fixed rate (p50/p99), a
//! capacity search (`max_rate_rps`), and a closed-loop batch (`cpu_s`).
//! Afterwards every 200/404 body is checked against an in-process
//! `ServingModel` trained on the dataset generation the response names.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use llmpilot_core::{
    online_predictor_config, recommend, CharacterizationDataset, CoreError, LatencyConstraints,
    PerformancePredictor, Recommendation, RecommendationRequest, ServingModel,
};
use llmpilot_serve::{parse_request, DatasetStore, Limits, LruCache, ModelRegistry, Response};
use llmpilot_sim::llm::{llm_by_name, llm_catalog};

use crate::bisect;
use crate::digest::Digest;
use crate::loadgen::{self, Planned, Status, WindowConfig, WindowResult};
use crate::proc::Daemon;
use crate::report::{print_layer_table, LayerRow, Outcome};
use crate::schedule::{poisson, SplitMix64, Zipf};
use crate::stats::{median, median_of_slots, percentile, slot_percentiles};
use crate::{quality, setup, RunArgs};

/// Distinct keys the cold workload cycles through (above the cache's
/// capacity, so every lookup misses).
const COLD_KEYS: usize = 6000;
/// The daemon's response-cache capacity, passed explicitly.
const CACHE_CAPACITY: usize = 4096;
/// Hot-key set size and Zipf exponent.
const HOT_KEYS: usize = 64;
const HOT_ZIPF_S: f64 = 1.1;
/// Seconds between dataset reloads in the hot workload's reference
/// window. A retrain (~45 ms) stalls the reads queued behind it on its
/// connection: about `T / (2 · period)` of all reads. At a 2 s period that
/// share is ~1.1%, right at the p99 rank, so p99 flips between the read
/// tail and the stall from run to run; at 0.5 s it is ~4.5% and p99
/// measures the stall a reload inflicts on reads.
const RELOAD_PERIOD_S: f64 = 0.5;
/// The capacity criteria.
const SLO_P99_S: f64 = 5e-3;
const SLO_FAILED_SHARE: f64 = 1e-3;
/// Latency recorded for a refused, failed or wrong request: it missed
/// every latency limit.
const MISSED_S: f64 = 10.0;
/// Plan tag of `POST /reload` requests.
const RELOAD_TAG: usize = usize::MAX;
/// Two connections, two threads.
const CONNECTIONS: usize = 2;
/// Slots a capacity probe's p99 is taken over (see [`meets_slo`]).
const PROBE_SLOTS: usize = 8;
/// Closed-loop batches whose mean daemon CPU time is `cpu_s`, and the
/// requests each connection keeps in flight during one (enough to keep
/// both workers busy, so a batch measures throughput rather than wake-up
/// latency).
const BATCHES: usize = 15;
const BATCH_DEPTH: usize = 16;

/// One query key.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct Key {
    model: &'static str,
    users: u32,
    ttft_ms: u32,
    itl_ms: u32,
}

impl Key {
    fn target(&self) -> String {
        let model: String = self
            .model
            .bytes()
            .map(|b| match b {
                b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' => {
                    char::from(b).to_string()
                }
                _ => format!("%{b:02X}"),
            })
            .collect();
        format!(
            "/recommend?model={model}&users={}&ttft={}&itl={}",
            self.users, self.ttft_ms, self.itl_ms
        )
    }

    /// The request the daemon builds from this query.
    fn request(&self) -> RecommendationRequest {
        RecommendationRequest {
            total_users: self.users,
            constraints: LatencyConstraints {
                nttft_s: f64::from(self.ttft_ms) / 1e3,
                itl_s: f64::from(self.itl_ms) / 1e3,
            },
            user_grid: (0..8).map(|i| 1u32 << i).collect(),
        }
    }

    /// The daemon's cache key for this query at the given generations.
    fn cache_key(&self, generation: u64) -> (String, u32, u64, u64, u64, u64) {
        (
            self.model.to_string(),
            self.users,
            u64::from(self.ttft_ms) * 1000,
            u64::from(self.itl_ms) * 1000,
            generation,
            generation,
        )
    }
}

/// `n` distinct seeded keys.
fn keys(n: usize, seed: u64) -> Vec<Key> {
    let models: Vec<&'static str> = llm_catalog().iter().map(|m| m.name).collect();
    let ttfts = [40u32, 60, 80, 100, 150, 200, 300];
    let itls = [20u32, 30, 40, 50, 75, 100];
    let mut rng = SplitMix64::new(seed);
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let key = Key {
            model: models[rng.below(models.len() as u64) as usize],
            users: 1 + rng.below(2000) as u32,
            ttft_ms: ttfts[rng.below(ttfts.len() as u64) as usize],
            itl_ms: itls[rng.below(itls.len() as u64) as usize],
        };
        if seen.insert(key.clone()) {
            out.push(key);
        }
    }
    out
}

/// The query sequence: which key each successive request asks for.
struct Traffic {
    keys: Vec<Key>,
    hot: Option<(Zipf, SplitMix64)>,
    cursor: usize,
}

impl Traffic {
    fn next_key(&mut self) -> usize {
        match &mut self.hot {
            Some((zipf, rng)) => zipf.sample(rng),
            None => {
                let k = self.cursor % self.keys.len();
                self.cursor += 1;
                k
            }
        }
    }

    /// An open-loop window at `rate` for `duration_s`; with `reloads`, a
    /// `POST /reload` every [`RELOAD_PERIOD_S`], half a period in.
    fn window(&mut self, rate: f64, duration_s: f64, seed: u64, reloads: bool) -> Vec<Planned> {
        let mut plan: Vec<Planned> = poisson(rate, duration_s, seed)
            .into_iter()
            .map(|due| {
                let tag = self.next_key();
                Planned { due, method: "GET", target: self.keys[tag].target(), tag }
            })
            .collect();
        if reloads {
            let mut t = RELOAD_PERIOD_S / 2.0;
            while t < duration_s {
                plan.push(Planned {
                    due: t,
                    method: "POST",
                    target: "/reload".into(),
                    tag: RELOAD_TAG,
                });
                t += RELOAD_PERIOD_S;
            }
            plan.sort_by(|a, b| a.due.total_cmp(&b.due));
        }
        plan
    }

    /// `n` queries for a closed-loop batch.
    fn batch(&mut self, n: usize) -> Vec<Planned> {
        (0..n)
            .map(|_| {
                let tag = self.next_key();
                Planned { due: 0.0, method: "GET", target: self.keys[tag].target(), tag }
            })
            .collect()
    }
}

/// The datasets a serve workload alternates between, and where the
/// daemon reads them.
struct Data {
    csv: [String; 2],
    path: PathBuf,
    reloads_sent: AtomicU64,
}

impl Data {
    fn write(&self, which: usize) -> std::io::Result<()> {
        let tmp = self.path.with_extension("tmp");
        std::fs::write(&tmp, &self.csv[which])?;
        std::fs::rename(&tmp, &self.path)
    }

    /// Before each `POST /reload`: swap the file to the other dataset.
    /// Reload `n` (1-based) makes dataset generation `n + 1`.
    fn before_send(&self, p: &Planned) {
        if p.tag == RELOAD_TAG {
            let n = self.reloads_sent.fetch_add(1, Ordering::SeqCst) + 1;
            let _ = self.write(dataset_of_generation(n + 1));
        }
    }
}

/// Which of the two datasets generation `g` of the daemon serves.
fn dataset_of_generation(g: u64) -> usize {
    usize::from(g.is_multiple_of(2))
}

/// How one response is judged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Ok,
    Refused,
    IoError,
    Wrong,
    Mixed,
}

impl Verdict {
    fn failed(self) -> bool {
        self != Verdict::Ok
    }

    /// Whether the response missed every latency limit (a mixed-generation
    /// answer still arrived; its lateness is real).
    fn missed(self) -> bool {
        matches!(self, Verdict::Refused | Verdict::IoError | Verdict::Wrong)
    }
}

/// Flat JSON object fields as raw text (strings unescaped, numbers and
/// literals verbatim).
fn json_fields(body: &str) -> Option<HashMap<String, String>> {
    let s = body.trim().strip_prefix('{')?.strip_suffix('}')?;
    let mut fields = HashMap::new();
    let mut chars = s.chars().peekable();
    let string = |chars: &mut std::iter::Peekable<std::str::Chars<'_>>| -> Option<String> {
        let mut out = String::new();
        while let Some(c) = chars.next() {
            match c {
                '"' => return Some(out),
                '\\' => match chars.next()? {
                    'n' => out.push('\n'),
                    't' => out.push('\t'),
                    'u' => {
                        let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                        out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
                    }
                    other => out.push(other),
                },
                c => out.push(c),
            }
        }
        None
    };
    loop {
        while chars.peek().is_some_and(|c| c.is_whitespace() || *c == ',') {
            chars.next();
        }
        match chars.next() {
            None => return Some(fields),
            Some('"') => {}
            Some(_) => return None,
        }
        let key = string(&mut chars)?;
        while chars.peek().is_some_and(|c| c.is_whitespace() || *c == ':') {
            chars.next();
        }
        let value = if chars.peek() == Some(&'"') {
            chars.next();
            string(&mut chars)?
        } else {
            // A number or literal runs to the next top-level comma; a
            // nested object or array is kept whole (and not looked into).
            let mut v = String::new();
            let mut depth = 0i32;
            while let Some(&c) = chars.peek() {
                if c == ',' && depth == 0 {
                    break;
                }
                match c {
                    '{' | '[' => depth += 1,
                    '}' | ']' => depth -= 1,
                    '"' => {
                        chars.next();
                        v.push('"');
                        v.push_str(&string(&mut chars)?);
                        v.push('"');
                        continue;
                    }
                    _ => {}
                }
                v.push(c);
                chars.next();
            }
            v.trim().to_string()
        };
        fields.insert(key, value);
    }
}

/// Whether a 200 body states `rec`.
fn body_matches(fields: &HashMap<String, String>, rec: &Recommendation) -> bool {
    let num = |k: &str| fields.get(k).and_then(|v| v.parse::<f64>().ok());
    fields.get("profile") == Some(&rec.profile)
        && num("pods") == Some(f64::from(rec.pods))
        && num("u_max") == Some(f64::from(rec.u_max))
        && num("cost_per_hour")
            .is_some_and(|c| (c - rec.cost_per_hour).abs() <= 5e-5 + 1e-9 * rec.cost_per_hour)
}

/// In-process answers, memoized per (key, dataset) and timed.
struct Oracle<'a> {
    models: &'a [ServingModel],
    keys: &'a [Key],
    memo: HashMap<(usize, usize), Result<Recommendation, CoreError>>,
    call_us: Vec<f64>,
}

impl Oracle<'_> {
    fn answer(&mut self, key: usize, dataset: usize) -> &Result<Recommendation, CoreError> {
        let (models, keys, call_us) = (self.models, self.keys, &mut self.call_us);
        self.memo.entry((key, dataset)).or_insert_with(|| {
            let k = &keys[key];
            let t = Instant::now();
            let r = models[dataset].recommend(k.model, &k.request());
            call_us.push(t.elapsed().as_secs_f64() * 1e6);
            r
        })
    }

    /// Judge one response body for `key` with HTTP `status`.
    fn judge(&mut self, key: usize, status: Status, body: &str) -> Verdict {
        let status = match status {
            Status::IoError => return Verdict::IoError,
            Status::Http(503) => return Verdict::Refused,
            Status::Http(s @ (200 | 404)) => s,
            Status::Http(_) => return Verdict::Wrong,
        };
        let Some(fields) = json_fields(body) else { return Verdict::Wrong };
        let generation = |k: &str| fields.get(k).and_then(|v| v.parse::<u64>().ok());
        let (Some(dg), Some(mg)) =
            (generation("dataset_generation"), generation("model_generation"))
        else {
            return Verdict::Wrong;
        };
        if mg == 0 || self.models.len() == 1 && mg != 1 {
            return Verdict::Wrong;
        }
        // Judge the answer against the model that computed it; a label
        // naming another dataset generation is reported separately.
        let dataset = dataset_of_generation(mg) % self.models.len();
        let right = match (status, self.answer(key, dataset)) {
            (200, Ok(rec)) => body_matches(&fields, rec),
            (404, Err(CoreError::NoFeasibleRecommendation)) => true,
            _ => false,
        };
        match (right, dg == mg) {
            (false, _) => Verdict::Wrong,
            (true, false) => Verdict::Mixed,
            (true, true) => Verdict::Ok,
        }
    }
}

/// Per-window verdict counts and latencies.
#[derive(Default, Debug)]
struct Judged {
    sent: u64,
    counts: BTreeMap<&'static str, u64>,
    /// `/recommend` latencies in due order, misses at [`MISSED_S`].
    latencies: Vec<f64>,
    /// Their due times.
    dues: Vec<f64>,
    late: Vec<f64>,
    reloads_ok: u64,
    failed: u64,
    hits: u64,
}

fn judge_window(
    oracle: &mut Oracle<'_>,
    w: &WindowResult,
    answered: &mut HashSet<usize>,
) -> Judged {
    let mut j = Judged::default();
    let mut verdicts: HashMap<(usize, usize), Verdict> = HashMap::new();
    for s in &w.samples {
        if s.tag == RELOAD_TAG {
            let reloaded = json_fields(&w.bodies[s.body])
                .is_some_and(|f| f.get("reloaded").is_some_and(|v| v == "true"));
            if s.status == Status::Http(200) && reloaded {
                j.reloads_ok += 1;
            }
            continue;
        }
        j.sent += 1;
        let v = match s.status {
            Status::Http(_) => *verdicts
                .entry((s.tag, s.body))
                .or_insert_with(|| oracle.judge(s.tag, s.status, &w.bodies[s.body])),
            Status::IoError => Verdict::IoError,
        };
        let name = match v {
            Verdict::Ok => "ok",
            Verdict::Refused => "refused_503",
            Verdict::IoError => "io_error",
            Verdict::Wrong => "wrong_answer",
            Verdict::Mixed => "mixed_generation",
        };
        *j.counts.entry(name).or_default() += 1;
        if v.failed() {
            j.failed += 1;
        }
        if matches!(v, Verdict::Ok | Verdict::Mixed) {
            answered.insert(s.tag);
        }
        j.hits += u64::from(s.cache_hit);
        j.latencies.push(if v.missed() { MISSED_S } else { s.latency_s });
        j.dues.push(s.due);
        j.late.push(s.late_s);
    }
    j
}

/// Window shape derived from the measurement length.
struct Phases {
    reference_rate: f64,
    /// First rate the capacity search probes (near the expected
    /// capacity, so the search needs few probes).
    search_start: f64,
    warmup_s: f64,
    reference_s: f64,
    probe_s: f64,
    batch: usize,
}

fn phases(seconds: f64, hot: bool) -> Phases {
    Phases {
        reference_rate: if hot { 5000.0 } else { 1000.0 },
        search_start: if hot { 80_000.0 } else { 4000.0 },
        warmup_s: 0.5,
        // Whole seconds: p50/p99 are medians over 1 s slots, each with
        // at least 1000 samples (and, hot, exactly two reloads).
        reference_s: (seconds / 4.0).round().max(1.0),
        probe_s: (seconds / 10.0).max(1.0),
        batch: if hot { 10_000 } else { 1_000 },
    }
}

/// Build the workload's datasets and start the daemon on them.
fn set_up(
    args: &RunArgs,
    hot: bool,
) -> Result<(Vec<CharacterizationDataset>, Data, Daemon, f64, f64), String> {
    let s = setup::sampler(args.seed);
    let variants = if hot { 2 } else { 1 };
    let datasets: Vec<CharacterizationDataset> =
        (0..variants).map(|v| setup::dataset(&s.sampler, v)).collect();
    let csv = [datasets[0].to_csv(), datasets[datasets.len() - 1].to_csv()];
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("{}: {e}", args.work_dir.display()))?;
    let path = args.work_dir.join(format!("serve-{}.csv", std::process::id()));
    let data = Data { csv, path, reloads_sent: AtomicU64::new(0) };
    data.write(0).map_err(|e| format!("writing {}: {e}", data.path.display()))?;
    let bin = args.daemon.as_deref().ok_or("serve workloads need --daemon PATH")?;
    let daemon = Daemon::start(bin, &data.path, CACHE_CAPACITY)?;
    Ok((datasets, data, daemon, s.traces_s, s.fit_s))
}

/// Scrape `/metrics` once.
fn scrape(addr: std::net::SocketAddr) -> HashMap<String, f64> {
    let Ok(resp) = llmpilot_serve::http_request(addr, "GET", "/metrics") else {
        return HashMap::new();
    };
    resp.text()
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// The serve workloads (`hot` selects `serve_hot`); `trace` selects the
/// per-layer run.
pub fn run(args: &RunArgs, hot: bool, trace: bool) -> Result<Outcome, String> {
    let mut out = Outcome { correct: true, ..Outcome::default() };
    let shape = phases(args.seconds, hot);
    let no_hook = |_: &Planned| {};

    // Set-up, three times for its median; the last daemon stays up.
    let mut setup_s = Vec::new();
    let mut last = None;
    let repeats = if trace { 1 } else { 3 };
    for _ in 0..repeats {
        drop(last.take());
        let t = Instant::now();
        let up = set_up(args, hot)?;
        setup_s.push(t.elapsed().as_secs_f64());
        last = Some(up);
    }
    let (datasets, data, daemon, traces_s, fit_s) = last.expect("set-up ran");
    let addr = daemon.addr;

    let key_list = keys(if hot { HOT_KEYS } else { COLD_KEYS }, args.seed ^ 0x5E7E);
    let mut traffic = Traffic {
        keys: key_list.clone(),
        hot: hot.then(|| (Zipf::new(HOT_KEYS, HOT_ZIPF_S), SplitMix64::new(args.seed ^ 0x2194))),
        cursor: 0,
    };
    let open = WindowConfig {
        connections: CONNECTIONS,
        grace: Duration::from_secs(2),
        abort_after: None,
        closed_loop: None,
    };
    let hook = |p: &Planned| data.before_send(p);

    // Warm-up: every hot key once (filling the cache), then a short
    // window at the reference rate.
    let mut windows: Vec<WindowResult> = Vec::new();
    if hot {
        let fill: Vec<Planned> = (0..HOT_KEYS)
            .map(|k| Planned { due: 0.0, method: "GET", target: key_list[k].target(), tag: k })
            .collect();
        windows.push(loadgen::run_window(
            addr,
            &fill,
            WindowConfig { closed_loop: Some(1), ..open },
            &no_hook,
        ));
    }
    let warm = traffic.window(shape.reference_rate, shape.warmup_s, args.seed ^ 1, false);
    windows.push(loadgen::run_window(addr, &warm, open, &no_hook));

    // Reference window.
    let reference_plan =
        traffic.window(shape.reference_rate, shape.reference_s, args.seed ^ 2, hot);
    let reference = loadgen::run_window(addr, &reference_plan, open, &hook);
    let metrics_after_reference = scrape(addr);

    // Capacity search and closed-loop batch (untraced run only).
    let mut probes: Vec<WindowResult> = Vec::new();
    let mut max_rate = None;
    let mut batch = None;
    if !trace {
        let mut probe_seed = args.seed ^ 3;
        let probe = WindowConfig { abort_after: Some(Duration::from_millis(250)), ..open };
        max_rate = Some(bisect::max_rate(shape.search_start, 100.0, 1_000_000.0, 0.05, |rate| {
            std::thread::sleep(Duration::from_millis(100));
            probe_seed = probe_seed.wrapping_add(1);
            let plan = traffic.window(rate, shape.probe_s, probe_seed, false);
            let w = loadgen::run_window(addr, &plan, probe, &hook);
            let pass = meets_slo(&w, shape.probe_s);
            let late: Vec<f64> = w.samples.iter().map(|s| s.late_s).collect();
            println!(
                "probe {rate:>9.1} req/s: {} ({} requests{}, generator late p99 {:.3} ms)",
                if pass { "pass" } else { "fail" },
                w.samples.len(),
                if w.aborted { ", aborted" } else { "" },
                percentile(&late, 0.99).unwrap_or(0.0) * 1e3,
            );
            probes.push(w);
            pass
        }));
        std::thread::sleep(Duration::from_millis(100));
        let runs: Vec<(WindowResult, f64)> = (0..BATCHES)
            .map(|_| {
                let plan = traffic.batch(shape.batch);
                let bulk = WindowConfig { closed_loop: Some(BATCH_DEPTH), ..open };
                let before = daemon.cpu_s().unwrap_or(f64::NAN);
                let w = loadgen::run_window(addr, &plan, bulk, &no_hook);
                (w, daemon.cpu_s().unwrap_or(f64::NAN) - before)
            })
            .collect();
        batch = Some(runs);
    }
    let peak_rss = daemon.peak_rss_mb();
    drop(daemon);
    let _ = std::fs::remove_file(&data.path);

    // Verification against in-process models of both datasets.
    let config = online_predictor_config();
    let constraints = LatencyConstraints::paper_defaults();
    let models: Vec<ServingModel> = datasets
        .iter()
        .map(|d| ServingModel::train(d, &constraints, &config))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("in-process training failed: {e}"))?;
    let mut oracle =
        Oracle { models: &models, keys: &key_list, memo: HashMap::new(), call_us: Vec::new() };
    let mut answered = HashSet::new();
    let mut wrong = 0u64;
    for w in windows.iter().chain(&probes) {
        wrong += judge_window(&mut oracle, w, &mut answered)
            .counts
            .get("wrong_answer")
            .copied()
            .unwrap_or(0);
    }
    let judged = judge_window(&mut oracle, &reference, &mut answered);
    wrong += judged.counts.get("wrong_answer").copied().unwrap_or(0);
    out.check(
        wrong == 0,
        format!("{wrong} responses differ from in-process ServingModel::recommend"),
    );
    // Every key of the warm-up and reference windows must be answered
    // (capacity probes may abort and leave requests unsent).
    let requested: HashSet<usize> = windows
        .iter()
        .chain([&reference])
        .flat_map(|w| w.samples.iter().map(|s| s.tag))
        .filter(|&t| t != RELOAD_TAG)
        .collect();
    out.check(
        requested.is_subset(&answered),
        format!("{} of {} requested keys answered", answered.len(), requested.len()),
    );
    let reloads_planned = reference_plan.iter().filter(|p| p.tag == RELOAD_TAG).count() as u64;
    out.check(
        judged.reloads_ok == reloads_planned,
        format!("{} of {reloads_planned} reloads acknowledged", judged.reloads_ok),
    );

    // Digest: every key's answer under every dataset the workload serves.
    let mut order: Vec<usize> = (0..key_list.len()).collect();
    order.sort_by_key(|&k| key_list[k].target());
    let mut digest = Digest::default();
    for &k in &order {
        for d in 0..models.len() {
            let answer = match oracle.answer(k, d) {
                Ok(r) => format!("{} x{} u{} ${:.4}", r.profile, r.pods, r.u_max, r.cost_per_hour),
                Err(_) => "none".to_string(),
            };
            digest.line(&format!("{} d{d} {answer}", key_list[k].target()));
        }
    }
    let name = if hot { "serve_hot" } else { "serve_cold" };
    println!("digest {name}.answers {}", digest.hex());
    println!("reference window: {:?}", judged.counts);
    let slots = shape.reference_s as usize;
    for q in [0.5, 0.99] {
        let per_slot =
            slot_percentiles(&judged.dues, &judged.latencies, shape.reference_s, slots, q);
        let shown: Vec<String> = per_slot.iter().map(|v| format!("{:.3}", v * 1e3)).collect();
        println!("  reference p{} per 1 s slot (ms): {}", q * 100.0, shown.join(" "));
    }

    let p = |q: f64| {
        median_of_slots(&judged.dues, &judged.latencies, shape.reference_s, slots, q)
            .unwrap_or(f64::NAN)
    };
    if trace {
        let traced = Instant::now();
        layers(
            &mut out,
            &LayerInputs {
                datasets: &datasets,
                key_list: &key_list,
                plan: &reference_plan,
                reference: &reference,
                judged: &judged,
                scrape: &metrics_after_reference,
                recommend_us: &oracle.call_us,
                work_dir: &args.work_dir,
            },
        );
        out.metric("traces.generate_s", "s", traces_s);
        out.metric("workload.fit_s", "s", fit_s);
        out.metric("trace.overhead_s", "s", traced.elapsed().as_secs_f64());
        out.attempted = judged.sent;
        out.failed = judged.failed;
        return Ok(out);
    }

    let batches = batch.expect("untraced run drove the batches");
    out.attempted = judged.sent;
    out.failed = judged.failed;
    let (mut batch_walls, mut batch_cpus) = (Vec::new(), Vec::new());
    for (b, cpu_s) in &batches {
        let bj = judge_window(&mut oracle, b, &mut answered);
        out.check(
            !bj.counts.contains_key("wrong_answer"),
            "batch answers match in-process ServingModel::recommend",
        );
        out.attempted += bj.sent;
        out.failed += bj.failed;
        batch_walls.push(b.wall_s);
        batch_cpus.push(*cpu_s);
    }
    let so = quality::in_sample_so_score(&datasets[0], &models[0]);
    out.check(so.is_finite(), "S/O score is finite");
    println!(
        "p50 {:.3} ms, p99 {:.3} ms over {} requests at {} req/s; batches of {} in {:?} s \
         (daemon CPU {:?} s); cache hits {}/{}",
        p(0.5) * 1e3,
        p(0.99) * 1e3,
        judged.sent,
        shape.reference_rate,
        shape.batch,
        batch_walls,
        batch_cpus,
        judged.hits,
        judged.sent
    );

    out.metric("setup_s", "s", median(&setup_s).unwrap_or(f64::NAN));
    // The mean, not the median: the kernel counts CPU time in 10 ms ticks.
    out.metric("cpu_s", "s", batch_cpus.iter().sum::<f64>() / batch_cpus.len().max(1) as f64);
    out.metric("peak_rss_mb", "MiB", peak_rss.unwrap_or(f64::NAN));
    out.metric("ok_share", "ratio", 1.0 - out.failed as f64 / out.attempted.max(1) as f64);
    out.metric("so_score", "score", so);
    out.metric("p50_ms", "ms", p(0.5) * 1e3);
    out.metric("p99_ms", "ms", p(0.99) * 1e3);
    out.metric("max_rate_rps", "1/s", max_rate.unwrap_or(f64::NAN));
    Ok(out)
}

/// The capacity criteria for one probe window: p99 within the limit (the
/// median over [`PROBE_SLOTS`] equal slots of the window, so one transient
/// stall of the shared machine does not decide the probe), at most 0.1%
/// of requests refused or failed, and no growing backlog. Every
/// answer is checked after the run; a mixed-generation label is a
/// correctness defect counted there, not a capacity signal.
fn meets_slo(w: &WindowResult, span: f64) -> bool {
    if w.aborted {
        return false;
    }
    let queries: Vec<_> = w.samples.iter().filter(|s| s.tag != RELOAD_TAG).collect();
    let failed = |s: &loadgen::Sample| !matches!(s.status, Status::Http(200 | 404));
    let n_failed = queries.iter().filter(|s| failed(s)).count();
    let latencies: Vec<f64> =
        queries.iter().map(|s| if failed(s) { MISSED_S } else { s.latency_s }).collect();
    let dues: Vec<f64> = queries.iter().map(|s| s.due).collect();
    let p99 = median_of_slots(&dues, &latencies, span, PROBE_SLOTS, 0.99).unwrap_or(f64::INFINITY);
    p99 <= SLO_P99_S
        && (n_failed as f64) <= SLO_FAILED_SHARE * queries.len() as f64
        && !loadgen::backlog_growing(&latencies)
}

/// What the per-layer measurements work from.
struct LayerInputs<'a> {
    datasets: &'a [CharacterizationDataset],
    key_list: &'a [Key],
    plan: &'a [Planned],
    reference: &'a WindowResult,
    judged: &'a Judged,
    scrape: &'a HashMap<String, f64>,
    recommend_us: &'a [f64],
    work_dir: &'a Path,
}

/// Mean microseconds per call of `f` over `n` calls.
fn mean_us(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..n {
        f(i);
    }
    t.elapsed().as_secs_f64() * 1e6 / n.max(1) as f64
}

/// Per-layer metrics of a serve workload, measured in-process on the
/// reference window's traffic, plus the daemon's own `/metrics`.
fn layers(out: &mut Outcome, li: &LayerInputs<'_>) {
    let queries: Vec<&Planned> = li.plan.iter().filter(|p| p.tag != RELOAD_TAG).collect();
    let answered: Vec<&loadgen::Sample> = li
        .reference
        .samples
        .iter()
        .filter(|s| s.tag != RELOAD_TAG && matches!(s.status, Status::Http(_)))
        .collect();

    // serve::http — parse the exact pipelined request bytes; render the
    // bodies the daemon answered with.
    let wire: Vec<u8> = queries
        .iter()
        .flat_map(|p| {
            format!("{} {} HTTP/1.1\r\nHost: llmpilot\r\n\r\n", p.method, p.target).into_bytes()
        })
        .collect();
    let limits = Limits::default();
    let mut reader = BufReader::new(wire.as_slice());
    let parse_us = mean_us(queries.len(), |_| {
        let _ = parse_request(&mut reader, &limits);
    });
    let mut sink = Vec::with_capacity(1 << 20);
    let render_us = mean_us(answered.len(), |i| {
        sink.clear();
        let body = li.reference.bodies[answered[i].body].clone();
        let _ = Response::json(200, body)
            .with_header("X-Cache", "hit")
            .with_header("X-Trace-Id", "00000001")
            .write_to(&mut sink, true);
    });

    // serve::cache — the reference window's key sequence through an LRU
    // of the daemon's capacity, inserting on every miss.
    let mut cache: LruCache<(String, u32, u64, u64, u64, u64), String> =
        LruCache::new(CACHE_CAPACITY);
    let cache_keys: Vec<_> = queries.iter().map(|p| li.key_list[p.tag].cache_key(1)).collect();
    let get_us = mean_us(cache_keys.len(), |i| {
        if cache.get(&cache_keys[i]).is_none() {
            cache.put(cache_keys[i].clone(), String::new());
        }
    });

    // core::predictor / recommend — the computation behind a cache miss.
    let config = online_predictor_config();
    let constraints = LatencyConstraints::paper_defaults();
    let rows: Vec<_> = li.datasets[0].rows.iter().collect();
    let mut train_ms = Vec::new();
    let mut predictor = None;
    for _ in 0..3 {
        let t = Instant::now();
        predictor = PerformancePredictor::train(&rows, &constraints, &config).ok();
        train_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let profiles = llmpilot_sim::gpu::paper_profiles();
    let mut distinct: Vec<usize> = queries.iter().map(|p| p.tag).collect();
    distinct.sort_unstable();
    distinct.dedup();
    let (mut predict_s, mut search_s, mut predicts) = (0.0, 0.0, 0u64);
    let mut candidates_of: HashMap<&str, usize> = HashMap::new();
    if let Some(model) = &predictor {
        for &k in &distinct {
            let key = &li.key_list[k];
            let Some(llm) = llm_by_name(key.model) else { continue };
            let candidates = quality::feasible_profiles(key.model, &profiles);
            candidates_of.insert(key.model, candidates.len());
            let request = key.request();
            let t = Instant::now();
            let mut grid = llmpilot_core::baselines::PredictionGrid::default();
            for p in &candidates {
                for &u in &request.user_grid {
                    let (a, b) = model.predict(&llm, p, u);
                    grid.insert(&p.name(), u, a, b);
                    predicts += 1;
                }
            }
            predict_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let _ = recommend(&candidates, &request, |p, u| grid.get(&p.name(), u));
            search_s += t.elapsed().as_secs_f64();
        }
    }
    // Predictions the daemon made: every miss searches all feasible
    // profiles over the 8-point user grid.
    let daemon_predicts: usize = answered
        .iter()
        .filter(|s| !s.cache_hit)
        .map(|s| candidates_of.get(li.key_list[s.tag].model).copied().unwrap_or(0) * 8)
        .sum();

    // serve::store / registry — retrain on the live generation (a fresh
    // registry each round, since one never retrains a generation it has),
    // then rewrite the file with the next dataset and reload it.
    let (mut reload_ms, mut registry_ms) = (Vec::new(), Vec::new());
    let path = li.work_dir.join(format!("layers-{}.csv", std::process::id()));
    let csv: Vec<String> = li.datasets.iter().map(CharacterizationDataset::to_csv).collect();
    if std::fs::write(&path, &csv[0]).is_ok() {
        if let Ok(store) = DatasetStore::open(&path) {
            for round in 1..=4 {
                let (dataset, generation) = store.snapshot();
                let registry = ModelRegistry::new(constraints, config.clone());
                let t = Instant::now();
                let _ = registry.train_and_swap(&dataset, generation);
                registry_ms.push(t.elapsed().as_secs_f64() * 1e3);
                let _ = std::fs::write(&path, &csv[round % csv.len()]);
                let t = Instant::now();
                let _ = store.reload();
                reload_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    // serve::server — the daemon's own view after the reference window.
    let series = |name: &str| li.scrape.get(name).copied().unwrap_or(0.0);
    let server_p50_us = series("llmpilot_request_latency_quantile_seconds{quantile=\"0.5\"}") * 1e6;
    let server_p99_us =
        series("llmpilot_request_latency_quantile_seconds{quantile=\"0.99\"}") * 1e6;
    let hits = series("llmpilot_cache_requests_total{result=\"hit\"}");
    let misses = series("llmpilot_cache_requests_total{result=\"miss\"}");
    let client: Vec<f64> = answered.iter().map(|s| s.latency_s).collect();
    let client_p50_us = median(&client).unwrap_or(0.0) * 1e6;
    let recommend_p50 = percentile(li.recommend_us, 0.5).unwrap_or(0.0);
    let miss_share =
        answered.iter().filter(|s| !s.cache_hit).count() as f64 / answered.len().max(1) as f64;

    let count = |k: &str| li.judged.counts.get(k).copied().unwrap_or(0) as f64;
    let late_p99 = percentile(&li.judged.late, 0.99).unwrap_or(0.0) * 1e3;
    // The daemon's own time (/metrics) runs from a parsed request to its
    // rendered response; parse and write sit outside it. What remains of
    // the client latency (loopback, wake-ups, queueing, generator
    // lateness) no layer here measures.
    print_layer_table(
        "one request at the p50 (client latency from the due time)",
        "us",
        client_p50_us,
        &[
            LayerRow { layer: "serve::http parse_request".into(), time: parse_us },
            LayerRow { layer: "daemon handling p50 (/metrics)".into(), time: server_p50_us },
            LayerRow { layer: "serve::http Response::write_to".into(), time: render_us },
        ],
    );
    println!(
        "  daemon handling includes serve::cache get {get_us:.2} us and, on the {:.1}% of \
         misses, ServingModel::recommend (p50 {recommend_p50:.1} us); the unaccounted rest is \
         loopback, wake-ups, queueing and generator lateness",
        miss_share * 100.0
    );

    out.metric("predictor.train_ms_p50", "ms", percentile(&train_ms, 0.5).unwrap_or(0.0));
    out.metric("predictor.predict_us", "us", predict_s * 1e6 / predicts.max(1) as f64);
    out.metric("predictor.predicts", "count", daemon_predicts as f64);
    out.metric("recommend.search_us", "us", search_s * 1e6 / distinct.len().max(1) as f64);
    out.metric("serving.recommend_us_p50", "us", recommend_p50);
    out.metric("serving.recommend_us_p99", "us", percentile(li.recommend_us, 0.99).unwrap_or(0.0));
    out.metric("http.parse_us", "us", parse_us);
    out.metric("http.render_us", "us", render_us);
    out.metric("cache.hit_ratio", "ratio", hits / (hits + misses).max(1.0));
    out.metric("cache.get_us", "us", get_us);
    out.metric("store.reload_ms", "ms", median(&reload_ms).unwrap_or(0.0));
    out.metric("registry.train_ms", "ms", median(&registry_ms).unwrap_or(0.0));
    out.metric("serve.reloads", "count", li.judged.reloads_ok as f64);
    out.metric("serve.server_us_p50", "us", server_p50_us);
    out.metric("serve.server_us_p99", "us", server_p99_us);
    out.metric("serve.wait_us_p50", "us", client_p50_us - server_p50_us);
    out.metric("serve.queue_rejected", "count", series("llmpilot_queue_rejected_total"));
    out.metric("loadgen.sent", "count", li.judged.sent as f64);
    out.metric("loadgen.ok", "count", count("ok"));
    out.metric("loadgen.refused_503", "count", count("refused_503"));
    out.metric("loadgen.io_error", "count", count("io_error"));
    out.metric("loadgen.wrong_answer", "count", count("wrong_answer"));
    out.metric("loadgen.mixed_generation", "count", count("mixed_generation"));
    out.metric("loadgen.late_ms_p99", "ms", late_p99);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_flat_fields_and_skips_nested_values() {
        let f = json_fields(
            r#"{"llm":"bigcode/starcoder","pods":3,"cost_per_hour":12.2900,"why":{"a":[1,{"b":"}"}]},"ok":true}"#,
        )
        .unwrap();
        assert_eq!(f["llm"], "bigcode/starcoder");
        assert_eq!(f["pods"], "3");
        assert_eq!(f["cost_per_hour"], "12.2900");
        assert_eq!(f["ok"], "true");
        assert!(f["why"].starts_with('{'));
        assert_eq!(json_fields(r#"{"e":"a\"b\u0041"}"#).unwrap()["e"], "a\"bA");
        assert!(json_fields("not json").is_none());
    }

    #[test]
    fn generations_alternate_datasets_and_keys_are_distinct() {
        assert_eq!(dataset_of_generation(1), 0);
        assert_eq!(dataset_of_generation(2), 1);
        assert_eq!(dataset_of_generation(3), 0);
        let k = keys(500, 9);
        assert_eq!(k, keys(500, 9));
        let distinct: HashSet<_> = k.iter().collect();
        assert_eq!(distinct.len(), 500);
        assert!(k[0].target().starts_with("/recommend?model="));
        assert!(!k.iter().any(|k| k.target().contains("model=bigcode/")), "names are escaped");
    }
}
