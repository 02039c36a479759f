//! Wall-clock serving benchmark for the Atom reproduction.
//!
//! Serves a seeded traffic mix through `atom_gateway::Gateway` →
//! `atom_serve::CpuEngine` → the Tiny zoo model quantized with Atom W4A4
//! and an INT4 KV cache, then checks the outputs and prints one JSON line
//! of metrics. See `README.md` in this directory.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload chat_prefix --seed 1 --seconds 25 --trace 0
//! ```

mod host;
mod serve;
mod stats;
mod trace;
mod workload;

use atom::{AtomScheme, Calibration, QuantizedKvCache, QuantizedModel, Scheme};
use atom_gateway::{Gateway, GatewayConfig, TenantSpec};
use atom_nn::zoo::{self, ZooId};
use atom_nn::{DenseLinear, KvStore, LinearLayer, LlamaModel};
use atom_parallel::Pool;
use atom_prefix::PrefixConfig;
use atom_serve::engine::CacheFactory;
use atom_serve::CpuEngine;
use atom_tensor::SeededRng;
use serve::Served;
use stats::{percentile, Pct, Status, SLO};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use trace::{Recorder, TimedKv, TimedLinear};
use workload::{Jobs, Workload};

/// Engine batch cap.
const MAX_BATCH: usize = 16;
/// KV pool size in tokens.
const KV_POOL_TOKENS: usize = 16_384;
/// Calibration sequences (the paper's 128).
const CALIB_SEQS: usize = 128;
/// Set-up samples taken before the load starts, and again after it ends.
const SETUP_HALF: usize = 8;
/// Completed requests replayed through a fresh engine.
const REPLAY_SAMPLE: usize = 6;
/// KV-cache bits of the Atom W4A4 scheme, which the traced caches match.
const KV_BITS: u8 = 4;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: servebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut map = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"));
        };
        map.insert(flag, value);
    }
    let get = |k: &str| {
        map.get(k)
            .cloned()
            .unwrap_or_else(|| usage(&format!("missing {k}")))
    };
    let workload = get("--workload");
    Args {
        workload: Workload::parse(&workload)
            .unwrap_or_else(|| usage(&format!("unknown workload {workload:?}"))),
        seed: get("--seed")
            .parse()
            .unwrap_or_else(|_| usage("bad --seed")),
        seconds: get("--seconds")
            .parse()
            .ok()
            .filter(|s: &f64| *s > 0.0)
            .unwrap_or_else(|| usage("bad --seconds")),
        trace: match get("--trace").as_str() {
            "0" => false,
            "1" => true,
            _ => usage("--trace must be 0 or 1"),
        },
    }
}

/// Timings of one set-up: calibrate, quantize, build engine and gateway.
#[derive(Debug, Clone, Copy)]
struct SetupSample {
    calibrate_s: f64,
    quantize_s: f64,
    engine_s: f64,
}

impl SetupSample {
    fn total_s(&self) -> f64 {
        self.calibrate_s + self.quantize_s + self.engine_s
    }
}

/// The one gateway configuration every workload uses: one tenant whose
/// bucket and queue never refuse, default retry and breaker, no deadlines.
fn gateway_config() -> GatewayConfig {
    let mut cfg = GatewayConfig::single_tenant();
    cfg.tenants = vec![TenantSpec::new("bench", 1, 1)
        .with_rate(1_000_000, 1_000_000_000)
        .with_queue_cap(1 << 20)];
    cfg
}

fn engine<L: LinearLayer>(
    model: LlamaModel<L>,
    cache: CacheFactory,
    pool: Pool,
    prefix: bool,
) -> CpuEngine<L> {
    let e = CpuEngine::new(model, cache, MAX_BATCH, KV_POOL_TOKENS)
        .unwrap_or_else(|e| fail(&format!("engine config: {e}")))
        .with_pool(pool);
    if prefix {
        e.with_prefix_cache(PrefixConfig::default())
    } else {
        e
    }
}

fn plain_cache(qm: &Arc<QuantizedModel>) -> CacheFactory {
    let qm = Arc::clone(qm);
    Box::new(move || qm.new_cache())
}

fn gateway<L: LinearLayer>(e: CpuEngine<L>) -> Gateway<L> {
    Gateway::new(e, gateway_config()).unwrap_or_else(|e| fail(&format!("gateway config: {e}")))
}

fn fail(msg: &str) -> ! {
    eprintln!("servebench: {msg}");
    std::process::exit(1);
}

/// One timed set-up. Returns the quantized model and a ready gateway.
fn setup_once(
    dense: &LlamaModel<DenseLinear>,
    seqs: &[Vec<u16>],
    width: usize,
) -> (SetupSample, Arc<QuantizedModel>, Gateway<atom::AnyLinear>) {
    let scheme = Scheme::Atom(AtomScheme::w4a4());
    let t0 = Instant::now();
    let calib = Calibration::collect(dense, seqs, scheme.needs_gram(), 2);
    let t1 = Instant::now();
    let qm = Arc::new(scheme.quantize(dense, &calib));
    let t2 = Instant::now();
    let gw = gateway(engine(
        qm.model.clone(),
        plain_cache(&qm),
        Pool::new(width),
        true,
    ));
    let t3 = Instant::now();
    let sample = SetupSample {
        calibrate_s: (t1 - t0).as_secs_f64(),
        quantize_s: (t2 - t1).as_secs_f64(),
        engine_s: (t3 - t2).as_secs_f64(),
    };
    (sample, qm, gw)
}

/// A named metric with its unit.
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*value)
            );
        }
        s.push('}');
        s
    }
}

/// A JSON number with all its digits (non-finite values become 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

fn ms(p: Option<Pct>) -> f64 {
    p.map_or(0.0, |p| p.value * 1e3)
}

fn pct_note(name: &str, p: Option<Pct>) -> String {
    match p {
        Some(p) => format!("\"{name}\": {{\"p\": {}, \"n\": {}}}", num(p.p), p.n),
        None => format!("\"{name}\": null"),
    }
}

/// Replays a seeded sample of completed requests through a fresh engine at
/// pool width 1 with the prefix cache off; returns the jobs whose tokens
/// differ from the served ones.
fn replay_mismatches(
    qm: &Arc<QuantizedModel>,
    served: &Served,
    jobs: &Jobs,
    seed: u64,
) -> (usize, Vec<usize>) {
    let completed: Vec<usize> = served
        .sent
        .iter()
        .enumerate()
        .filter(|(_, s)| s.timing.status == Status::Completed)
        .map(|(i, _)| i)
        .collect();
    let mut rng = SeededRng::new(seed ^ 0x5E71_A7E5);
    let mut pick = rng.sample_indices(completed.len(), REPLAY_SAMPLE.min(completed.len()));
    pick.sort_unstable();
    let mut e = engine(qm.model.clone(), plain_cache(qm), Pool::new(1), false);
    let mut expect = BTreeMap::new();
    for &k in &pick {
        let s = &served.sent[completed[k]];
        let id = e
            .submit(jobs.generated()[s.job].prompt.clone(), s.max_new)
            .unwrap_or_else(|r| fail(&format!("replay refused: {r:?}")));
        expect.insert(id, (s.job, &s.tokens));
    }
    e.run_to_completion();
    let mut bad = Vec::new();
    for (id, (job, tokens)) in expect {
        let ok = e
            .outcome_of(id)
            .is_some_and(|o| o.terminal == atom_serve::Terminal::Completed && &o.tokens == tokens);
        if !ok {
            bad.push(job);
        }
    }
    (pick.len(), bad)
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../target/servebench")
}

/// Argument that makes the process only train and cache the zoo model.
const TRAIN_ONLY: &str = "--train-model";

fn main() {
    if std::env::args().nth(1).as_deref() == Some(TRAIN_ONLY) {
        zoo::trained(ZooId::Tiny);
        return;
    }
    let args = parse_args();
    // The pool is as wide as the host. Pin the width the kernels read from
    // the environment before anything touches the process-wide pool.
    let width = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    std::env::set_var("ATOM_THREADS", width.to_string());
    let kernel_path = std::env::var("ATOM_KERNEL_PATH").unwrap_or_else(|_| "default".into());
    let steal0 = host::steal_ticks();
    let probe_start = (host::alu_chain_ns(), host::memory_stream_gbps());

    // Model and calibration data are ready before any set-up clock starts.
    // A cold cache is filled by a child process, so training's heap never
    // shows in this process's resident set.
    let model_cold = !zoo::cache_dir().join("atom-tiny.bin").exists();
    if model_cold {
        let trained = std::env::current_exe()
            .and_then(|exe| std::process::Command::new(exe).arg(TRAIN_ONLY).status());
        if !trained.is_ok_and(|s| s.success()) {
            fail("training the zoo model failed");
        }
    }
    let t = Instant::now();
    let dense = zoo::trained(ZooId::Tiny);
    let model_load_s = t.elapsed().as_secs_f64();
    let seqs = zoo::calibration_sequences(CALIB_SEQS);
    let seconds = args.seconds;

    // Opening half of the set-up samples; the last one serves.
    let mut setups = Vec::new();
    let mut ready = None;
    for _ in 0..SETUP_HALF {
        let (s, qm, gw) = setup_once(&dense, &seqs, width);
        setups.push(s);
        ready = Some((qm, gw));
    }
    let Some((qm, gw)) = ready else {
        fail("no set-up ran")
    };
    if qm.kv_bits != Some(KV_BITS) {
        fail("the Atom W4A4 scheme must serve with an INT4 KV cache");
    }
    let setup_peak_rss = host::peak_rss_mib();
    let rss_reset = host::reset_peak_rss();

    // Untraced run: the end-to-end numbers.
    let mut jobs = Jobs::new(args.workload, args.seed, seconds);
    let plain = serve::serve(gw, args.workload, &mut jobs, seconds, None);
    let peak_rss = host::peak_rss_mib();

    // Traced run: the same traffic through timing wrappers.
    let traced = args.trace.then(|| {
        let rec = Recorder::new();
        let model = qm.model.clone().map_linears(|id, l| {
            TimedLinear::new(l, Arc::clone(&rec))
                .unwrap_or_else(|| fail(&format!("linear {id} is not an Atom integer linear")))
        });
        let c = *qm.model.config();
        let kv_rec = Arc::clone(&rec);
        let cache: CacheFactory = Box::new(move || -> Box<dyn KvStore> {
            Box::new(TimedKv::new(
                QuantizedKvCache::new(c.layers, c.kv_dim(), c.head_dim(), KV_BITS),
                Arc::clone(&kv_rec),
            ))
        });
        let gw = gateway(engine(model, cache, Pool::new(width), true));
        let mut jobs = Jobs::new(args.workload, args.seed, seconds);
        let served = serve::serve(gw, args.workload, &mut jobs, seconds, Some(&rec));
        (rec, served)
    });

    // Closing half of the set-up samples.
    for _ in 0..SETUP_HALF {
        setups.push(setup_once(&dense, &seqs, width).0);
    }
    let probe_end = (host::alu_chain_ns(), host::memory_stream_gbps());
    let steal = host::steal_share(steal0, host::steal_ticks());

    // ---- correctness ----
    let mut plain = plain;
    let mut problems: Vec<String> = Vec::new();
    check_terminals(&plain, "untraced", &mut problems);
    let (replayed, bad) = replay_mismatches(&qm, &plain, &jobs, args.seed);
    for job in &bad {
        problems.push(format!(
            "replay: job {job} tokens differ from a fresh width-1 engine"
        ));
        mark_mismatch(&mut plain, *job);
    }
    let mut traced = traced;
    if let Some((_, t)) = traced.as_mut() {
        check_terminals(t, "traced", &mut problems);
        let plain_tokens: BTreeMap<usize, &Vec<u16>> = plain
            .sent
            .iter()
            .filter(|s| s.timing.status == Status::Completed)
            .map(|s| (s.job, &s.tokens))
            .collect();
        let mut differing = Vec::new();
        for s in &t.sent {
            if s.timing.status == Status::Completed {
                if let Some(p) = plain_tokens.get(&s.job) {
                    if *p != &s.tokens {
                        differing.push(s.job);
                    }
                }
            }
        }
        for job in differing {
            problems.push(format!(
                "trace: job {job} tokens differ from the untraced run"
            ));
            mark_mismatch(t, job);
        }
    }

    // ---- end-to-end metrics (untraced run) ----
    let timings = plain.timings();
    let ttft: Vec<f64> = timings
        .iter()
        .filter(|t| t.status == Status::Completed)
        .filter_map(stats::Timing::ttft_s)
        .collect();
    let tpot: Vec<f64> = timings
        .iter()
        .filter(|t| t.status == Status::Completed)
        .filter_map(stats::Timing::tpot_s)
        .collect();
    let totals: Vec<f64> = setups.iter().map(SetupSample::total_s).collect();
    let setup_min = totals.iter().copied().fold(f64::INFINITY, f64::min);
    let error_rate = stats::error_rate(&timings);
    let (ttft50, ttft90) = (percentile(&ttft, 0.5), percentile(&ttft, 0.9));
    let (tpot50, tpot90) = (percentile(&tpot, 0.5), percentile(&tpot, 0.9));
    let mut e2e = Metrics(Vec::new());
    e2e.put("setup_s", setup_min, "s");
    e2e.put("ttft_p50_ms", ms(ttft50), "ms");
    e2e.put("ttft_p90_ms", ms(ttft90), "ms");
    e2e.put("tpot_p50_ms", ms(tpot50), "ms");
    e2e.put("tpot_p90_ms", ms(tpot90), "ms");
    let load = args.workload.load();
    e2e.put(
        "output_tok_per_s",
        plain.output_tok_per_s(load, seconds),
        "tok/s",
    );
    e2e.put(
        "slo_attainment",
        stats::slo_attainment(&timings, SLO),
        "ratio",
    );
    e2e.put("success_rate", 1.0 - error_rate, "ratio");
    e2e.put("peak_rss_mb", peak_rss.unwrap_or(0.0), "MiB");

    // ---- per-layer metrics (traced run) ----
    let layer = traced.as_ref().map(|(rec, t)| {
        let overhead =
            t.output_tok_per_s(load, seconds) / plain.output_tok_per_s(load, seconds).max(1e-9);
        per_layer(rec, t, overhead, &setups, setup_peak_rss.unwrap_or(0.0))
    });

    // ---- report ----
    let attempted = plain.sent.len() + traced.as_ref().map_or(0, |(_, t)| t.sent.len());
    let failed = plain
        .sent
        .iter()
        .chain(traced.iter().flat_map(|(_, t)| t.sent.iter()))
        .filter(|s| s.timing.status != Status::Completed)
        .count();
    let correct = problems.is_empty();
    for p in &problems {
        eprintln!("servebench: CHECK FAILED: {p}");
    }
    let meta = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
\"host_parallelism\": {width}, \"pool_width\": {width}, \"atom_threads\": \"{width}\", \
\"atom_kernel_path\": \"{kernel_path}\", \"cpu_steal_share\": {}, \
\"probe_alu_ns_per_step\": [{}, {}], \"probe_mem_stream_gbps\": [{}, {}], \
\"model_cache_cold\": {model_cold}, \"model_load_s\": {}, \"peak_rss_reset\": {rss_reset}, \
\"setup_samples_s\": [{}], \"tok_per_s_windows\": [{}], \"requests\": {}, \
\"traced_requests\": {}, \"error_rate\": {}, \"replayed\": {replayed}, \
\"percentiles\": {{{}, {}, {}, {}}}, \"problems\": {}}}",
        args.workload.name(),
        args.seed,
        num(seconds),
        args.trace,
        steal.map_or("null".into(), num),
        num(probe_start.0),
        num(probe_end.0),
        num(probe_start.1),
        num(probe_end.1),
        num(model_load_s),
        totals
            .iter()
            .map(|v| num(*v))
            .collect::<Vec<_>>()
            .join(", "),
        stats::windowed_rates(&timings, 1.0, seconds)
            .iter()
            .map(|v| format!("{v:.0}"))
            .collect::<Vec<_>>()
            .join(", "),
        request_counts(&plain),
        traced
            .as_ref()
            .map_or("null".into(), |(_, t)| request_counts(t)),
        num(error_rate),
        pct_note("ttft_p50", ttft50),
        pct_note("ttft_p90", ttft90),
        pct_note("tpot_p50", tpot50),
        pct_note("tpot_p90", tpot90),
        problems.len(),
    );
    println!("meta {meta}");
    println!("end_to_end {}", e2e.json());
    let dir = out_dir();
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let _ = std::fs::create_dir_all(&dir);
    let metrics = match &layer {
        Some(l) => {
            println!(
                "note kernels.weight_mb_per_token is computed from packed tensor sizes \
                 (each linear forward streams its layer's packed weights once), not measured"
            );
            println!("per_layer {}", l.json());
            l.json()
        }
        None => e2e.json(),
    };
    if let Some((rec, _)) = &traced {
        let path = dir.join(format!("{stem}.trace.json"));
        match rec.write_chrome_trace(&path) {
            Ok(n) => eprintln!("servebench: wrote {n} trace events to {}", path.display()),
            Err(e) => eprintln!("servebench: could not write {}: {e}", path.display()),
        }
    }
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}"
    );
    let _ = std::fs::write(
        dir.join(format!("{stem}.json")),
        format!(
            "{{\"meta\": {meta}, \"end_to_end\": {}, \"result\": {result}}}\n",
            e2e.json()
        ),
    );
    println!("{result}");
    if !correct {
        std::process::exit(1);
    }
}

fn status_count(served: &Served, status: Status) -> usize {
    served
        .sent
        .iter()
        .filter(|s| s.timing.status == status)
        .count()
}

/// Requests sent, and how each ended, as a JSON object.
fn request_counts(served: &Served) -> String {
    format!(
        "{{\"sent\": {}, \"completed\": {}, \"failed\": {}, \"refused\": {}, \"mismatched\": {}}}",
        served.sent.len(),
        status_count(served, Status::Completed),
        status_count(served, Status::Failed),
        status_count(served, Status::Refused),
        status_count(served, Status::Mismatch)
    )
}

/// Exactly-once terminals: every accepted request got one terminal and no
/// more, sent = completed + failed + refused, and every completed request
/// returned the tokens it asked for.
fn check_terminals(served: &Served, label: &str, problems: &mut Vec<String>) {
    let [completed, failed, refused] =
        [Status::Completed, Status::Failed, Status::Refused].map(|st| status_count(served, st));
    let unfinished = served
        .sent
        .iter()
        .filter(|s| s.gateway_id.is_some() && s.timing.finished_s.is_none())
        .count();
    if completed + failed + refused != served.sent.len() || unfinished > 0 {
        problems.push(format!(
            "{label}: sent {} != completed {completed} + failed {failed} + refused {refused} \
             ({unfinished} without a terminal)",
            served.sent.len()
        ));
    }
    if served.extra_terminals > 0 {
        problems.push(format!(
            "{label}: {} terminals for requests that already had one or were never sent",
            served.extra_terminals
        ));
    }
    for s in &served.sent {
        if s.timing.status == Status::Completed && s.tokens.len() != s.max_new {
            problems.push(format!(
                "{label}: job {} returned {} tokens",
                s.job,
                s.tokens.len()
            ));
        }
    }
}

fn mark_mismatch(served: &mut Served, job: usize) {
    for s in served.sent.iter_mut().filter(|s| s.job == job) {
        s.timing.status = Status::Mismatch;
    }
}

fn per_layer(
    rec: &Recorder,
    t: &Served,
    overhead_ratio: f64,
    setups: &[SetupSample],
    setup_peak_rss: f64,
) -> Metrics {
    let tot = rec.totals();
    let median =
        |f: fn(&SetupSample) -> f64| stats::median(&setups.iter().map(f).collect::<Vec<_>>());
    let out_tokens: usize = t
        .sent
        .iter()
        .filter(|s| s.timing.status == Status::Completed)
        .map(|s| s.tokens.len())
        .sum();
    let per_token = |x: f64| x / out_tokens.max(1) as f64;
    let mean_of =
        |f: fn(&serve::TickSample) -> f64| stats::mean(&t.ticks.iter().map(f).collect::<Vec<_>>());
    let tick_ms: Vec<f64> = t.ticks.iter().map(|x| x.dur_s * 1e3).collect();
    let queue_steps: Vec<f64> = t
        .sent
        .iter()
        .filter_map(|s| s.stats.queue_steps())
        .map(|q| q as f64)
        .collect();
    let prompt_tokens: usize = t
        .sent
        .iter()
        .filter(|s| s.gateway_id.is_some())
        .map(|s| s.prompt_len)
        .sum();
    let prefix_tokens: usize = t.sent.iter().map(|s| s.stats.prefix_tokens).sum();
    let prefix = t.prefix.unwrap_or_default();
    let p50 = |v: &[f64]| percentile(v, 0.5).map_or(0.0, |p| p.value);
    let p90 = |v: &[f64]| percentile(v, 0.9).map_or(0.0, |p| p.value);
    let lag_ms: Vec<f64> = t.gen_lag_s.iter().map(|x| x * 1e3).collect();
    let offer_us: Vec<f64> = t.offer_s.iter().map(|x| x * 1e6).collect();
    let mib = 1024.0 * 1024.0;

    let mut m = Metrics(Vec::new());
    m.put("driver.sent", t.sent.len() as f64, "count");
    m.put("driver.gen_lag_ms_p90", p90(&lag_ms), "ms");
    m.put("setup.calibrate_s", median(|s| s.calibrate_s), "s");
    m.put("setup.quantize_s", median(|s| s.quantize_s), "s");
    m.put("setup.engine_s", median(|s| s.engine_s), "s");
    m.put("setup.median_s", median(SetupSample::total_s), "s");
    m.put("setup.peak_rss_mb", setup_peak_rss, "MiB");
    m.put("gateway.offer_us_p50", p50(&offer_us), "us");
    m.put("gateway.tick_ms_p50", p50(&tick_ms), "ms");
    m.put("gateway.tick_ms_p90", p90(&tick_ms), "ms");
    m.put(
        "gateway.queue_depth_mean",
        mean_of(|x| x.queue_depth as f64),
        "count",
    );
    m.put("gateway.rejects", t.rejects as f64, "count");
    m.put("gateway.retries", t.retries as f64, "count");
    m.put(
        "serve.batch_active_mean",
        mean_of(|x| x.active as f64),
        "count",
    );
    m.put("serve.queue_wait_steps_p50", p50(&queue_steps), "steps");
    m.put("serve.kv_util_mean", mean_of(|x| x.kv_util), "ratio");
    m.put(
        "serve.preemptions",
        t.sent.iter().map(|s| s.stats.preemptions).sum::<usize>() as f64,
        "count",
    );
    m.put(
        "serve.residual_ms_per_tick",
        stats::mean(&tot.residual_s) * 1e3,
        "ms",
    );
    let lookups = prefix.hits + prefix.misses;
    m.put(
        "prefix.hit_rate",
        prefix.hits as f64 / lookups.max(1) as f64,
        "ratio",
    );
    m.put(
        "prefix.token_share",
        prefix_tokens as f64 / prompt_tokens.max(1) as f64,
        "ratio",
    );
    m.put("prefix.evictions", prefix.evictions as f64, "count");
    m.put("kv.read_ms", tot.kv_read.busy_s * 1e3, "ms");
    m.put(
        "kv.read_mb_per_token",
        per_token(tot.kv_read_bytes as f64) / mib,
        "MiB",
    );
    m.put("kv.append_calls", tot.kv_append.calls as f64, "count");
    m.put("kv.append_ms", tot.kv_append.busy_s * 1e3, "ms");
    m.put("kv.snapshot_ms", tot.kv_snapshot.busy_s * 1e3, "ms");
    m.put("kv.packed_mb_peak", tot.kv_packed_peak as f64 / mib, "MiB");
    m.put("linear.calls", tot.linear.calls as f64, "count");
    m.put(
        "linear.rows_per_call_mean",
        tot.linear_rows as f64 / tot.linear.calls.max(1) as f64,
        "rows",
    );
    m.put("linear.busy_ms", tot.linear.busy_s * 1e3, "ms");
    m.put(
        "linear.us_per_row",
        tot.linear.busy_s * 1e6 / tot.linear_rows.max(1) as f64,
        "us",
    );
    m.put(
        "kernels.weight_mb_per_token",
        per_token(tot.weight_bytes as f64) / mib,
        "MiB",
    );
    m.put(
        "process.cpu_per_wall",
        t.cpu_s.unwrap_or(0.0) / t.wall_s.max(1e-9),
        "ratio",
    );
    m.put("trace.overhead_ratio", overhead_ratio, "ratio");
    m
}
