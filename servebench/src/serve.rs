//! The load generator: one thread that offers seeded jobs to the gateway on
//! wall-clock time and ticks it while work is in flight.

use crate::stats::{median, windowed_rates, Status, Timing};
use crate::trace::Recorder;
use crate::workload::{Jobs, Load, Workload};
use atom_gateway::{Gateway, GatewayTerminal};
use atom_nn::LinearLayer;
use atom_prefix::PrefixCacheStats;
use atom_serve::RequestStats;
use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

/// One sent request as the client saw it.
#[derive(Debug, Clone)]
pub struct Sent {
    /// Index of the job in the seeded sequence.
    pub job: usize,
    /// Gateway id (`None` if refused at the front door).
    pub gateway_id: Option<usize>,
    /// Prompt length in tokens.
    pub prompt_len: usize,
    /// Tokens asked for.
    pub max_new: usize,
    /// When `Gateway::offer` was called, seconds from the start.
    pub offered_s: f64,
    /// Client-side timestamps and status.
    pub timing: Timing,
    /// Generated tokens.
    pub tokens: Vec<u16>,
    /// Engine accounting of the final attempt.
    pub stats: RequestStats,
}

/// Gauges sampled after every tick.
#[derive(Debug, Clone, Copy)]
pub struct TickSample {
    /// Tick wall time in seconds.
    pub dur_s: f64,
    /// Requests waiting in gateway queues.
    pub queue_depth: usize,
    /// Sequences in the engine's batch.
    pub active: usize,
    /// KV-pool utilization, 0..1.
    pub kv_util: f64,
}

/// Everything one serving run produced.
#[derive(Debug, Clone)]
pub struct Served {
    /// Sent requests, in send order.
    pub sent: Vec<Sent>,
    /// Seconds from the start to the last terminal.
    pub wall_s: f64,
    /// Process CPU seconds over the run, if readable.
    pub cpu_s: Option<f64>,
    /// One sample per tick.
    pub ticks: Vec<TickSample>,
    /// `Gateway::offer` wall times in seconds.
    pub offer_s: Vec<f64>,
    /// Offer time minus due time, seconds, per sent request.
    pub gen_lag_s: Vec<f64>,
    /// Gateway retry dispatches.
    pub retries: u64,
    /// Gateway front-door refusals.
    pub rejects: u64,
    /// Engine prefix-cache statistics at the end.
    pub prefix: Option<PrefixCacheStats>,
    /// Terminals for gateway ids that already had one or were never
    /// accepted.
    pub extra_terminals: usize,
}

impl Served {
    /// Output tokens per wall second. Open loop: all output tokens over the
    /// span of the run, since the fixed schedule sets the rate and
    /// one-second windows would mostly measure arrival noise. Closed loop:
    /// the median over the one-second windows of the issuing period, so a
    /// stretch of host interference moves it only if it covers half the
    /// run.
    pub fn output_tok_per_s(&self, load: Load, seconds: f64) -> f64 {
        match load {
            Load::Open { .. } => {
                let tokens: usize = self
                    .sent
                    .iter()
                    .filter(|s| s.timing.status == Status::Completed)
                    .map(|s| s.tokens.len())
                    .sum();
                tokens as f64 / self.wall_s.max(1e-9)
            }
            Load::Closed { .. } => median(&windowed_rates(&self.timings(), 1.0, seconds)),
        }
    }

    /// Client timings of every sent request.
    pub fn timings(&self) -> Vec<Timing> {
        self.sent.iter().map(|s| s.timing).collect()
    }
}

/// Serves `workload` through `gw` for `seconds` of offered load: the open
/// loop offers every job scheduled inside the window, the closed loop
/// stops issuing at the end of the window. Either way the run ends when
/// the last sent request reaches its terminal. `rec`, when given, receives
/// tick, offer and request spans.
pub fn serve<L: LinearLayer>(
    mut gw: Gateway<L>,
    workload: Workload,
    jobs: &mut Jobs,
    seconds: f64,
    rec: Option<&Recorder>,
) -> Served {
    let start = Instant::now();
    let now = || start.elapsed().as_secs_f64();
    // Recorder times are on the recorder's own clock.
    let rec_offset = rec.map_or(0.0, |r| r.now()) - now();
    let cpu0 = crate::host::cpu_seconds();
    let mut out = Served {
        sent: Vec::new(),
        wall_s: 0.0,
        cpu_s: None,
        ticks: Vec::new(),
        offer_s: Vec::new(),
        gen_lag_s: Vec::new(),
        retries: 0,
        rejects: 0,
        prefix: None,
        extra_terminals: 0,
    };
    // Wall time at the end of each gateway tick, indexed by gateway clock.
    let mut tick_end = vec![0.0f64];
    let mut by_gateway_id: BTreeMap<usize, usize> = BTreeMap::new();
    let mut next_job = 0usize;
    let mut harvested = 0usize;
    // Closed loop: the times at which idle clients became free.
    let mut free: VecDeque<f64> = match workload.load() {
        Load::Closed { clients } => std::iter::repeat_n(0.0, clients).collect(),
        Load::Open { .. } => VecDeque::new(),
    };
    loop {
        // Offer everything that is due.
        loop {
            let t = now();
            let due = match workload.load() {
                Load::Open { .. } => match jobs.get(next_job) {
                    Some(j) if j.due_s <= t => j.due_s,
                    _ => break,
                },
                Load::Closed { .. } => match free.front() {
                    Some(&ready) if t < seconds => ready,
                    _ => break,
                },
            };
            let Some(job) = jobs.get(next_job) else { break };
            let (prompt, max_new) = (job.prompt.clone(), job.max_new);
            let prompt_len = prompt.len();
            let t0 = now();
            let offered = gw.offer(0, prompt, max_new, None);
            let t1 = now();
            out.offer_s.push(t1 - t0);
            out.gen_lag_s.push(t0 - due);
            if let Some(r) = rec {
                r.offer(t0 + rec_offset, t1 + rec_offset, next_job);
            }
            let status = match offered {
                Ok(id) => {
                    by_gateway_id.insert(id, out.sent.len());
                    Status::Failed // until its terminal arrives
                }
                Err(_) => {
                    out.rejects += 1;
                    Status::Refused
                }
            };
            if matches!(workload.load(), Load::Closed { .. }) {
                free.pop_front();
                if status == Status::Refused {
                    free.push_back(t1);
                }
            }
            out.sent.push(Sent {
                job: next_job,
                gateway_id: offered.ok(),
                prompt_len,
                max_new,
                offered_s: t0,
                timing: Timing {
                    due_s: due,
                    first_token_s: None,
                    finished_s: None,
                    tokens: 0,
                    status,
                },
                tokens: Vec::new(),
                stats: RequestStats::default(),
            });
            next_job += 1;
        }

        if gw.is_idle() {
            match workload.load() {
                Load::Open { .. } => match jobs.get(next_job) {
                    Some(j) => {
                        let wait = j.due_s - now();
                        if wait > 0.0 {
                            std::thread::sleep(Duration::from_secs_f64(wait));
                        }
                        continue;
                    }
                    None => break,
                },
                Load::Closed { .. } => {
                    if now() >= seconds {
                        break;
                    }
                    continue;
                }
            }
        }

        if let Some(r) = rec {
            r.tick_begin(gw.now() + 1);
        }
        let t0 = now();
        gw.tick();
        let t1 = now();
        tick_end.push(t1);
        if let Some(r) = rec {
            r.tick_end(t0 + rec_offset, t1 + rec_offset);
        }
        out.ticks.push(TickSample {
            dur_s: t1 - t0,
            queue_depth: gw.queued_depth(),
            active: gw.engine().batcher().active().len(),
            kv_util: gw.engine().kv_utilization(),
        });

        let at = |tick: u64| tick_end.get(tick as usize).copied();
        for o in gw.outcomes().get(harvested..).unwrap_or_default() {
            // The first terminal of a request claims it; any other one is
            // an exactly-once violation.
            let Some(i) = by_gateway_id.remove(&o.id) else {
                out.extra_terminals += 1;
                continue;
            };
            let s = &mut out.sent[i];
            let finished = at(o.finished_tick).unwrap_or(t1);
            s.timing.first_token_s = o.first_token_tick.and_then(at);
            s.timing.finished_s = Some(finished);
            s.timing.tokens = o.tokens.len();
            s.timing.status = match o.terminal {
                GatewayTerminal::Completed => Status::Completed,
                _ => Status::Failed,
            };
            s.tokens.clone_from(&o.tokens);
            s.stats = o.engine_stats;
            if let Some(r) = rec {
                let status = if o.terminal.is_completed() {
                    "completed"
                } else {
                    "failed"
                };
                r.request(
                    o.id,
                    s.offered_s + rec_offset,
                    finished + rec_offset,
                    status,
                );
            }
            if matches!(workload.load(), Load::Closed { .. }) {
                free.push_back(finished);
            }
        }
        harvested = gw.outcomes().len();
    }
    out.wall_s = out
        .sent
        .iter()
        .filter_map(|s| s.timing.finished_s)
        .fold(0.0, f64::max);
    out.cpu_s = cpu0.zip(crate::host::cpu_seconds()).map(|(a, b)| b - a);
    out.retries = gw.retries();
    out.prefix = gw.prefix_stats();
    out
}
