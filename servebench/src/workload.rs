//! The three traffic mixes and their seeded request generators.
//!
//! Every prompt is a pure function of (workload, seed, request index), so a
//! replay of the same seed offers the same prompts in the same order. Only
//! the wall-clock timing of the offers depends on the host.

use atom_data::{ArrivalPattern, ScenarioKind, ScenarioSpec, TenantTraffic, TrafficSpec};
use atom_tensor::cast::usize_to_u16_saturating;
use atom_tensor::SeededRng;

/// Vocabulary of the zoo models.
const VOCAB: usize = 96;

/// Closed-loop jobs are generated lazily in chunks of about this many.
const CHUNK: u64 = 64;

/// One traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open loop, Poisson arrivals; 4 shared 112-token system prompts plus
    /// an 8-24 token unique suffix, 16-32 new tokens.
    ChatPrefix,
    /// Closed loop, 16 clients; 16-32 unshared prompt tokens, 128 new.
    DecodeBatch,
    /// Closed loop, 2 clients; 4 shared 960-token documents plus an 8-16
    /// token question, 64 new tokens.
    LongContext,
}

/// How requests are issued.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// Requests arrive on a schedule, whether or not earlier ones finished.
    Open {
        /// Mean arrival rate.
        per_s: f64,
    },
    /// Each client sends its next request when its previous one ends.
    Closed {
        /// Concurrent clients.
        clients: usize,
    },
}

impl Workload {
    /// All workloads, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::ChatPrefix,
        Workload::DecodeBatch,
        Workload::LongContext,
    ];

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ChatPrefix => "chat_prefix",
            Workload::DecodeBatch => "decode_batch",
            Workload::LongContext => "long_context",
        }
    }

    /// How this workload issues requests.
    pub fn load(self) -> Load {
        match self {
            Workload::ChatPrefix => Load::Open { per_s: 12.0 },
            Workload::DecodeBatch => Load::Closed { clients: 16 },
            Workload::LongContext => Load::Closed { clients: 2 },
        }
    }

    /// Prompt-suffix and generation-length bands, inclusive.
    fn tenant(self) -> TenantTraffic {
        let (prefill_range, decode_range) = match self {
            Workload::ChatPrefix => ((8, 24), (16, 32)),
            Workload::DecodeBatch => ((16, 32), (128, 128)),
            Workload::LongContext => ((8, 16), (64, 64)),
        };
        TenantTraffic {
            share: 1.0,
            prefill_range,
            decode_range,
            deadline_ticks: None,
        }
    }
}

/// One request to send.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Scheduled arrival in seconds from the start (open loop only; 0 for
    /// closed-loop jobs, which are due when their client is free).
    pub due_s: f64,
    /// Prompt token ids.
    pub prompt: Vec<u16>,
    /// Tokens to generate.
    pub max_new: usize,
}

/// The seeded job sequence of one run.
#[derive(Debug, Clone)]
pub struct Jobs {
    workload: Workload,
    seed: u64,
    jobs: Vec<Job>,
    chunks: u64,
}

impl Jobs {
    /// The jobs of `workload` for `seed`. The open loop's whole schedule
    /// over `seconds` is drawn up front; closed loops grow on demand.
    pub fn new(workload: Workload, seed: u64, seconds: f64) -> Self {
        let mut jobs = Jobs {
            workload,
            seed,
            jobs: Vec::new(),
            chunks: 0,
        };
        if let Load::Open { per_s } = workload.load() {
            // A Poisson process conditioned on its count: exactly
            // rate x window arrivals, at sorted uniform times in the window.
            // Every seed then offers the same number of requests, so the
            // offered load does not vary from run to run.
            let n = (per_s * seconds).round().max(1.0) as usize;
            let mut rng = SeededRng::new(seed ^ 0x0A11_1BE5);
            let mut due: Vec<f64> = (0..n).map(|_| rng.uniform_f32() as f64 * seconds).collect();
            due.sort_by(f64::total_cmp);
            let mut horizon = 2 * n as u64 + CHUNK;
            loop {
                let traffic = TrafficSpec {
                    base_rate_per_tick: 1.0,
                    pattern: ArrivalPattern::Steady,
                    horizon_ticks: horizon,
                    tenants: vec![workload.tenant()],
                    users_per_request: 1,
                };
                let arrivals = scenario(workload, traffic).generate(seed);
                if arrivals.len() >= n {
                    jobs.jobs = arrivals
                        .into_iter()
                        .zip(due)
                        .map(|(a, due_s)| Job {
                            due_s,
                            max_new: a.arrival.decode_tokens,
                            prompt: a.prompt,
                        })
                        .collect();
                    break;
                }
                horizon *= 2;
            }
        }
        jobs
    }

    /// Job `i`, or `None` past the end of an open-loop schedule.
    pub fn get(&mut self, i: usize) -> Option<&Job> {
        if matches!(self.workload.load(), Load::Closed { .. }) {
            while self.jobs.len() <= i {
                self.grow();
            }
        }
        self.jobs.get(i)
    }

    /// Jobs generated so far.
    pub fn generated(&self) -> &[Job] {
        &self.jobs
    }

    /// Appends one closed-loop chunk drawn from its own derived seed.
    fn grow(&mut self) {
        let chunk_seed = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(self.chunks);
        self.chunks += 1;
        let traffic = TrafficSpec {
            base_rate_per_tick: 1.0,
            pattern: ArrivalPattern::Steady,
            horizon_ticks: CHUNK,
            tenants: vec![self.workload.tenant()],
            users_per_request: 1,
        };
        match self.workload {
            Workload::DecodeBatch => {
                // Unshared prompts: uniform random tokens, so no two
                // prompts share a 16-token block and the prefix cache
                // never hits.
                let mut rng = SeededRng::new(chunk_seed ^ 0xDEC0_DE00);
                for a in traffic.generate(chunk_seed) {
                    let prompt = (0..a.prefill_tokens)
                        .map(|_| usize_to_u16_saturating(rng.below(VOCAB)))
                        .collect();
                    self.jobs.push(Job {
                        due_s: 0.0,
                        prompt,
                        max_new: a.decode_tokens,
                    });
                }
            }
            w => {
                for a in scenario(w, traffic).generate(chunk_seed) {
                    self.jobs.push(Job {
                        due_s: 0.0,
                        max_new: a.arrival.decode_tokens,
                        prompt: a.prompt,
                    });
                }
            }
        }
    }
}

/// Prompt content for the shared-prefix workloads.
fn scenario(workload: Workload, traffic: TrafficSpec) -> ScenarioSpec {
    let kind = match workload {
        Workload::LongContext => ScenarioKind::LongContext {
            documents: 4,
            document_tokens: 960,
        },
        _ => ScenarioKind::SharedPrefix {
            prefixes: 4,
            prefix_tokens: 112,
        },
    };
    ScenarioSpec { traffic, kind }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first(workload: Workload, seed: u64, n: usize) -> Vec<Job> {
        let mut jobs = Jobs::new(workload, seed, 10.0);
        (0..n).filter_map(|i| jobs.get(i).cloned()).collect()
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        for w in Workload::ALL {
            // 150 spans several closed-loop chunks; the open loop has 120.
            let a = first(w, 7, 150);
            assert!(a.len() >= 120, "{}", w.name());
            assert_eq!(a, first(w, 7, 150), "{}", w.name());
            assert_ne!(a, first(w, 8, 150), "{}", w.name());
        }
    }

    #[test]
    fn open_loop_schedule_is_poisson_with_a_fixed_count() {
        let jobs = Jobs::new(Workload::ChatPrefix, 3, 100.0);
        let due: Vec<f64> = jobs.generated().iter().map(|j| j.due_s).collect();
        assert_eq!(due.len(), 1200, "rate x window arrivals");
        assert!(due.windows(2).all(|w| w[0] <= w[1]), "sorted");
        assert!(
            due.iter().all(|&d| (0.0..100.0).contains(&d)),
            "inside the window"
        );
        // Gaps of a Poisson process are exponential: mean 1/rate, and
        // about e^-1 of them longer than the mean.
        let gaps: Vec<f64> = due.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!((mean - 1.0 / 12.0).abs() < 0.005, "mean gap {mean}");
        let long = gaps.iter().filter(|&&g| g > mean).count() as f64 / gaps.len() as f64;
        assert!(
            (long - (-1.0f64).exp()).abs() < 0.05,
            "share of long gaps {long}"
        );
    }

    #[test]
    fn prompts_have_the_specified_shapes() {
        for j in first(Workload::ChatPrefix, 1, 50) {
            assert!((112 + 8..=112 + 24).contains(&j.prompt.len()));
            assert!((16..=32).contains(&j.max_new));
        }
        for j in first(Workload::DecodeBatch, 1, 50) {
            assert!((16..=32).contains(&j.prompt.len()));
            assert_eq!(j.max_new, 128);
        }
        for j in first(Workload::LongContext, 1, 50) {
            assert!((960 + 8..=960 + 16).contains(&j.prompt.len()));
            assert_eq!(j.max_new, 64);
        }
        assert!(first(Workload::DecodeBatch, 1, 200)
            .iter()
            .flat_map(|j| j.prompt.iter())
            .all(|&t| usize::from(t) < VOCAB));
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
