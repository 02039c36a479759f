//! Per-layer timing through the engine's two trait seams, with nothing
//! inside the program changed.
//!
//! [`TimedLinear`] wraps every linear of the model (installed with
//! `LlamaModel::map_linears`) and times `QuantizedLinear::forward`: the
//! activation-quantization epilogue plus the fused packed GEMM.
//! [`TimedKv`] is what the engine's `CacheFactory` hands out: it wraps the
//! INT4 `QuantizedKvCache` and times appends, reads (`keys`/`values`) and
//! prefix-cache snapshots (`clone_box`/`truncate`). Both report into one
//! shared [`Recorder`], which the load generator also feeds with gateway
//! offer/tick spans and one span per request. The recorder keeps totals
//! for every call and full spans for sampled ticks, and writes the spans
//! as a Chrome trace.

use atom::{AnyLinear, QuantizedKvCache};
use atom_nn::{KvStore, LinearLayer};
use atom_tensor::Matrix;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Full linear/KV spans are kept for one tick in this many.
pub const SPAN_SAMPLE_TICKS: u64 = 16;

/// Chrome-trace lane of the load-generator thread.
const TID_LOAD: u32 = 1;
/// Chrome-trace lane shared by all pool worker threads (the pool spawns
/// scoped workers per parallel region, so they have no stable identity).
const TID_WORKERS: u32 = 2;

/// Call count and summed busy time of one operation class.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    /// Calls.
    pub calls: u64,
    /// Busy seconds, summed over threads.
    pub busy_s: f64,
}

impl Agg {
    fn add(&mut self, dur_s: f64) {
        self.calls += 1;
        self.busy_s += dur_s;
    }
}

/// Totals over a traced run.
#[derive(Debug, Clone, Default)]
pub struct Totals {
    /// Linear forwards.
    pub linear: Agg,
    /// Activation rows through the linears.
    pub linear_rows: u64,
    /// Packed weight bytes streamed: each forward reads its layer's whole
    /// packed weight once, whatever its row count.
    pub weight_bytes: u64,
    /// KV appends.
    pub kv_append: Agg,
    /// KV reads (`keys` + `values`).
    pub kv_read: Agg,
    /// Bytes of f32 K/V rows the reads materialized.
    pub kv_read_bytes: u64,
    /// Prefix-cache snapshot work (`clone_box` + `truncate`).
    pub kv_snapshot: Agg,
    /// Packed KV bytes held by live caches, and their peak.
    pub kv_packed_live: i64,
    /// Peak of `kv_packed_live`.
    pub kv_packed_peak: i64,
    /// Per tick: tick wall time not covered by any linear or KV call.
    pub residual_s: Vec<f64>,
}

#[derive(Debug)]
struct Span {
    name: &'static str,
    tid: u32,
    start_s: f64,
    dur_s: f64,
    arg: Option<(&'static str, u64)>,
}

#[derive(Debug)]
struct RequestSpan {
    id: usize,
    start_s: f64,
    end_s: f64,
    status: &'static str,
}

#[derive(Debug, Default)]
struct Inner {
    totals: Totals,
    /// Linear/KV call intervals inside the current tick.
    in_tick: Vec<(f64, f64)>,
    spans: Vec<Span>,
    requests: Vec<RequestSpan>,
}

/// Shared sink of every timed call.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    load_thread: std::thread::ThreadId,
    detail: AtomicBool,
    inner: Mutex<Inner>,
}

impl Recorder {
    /// A recorder whose clock starts now; the calling thread is the
    /// load generator.
    pub fn new() -> Arc<Self> {
        Arc::new(Recorder {
            epoch: Instant::now(),
            load_thread: std::thread::current().id(),
            detail: AtomicBool::new(false),
            inner: Mutex::new(Inner::default()),
        })
    }

    /// Seconds since the recorder was created.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn tid(&self) -> u32 {
        if std::thread::current().id() == self.load_thread {
            TID_LOAD
        } else {
            TID_WORKERS
        }
    }

    /// Records one linear/KV call.
    fn op(
        &self,
        name: &'static str,
        start_s: f64,
        end_s: f64,
        arg: Option<(&'static str, u64)>,
        f: impl FnOnce(&mut Totals),
    ) {
        let tid = self.tid();
        let mut inner = self.lock();
        f(&mut inner.totals);
        inner.in_tick.push((start_s, end_s));
        if self.detail.load(Ordering::Relaxed) {
            inner.spans.push(Span {
                name,
                tid,
                start_s,
                dur_s: end_s - start_s,
                arg,
            });
        }
    }

    /// Marks the start of gateway tick number `tick`.
    pub fn tick_begin(&self, tick: u64) {
        self.detail
            .store(tick.is_multiple_of(SPAN_SAMPLE_TICKS), Ordering::Relaxed);
        self.lock().in_tick.clear();
    }

    /// Closes the tick that ran over `[start_s, end_s]`: records its span
    /// and the wall time inside it that no linear or KV call covered.
    pub fn tick_end(&self, start_s: f64, end_s: f64) {
        let mut inner = self.lock();
        let mut iv = std::mem::take(&mut inner.in_tick);
        iv.sort_by(|a, b| a.0.total_cmp(&b.0));
        // Union of the call intervals, so calls running concurrently on
        // several pool threads are counted once in wall time.
        let mut covered = 0.0;
        let mut cur: Option<(f64, f64)> = None;
        for (s, e) in iv.drain(..) {
            let (s, e) = (s.max(start_s), e.min(end_s));
            if e <= s {
                continue;
            }
            cur = match cur {
                Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
                Some((cs, ce)) => {
                    covered += ce - cs;
                    Some((s, e))
                }
                None => Some((s, e)),
            };
        }
        if let Some((cs, ce)) = cur {
            covered += ce - cs;
        }
        inner.in_tick = iv;
        inner
            .totals
            .residual_s
            .push((end_s - start_s - covered).max(0.0));
        inner.spans.push(Span {
            name: "gateway.tick",
            tid: TID_LOAD,
            start_s,
            dur_s: end_s - start_s,
            arg: None,
        });
    }

    /// Records one `Gateway::offer` call.
    pub fn offer(&self, start_s: f64, end_s: f64, job: usize) {
        self.lock().spans.push(Span {
            name: "gateway.offer",
            tid: TID_LOAD,
            start_s,
            dur_s: end_s - start_s,
            arg: Some(("job", job as u64)),
        });
    }

    /// Records a request's life from offer to terminal under its gateway id.
    pub fn request(&self, id: usize, start_s: f64, end_s: f64, status: &'static str) {
        self.lock().requests.push(RequestSpan {
            id,
            start_s,
            end_s,
            status,
        });
    }

    /// A copy of the totals so far.
    pub fn totals(&self) -> Totals {
        self.lock().totals.clone()
    }

    /// Writes every kept span as a Chrome trace (open it in Perfetto or
    /// `chrome://tracing`). Returns the number of events written.
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<usize> {
        let inner = self.lock();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let us = |s: f64| s * 1e6;
        writeln!(out, "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
        let mut n = 0usize;
        let sep = |out: &mut std::io::BufWriter<std::fs::File>, n: &mut usize| {
            let s = if *n == 0 { "" } else { ",\n" };
            *n += 1;
            write!(out, "{s}")
        };
        for (tid, name) in [(TID_LOAD, "load generator"), (TID_WORKERS, "pool workers")] {
            sep(&mut out, &mut n)?;
            write!(
                out,
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"{name}\"}}}}"
            )?;
        }
        for s in &inner.spans {
            sep(&mut out, &mut n)?;
            write!(
                out,
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":\"{}\",\"ts\":{:.3},\"dur\":{:.3}",
                s.tid,
                s.name,
                us(s.start_s),
                us(s.dur_s)
            )?;
            match s.arg {
                Some((k, v)) => write!(out, ",\"args\":{{\"{k}\":{v}}}}}")?,
                None => write!(out, "}}")?,
            }
        }
        for r in &inner.requests {
            for (ph, ts) in [("b", r.start_s), ("e", r.end_s)] {
                sep(&mut out, &mut n)?;
                write!(
                    out,
                    "{{\"ph\":\"{ph}\",\"pid\":1,\"tid\":{TID_LOAD},\"cat\":\"request\",\"name\":\"request\",\"id\":{},\"ts\":{:.3},\"args\":{{\"gateway_id\":{},\"status\":\"{}\"}}}}",
                    r.id,
                    us(ts),
                    r.id,
                    r.status
                )?;
            }
        }
        writeln!(out, "\n]}}")?;
        out.flush()?;
        Ok(n)
    }
}

/// A linear layer that times its wrapped layer's forward.
#[derive(Debug)]
pub struct TimedLinear {
    inner: AnyLinear,
    weight_bytes: u64,
    rec: Arc<Recorder>,
}

impl TimedLinear {
    /// Wraps `inner`, reporting into `rec`; `None` unless it is an Atom
    /// integer linear, the only kind whose packed size is reported.
    pub fn new(inner: AnyLinear, rec: Arc<Recorder>) -> Option<Self> {
        let AnyLinear::Atom(q) = &inner else {
            return None;
        };
        Some(TimedLinear {
            weight_bytes: q.weight_bytes() as u64,
            inner,
            rec,
        })
    }
}

impl LinearLayer for TimedLinear {
    fn forward(&self, x: &Matrix) -> Matrix {
        let start = self.rec.now();
        let y = self.inner.forward(x);
        let end = self.rec.now();
        let rows = x.rows() as u64;
        let wb = self.weight_bytes;
        self.rec
            .op("linear", start, end, Some(("rows", rows)), |t| {
                t.linear.add(end - start);
                t.linear_rows += rows;
                t.weight_bytes += wb;
            });
        y
    }

    fn in_features(&self) -> usize {
        self.inner.in_features()
    }

    fn out_features(&self) -> usize {
        self.inner.out_features()
    }
}

/// A KV cache that times its wrapped INT4 cache and tracks the packed
/// bytes held by live caches.
#[derive(Debug)]
pub struct TimedKv {
    inner: QuantizedKvCache,
    packed: i64,
    rec: Arc<Recorder>,
}

impl TimedKv {
    /// Wraps `inner`, reporting into `rec`.
    pub fn new(inner: QuantizedKvCache, rec: Arc<Recorder>) -> Self {
        let packed = inner.packed_bytes() as i64;
        track_packed(&mut rec.lock().totals, packed);
        TimedKv { inner, packed, rec }
    }

    /// Re-reads the packed size after a mutation; returns the delta.
    fn repack(&mut self) -> i64 {
        let now = self.inner.packed_bytes() as i64;
        let delta = now - self.packed;
        self.packed = now;
        delta
    }

    fn read(&self, layer: usize, keys: bool) -> Matrix {
        let start = self.rec.now();
        let m = if keys {
            self.inner.keys(layer)
        } else {
            self.inner.values(layer)
        };
        let end = self.rec.now();
        let bytes = (m.rows() * m.cols() * 4) as u64;
        let name = if keys { "kv.keys" } else { "kv.values" };
        self.rec
            .op(name, start, end, Some(("rows", m.rows() as u64)), |t| {
                t.kv_read.add(end - start);
                t.kv_read_bytes += bytes;
            });
        m
    }
}

fn track_packed(t: &mut Totals, delta: i64) {
    t.kv_packed_live += delta;
    t.kv_packed_peak = t.kv_packed_peak.max(t.kv_packed_live);
}

impl KvStore for TimedKv {
    fn append(&mut self, layer: usize, k: &Matrix, v: &Matrix) {
        let start = self.rec.now();
        self.inner.append(layer, k, v);
        let end = self.rec.now();
        let delta = self.repack();
        self.rec.op(
            "kv.append",
            start,
            end,
            Some(("rows", k.rows() as u64)),
            |t| {
                t.kv_append.add(end - start);
                track_packed(t, delta);
            },
        );
    }

    fn keys(&self, layer: usize) -> Matrix {
        self.read(layer, true)
    }

    fn values(&self, layer: usize) -> Matrix {
        self.read(layer, false)
    }

    fn len(&self, layer: usize) -> usize {
        self.inner.len(layer)
    }

    fn clear(&mut self) {
        self.inner.clear();
        let delta = self.repack();
        track_packed(&mut self.rec.lock().totals, delta);
    }

    fn clone_box(&self) -> Box<dyn KvStore> {
        let start = self.rec.now();
        let copy = self.inner.clone();
        let end = self.rec.now();
        let boxed = Box::new(TimedKv::new(copy, Arc::clone(&self.rec)));
        self.rec.op("kv.clone_box", start, end, None, |t| {
            t.kv_snapshot.add(end - start)
        });
        boxed
    }

    fn truncate(&mut self, tokens: usize) {
        let start = self.rec.now();
        self.inner.truncate(tokens);
        let end = self.rec.now();
        let delta = self.repack();
        self.rec.op("kv.truncate", start, end, None, |t| {
            t.kv_snapshot.add(end - start);
            track_packed(t, delta);
        });
    }
}

impl Drop for TimedKv {
    fn drop(&mut self) {
        self.rec.lock().totals.kv_packed_live -= self.packed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residual_counts_overlapping_calls_once() {
        let rec = Recorder::new();
        rec.tick_begin(1);
        // Two overlapping calls (two threads) and one disjoint call.
        rec.op("linear", 1.0, 1.4, None, |_| {});
        rec.op("linear", 1.2, 1.5, None, |_| {});
        rec.op("kv.append", 1.7, 1.8, None, |_| {});
        rec.tick_end(0.9, 2.0);
        let r = rec.totals().residual_s;
        assert_eq!(r.len(), 1);
        // 1.1 s of tick, 0.6 s covered.
        assert!((r[0] - 0.5).abs() < 1e-9, "{r:?}");
    }

    #[test]
    fn kv_wrapper_tracks_packed_bytes() {
        let rec = Recorder::new();
        let mut kv = TimedKv::new(QuantizedKvCache::new(1, 8, 4, 4), Arc::clone(&rec));
        let k = Matrix::from_rows(&[&[0.5; 8], &[1.5; 8]]);
        kv.append(0, &k, &k);
        let one = rec.totals().kv_packed_live;
        assert!(one > 0);
        let snap = kv.clone_box();
        assert_eq!(rec.totals().kv_packed_live, 2 * one);
        assert_eq!(rec.totals().kv_packed_peak, 2 * one);
        drop(snap);
        drop(kv);
        assert_eq!(rec.totals().kv_packed_live, 0);
        let t = rec.totals();
        assert_eq!((t.kv_append.calls, t.kv_snapshot.calls), (1, 1));
    }
}
