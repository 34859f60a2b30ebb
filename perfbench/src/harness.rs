//! The closed-loop load generator shared by every workload: an in-process
//! daemon served over its UNIX socket, caller threads that run warm-up and
//! timed phases in lockstep, and metric snapshots taken around each timed
//! phase.

use crate::probes::{self, KitFacts, ProbeKit, ProbeState};
use crate::trace::Tracer;
use puddled::{Daemon, DaemonConfig, UdsServer};
use puddles::PuddleClient;
use puddles_proto::{DaemonStats, MetricsReport};
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::Instant;

/// A daemon in this process, served on a UNIX socket, and one client
/// connected through that socket. Dropping it stops both and deletes the
/// daemon's directory.
pub struct Home {
    client: Option<PuddleClient>,
    server: Option<UdsServer>,
    daemon: Option<Daemon>,
    dir: PathBuf,
}

impl Home {
    pub fn start(dir: &Path) -> Result<Home, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let daemon = Daemon::start(DaemonConfig::for_testing(dir.join("pm")))
            .map_err(|e| format!("daemon start: {e:?}"))?;
        // Relative to the working directory: a socket path must stay under
        // 108 bytes however deep the checkout is.
        let socket = dir.join("d.sock");
        let server = UdsServer::start(daemon.clone(), &socket).map_err(|e| format!("uds: {e}"))?;
        let client = PuddleClient::connect_uds_shared(&socket, daemon.global_space())
            .map_err(|e| format!("connect: {e}"))?;
        Ok(Home {
            client: Some(client),
            server: Some(server),
            daemon: Some(daemon),
            dir: dir.to_path_buf(),
        })
    }

    pub fn client(&self) -> &PuddleClient {
        self.client.as_ref().expect("client lives until drop")
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Daemon metrics and this client's local counters, now.
    pub fn snap(&self) -> Snap {
        Snap {
            daemon: self.client().metrics().unwrap_or_default(),
            client: self.client().client_metrics(),
            stats: self.client().stats().unwrap_or_default(),
        }
    }
}

impl Drop for Home {
    fn drop(&mut self) {
        // Client before server before daemon, so no call is left hanging.
        self.client.take();
        self.server.take();
        self.daemon.take();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A directory deleted when the guard drops.
pub struct DirGuard(pub PathBuf);

impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs `setup` `reps` times, keeping the last result; returns it with
/// every set-up's wall time in seconds.
pub fn repeat_setup<S>(
    reps: usize,
    mut setup: impl FnMut(usize) -> Result<S, String>,
) -> Result<(S, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for rep in 0..reps.max(1) {
        drop(kept.take());
        let t0 = Instant::now();
        let s = setup(rep)?;
        times.push(t0.elapsed().as_secs_f64());
        kept = Some(s);
    }
    Ok((kept.expect("at least one set-up"), times))
}

pub struct Snap {
    pub daemon: MetricsReport,
    pub client: MetricsReport,
    pub stats: DaemonStats,
}

/// One run's settings, shared by every workload.
pub struct Cfg {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Small inputs, for the smoke tests.
    pub tiny: bool,
    /// Directory for this run's daemons.
    pub dir: PathBuf,
}

impl Cfg {
    /// Length of one slice of a timed window; every end-to-end metric but
    /// `setup_s` is a trimmed mean over slices (see `report::end_to_end`).
    pub fn slice_s(&self) -> f64 {
        if self.tiny {
            0.1
        } else {
            1.0
        }
    }

    /// Warm-up, then the measured window. A traced run splits its time
    /// into an untraced half (the overhead baseline) and a traced half.
    pub fn phases(&self, warmup: u64) -> Vec<Phase> {
        let slice = self.slice_s();
        let window = |seconds, traced| Phase::Window {
            seconds,
            slice,
            traced,
        };
        if self.traced {
            vec![
                Phase::Warmup(warmup),
                window(self.seconds / 2.0, false),
                window(self.seconds / 2.0, true),
            ]
        } else {
            vec![Phase::Warmup(warmup), window(self.seconds, false)]
        }
    }

    /// The probe kit, in traced runs only.
    pub fn kit(&self, home: &Home) -> Result<Option<ProbeKit>, String> {
        if !self.traced {
            return Ok(None);
        }
        ProbeKit::setup(home.client(), home.dir())
            .map(Some)
            .map_err(|e| format!("probe kit: {e}"))
    }
}

/// What a workload run hands back for reporting.
pub struct Ran {
    pub setup_s: Vec<f64>,
    pub driven: Driven,
    /// Output checks made after the timed windows.
    pub post_errors: Vec<String>,
    pub kit_facts: Option<KitFacts>,
}

/// The two op classes a workload reports latency for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Class {
    A,
    B,
}

/// Which latency samples a successful op contributes.
pub enum Timing {
    /// The whole op's latency, as one sample of the class.
    Whole(Class),
    /// One sample of each class, timed by the worker: [A, B] in ns.
    Parts([u64; 2]),
}

pub enum Outcome {
    Ok(Timing),
    /// The system returned an error.
    Failed(String),
    /// The system returned a wrong value.
    Wrong(String),
}

/// One caller thread's workload: runs the next op from its pre-generated
/// inputs, placing spans around each call into the system.
pub trait Worker: Send {
    fn op(&mut self, t: &mut Tracer) -> Outcome;
}

pub enum Phase {
    Warmup(u64),
    Window {
        seconds: f64,
        /// Slice length in seconds (see [`Cfg::slice_s`]).
        slice: f64,
        traced: bool,
    },
}

/// What one thread did in one slice of a timed window; ops are placed by
/// their start time.
#[derive(Default, Clone)]
pub struct Slice {
    /// Ops completed correctly.
    pub ok: u64,
    /// Correct ops per second over the time from this slice's first op
    /// start to the next slice's (or the window's end); summed over
    /// threads once merged.
    pub rate: f64,
    /// Start of the slice's first op, in ns from the window start.
    first_ns: u64,
    pub a: Vec<u64>,
    pub b: Vec<u64>,
}

#[derive(Default)]
pub struct ThreadPhase {
    pub ops: u64,
    /// Slices of a timed window, in order; empty in warm-up.
    pub slices: Vec<Slice>,
    /// Ops the system failed with an error, or answered wrongly.
    pub failed: u64,
    pub wrong: u64,
    pub first_errors: Vec<String>,
    /// Probe calls made, those that failed, and the time spent in them.
    pub probe_calls: u64,
    pub probe_failed: u64,
    pub probe_ns: u64,
}

pub struct PhaseResult {
    pub elapsed: f64,
    /// Slice length in seconds; 0 in warm-up.
    pub slice_s: f64,
    pub threads: Vec<ThreadPhase>,
    /// Snapshots around timed phases.
    pub before: Option<Snap>,
    pub after: Option<Snap>,
}

impl PhaseResult {
    pub fn ops(&self) -> u64 {
        self.threads.iter().map(|t| t.ops).sum()
    }

    /// Ops completed correctly per second.
    pub fn ops_per_s(&self) -> f64 {
        let done: u64 = self
            .threads
            .iter()
            .map(|t| t.ops - t.failed - t.wrong)
            .sum();
        done as f64 / self.elapsed
    }

    /// Throughput with each thread's probe time taken out of its window.
    pub fn ops_per_s_without_probes(&self) -> f64 {
        self.threads
            .iter()
            .map(|t| {
                (t.ops - t.failed - t.wrong) as f64 / (self.elapsed - t.probe_ns as f64 * 1e-9)
            })
            .sum()
    }

    pub fn samples(&self, class: Class) -> Vec<u64> {
        self.slices()
            .into_iter()
            .flat_map(|s| s.take(class))
            .collect()
    }

    /// Every thread's slices merged by index. A trailing slice cut short
    /// by the deadline is left out.
    pub fn slices(&self) -> Vec<Slice> {
        let full = if self.slice_s > 0.0 {
            (self.elapsed / self.slice_s + 1e-6).floor() as usize
        } else {
            0
        };
        let mut out = vec![Slice::default(); full];
        for t in &self.threads {
            for (merged, s) in out.iter_mut().zip(&t.slices) {
                merged.ok += s.ok;
                merged.rate += s.rate;
                merged.a.extend_from_slice(&s.a);
                merged.b.extend_from_slice(&s.b);
            }
        }
        out
    }
}

impl Slice {
    fn take(self, class: Class) -> Vec<u64> {
        match class {
            Class::A => self.a,
            Class::B => self.b,
        }
    }

    pub fn samples(&self, class: Class) -> &[u64] {
        match class {
            Class::A => &self.a,
            Class::B => &self.b,
        }
    }
}

pub struct Driven {
    pub phases: Vec<PhaseResult>,
    pub tracers: Vec<Tracer>,
}

/// Runs every phase on one thread per worker, in lockstep: all threads
/// start a phase together, and `snap` is taken between phases while no
/// thread runs.
pub fn drive<W: Worker>(
    workers: &mut [W],
    phases: &[Phase],
    kit: Option<&ProbeKit>,
    snap: impl Fn() -> Snap,
) -> Driven {
    let n = workers.len();
    let barrier = Barrier::new(n + 1);
    let epoch = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = workers
            .iter_mut()
            .enumerate()
            .map(|(i, w)| {
                let barrier = &barrier;
                s.spawn(move || caller(i, w, phases, kit, barrier, epoch))
            })
            .collect();
        let mut results = Vec::with_capacity(phases.len());
        for phase in phases {
            let timed = matches!(phase, Phase::Window { .. });
            let before = timed.then(&snap);
            barrier.wait();
            let t0 = Instant::now();
            barrier.wait();
            let elapsed = t0.elapsed().as_secs_f64();
            let after = timed.then(&snap);
            let slice_s = match *phase {
                Phase::Window { slice, .. } => slice,
                Phase::Warmup(_) => 0.0,
            };
            results.push(PhaseResult {
                elapsed,
                slice_s,
                threads: Vec::new(),
                before,
                after,
            });
        }
        let mut tracers = Vec::with_capacity(n);
        for h in handles {
            let (per_phase, tracer) = h.join().expect("caller thread panicked");
            for (r, tp) in results.iter_mut().zip(per_phase) {
                r.threads.push(tp);
            }
            tracers.push(tracer);
        }
        Driven {
            phases: results,
            tracers,
        }
    })
}

fn caller<W: Worker>(
    thread: usize,
    w: &mut W,
    phases: &[Phase],
    kit: Option<&ProbeKit>,
    barrier: &Barrier,
    epoch: Instant,
) -> (Vec<ThreadPhase>, Tracer) {
    let mut tracer = Tracer::new(false, epoch, thread as u32);
    let mut probes = kit.map(|_| ProbeState::new(thread));
    let mut out = Vec::with_capacity(phases.len());
    for phase in phases {
        barrier.wait();
        let mut tp = ThreadPhase::default();
        match *phase {
            Phase::Warmup(ops) => {
                for _ in 0..ops {
                    record(&mut tp, w.op(&mut tracer), None);
                }
                // One of every probe, so lazily created state (thread logs,
                // the second pooled connection) exists before timing.
                if let (Some(kit), Some(st)) = (kit, probes.as_mut()) {
                    for k in 0..probes::LIGHT_KINDS {
                        note(&mut tp, kit.light(st, &mut tracer, k));
                    }
                    if thread == 0 {
                        for k in 0..3 {
                            note(&mut tp, kit.heavy(st, &mut tracer, k));
                        }
                    }
                }
            }
            Phase::Window {
                seconds,
                slice,
                traced,
            } => {
                tracer = Tracer::new(traced, epoch, thread as u32);
                let start = Instant::now();
                let deadline = start + std::time::Duration::from_secs_f64(seconds);
                let slice_ns = (slice * 1e9) as u128;
                if let Some(st) = probes.as_mut() {
                    st.last_light = start;
                    st.next_heavy = start + probes::HEAVY_EVERY;
                }
                loop {
                    let t0 = Instant::now();
                    if t0 >= deadline {
                        break;
                    }
                    let outcome = w.op(&mut tracer);
                    let latency = t0.elapsed().as_nanos() as u64;
                    let at = (t0 - start).as_nanos();
                    let index = (at / slice_ns) as usize;
                    if tp.slices.len() <= index {
                        let first_ns = at as u64;
                        tp.slices.resize(
                            index + 1,
                            Slice {
                                first_ns,
                                ..Slice::default()
                            },
                        );
                    }
                    record(&mut tp, outcome, Some((index, latency)));
                    if let (true, Some(kit), Some(st)) = (traced, kit, probes.as_mut()) {
                        run_probes(thread, kit, st, &mut tracer, &mut tp);
                    }
                }
                let end = start.elapsed().as_nanos() as u64;
                let mut next = end;
                for s in tp.slices.iter_mut().rev() {
                    let span = next.saturating_sub(s.first_ns);
                    s.rate = if span > 0 {
                        s.ok as f64 * 1e9 / span as f64
                    } else {
                        0.0
                    };
                    next = s.first_ns;
                }
            }
        }
        out.push(tp);
        barrier.wait();
    }
    (out, tracer)
}

/// Runs the light probes now due (one per [`probes::LIGHT_EVERY_OPS`] ops,
/// or one per [`probes::LIGHT_EVERY`] elapsed, up to one full rotation)
/// and, on thread 0, a heavy probe when one is due.
fn run_probes(
    thread: usize,
    kit: &ProbeKit,
    st: &mut ProbeState,
    tracer: &mut Tracer,
    tp: &mut ThreadPhase,
) {
    st.ops_since_light += 1;
    let now = Instant::now();
    let by_time = (now - st.last_light).as_nanos() / probes::LIGHT_EVERY.as_nanos();
    let due = (st.ops_since_light / probes::LIGHT_EVERY_OPS)
        .max(by_time as u64)
        .min(probes::LIGHT_KINDS as u64);
    for _ in 0..due {
        let k = st.light_next;
        st.light_next = (k + 1) % probes::LIGHT_KINDS;
        note(tp, kit.light(st, tracer, k));
    }
    if due > 0 {
        st.ops_since_light = 0;
        st.last_light = Instant::now();
    }
    if thread == 0 && Instant::now() >= st.next_heavy {
        let k = st.heavy_next;
        st.heavy_next += 1;
        note(tp, kit.heavy(st, tracer, k));
        st.next_heavy = Instant::now() + probes::HEAVY_EVERY;
    }
    tp.probe_ns += now.elapsed().as_nanos() as u64;
}

/// Counts one op; `timed` is its slice and latency in a timed window.
fn record(tp: &mut ThreadPhase, outcome: Outcome, timed: Option<(usize, u64)>) {
    tp.ops += 1;
    match outcome {
        Outcome::Ok(timing) => {
            if let Some((index, ns)) = timed {
                let s = &mut tp.slices[index];
                s.ok += 1;
                match timing {
                    Timing::Whole(Class::A) => s.a.push(ns),
                    Timing::Whole(Class::B) => s.b.push(ns),
                    Timing::Parts([a, b]) => {
                        s.a.push(a);
                        s.b.push(b);
                    }
                }
            }
        }
        Outcome::Failed(e) => {
            tp.failed += 1;
            keep(tp, e);
        }
        Outcome::Wrong(e) => {
            tp.wrong += 1;
            keep(tp, e);
        }
    }
}

fn note(tp: &mut ThreadPhase, r: puddles::Result<()>) {
    tp.probe_calls += 1;
    if let Err(e) = r {
        tp.probe_failed += 1;
        keep(tp, format!("probe: {e}"));
    }
}

fn keep(tp: &mut ThreadPhase, e: String) {
    if tp.first_errors.len() < 5 {
        tp.first_errors.push(e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slice(ok: u64, rate: f64, a: &[u64]) -> Slice {
        Slice {
            ok,
            rate,
            a: a.to_vec(),
            ..Slice::default()
        }
    }

    #[test]
    fn slices_merge_across_threads_and_drop_the_cut_tail() {
        let thread = |slices| ThreadPhase {
            slices,
            ..ThreadPhase::default()
        };
        let window = PhaseResult {
            elapsed: 2.004,
            slice_s: 1.0,
            threads: vec![
                thread(vec![
                    slice(2, 2.0, &[5, 6]),
                    slice(1, 1.0, &[7]),
                    slice(1, 9.0, &[1]),
                ]),
                thread(vec![slice(3, 3.0, &[8])]),
            ],
            before: None,
            after: None,
        };
        let s = window.slices();
        assert_eq!(s.len(), 2, "the slice begun at 2.0 s is cut short");
        assert_eq!(
            (s[0].ok, s[0].rate, s[0].a.clone()),
            (5, 5.0, vec![5, 6, 8])
        );
        assert_eq!((s[1].ok, s[1].rate, s[1].a.clone()), (1, 1.0, vec![7]));
        assert_eq!(window.samples(Class::A), vec![5, 6, 8, 7]);
    }
}
