//! Turns a workload run into metrics: the end-to-end set from the
//! untraced window, the per-layer set from the traced one, and the
//! machine-readable result line.

use crate::harness::{Class, PhaseResult, Ran, Slice};
use crate::host::{json_str, Host};
use crate::probes::{BATCH, KINDS, SHIP_VARS};
use crate::stats::{self, MetricsDiff, Summary};
use crate::trace;
use std::io::Write;
use std::path::Path;

/// End-to-end metric names, identical for every workload. Each workload
/// has two op classes, A and B (see [`class_names`]).
pub const END_TO_END: [&str; 6] = [
    "ops_per_s",
    "setup_s",
    "a_p50_us",
    "a_p90_us",
    "b_p50_us",
    "b_p90_us",
];

/// What classes A and B are on each workload.
pub fn class_names(workload: &str) -> [&'static str; 2] {
    match workload {
        "kv_ycsb_a" => ["read", "update"],
        "pool_rpc" => ["open", "create_drop"],
        _ => ["import", "merge"],
    }
}

/// Per-layer metric names, identical for every workload: probes put each
/// layer's calls into every traced run.
#[cfg(test)]
pub fn per_layer_names() -> Vec<String> {
    let mut v: Vec<String> = [
        "core.tx.nop_p50_ns",
        "core.tx.add64_p50_ns",
        "logfmt.append64_p50_ns",
        "pmem.persist64_p50_ns",
    ]
    .map(String::from)
    .to_vec();
    v.extend(KINDS.iter().map(|k| format!("proto.codec.{k}_ns")));
    v.extend(
        [
            "transport.ping_rtt_p50_ns",
            "transport.wait_share",
            "core.client.round_trips_per_op",
            "core.client.retries",
            "core.client.reconnects",
            "core.pool.unmap_p50_ns",
        ]
        .map(String::from),
    );
    for k in KINDS {
        v.push(format!("puddled.service.{k}.mean_ns"));
        v.push(format!("puddled.service.{k}.count"));
    }
    v.extend(
        [
            "puddled.wal.flush_mean_ns",
            "puddled.wal.flushes_per_durable_op",
            "puddled.registry.checkpoints",
            "puddled.alloc.coalesce_passes",
            "puddled.importexport.bytes_per_import",
            "puddled.importexport.bytes_per_live_byte",
            "core.reloc.client_ns",
            "sensor.merge_ns_per_var",
            "trace.ops_ratio",
        ]
        .map(String::from),
    );
    v
}

pub struct Metric<N> {
    pub name: N,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value, or the base of a ratio.
    pub basis: String,
    /// End-to-end metrics: the value in each slice, whose trimmed mean it is.
    pub slices: Vec<f64>,
}

pub struct Report {
    pub workload: String,
    pub traced: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub end_to_end: Vec<Metric<&'static str>>,
    pub per_layer: Vec<Metric<String>>,
    /// Traced runs: metrics only one workload has, self times, overhead.
    pub extra: Vec<Metric<String>>,
}

/// A per-layer metric; a value with no samples behind it reads 0.
fn metric(
    name: impl Into<String>,
    value: f64,
    unit: &'static str,
    basis: String,
) -> Metric<String> {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        basis,
        slices: Vec::new(),
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

impl Report {
    pub fn new(workload: &str, cfg: &crate::harness::Cfg, ran: &Ran) -> Report {
        let phases = &ran.driven.phases;
        let mut errors: Vec<String> = phases
            .iter()
            .flat_map(|p| {
                p.threads
                    .iter()
                    .flat_map(|t| t.first_errors.iter().cloned())
            })
            .collect();
        errors.extend(ran.post_errors.iter().cloned());
        let wrong: u64 = phases
            .iter()
            .flat_map(|p| &p.threads)
            .map(|t| t.wrong)
            .sum();
        let failed = phases
            .iter()
            .flat_map(|p| &p.threads)
            .map(|t| t.failed + t.probe_failed)
            .sum();
        let attempted = phases
            .iter()
            .flat_map(|p| &p.threads)
            .map(|t| t.ops + t.probe_calls)
            .sum();
        let window = &phases[1];
        let mut rep = Report {
            workload: workload.to_string(),
            traced: cfg.traced,
            correct: wrong == 0 && ran.post_errors.is_empty(),
            attempted,
            failed,
            errors,
            end_to_end: end_to_end(workload, window, &ran.setup_s),
            per_layer: Vec::new(),
            extra: Vec::new(),
        };
        if cfg.traced {
            rep.per_layer_metrics(workload, ran);
        }
        rep
    }

    fn per_layer_metrics(&mut self, workload: &str, ran: &Ran) {
        let phases = &ran.driven.phases;
        let (untraced, traced) = (&phases[1], phases.last().expect("traced window"));
        let spans = trace::by_name(&ran.driven.tracers);
        let p50 = |name: &str| {
            spans.get(name).map_or((0.0, 0), |t| {
                (Summary::of(t.total.clone()).p50 as f64, t.total.len())
            })
        };
        let (b, a) = (
            traced.before.as_ref().expect("snapshot"),
            traced.after.as_ref().expect("snapshot"),
        );
        let d = MetricsDiff {
            before: &b.daemon,
            after: &a.daemon,
        };
        let c = MetricsDiff {
            before: &b.client,
            after: &a.client,
        };
        let mut m: Vec<Metric<String>> = Vec::new();
        let mut push = |name: &str, value: f64, unit: &'static str, basis: String| {
            m.push(metric(name, value, unit, basis))
        };
        let n = |count: usize| format!("n={count}");
        for (name, span, div) in [
            ("core.tx.nop_p50_ns", "core.tx.nop", 1),
            ("core.tx.add64_p50_ns", "core.tx.add64", 1),
            ("logfmt.append64_p50_ns", "logfmt.append64", BATCH),
            ("pmem.persist64_p50_ns", "pmem.persist64", BATCH),
        ] {
            let (v, k) = p50(span);
            push(name, v / div as f64, "ns", n(k));
        }
        for k in KINDS {
            let (v, cnt) = p50(&format!("proto.codec.{k}"));
            push(&format!("proto.codec.{k}_ns"), v, "ns", n(cnt));
        }
        let (rtt, rtt_n) = p50("core.client.ping");
        let ping_service = d.mean_ns("service.Ping").unwrap_or(0.0);
        let ping_codec = p50("proto.codec.Ping").0;
        push("transport.ping_rtt_p50_ns", rtt, "ns", n(rtt_n));
        push(
            "transport.wait_share",
            ratio(rtt - ping_service - ping_codec, rtt),
            "ratio",
            format!("(rtt {rtt:.0} - service.Ping {ping_service:.0} - codec {ping_codec:.0}) / rtt {rtt:.0} ns"),
        );
        let (trips, ops) = round_trips(untraced);
        push(
            "core.client.round_trips_per_op",
            ratio(trips as f64, ops as f64),
            "count",
            format!("{trips} daemon requests / {ops} ops, untraced window"),
        );
        push(
            "core.client.retries",
            c.counter("client.retry_attempts") as f64,
            "count",
            "traced window".into(),
        );
        push(
            "core.client.reconnects",
            c.counter("client.reconnects") as f64,
            "count",
            "traced window".into(),
        );
        let (unmap, unmap_n) = p50("core.pool.drop");
        push("core.pool.unmap_p50_ns", unmap, "ns", n(unmap_n));
        for k in KINDS {
            let series = format!("service.{k}");
            let count = d.count(&series);
            push(
                &format!("puddled.{series}.mean_ns"),
                d.mean_ns(&series).unwrap_or(0.0),
                "ns",
                n(count as usize),
            );
            push(
                &format!("puddled.{series}.count"),
                count as f64,
                "count",
                "traced window".into(),
            );
        }
        let flushes = d.count("wal.flush");
        let durable = d.count("service.CreatePool")
            + d.count("service.DropPool")
            + d.count("service.ImportPool");
        push(
            "puddled.wal.flush_mean_ns",
            d.mean_ns("wal.flush").unwrap_or(0.0),
            "ns",
            n(flushes as usize),
        );
        push(
            "puddled.wal.flushes_per_durable_op",
            ratio(flushes as f64, durable as f64),
            "count",
            format!("{flushes} flushes / {durable} CreatePool+DropPool+ImportPool"),
        );
        push(
            "puddled.registry.checkpoints",
            d.count("checkpoint") as f64,
            "count",
            "traced window".into(),
        );
        push(
            "puddled.alloc.coalesce_passes",
            d.count("alloc.coalesce") as f64,
            "count",
            "traced window".into(),
        );
        let (export, live) = ran
            .kit_facts
            .as_ref()
            .map_or((0, 0), |f| (f.export_bytes, f.live_bytes));
        push(
            "puddled.importexport.bytes_per_import",
            export as f64,
            "bytes",
            "files in one export directory".into(),
        );
        push(
            "puddled.importexport.bytes_per_live_byte",
            ratio(export as f64, live as f64),
            "ratio",
            format!("{export} exported bytes / {live} bytes of sensor variables"),
        );
        let (import, import_n) = p50("core.client.import_pool");
        let import_service = d.mean_ns("service.ImportPool").unwrap_or(0.0);
        push(
            "core.reloc.client_ns",
            import - import_service - rtt,
            "ns",
            format!("import_pool p50 {import:.0} (n={import_n}) - service.ImportPool {import_service:.0} - ping rtt {rtt:.0}"),
        );
        let (merge, merge_n) = p50("sensor.merge");
        push(
            "sensor.merge_ns_per_var",
            merge / SHIP_VARS as f64,
            "ns",
            format!("merge p50 {merge:.0} ns (n={merge_n}) / {SHIP_VARS} vars"),
        );
        let (t_ops, u_ops) = (traced.ops_per_s_without_probes(), untraced.ops_per_s());
        push(
            "trace.ops_ratio",
            ratio(t_ops, u_ops),
            "ratio",
            format!("traced {t_ops:.1} / untraced {u_ops:.1} ops/s, probe time excluded"),
        );
        self.per_layer = m;

        // Beyond the shared list: metrics of one workload, and span times.
        let mut x = Vec::new();
        if workload == "kv_ycsb_a" {
            let add = p50("core.tx.add64").0;
            let (put, put_n) = p50("datastructures.kv.put");
            x.push(metric(
                "kv.tx_share",
                ratio(add, put),
                "ratio",
                format!("core.tx.add64 p50 {add:.0} ns / kv put p50 {put:.0} ns (n={put_n})"),
            ));
            x.push(metric(
                "kv.daemon_requests_per_op",
                ratio(trips as f64, ops as f64),
                "count",
                format!("{trips} / {ops}"),
            ));
        }
        if let Some(mean) = d.mean_ns("checkpoint") {
            x.push(metric(
                "puddled.registry.checkpoint_mean_ns",
                mean,
                "ns",
                n(d.count("checkpoint") as usize),
            ));
        }
        for (name, value) in [
            (
                "core.client.reconnects_total",
                a.client.counter("client.reconnects"),
            ),
            (
                "puddled.client_reconnects_total",
                a.daemon.counter("client_reconnects"),
            ),
        ] {
            x.push(metric(
                name,
                value.unwrap_or(0) as f64,
                "count",
                "since connect, set-up included".into(),
            ));
        }
        for (name, t) in &spans {
            let total = Summary::of(t.total.clone());
            let selft = Summary::of(t.selft.clone());
            for (suffix, v) in [("p50_ns", total.p50), ("self_p50_ns", selft.p50)] {
                x.push(metric(
                    format!("span.{name}.{suffix}"),
                    v as f64,
                    "ns",
                    n(total.n),
                ));
            }
        }
        self.extra = x;
    }

    /// Prints the named metrics and the result line, and writes the result
    /// file (and, traced, the spans). Returns whether every check passed.
    pub fn emit(&self, host: &Host, out: &Path, ran: &Ran) -> std::io::Result<bool> {
        std::fs::create_dir_all(out)?;
        let stem = format!(
            "{}-seed{}-trace{}",
            self.workload,
            host.seed,
            u8::from(self.traced)
        );
        let [ca, cb] = class_names(&self.workload);
        println!("perfbench {stem}");
        println!("host {}", host.to_json());
        println!("classes a={ca} b={cb}");
        for m in &self.end_to_end {
            // Also spelled with the class's own name, e.g. read_p50_us.
            let alias = match m.name.split_once('_') {
                Some(("a", rest)) => format!("{} [{ca}_{rest}]", m.name),
                Some(("b", rest)) => format!("{} [{cb}_{rest}]", m.name),
                _ => m.name.to_string(),
            };
            println!(
                "  {:<44} {:>14.3} {:<6} {}",
                alias, m.value, m.unit, m.basis
            );
        }
        println!(
            "  {:<44} {:>14.6} {:<6} {} failed / {} attempted",
            "failed_frac",
            ratio(self.failed as f64, self.attempted as f64),
            "ratio",
            self.failed,
            self.attempted
        );
        for m in self.per_layer.iter().chain(&self.extra) {
            println!(
                "  {:<44} {:>14.3} {:<6} {}",
                m.name, m.value, m.unit, m.basis
            );
        }
        for e in &self.errors {
            println!("  error: {e}");
        }
        let mut file = std::fs::File::create(out.join(format!("{stem}.json")))?;
        writeln!(file, "{}", self.result_file(host))?;
        if self.traced {
            let spans = out.join(format!("{stem}.spans.jsonl"));
            trace::write_jsonl(&spans, &ran.driven.tracers)?;
            let dropped: u64 = ran.driven.tracers.iter().map(|t| t.dropped).sum();
            println!(
                "spans {} ({dropped} over the per-thread cap)",
                spans.display()
            );
        }
        println!("{}", self.result_line());
        Ok(self.correct)
    }

    fn metrics_json<N: AsRef<str>>(list: &[Metric<N>], with_basis: bool) -> String {
        let items: Vec<String> = list
            .iter()
            .map(|m| {
                let mut basis = String::new();
                if with_basis {
                    basis = format!(", \"basis\": {}", json_str(&m.basis));
                    if !m.slices.is_empty() {
                        let v: Vec<String> = m.slices.iter().map(|x| x.to_string()).collect();
                        basis += &format!(", \"slices\": [{}]", v.join(", "));
                    }
                }
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"{basis}}}",
                    m.name.as_ref(),
                    m.value,
                    m.unit
                )
            })
            .collect();
        format!("{{{}}}", items.join(", "))
    }

    /// The machine-readable result line (the last line of output).
    pub fn result_line(&self) -> String {
        let metrics = if self.traced {
            Self::metrics_json(&self.per_layer, false)
        } else {
            Self::metrics_json(&self.end_to_end, false)
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
            self.correct, self.attempted, self.failed
        )
    }

    fn result_file(&self, host: &Host) -> String {
        let errors: Vec<String> = self.errors.iter().map(|e| json_str(e)).collect();
        format!(
            "{{\"workload\": \"{}\", \"host\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"errors\": [{}], \"end_to_end\": {}, \"per_layer\": {}, \"extra\": {}}}",
            self.workload,
            host.to_json(),
            self.correct,
            self.attempted,
            self.failed,
            errors.join(", "),
            Self::metrics_json(&self.end_to_end, true),
            Self::metrics_json(&self.per_layer, true),
            Self::metrics_json(&self.extra, true),
        )
    }
}

/// The end-to-end metrics of a timed window. Each is the mean over the
/// window's slices of that slice's value (ops/s, or a percentile of its
/// samples), with the highest and lowest tenth of slices set aside: a
/// stall that spoils a few slices does not move it, and host slow-downs
/// that come and go count by the time they last. A median over slices
/// jumped between a slow and a fast mode of the host. The basis also gives
/// the value over the whole window.
fn end_to_end(workload: &str, window: &PhaseResult, setup_s: &[f64]) -> Vec<Metric<&'static str>> {
    let [ca, cb] = class_names(workload);
    let slices = window.slices();
    let per_slice = |f: &dyn Fn(&Slice) -> f64| -> Vec<f64> { slices.iter().map(f).collect() };
    let a = Summary::of(window.samples(Class::A));
    let b = Summary::of(window.samples(Class::B));
    let lat = |name, class: Class, whole: &Summary, p: f64| {
        let v = per_slice(&|s: &Slice| {
            let mut v = s.samples(class).to_vec();
            v.sort_unstable();
            stats::percentile(&v, p) as f64 / 1000.0
        });
        let fewest = slices
            .iter()
            .map(|s| s.samples(class).len())
            .min()
            .unwrap_or(0);
        let label = if class == Class::A { ca } else { cb };
        Metric {
            name,
            value: stats::trimmed_mean(&v, stats::SLICE_TRIM),
            unit: "us",
            basis: format!(
                "{label} trimmed mean of {} slices (fewest n={fewest}{}); whole window n={} p{p}={:.3}us p99={:.3}us, supported tail p{:?}",
                slices.len(),
                if stats::supports(fewest, p) {
                    String::new()
                } else {
                    format!(", too few for p{p}")
                },
                whole.n,
                whole.at(p) as f64 / 1000.0,
                whole.p99 as f64 / 1000.0,
                whole.tail_p,
            ),
            slices: v,
        }
    };
    let ops = per_slice(&|s: &Slice| s.rate);
    vec![
        Metric {
            name: END_TO_END[0],
            value: stats::trimmed_mean(&ops, stats::SLICE_TRIM),
            unit: "1/s",
            basis: format!(
                "trimmed mean of {} slices of {} s; whole window {} ops in {:.3} s = {:.1}/s",
                slices.len(),
                window.slice_s,
                window.ops(),
                window.elapsed,
                window.ops_per_s()
            ),
            slices: ops,
        },
        Metric {
            name: END_TO_END[1],
            value: stats::median(setup_s),
            unit: "s",
            basis: format!("median of {} set-ups {setup_s:.3?}", setup_s.len()),
            slices: Vec::new(),
        },
        lat(END_TO_END[2], Class::A, &a, 50.0),
        lat(END_TO_END[3], Class::A, &a, 90.0),
        lat(END_TO_END[4], Class::B, &b, 50.0),
        lat(END_TO_END[5], Class::B, &b, 90.0),
    ]
}

/// Daemon requests the workload made in a window: every `service.*`
/// series' growth except the benchmark's own snapshot requests.
fn round_trips(window: &PhaseResult) -> (u64, u64) {
    let (Some(b), Some(a)) = (&window.before, &window.after) else {
        return (0, window.ops());
    };
    let d = MetricsDiff {
        before: &b.daemon,
        after: &a.daemon,
    };
    let trips = a
        .daemon
        .series
        .iter()
        .filter(|s| s.name.starts_with("service."))
        .filter(|s| !matches!(s.name.as_str(), "service.GetMetrics" | "service.Stats"))
        .map(|s| d.count(&s.name))
        .sum();
    (trips, window.ops())
}
