//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <pipeline_mem|pipeline_secure>
//!           --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics over the library's own store
//! types; `--trace 1` runs the same work with a timing tap at every store
//! boundary, prints the per-layer metrics, and asserts that the traced run
//! leaves the same logical trace, I/O counts and outputs as the untraced one.
//! Either way the last line of standard output is one JSON object; the exit
//! code is non-zero when any output was wrong. See `perfbench/README.md`.

mod oram;
mod pipeline;
mod stack;
mod tap;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use extmem::file::CELL_BYTES;
use extmem::{ArrayHandle, BlockStore, Cell, ExtMem, RetryPolicy};
use odo_core::{try_compact, try_select_kth};

use crate::pipeline::{Input, PASSES};
use crate::stack::{LayerView, Stack, B, M};

const WORKLOADS: [&str; 2] = ["pipeline_mem", "pipeline_secure"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse().map_err(bad)?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(bad)?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace {t}: expected 0 or 1")),
    };
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10).max(1),
        trace,
    })
}

/// What a run prints: the contract's JSON fields plus human-readable notes.
#[derive(Default)]
struct Report {
    errors: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, (f64, &'static str)>,
    notes: Vec<String>,
}

impl Report {
    fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.insert(name.into(), (value, unit));
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, (v, u))| format!("\"{k}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.errors.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

// ---- statistics -----------------------------------------------------------

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `struct rusage` of Linux; only `ru_maxrss` (KiB) is read.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mb() -> f64 {
    const RUSAGE_SELF: i32 = 0;
    let mut usage = std::mem::MaybeUninit::<Rusage>::zeroed();
    // SAFETY: `usage` is a writable, properly aligned buffer the size of the
    // C `struct rusage`, which `getrusage` fills and nothing else.
    let rc = unsafe { getrusage(RUSAGE_SELF, usage.as_mut_ptr()) };
    if rc != 0 {
        return 0.0;
    }
    // SAFETY: `getrusage` returned 0, so it initialized the whole struct.
    let usage = unsafe { usage.assume_init() };
    usage.maxrss as f64 / 1024.0
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

// ---- per-layer metrics ----------------------------------------------------

/// Every per-layer metric, in print order, with its unit. A traced run prints
/// all of them; a layer a workload does not have reads 0.
fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = [
        ("prefetch.self_ns", "ns"),
        ("prefetch.hits", "count"),
        ("prefetch.misses", "count"),
        ("prefetch.steals", "count"),
        ("prefetch.waits", "count"),
        ("prefetch.invalidated", "count"),
        ("prefetch.write_spans", "count"),
        ("prefetch.hit_rate", "ratio"),
        ("auth.self_ns", "ns"),
        ("auth.reader_ns", "ns"),
        ("auth.blocks", "count"),
        ("auth.mac_ios", "count"),
        ("crypto.self_ns", "ns"),
        ("crypto.reader_ns", "ns"),
        ("crypto.blocks", "count"),
        ("file.self_ns", "ns"),
        ("file.reader_ns", "ns"),
        ("file.calls", "count"),
        ("file.span_calls", "count"),
        ("file.bytes", "bytes"),
        ("mem.self_ns", "ns"),
        ("mem.blocks", "count"),
        ("arena.reuse_rate", "ratio"),
        ("compact.external_levels", "count"),
        ("select.rounds", "count"),
        ("oram.probe_p50_us", "us"),
        ("oram.rebuilds", "count"),
        ("oram.rebuild_share", "ratio"),
        ("oram.levels", "count"),
        ("oram.stash_len", "count"),
        ("trace.overhead", "ratio"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for pass in PASSES {
        for (m, u) in [("ns", "ns"), ("ios", "count"), ("cpu_ns", "ns")] {
            names.push((format!("{pass}.{m}"), u));
        }
    }
    for j in 0..oram_levels() {
        names.push((format!("oram.rebuild_ms.L{j}"), "ms"));
    }
    names
}

/// Levels of the workload ORAM (a function of its shape alone).
fn oram_levels() -> usize {
    let mut probe = ExtMem::new(B);
    oram::Served::levels(&mut probe)
}

/// Store-layer metrics over the window between two views. Returns an error
/// for each layer whose foreground time is less than that of the layer it
/// wraps, which a misplaced tap or a call that bypasses one would cause.
fn layer_metrics(v0: &LayerView, v1: &LayerView, out: &mut BTreeMap<String, f64>) -> Vec<String> {
    let mut errors = vec![];
    let deltas: Vec<(&str, tap::LayerSnapshot)> = v1
        .taps
        .iter()
        .zip(&v0.taps)
        .map(|((name, a), (_, b))| {
            let d = tap::LayerSnapshot {
                fg_ns: a.fg_ns - b.fg_ns,
                reader_ns: a.reader_ns - b.reader_ns,
                calls: a.calls - b.calls,
                span_calls: a.span_calls - b.span_calls,
                blocks: a.blocks - b.blocks,
                ..Default::default()
            };
            (*name, d)
        })
        .collect();
    for (i, (name, d)) in deltas.iter().enumerate() {
        let below = deltas.get(i + 1).map(|(_, n)| *n).unwrap_or_default();
        let mut put = |m: &str, v: u64| {
            out.insert(format!("{name}.{m}"), v as f64);
        };
        match d.fg_ns.checked_sub(below.fg_ns) {
            Some(ns) => put("self_ns", ns),
            None => errors.push(format!(
                "{name}: {} ns in the layer below its {} ns",
                below.fg_ns, d.fg_ns
            )),
        }
        // Views are read while prefetch workers may still be inside a
        // call, having left an inner tap but not yet the outer one, so a
        // reader-time difference can dip below zero by one call; clamp it.
        put("reader_ns", d.reader_ns.saturating_sub(below.reader_ns));
        put("blocks", d.blocks);
        put("calls", d.calls);
        put("span_calls", d.span_calls);
        put("bytes", d.blocks * (B * CELL_BYTES) as u64);
    }
    let (p0, p1) = (v0.prefetch, v1.prefetch);
    let hits = p1.hits - p0.hits;
    let loads =
        hits + (p1.misses - p0.misses) + (p1.steals - p0.steals) + (p1.wb_hits - p0.wb_hits);
    for (m, v) in [
        ("hits", hits),
        ("misses", p1.misses - p0.misses),
        ("steals", p1.steals - p0.steals),
        ("waits", p1.waits - p0.waits),
        ("invalidated", p1.invalidated - p0.invalidated),
        ("write_spans", p1.write_spans - p0.write_spans),
    ] {
        out.insert(format!("prefetch.{m}"), v as f64);
    }
    out.insert(
        "prefetch.hit_rate".into(),
        if loads == 0 {
            0.0
        } else {
            hits as f64 / loads as f64
        },
    );
    out.insert(
        "auth.mac_ios".into(),
        (v1.mac_io.total() - v0.mac_io.total()) as f64,
    );
    let (a0, a1) = (v0.arena, v1.arena);
    let (reused, allocated) = (a1.reused - a0.reused, a1.allocated - a0.allocated);
    out.insert(
        "arena.reuse_rate".into(),
        if reused + allocated == 0 {
            0.0
        } else {
            reused as f64 / (reused + allocated) as f64
        },
    );
    errors
}

/// Copies the per-layer metrics into the report: the median over the traced
/// samples of each metric, 0 for a layer the workload does not have.
fn report_per_layer(report: &mut Report, samples: &[BTreeMap<String, f64>]) {
    for (name, unit) in per_layer_names() {
        let values: Vec<f64> = samples
            .iter()
            .filter_map(|s| s.get(&name).copied())
            .collect();
        report.set(name, median(&values), unit);
    }
}

// ---- pipeline workloads ---------------------------------------------------

/// Writes `cells` into a new array of `store`, through the whole stack.
fn loaded<S: Stack>(mut store: S, cells: &[Cell]) -> (S, ArrayHandle) {
    let h = store.alloc_array(cells.len());
    store
        .try_store_span(&h, 0, cells)
        .expect("an honest store accepts the input");
    (store, h)
}

/// The end-to-end run: fresh stack and input load (the set-up), one timed
/// pipeline, an oracle check, repeated until `seconds` have passed.
fn pipeline_e2e<S: Stack>(args: &Args, build: impl Fn(&[Cell]) -> (S, ArrayHandle)) -> Report {
    let mut report = Report::default();
    let input = Input::new(args.seed);
    let user_bytes = (input.sorted.len() * 16) as f64;
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let (mut setup, mut elapsed, mut server_ios, mut server_bytes) = (vec![], vec![], vec![], 0.0);
    while elapsed.len() < 3 || Instant::now() < deadline {
        let t0 = Instant::now();
        let (mut store, h) = build(&input.cells);
        setup.push(t0.elapsed().as_secs_f64());
        let run = pipeline::run(&mut store, &h, &input);
        report.attempted += run.attempted;
        report.failed += run.failed;
        if let Err(e) = pipeline::verify(&run, &input) {
            report.errors.push(e);
        }
        elapsed.push(secs(run.elapsed_ns));
        server_ios.push(run.server_blocks as f64 / pipeline::N as f64);
        server_bytes = store.server_bytes() as f64 / user_bytes;
    }
    report
        .notes
        .push(format!("{} pipeline runs", elapsed.len()));
    report.set("elems_per_s", pipeline::N as f64 / median(&elapsed), "1/s");
    report.set("server_ios_per_op", median(&server_ios), "count");
    report.set("server_bytes_per_user_byte", server_bytes, "ratio");
    report.set("setup_s", median(&setup), "s");
    report
}

/// The traced run: alternate untraced and traced pipelines over the same
/// input, assert they agree, and derive the per-layer metrics.
fn pipeline_traced<P: Stack, T: Stack>(
    args: &Args,
    plain: impl Fn(&[Cell]) -> (P, ArrayHandle),
    traced: impl Fn(&[Cell]) -> (T, ArrayHandle),
) -> Report {
    let mut report = Report::default();
    report.errors.extend(tap::check_forwarding());
    let input = Input::new(args.seed);
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let (mut samples, mut plain_s, mut traced_s) = (vec![], vec![], vec![]);
    while samples.is_empty() || Instant::now() < deadline {
        let (mut p, h) = plain(&input.cells);
        p.start_trace();
        let rp = pipeline::run(&mut p, &h, &input);
        let trace_p = p.finish_trace();
        drop(p);
        let (mut t, h) = traced(&input.cells);
        t.start_trace();
        let rt = pipeline::run(&mut t, &h, &input);
        let trace_t = t.finish_trace();
        drop(t);

        for run in [&rp, &rt] {
            report.attempted += run.attempted;
            report.failed += run.failed;
            if let Err(e) = pipeline::verify(run, &input) {
                report.errors.push(e);
            }
        }
        report.check(trace_p == trace_t, || {
            "traced and untraced runs left different logical traces".into()
        });
        report.check(rp.output == rt.output && rp.median == rt.median, || {
            "traced and untraced runs returned different outputs".into()
        });
        check_same_lower_layers(
            &mut report,
            [&rp.views.0, &rp.views.1],
            [&rt.views.0, &rt.views.1],
        );
        report.errors.extend(check_pass_ledger(&rp, &rt));

        let overhead = rt.elapsed_ns as f64 / rp.elapsed_ns as f64;
        let mut m = BTreeMap::new();
        report
            .errors
            .extend(layer_metrics(&rt.views.0, &rt.views.1, &mut m));
        let mut accounted: u64 = rt
            .views
            .1
            .taps
            .iter()
            .filter_map(|(layer, _)| m.get(&format!("{layer}.self_ns")))
            .map(|&ns| ns as u64)
            .sum();
        for (name, pass) in PASSES.iter().zip(&rt.passes) {
            m.insert(format!("{name}.ns"), pass.ns as f64);
            m.insert(format!("{name}.ios"), pass.ios as f64);
            m.insert(format!("{name}.cpu_ns"), (pass.ns - pass.store_ns) as f64);
            accounted += pass.ns - pass.store_ns;
        }
        check_time_ledger(&mut report, rt.elapsed_ns, accounted, overhead);
        m.insert("compact.external_levels".into(), rt.external_levels as f64);
        m.insert("select.rounds".into(), rt.rounds as f64);
        samples.push(m);
        plain_s.push(secs(rp.elapsed_ns));
        traced_s.push(secs(rt.elapsed_ns));
    }
    spot_check_obliviousness(&mut report, args.seed);
    report_per_layer(&mut report, &samples);
    report.set(
        "trace.overhead",
        median(&traced_s) / median(&plain_s),
        "ratio",
    );
    report
        .notes
        .push(format!("{} untraced/traced pipeline pairs", samples.len()));
    report
}

/// Below the logical trace, the layers must behave the same with and
/// without taps: the prefetch layer accepts the same read-ahead hints and
/// issues the same write-behind span writes, and the same writes reach the
/// `FileStore`. A tap that dropped `hint_blocks` or hid
/// `supports_store_runs` (which turns write-behind off) would change these
/// while leaving the logical trace intact. Reads at the bottom are not
/// compared: which blocks prefetch workers read, and in which calls,
/// depends on how they race the client thread. Their forwarding is proven
/// by [`tap::check_forwarding`] instead.
fn check_same_lower_layers(report: &mut Report, plain: [&LayerView; 2], traced: [&LayerView; 2]) {
    let lower = |[v0, v1]: [&LayerView; 2]| {
        [
            v1.prefetch.hinted - v0.prefetch.hinted,
            v1.prefetch.write_spans - v0.prefetch.write_spans,
            v1.bottom.write_calls - v0.bottom.write_calls,
            v1.bottom.write_blocks - v0.bottom.write_blocks,
        ]
    };
    let (p, t) = (lower(plain), lower(traced));
    report.check(p == t, || {
        format!(
            "[prefetch hints, write-behind spans, file write calls, file blocks written] \
             {p:?} untraced vs {t:?} traced"
        )
    });
}

/// Per-pass I/O deltas read at the top of the stack must equal the
/// library's own per-pass reports, match between the traced and untraced
/// runs, and sum exactly to the run's total at that level. The sum holds by
/// construction (no I/O is issued between passes); it guards the
/// bookkeeping, not the library.
fn check_pass_ledger(rp: &pipeline::Run, rt: &pipeline::Run) -> Vec<String> {
    let mut errors = vec![];
    for (name, (a, b)) in PASSES.iter().zip(rp.passes.iter().zip(&rt.passes)) {
        if a.ios != b.ios {
            errors.push(format!(
                "{name}: {} I/Os untraced vs {} traced",
                a.ios, b.ios
            ));
        }
        if b.ios != b.reported_ios {
            errors.push(format!(
                "{name}: {} I/Os measured vs {} reported",
                b.ios, b.reported_ios
            ));
        }
    }
    let sum: u64 = rt.passes.iter().map(|p| p.ios).sum();
    if sum != rt.ios {
        errors.push(format!("pass I/Os sum to {sum}, the run issued {}", rt.ios));
    }
    errors
}

/// Layer self times plus pass CPU times must account for the traced
/// elapsed time, up to the slack the tracing itself adds. Self times
/// telescope to the outermost tap's time, which is the sum of the passes'
/// store time, so this closes by construction once `layer_metrics` has
/// found no layer slower than the one it wraps; it guards the bookkeeping.
fn check_time_ledger(report: &mut Report, elapsed_ns: u64, accounted_ns: u64, overhead: f64) {
    let slack = (overhead - 1.0).max(0.0) * elapsed_ns as f64 + 1e6;
    report.check(
        accounted_ns <= elapsed_ns && (elapsed_ns - accounted_ns) as f64 <= slack,
        || format!("ledger accounts for {accounted_ns} of {elapsed_ns} ns"),
    );
}

/// Server traces of compaction and of selection must not depend on the
/// data: two same-shape inputs from different seeds must leave identical
/// traces over `ExtMem` at the workload shape.
fn spot_check_obliviousness(report: &mut Report, seed: u64) {
    let traces = |seed: u64| -> Result<_, odo_core::OdoError> {
        let input = Input::new(seed);
        let mut mem = ExtMem::with_trace(B);
        let h = mem.alloc_array_from_cells(&input.cells);
        let policy = RetryPolicy::default();
        try_compact(&mut mem, &h, M, policy)?;
        let compact = mem.take_trace().unwrap_or_default();
        mem.enable_trace();
        try_select_kth(&mut mem, &h, M, input.k, policy)?;
        Ok((compact, mem.take_trace().unwrap_or_default()))
    };
    match (traces(seed), traces(seed ^ 0x5EED_0B11)) {
        (Ok((c0, s0)), Ok((c1, s1))) => {
            report.check(c0 == c1, || "compaction trace depends on the data".into());
            report.check(s0 == s1, || "selection trace depends on the data".into());
        }
        (Err(e), _) | (_, Err(e)) => report.errors.push(format!("spot check failed: {e}")),
    }
    oram::spot_check(&mut report.errors, seed);
}

// ---- ORAM layer ------------------------------------------------------------

/// One untraced and one traced ORAM execution at `seed` (set-up plus one
/// cycle each), checked against each other. Returns the traced cycle's
/// per-layer metrics.
fn oram_pair(report: &mut Report, seed: u64) -> BTreeMap<String, f64> {
    let mut p = stack::plain_secure();
    let mut sp = oram::Served::new(&mut p, seed);
    let pv0 = p.view();
    p.start_trace();
    let ap = sp.serve(&mut p, oram::CYCLE);
    let pv1 = p.view();
    let trace_p = p.finish_trace();
    let io_p = p.io_stats();
    drop(p);

    let mut t = stack::traced_secure();
    let mut st = oram::Served::new(&mut t, seed);
    let v0 = t.view();
    t.start_trace();
    let at = st.serve(&mut t, oram::CYCLE);
    let v1 = t.view();
    let trace_t = t.finish_trace();
    let io_t = t.io_stats();
    let (stash, levels) = (st.oram.stash_len(), st.oram.level_count());
    drop(t);

    for s in [&sp, &st] {
        report.attempted += s.attempted;
        report.failed += s.failed;
        report.check(s.correct(), || {
            "ORAM reads disagreed with the shadow map".into()
        });
    }
    report.check(trace_p == trace_t && io_p == io_t, || {
        "traced and untraced ORAM runs left different traces or I/O counts".into()
    });
    report.check(
        ap.iter().map(|a| a.value).eq(at.iter().map(|a| a.value)),
        || "traced and untraced ORAM runs returned different values".into(),
    );
    check_same_lower_layers(report, [&pv0, &pv1], [&v0, &v1]);

    let mut m = BTreeMap::new();
    report.errors.extend(layer_metrics(&v0, &v1, &mut m));
    let access_ns: u64 = at.iter().map(|a| a.ns).sum();
    let outer = v1.taps[0].1.fg_ns - v0.taps[0].1.fg_ns;
    report.check(outer <= access_ns, || {
        format!("store time {outer} ns exceeds access time {access_ns} ns")
    });
    oram::access_metrics(&at, &mut m);
    m.insert("oram.levels".into(), levels as f64);
    m.insert("oram.stash_len".into(), stash as f64);
    m
}

/// Adds the ORAM layer's metrics to a traced run of a pipeline over the
/// same defended stack: one ORAM pair, of which only the `oram.*` metrics
/// are kept (the store-layer metrics stay the pipeline's own).
fn add_oram_layer(report: &mut Report, seed: u64) {
    let m = oram_pair(report, seed);
    for (name, unit) in per_layer_names() {
        if let Some(v) = m.get(&name).filter(|_| name.starts_with("oram.")) {
            report.set(name, *v, unit);
        }
    }
}

// ---- main -----------------------------------------------------------------

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    tap::mark_client_thread();
    extmem::install_quiet_abort_hook();
    // Block files live inside the working directory, never in the system
    // temp directory; each is deleted when its store is dropped.
    let data_dir = PathBuf::from(".perfbench-data");
    if let Err(e) = std::fs::create_dir_all(&data_dir) {
        eprintln!("perfbench: cannot create {}: {e}", data_dir.display());
        return ExitCode::from(2);
    }
    std::env::set_var(
        "TMPDIR",
        data_dir.canonicalize().unwrap_or_else(|_| data_dir.clone()),
    );

    let mut report = match (args.workload.as_str(), args.trace) {
        ("pipeline_mem", false) => pipeline_e2e(&args, |c| loaded(ExtMem::new(B), c)),
        ("pipeline_mem", true) => pipeline_traced(
            &args,
            |c| loaded(ExtMem::new(B), c),
            |c| loaded(tap::Tapped::new(ExtMem::new(B), true), c),
        ),
        ("pipeline_secure", false) => pipeline_e2e(&args, |c| loaded(stack::plain_secure(), c)),
        ("pipeline_secure", true) => {
            let mut report = pipeline_traced(
                &args,
                |c| loaded(stack::plain_secure(), c),
                |c| loaded(stack::traced_secure(), c),
            );
            add_oram_layer(&mut report, args.seed);
            report
        }
        _ => unreachable!("parse_args accepts only the listed workloads"),
    };
    if !args.trace {
        let ok = 1.0 - report.failed as f64 / report.attempted.max(1) as f64;
        report.set("ok_share", ok, "ratio");
        report.set("client_peak_rss_mb", peak_rss_mb(), "MiB");
    }
    let _ = std::fs::remove_dir(&data_dir);

    for note in &report.notes {
        eprintln!("perfbench: {note}");
    }
    for e in &report.errors {
        eprintln!("perfbench: INCORRECT: {e}");
    }
    println!("{}", report.json());
    if report.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
