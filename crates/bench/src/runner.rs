//! The one runner every benchmark family goes through.
//!
//! * [`checked_run`] runs a [`Workload`] on any [`Stack`] — `ExtMem`,
//!   `FileStore`, `Encrypted(…)`, `Prefetching(…)` — timing the
//!   algorithm and holding it to its expected output and, when asked, to a
//!   reference run's I/O count and byte-identical access trace.
//! * [`write_json`] renders every `BENCH_*.json` document and
//!   [`render_table`] every terminal table, so their formats live in one
//!   place.
//! * A [`Family`] lists its grid, its per-point run, its JSON fields, its
//!   table columns and its gates; [`run_family`] drives any of them.

use extmem::trace::first_divergence;
use extmem::{
    AccessTrace, BackingStore, BlockStore, EncryptedStore, ExtMem, FileStore, IoStats,
    PrefetchingStore,
};
use std::fmt::{self, Debug, Display, Write as _};
use std::time::Instant;

/// One JSON value of a benchmark document.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// An unsigned integer.
    Int(u64),
    /// `true` or `false`.
    Bool(bool),
    /// A string. Any `"` is written as `'`, so no escaping is needed.
    Str(String),
    /// `null`.
    Null,
    /// A float with a fixed number of decimals.
    Float(f64, usize),
    /// An object written on one line.
    Obj(Vec<Field>),
}

/// One key/value pair of a JSON object, in document order.
pub type Field = (&'static str, Json);

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Int(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Int(v as u64)
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Self {
        Json::Int(u64::from(v))
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_owned())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Self {
        v.map_or(Json::Null, Into::into)
    }
}

impl Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Int(v) => write!(f, "{v}"),
            Json::Bool(v) => write!(f, "{v}"),
            Json::Str(s) => write!(f, "\"{}\"", s.replace('"', "'")),
            Json::Null => f.write_str("null"),
            Json::Float(v, decimals) => write!(f, "{v:.decimals$}"),
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    let sep = if i == 0 { "" } else { ", " };
                    write!(f, "{sep}\"{k}\": {v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Renders a benchmark document: the `header` fields, then `list_key`
/// holding one object per row, two-space indented (hand-rolled; the
/// workspace deliberately has no external dependencies).
pub fn write_json(header: &[Field], list_key: &str, rows: &[Vec<Field>]) -> String {
    let mut s = String::from("{\n");
    for (k, v) in header {
        let _ = writeln!(s, "  \"{k}\": {v},");
    }
    let _ = writeln!(s, "  \"{list_key}\": [");
    for (i, row) in rows.iter().enumerate() {
        s.push_str("    {\n");
        for (j, (k, v)) in row.iter().enumerate() {
            let comma = if j + 1 < row.len() { "," } else { "" };
            let _ = writeln!(s, "      \"{k}\": {v}{comma}");
        }
        s.push_str(if i + 1 < rows.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    s.push_str("  ]\n}\n");
    s
}

/// One table column: header, right-aligned width, and the cell of a row.
pub type Column<R> = (&'static str, usize, fn(&R) -> String);

/// Renders a header line plus one line per row, cells right-aligned and
/// separated by one space.
pub fn render_table<R>(columns: &[Column<R>], rows: &[R]) -> String {
    let line = |cells: Vec<String>| {
        let padded: Vec<String> = columns
            .iter()
            .zip(cells)
            .map(|((_, width, _), cell)| format!("{cell:>width$}"))
            .collect();
        padded.join(" ") + "\n"
    };
    let mut s = line(columns.iter().map(|(h, _, _)| h.to_string()).collect());
    for r in rows {
        s += &line(columns.iter().map(|(_, _, cell)| cell(r)).collect());
    }
    s
}

/// Runs `f` once and returns its result plus the elapsed wall-clock
/// nanoseconds (saturated into `u64`, which holds ~584 years).
pub(crate) fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = Instant::now();
    let out = f();
    let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    (out, ns)
}

/// A store stack the runner can trace and drain: the in-memory and file
/// backends and every wrapper the benchmarks put on them.
pub trait Stack: BlockStore {
    /// Starts recording the server-visible access trace.
    fn enable_trace(&mut self);

    /// Stops recording and returns the trace.
    fn take_trace(&mut self) -> AccessTrace;

    /// Lands buffered writes: after setup, so the input is in place before
    /// the clock starts, and inside the timed region after the run, since
    /// durability is part of its cost. Most stores buffer nothing.
    fn flush(&mut self) {}
}

impl Stack for ExtMem {
    fn enable_trace(&mut self) {
        ExtMem::enable_trace(self);
    }

    fn take_trace(&mut self) -> AccessTrace {
        ExtMem::take_trace(self).expect("tracing was enabled")
    }
}

impl Stack for FileStore {
    fn enable_trace(&mut self) {
        FileStore::enable_trace(self);
    }

    fn take_trace(&mut self) -> AccessTrace {
        FileStore::take_trace(self).expect("tracing was enabled")
    }
}

impl<S: BackingStore> Stack for EncryptedStore<S> {
    fn enable_trace(&mut self) {
        EncryptedStore::enable_trace(self);
    }

    fn take_trace(&mut self) -> AccessTrace {
        EncryptedStore::take_trace(self).expect("tracing was enabled")
    }
}

/// The trace is the *logical* one, in the algorithm's request order: it
/// must match the same run over a non-prefetching store byte for byte.
impl<S: BlockStore> Stack for PrefetchingStore<S> {
    fn enable_trace(&mut self) {
        PrefetchingStore::enable_trace(self);
    }

    fn take_trace(&mut self) -> AccessTrace {
        PrefetchingStore::take_trace(self).expect("tracing was enabled")
    }

    fn flush(&mut self) {
        self.flush_writes()
            .unwrap_or_else(|e| panic!("write-behind flush failed: {e}"));
    }
}

/// One benchmarked job: an input, an algorithm that runs on any store, and
/// the output every run must produce.
pub trait Workload {
    /// What [`setup`](Workload::setup) leaves for the run: the input's array
    /// handle, or an ORAM client.
    type Input;
    /// What the algorithm returns (its structural report).
    type Report;
    /// What a run is checked by.
    type Output: PartialEq + Debug;

    /// Places the input on a fresh store (untimed, untraced).
    fn setup<S: BlockStore>(&self, store: &mut S) -> Self::Input;

    /// The timed run.
    fn run<S: BlockStore>(&self, store: &mut S, input: &mut Self::Input) -> Self::Report;

    /// Reads the result back after the run (untimed).
    fn output<S: BlockStore>(
        &self,
        store: &mut S,
        input: &Self::Input,
        report: &Self::Report,
    ) -> Self::Output;

    /// The output every run must produce.
    fn expected(&self) -> &Self::Output;
}

/// One finished [`checked_run`].
pub struct Run<W: Workload> {
    /// What setup placed on the store (the ORAM client keeps its state here).
    pub input: W::Input,
    /// The algorithm's report.
    pub report: W::Report,
    /// Block I/Os of the run.
    pub io: IoStats,
    /// Wall-clock nanoseconds of the run, write-behind flush included.
    pub ns: u64,
    /// The server-visible access trace, unless the run was untraced.
    pub trace: Option<AccessTrace>,
}

/// What a [`checked_run`] is held to besides its expected output.
pub enum Check<'a, W: Workload> {
    /// Nothing more. Tracing stays off, so no recorder is timed.
    Untraced,
    /// Record the trace: this run is the reference for others.
    Reference,
    /// The I/O count and the trace must equal the reference run's.
    Parity(&'a Run<W>),
}

impl<W: Workload> Clone for Check<'_, W> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<W: Workload> Copy for Check<'_, W> {}

/// Sets `w` up on `store`, times its run (plus the store's write-behind
/// flush), and asserts the output; under [`Check::Parity`] it also asserts
/// the I/O count and a byte-identical trace. `what` names the job in panic
/// messages (the store type is appended). Panics on any mismatch: a
/// benchmark of a wrong run is meaningless.
pub fn checked_run<W: Workload, S: Stack>(
    w: &W,
    mut store: S,
    check: Check<'_, W>,
    what: &str,
) -> Run<W> {
    let what = format!("{what} over {}", std::any::type_name::<S>());
    let mut input = w.setup(&mut store);
    store.flush();
    let traced = !matches!(check, Check::Untraced);
    if traced {
        store.enable_trace();
    }
    let before = store.io_stats();
    let (report, ns) = timed(|| {
        let report = w.run(&mut store, &mut input);
        store.flush();
        report
    });
    let io = store.io_stats() - before;
    let trace = traced.then(|| store.take_trace());
    assert_eq!(
        &w.output(&mut store, &input, &report),
        w.expected(),
        "{what}: wrong output"
    );
    if let Check::Parity(reference) = check {
        assert_eq!(
            io, reference.io,
            "{what}: I/O count differs from the reference run"
        );
        let got = trace.as_ref().expect("a parity run is traced");
        let want = reference
            .trace
            .as_ref()
            .expect("the reference run was traced");
        assert!(
            got == want,
            "{what}: access trace differs from the reference run at event {:?}",
            first_divergence(got, want)
        );
    }
    Run {
        input,
        report,
        io,
        ns,
        trace,
    }
}

/// A tempdir-backed block file with `b`-element blocks.
pub(crate) fn temp_file(b: usize) -> FileStore {
    FileStore::temp(b).expect("tempdir-backed block file")
}

/// A fresh block file under the re-encrypting store with secret `key`.
pub(crate) fn encrypted_file(b: usize, key: u64) -> EncryptedStore<FileStore> {
    EncryptedStore::with_backing(temp_file(b), key)
}

/// [`checked_run`] over the re-encrypting store, in parity with `reference`:
/// backed by a block file when `on_file`, by `ExtMem` otherwise.
pub(crate) fn encrypted_run<W: Workload>(
    w: &W,
    b: usize,
    key: u64,
    on_file: bool,
    reference: &Run<W>,
    what: &str,
) -> Run<W> {
    let check = Check::Parity(reference);
    if on_file {
        checked_run(w, encrypted_file(b, key), check, what)
    } else {
        checked_run(w, EncryptedStore::new(b, key), check, what)
    }
}

/// One line of a family's verdict, in print order.
#[derive(Clone, Debug, PartialEq)]
pub enum Verdict {
    /// A headline figure (stdout).
    Headline(String),
    /// A failed gate (stderr; the run exits nonzero).
    Violation(String),
    /// A failed wall-clock gate: a violation, unless wall-clock gating is
    /// off (shared runners have noisy clocks).
    WallClock(String),
}

impl Verdict {
    /// A [`Verdict::Violation`] with message `msg`, unless the gate `ok`
    /// holds.
    pub fn unless(ok: bool, msg: String) -> Option<Verdict> {
        (!ok).then_some(Verdict::Violation(msg))
    }
}

/// A benchmark family: one grid, one per-point run, one JSON document, one
/// table and one set of gates.
pub trait Family {
    /// A grid point.
    type Point: Copy + Display;
    /// One JSON row.
    type Result: 'static;
    /// The subcommand, and the `BENCH_<NAME>.json` stem.
    const NAME: &'static str;
    /// What each point runs, for the progress line.
    const RUNS: &'static str;
    /// The key of the JSON row list.
    const LIST_KEY: &'static str = "points";
    /// The terminal table's columns.
    const COLUMNS: &'static [Column<Self::Result>];

    /// The points measured (the CI smoke grid when `smoke`).
    fn grid(smoke: bool) -> Vec<Self::Point>;
    /// Measures one point (one row per result).
    fn run(point: Self::Point) -> Vec<Self::Result>;
    /// The document's header fields.
    fn header() -> Vec<Field>;
    /// One result's JSON fields.
    fn row(r: &Self::Result) -> Vec<Field>;
    /// Gate violations and headline figures over all results.
    fn gates(results: &[Self::Result]) -> Vec<Verdict>;
}

/// The family's JSON document over `results`.
pub fn family_json<F: Family>(results: &[F::Result]) -> String {
    let rows: Vec<Vec<Field>> = results.iter().map(F::row).collect();
    write_json(&F::header(), F::LIST_KEY, &rows)
}

/// What one family run leaves for the caller to print and write.
pub struct Outcome {
    /// The terminal table.
    pub table: String,
    /// The `BENCH_*.json` document.
    pub json: String,
    /// Gate violations and headline figures.
    pub verdicts: Vec<Verdict>,
}

/// A family's entry point: [`run_family`] instantiated for it, taking the
/// `smoke` switch.
pub type FamilyFn = fn(bool) -> Outcome;

/// Measures every point of `F`'s grid (the smoke grid when `smoke`),
/// logging progress to stderr, and renders the results.
pub fn run_family<F: Family>(smoke: bool) -> Outcome {
    let mut results = Vec::new();
    for point in F::grid(smoke) {
        eprintln!("{}: measuring {point} {}...", F::NAME, F::RUNS);
        results.extend(F::run(point));
    }
    Outcome {
        table: render_table(F::COLUMNS, &results),
        json: family_json::<F>(&results),
        verdicts: F::gates(&results),
    }
}

/// Formats nanoseconds as milliseconds with one decimal, `"-"` for a timing
/// that was not measured.
pub(crate) fn fmt_ms(ns: Option<u64>) -> String {
    ns.map_or_else(|| "-".into(), |ns| format!("{:.1}", ns as f64 / 1e6))
}

/// A table cell: the value, or `"-"` when absent.
pub(crate) fn dash<T: Display>(v: Option<T>) -> String {
    v.map_or_else(|| "-".into(), |v| v.to_string())
}

/// The table's `ok` cell.
pub(crate) fn yes_no(ok: bool) -> String {
    (if ok { "yes" } else { "NO" }).into()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The golden document: every value kind, a nested one-line object, both
    /// float precisions, a quoted string and the last-row/last-field
    /// comma rules, against a literal.
    #[test]
    fn json_writer_matches_the_golden_document() {
        let header = vec![
            ("benchmark", "golden".into()),
            ("bound_constant", 4u64.into()),
        ];
        let rows = vec![
            vec![
                ("n", 256usize.into()),
                (
                    "elapsed_ns",
                    Json::Obj(vec![("extmem", 1u64.into()), ("file", 2u64.into())]),
                ),
                ("speedup_vs_naive", Json::Float(8.137, 2)),
                ("overhead_vs_plain", Json::Float(-0.05, 4)),
                ("run_error", "block \"7\" failed".into()),
                ("within_bound", true.into()),
            ],
            vec![("naive_total", Json::from(None::<u64>))],
        ];
        let expected = r#"{
  "benchmark": "golden",
  "bound_constant": 4,
  "rows": [
    {
      "n": 256,
      "elapsed_ns": {"extmem": 1, "file": 2},
      "speedup_vs_naive": 8.14,
      "overhead_vs_plain": -0.0500,
      "run_error": "block '7' failed",
      "within_bound": true
    },
    {
      "naive_total": null
    }
  ]
}
"#;
        assert_eq!(write_json(&header, "rows", &rows), expected);
    }

    #[test]
    fn table_cells_are_right_aligned_under_their_headers() {
        let columns: [Column<(u64, bool)>; 2] =
            [("N", 6, |r| r.0.to_string()), ("ok", 4, |r| yes_no(r.1))];
        assert_eq!(
            render_table(&columns, &[(4096, true), (8, false)]),
            "     N   ok\n  4096  yes\n     8   NO\n"
        );
    }
}
