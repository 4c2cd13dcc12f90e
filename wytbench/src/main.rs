//! # wytbench — the repository's benchmark
//!
//! ```sh
//! CARGO_TARGET_DIR=.bench_build cargo run --release --offline --quiet \
//!     --manifest-path wytbench/Cargo.toml -- \
//!     --workload gen-cold --seed 1 --seconds 6 --trace 0
//! ```
//!
//! One process, one closed-loop client: a job is submitted only after the
//! previous one finished. A job is one binary in and one validated image
//! out. The benchmark, not the program, takes the seed; the program only
//! sees the binaries and inputs drawn from it.
//!
//! Workloads (see `BENCHMARK.json` for why each exists):
//!
//! - `spec-cold` — a cold `wyt_core::recompile` (`Mode::Wytiwyg`) of six
//!   SPEC-shaped programs, each traced on its `trace_inputs()`;
//! - `gen-cold` — seeded `wyt_testkit::progen` programs, each through
//!   `recompile_stored` against a store that starts empty (miss, cold
//!   pipeline, put);
//! - `store-warm` — set-up fills a store cold; every measured job is a
//!   repeat submission served warm, with replay validation.
//!
//! The measured phase runs whole passes over the workload's job list,
//! in an order drawn from the seed, until the jobs' busy time reaches
//! `--seconds` (and at least [`MIN_PASSES`] passes), so every run
//! measures the same mix of jobs. Outputs are checked after each job, off
//! the clock. With `--trace 0` the result carries the end-to-end metrics;
//! with `--trace 1` the same jobs run through the staged layer calls of
//! [`staged`] and the result carries the per-layer metrics.
//!
//! `jobs_per_s` is the job count of a pass over the median pass's busy
//! time; `job_p50_ms` is the nearest-rank median of the raw per-job
//! latencies. The line before the result is a detail object: pass and
//! set-up times, p50 and p90 with their sample counts (p90 counts as
//! supported only where ten samples lie beyond it, which only `gen-cold`
//! has), the traced run's layer shares, and the job manifest (program,
//! profile, input digest).
//!
//! Deterministic metrics (cycle ratios, layout accuracy, work counts) are
//! recorded per workload, seed and executable under `.bench_work/det/`;
//! a later run of the same seed that reads a different value fails.

mod staged;
mod stats;

use staged::{Counts, Layer, Layers, LAYERS};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use wyt_core::{
    evaluate_accuracy, recompile, recompile_stored, MatchKind, Mode, Recompiled, StoredOutcome,
};
use wyt_emu::{run_image, RunResult};
use wyt_isa::image::Image;
use wyt_minicc::{compile, Profile};
use wyt_obs::Json;
use wyt_opt::OptLevel;
use wyt_store::Store;
use wyt_testkit::rng::mix;
use wyt_testkit::{progen, Rng};

/// Worker threads of the `wyt-par` pool (never more than the host has).
/// One, so that timings do not depend on how a shared host schedules a
/// second thread.
const WORKERS: usize = 1;

/// Set-ups per measured run: at least `SETUP_MIN_REPS`, then more until
/// `SETUP_MIN_S` seconds went into set-up, at most `SETUP_MAX_REPS`.
/// `setup_s` is their median. A traced run sets up once.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 9;
const SETUP_MIN_S: f64 = 2.0;

/// Fewest passes of a measured (untraced) run. Timings come from the
/// median pass, which keeps a burst of interference on a shared host
/// out of the result.
const MIN_PASSES: u64 = 3;

/// Programs in the `gen-cold` corpus.
const GEN_PROGRAMS: usize = 300;

/// Seed of the `gen-cold` corpus. The corpus is fixed and the run seed
/// draws each program's stdin bytes and the submission order: a fresh
/// 400-program draw per seed moved `jobs_per_s` by 15% between seeds,
/// more than any bound the benchmark could keep.
const GEN_CORPUS_SEED: u64 = 0x6e6e_c01d;

type ProfileFn = fn() -> Profile;

/// The SPEC-shaped programs of `spec-cold`, each under one fixed Table 1
/// profile so that every seed measures the same work: drawing profiles
/// per seed would spread a pass's time by about 30% between seeds (from
/// each program's cold time under each profile). hmmer and astar (9–21 s
/// each to recompile cold on a 2-vCPU Xeon VM, against 0.4–3 s for
/// these) and sjeng and h264ref are left out only for length.
const SPEC_COLD: [(&str, ProfileFn); 6] = [
    ("bzip2", Profile::gcc12_o3),
    ("gcc", Profile::gcc12_o0),
    ("mcf", Profile::clang16_o3),
    ("gobmk", Profile::gcc44_o3),
    ("libquantum", Profile::gcc12_o0),
    ("xalancbmk", Profile::clang16_o3),
];

/// The programs `store-warm` stores in set-up and then serves warm.
const STORE_WARM: [&str; 6] = ["bzip2", "gcc", "mcf", "gobmk", "libquantum", "xalancbmk"];

/// Environment knobs the program reads on the benchmark's paths (the
/// streaming lifter and the store's quarantine cap). They are cleared so
/// every run measures the default configuration.
const PROGRAM_ENV: [&str; 3] = ["WYT_STREAM", "WYT_STREAM_CAP", "WYT_STORE_QUARANTINE_CAP"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    SpecCold,
    GenCold,
    StoreWarm,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::SpecCold => "spec-cold",
            Workload::GenCold => "gen-cold",
            Workload::StoreWarm => "store-warm",
        }
    }

    fn parse(s: &str) -> Result<Workload, String> {
        [Workload::SpecCold, Workload::GenCold, Workload::StoreWarm]
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| format!("unknown workload {s:?}"))
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                flags.insert(flag, value);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let get = |k: &str| flags.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let seconds: u64 = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(1..=3600).contains(&seconds) {
        return Err("--seconds must be 1..=3600".into());
    }
    Ok(Args {
        workload: Workload::parse(get("--workload")?)?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: seconds as f64,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
        },
    })
}

/// One program to recompile, before compilation.
struct Source {
    program: String,
    profile: Profile,
    text: String,
    inputs: Vec<Vec<u8>>,
    measured: Vec<u8>,
}

/// One compiled job and the reference behaviour its result must match.
struct Job {
    program: String,
    profile: &'static str,
    /// The unstripped build: the compiler's own frame layouts.
    original: Image,
    /// What the recompiler is given.
    stripped: Image,
    inputs: Vec<Vec<u8>>,
    /// The input the result is checked and its cycles counted on.
    measured: Vec<u8>,
    /// The original binary on `measured`, in the emulator.
    reference: RunResult,
}

fn sources(w: Workload, seed: u64) -> Vec<Source> {
    let spec = |name: &str, profile: Profile| {
        let b = wyt_spec::by_name(name).expect("suite program");
        Source {
            program: name.to_string(),
            profile,
            text: b.source.to_string(),
            inputs: b.trace_inputs(),
            measured: b.ref_input(),
        }
    };
    match w {
        Workload::SpecCold => SPEC_COLD.iter().map(|(n, p)| spec(n, p())).collect(),
        Workload::StoreWarm => STORE_WARM.iter().map(|n| spec(n, Profile::gcc12_o3())).collect(),
        Workload::GenCold => (0..GEN_PROGRAMS)
            .map(|i| {
                let mut p = progen::gen_prog(&mut Rng::new(mix(GEN_CORPUS_SEED, i as u64)));
                let mut rng = Rng::new(mix(seed, i as u64));
                for b in &mut p.input {
                    *b = rng.range_u32(u32::from(b' '), 127) as u8;
                }
                Source {
                    program: format!("progen-{i}"),
                    profile: progen::profile(p.profile),
                    text: progen::render(&p),
                    inputs: vec![p.input.clone()],
                    measured: p.input,
                }
            })
            .collect(),
    }
}

/// Submission order of one pass, drawn from the seed.
fn pass_order(seed: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = Rng::new(mix(seed, 0x0bde_5eed));
    for i in (1..n).rev() {
        order.swap(i, rng.range_usize(0, i + 1));
    }
    order
}

/// Digest of a job's inputs, for the manifest.
fn inputs_digest(inputs: &[Vec<u8>], measured: &[u8]) -> String {
    let mut bytes = Vec::new();
    for i in inputs.iter().map(Vec::as_slice).chain([measured]) {
        bytes.extend_from_slice(&(i.len() as u64).to_le_bytes());
        bytes.extend_from_slice(i);
    }
    wyt_store::sha256_hex(&bytes)
}

/// The scratch directory of one run, removed when the run ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(w: Workload, trace: bool) -> Result<WorkDir, String> {
        let p = Path::new(".bench_work").join(format!(
            "run-{}-{}-{}",
            w.name(),
            u8::from(trace),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).map_err(|e| format!("create {}: {e}", p.display()))?;
        Ok(WorkDir(p))
    }

    /// A fresh, empty store under this directory.
    fn store(&self, name: &str) -> Result<Store, String> {
        let p = self.0.join(name);
        let _ = std::fs::remove_dir_all(&p);
        Store::open(&p).map_err(|e| format!("open store {}: {e}", p.display()))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What set-up leaves for the measured phase.
struct Setup {
    jobs: Vec<Job>,
    /// `store-warm`: the store filled cold, and what filled it.
    store: Option<Store>,
    cold: Vec<Recompiled>,
}

fn setup(
    w: Workload,
    srcs: &[Source],
    work: &WorkDir,
    rep: usize,
    lay: &mut Layers,
) -> Result<Setup, String> {
    let mut jobs = Vec::with_capacity(srcs.len());
    for s in srcs {
        let original = lay
            .time(Layer::Compile, || compile(&s.text, &s.profile))
            .map_err(|e| format!("{} under {}: {e}", s.program, s.profile.name))?;
        lay.end_unit();
        let reference = run_image(&original, s.measured.clone());
        if !reference.ok() {
            return Err(format!(
                "{}: original traps on its input: {:?}",
                s.program, reference.trap
            ));
        }
        jobs.push(Job {
            program: s.program.clone(),
            profile: s.profile.name,
            stripped: original.stripped(),
            original,
            inputs: s.inputs.clone(),
            measured: s.measured.clone(),
            reference,
        });
    }
    let (mut store, mut cold) = (None, Vec::new());
    if w == Workload::StoreWarm {
        let st = work.store(&format!("setup-{rep}"))?;
        for (j, job) in jobs.iter().enumerate() {
            match stored(&st, job, j)? {
                StoredOutcome::Cold(r) => cold.push(*r),
                StoredOutcome::Warm(_) => return Err(format!("{}: empty store hit", job.program)),
            }
        }
        store = Some(st);
    }
    Ok(Setup { jobs, store, cold })
}

fn stored(store: &Store, job: &Job, stamp: usize) -> Result<StoredOutcome, String> {
    recompile_stored(store, &job.stripped, &job.inputs, Mode::Wytiwyg, OptLevel::Full, stamp as u64)
        .map_err(|e| format!("{}: {e}", job.program))
}

/// A job's result.
enum Outcome {
    Cold(Box<Recompiled>),
    Warm(Image),
}

impl Outcome {
    fn image(&self) -> &Image {
        match self {
            Outcome::Cold(r) => &r.image,
            Outcome::Warm(i) => i,
        }
    }
}

/// The measured call of one job, as a user of the program makes it.
fn run_job(w: Workload, job: &Job, store: Option<&Store>, stamp: usize) -> Result<Outcome, String> {
    match (w, store) {
        (Workload::SpecCold, _) => recompile(&job.stripped, &job.inputs, Mode::Wytiwyg)
            .map(|r| Outcome::Cold(Box::new(r)))
            .map_err(|e| format!("{}: {e}", job.program)),
        (_, Some(st)) => Ok(match stored(st, job, stamp)? {
            StoredOutcome::Cold(r) => Outcome::Cold(r),
            StoredOutcome::Warm(a) => Outcome::Warm(a.image),
        }),
        (_, None) => unreachable!("store workloads always pass a store"),
    }
}

/// Deterministic facts about one job's result.
#[derive(Debug, Clone, PartialEq)]
struct Facts {
    image: String,
    cycles_ratio: f64,
    /// Ground-truth objects: total, matched, undersized + missed.
    objects: [u64; 3],
}

fn layout_counts(job: &Job, r: &Recompiled) -> Result<[u64; 3], String> {
    let (Some(l), Some(b), Some(f)) = (&r.layout, &r.bounds, &r.fold) else {
        return Err(format!("{}: no layout in a Wytiwyg recompile", job.program));
    };
    let acc = evaluate_accuracy(&job.original, &r.lifted_meta, l, b, f);
    let unsafe_ = acc.count(MatchKind::Undersized) + acc.count(MatchKind::Missed);
    Ok([acc.total() as u64, acc.count(MatchKind::Matched) as u64, unsafe_ as u64])
}

/// Check one result against the reference, off the clock. Cold results
/// must reproduce the original binary's exit code and output on the
/// measured input; warm results must be byte-identical to the image the
/// store was filled with. `quality` is the recompilation whose layouts
/// are scored.
fn check(
    w: Workload,
    job: &Job,
    out: &Outcome,
    setup_cold: Option<&Recompiled>,
) -> Result<Facts, String> {
    let quality = match (w, out, setup_cold) {
        (Workload::StoreWarm, Outcome::Warm(img), Some(c)) => {
            if *img != c.image {
                return Err(format!("{}: warm image differs from the stored one", job.program));
            }
            c
        }
        (Workload::StoreWarm, _, _) => {
            return Err(format!("{}: not served warm", job.program));
        }
        (_, Outcome::Cold(r), _) => r,
        (_, Outcome::Warm(_), _) => return Err(format!("{}: hit in an empty store", job.program)),
    };
    let got = run_image(out.image(), job.measured.clone());
    let want = &job.reference;
    if !got.ok() || got.exit_code != want.exit_code || got.output != want.output {
        return Err(format!(
            "{}: recompiled exit {} ({} output bytes) vs original exit {} ({} bytes), trap {:?}",
            job.program,
            got.exit_code,
            got.output.len(),
            want.exit_code,
            want.output.len(),
            got.trap
        ));
    }
    Ok(Facts {
        image: wyt_core::image_digest(out.image()),
        cycles_ratio: got.cycles as f64 / want.cycles as f64,
        objects: layout_counts(job, quality)?,
    })
}

/// Tally of a measured phase.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    samples_ms: Vec<f64>,
    busy_ns: u64,
    passes: u64,
    /// Busy time of each finished pass.
    pass_ns: Vec<u64>,
    /// Facts of the first pass, per job; later passes must repeat them.
    facts: Vec<Option<Facts>>,
    /// Set when a later pass disagreed with the first.
    nondeterministic: bool,
}

impl Tally {
    fn record(&mut self, j: usize, ns: u64, checked: Result<Facts, String>) {
        self.attempted += 1;
        self.busy_ns += ns;
        self.samples_ms.push(ns as f64 / 1e6);
        match checked {
            Err(e) => {
                self.failed += 1;
                eprintln!("wytbench: job failed: {e}");
            }
            Ok(f) => match &self.facts[j] {
                None if self.passes == 0 => self.facts[j] = Some(f),
                Some(prev) if *prev == f => {}
                _ => {
                    self.failed += 1;
                    self.nondeterministic = true;
                    eprintln!("wytbench: job {j} changed between passes");
                }
            },
        }
    }

    fn end_pass(&mut self) {
        self.passes += 1;
        self.pass_ns.push(self.busy_ns - self.pass_ns.iter().sum::<u64>());
    }

    /// Jobs per second of the median pass.
    fn jobs_per_s(&self) -> f64 {
        let pass_s: Vec<f64> = self.pass_ns.iter().map(|&ns| ns as f64 / 1e9).collect();
        (self.attempted / self.passes) as f64 / stats::median(&pass_s)
    }

    fn done(&self, seconds: f64) -> bool {
        self.busy_ns as f64 / 1e9 >= seconds
    }

    /// Cycle-ratio geomean and layout fractions over the first pass.
    fn quality(&self) -> Option<(f64, f64, f64)> {
        let facts: Vec<&Facts> =
            self.facts.iter().map(Option::as_ref).collect::<Option<Vec<_>>>()?;
        let ratios: Vec<f64> = facts.iter().map(|f| f.cycles_ratio).collect();
        let mut o = [0u64; 3];
        for f in &facts {
            for (a, b) in o.iter_mut().zip(f.objects) {
                *a += b;
            }
        }
        let total = o[0].max(1) as f64;
        Some((stats::geomean(&ratios), o[1] as f64 / total, o[2] as f64 / total))
    }
}

/// Everything a run reports.
struct Report {
    tally: Tally,
    setup_s: Vec<f64>,
    manifest: Vec<Json>,
    /// Per-layer metrics (traced runs only).
    layers: Vec<(&'static str, f64, &'static str, bool)>,
    /// Layer shares of the staged job time (traced runs only).
    shares: Vec<(&'static str, f64)>,
    /// Deterministic values checked against earlier runs of the seed.
    det: Vec<(String, f64)>,
    /// A staged call disagreed with the program's own entry point.
    staged_mismatch: bool,
}

fn run(args: &Args, work: &WorkDir) -> Result<Report, String> {
    let w = args.workload;
    let srcs = sources(w, args.seed);
    let mut setup_s = Vec::new();
    let mut lay_setup = Layers::default();
    let mut st = None;
    while st.is_none()
        || !args.trace
            && setup_s.len() < SETUP_MAX_REPS
            && (setup_s.len() < SETUP_MIN_REPS || setup_s.iter().sum::<f64>() < SETUP_MIN_S)
    {
        let mut lay = Layers::default();
        let t = Instant::now();
        let s = setup(w, &srcs, work, setup_s.len(), &mut lay)?;
        setup_s.push(t.elapsed().as_secs_f64());
        lay_setup = lay;
        st = Some(s);
    }
    let Setup { jobs, store: warm_store, cold } = st.expect("at least one set-up");
    let order = pass_order(args.seed, jobs.len());
    let manifest = order
        .iter()
        .map(|&j| {
            let job = &jobs[j];
            Json::obj(vec![
                ("program", Json::from(job.program.as_str())),
                ("profile", Json::from(job.profile)),
                ("inputs_sha256", Json::Str(inputs_digest(&job.inputs, &job.measured))),
            ])
        })
        .collect();

    let mut tally = Tally { facts: vec![None; jobs.len()], ..Tally::default() };
    let mut rep = Report {
        tally: Tally::default(),
        setup_s,
        manifest,
        layers: Vec::new(),
        shares: Vec::new(),
        det: Vec::new(),
        staged_mismatch: false,
    };
    let cold_ref = |j: usize| cold.get(j);

    if !args.trace {
        loop {
            let pass_store = match w {
                Workload::GenCold => Some(work.store(&format!("pass-{}", tally.passes))?),
                _ => None,
            };
            let store = pass_store.as_ref().or(warm_store.as_ref());
            for &j in &order {
                let t = Instant::now();
                let out = run_job(w, &jobs[j], store, j);
                let ns = t.elapsed().as_nanos() as u64;
                let checked = out.and_then(|o| check(w, &jobs[j], &o, cold_ref(j)));
                tally.record(j, ns, checked);
            }
            tally.end_pass();
            if tally.passes >= MIN_PASSES && tally.done(args.seconds) {
                break;
            }
        }
    } else {
        let t = traced(w, args, work, &jobs, &order, &cold, warm_store.as_ref(), &mut tally)?;
        let TracedRun { jobs: mut lay_jobs, epilogue, fill, first, staged_ns, ref_ns, .. } = t;
        rep.staged_mismatch = t.mismatch;
        let job_busy = lay_jobs.busy_total();
        for l in LAYERS {
            if lay_jobs.busy(l) > 0 {
                rep.shares.push((l.metric(), lay_jobs.busy(l) as f64 / staged_ns.max(1) as f64));
            }
        }
        rep.shares.push(("unattributed", 1.0 - job_busy as f64 / staged_ns.max(1) as f64));
        let jobs_run = tally.attempted.max(1) as f64;
        let unattributed_ms = (ref_ns as f64 - job_busy as f64) / 1e6 / jobs_run;
        let overhead = staged_ns as f64 / ref_ns.max(1) as f64 - 1.0;
        lay_jobs.merge(&epilogue);
        lay_jobs.merge(&fill);
        lay_jobs.merge(&lay_setup);
        rep.layers = layer_metrics(&lay_jobs, &first, t.corrupt, unattributed_ms, overhead);
        for (name, v, _, det) in &rep.layers {
            if *det {
                rep.det.push((format!("layer.{name}"), *v));
            }
        }
    }
    if let Some((geo, matched, unsafe_)) = tally.quality() {
        rep.det.push(("cycles_ratio_geomean".into(), geo));
        rep.det.push(("layout_match_frac".into(), matched));
        rep.det.push(("layout_unsafe_frac".into(), unsafe_));
    }
    rep.tally = tally;
    Ok(rep)
}

/// What a traced run measured besides the tally.
struct TracedRun {
    /// Staged calls of the measured jobs.
    jobs: Layers,
    /// Read-back checks after each job.
    epilogue: Layers,
    /// `store-warm`: the staged set-up fill.
    fill: Layers,
    /// Counts of the set-up fill and the first pass.
    first: Counts,
    /// Wall time of the staged jobs, count-only replays excluded.
    staged_ns: u64,
    /// Wall time of the program's own entry point on the same jobs.
    ref_ns: u64,
    /// A staged result differed from the entry point's.
    mismatch: bool,
    /// Entries any store of the run rejected.
    corrupt: u64,
}

/// The traced run: set-up fill (store-warm), then whole passes of staged
/// jobs, each followed by the program's own entry point on the same job
/// and a comparison of the two.
#[allow(clippy::too_many_arguments)]
fn traced(
    w: Workload,
    args: &Args,
    work: &WorkDir,
    jobs: &[Job],
    order: &[usize],
    cold: &[Recompiled],
    warm_store: Option<&Store>,
    tally: &mut Tally,
) -> Result<TracedRun, String> {
    let mut lay_fill = Layers::default();
    let mut lay_jobs = Layers::default();
    let mut lay_epi = Layers::default();
    let (mut mismatch, mut corrupt) = (false, 0u64);
    let mut note = |what: String| {
        eprintln!("wytbench: staged mismatch: {what}");
        mismatch = true;
    };

    // store-warm: the set-up fill, staged, against what filled the store.
    if let Some(ws) = warm_store {
        let scratch = work.store("fill-staged")?;
        for (j, job) in jobs.iter().enumerate() {
            let rec = staged::cold(&mut lay_fill, &job.stripped, &job.inputs)?;
            let key = staged::key(&mut lay_fill, &job.stripped, &job.inputs);
            staged::put(&mut lay_fill, &scratch, &key, j as u64, &rec)?;
            lay_fill.counts.residual_stack_refs += cold[j].report.quality.emu_refs_after;
            lay_fill.counts.degraded_funcs += cold[j].report.degradations.len() as u64;
            lay_fill.end_unit();
            if staged::fingerprint(&rec) != staged::fingerprint(&cold[j]) {
                note(format!("{}: set-up fill", job.program));
            }
            let a = std::fs::read(staged::entry_path(&scratch, &key));
            let b = std::fs::read(staged::entry_path(ws, &key));
            if a.is_err() || a.ok() != b.ok() {
                note(format!("{}: stored entry bytes", job.program));
            }
        }
        corrupt += scratch.counters().corrupt;
    }

    let mut first = Counts::default();
    let (mut staged_ns, mut ref_ns) = (0u64, 0u64);
    let epi_store = work.store("epilogue")?;
    loop {
        let pass_stores = match w {
            Workload::GenCold => Some((
                work.store(&format!("pass-{}-staged", tally.passes))?,
                work.store(&format!("pass-{}-ref", tally.passes))?,
            )),
            _ => None,
        };
        for (slot, &j) in order.iter().enumerate() {
            let job = &jobs[j];
            let ref_store = match &pass_stores {
                Some((_, r)) => Some(r),
                None => warm_store,
            };
            let mut reference = None;
            let run_reference = |ref_ns: &mut u64| {
                let t = Instant::now();
                let r = run_job(w, job, ref_store, j);
                *ref_ns += t.elapsed().as_nanos() as u64;
                r
            };
            // Whichever call runs second finds the allocator and caches
            // warm, so the order alternates between jobs.
            let staged_first = (slot as u64 + tally.passes).is_multiple_of(2);
            if !staged_first {
                reference = Some(run_reference(&mut ref_ns));
            }
            let aux0 = lay_jobs.aux_ns;
            let t = Instant::now();
            let staged_out = staged_job(w, job, j, &mut lay_jobs, pass_stores.as_ref(), warm_store);
            let ns = t.elapsed().as_nanos() as u64 - (lay_jobs.aux_ns - aux0);
            lay_jobs.end_unit();
            staged_ns += ns;
            let reference = match reference {
                Some(r) => r,
                None => run_reference(&mut ref_ns),
            };

            let out = match (staged_out, reference) {
                (Ok((staged_key, out)), Ok(reference)) => {
                    if out.image() != reference.image() {
                        note(format!("{}: image", job.program));
                    }
                    if let (Outcome::Cold(a), Outcome::Cold(b)) = (&out, &reference) {
                        if staged::fingerprint(a) != staged::fingerprint(b) {
                            note(format!("{}: intermediates", job.program));
                        }
                        if tally.passes == 0 {
                            lay_jobs.counts.residual_stack_refs += b.report.quality.emu_refs_after;
                            lay_jobs.counts.degraded_funcs += b.report.degradations.len() as u64;
                        }
                    }
                    if let Some((s, r)) = &pass_stores {
                        let a = std::fs::read(staged::entry_path(s, &staged_key));
                        let b = std::fs::read(staged::entry_path(r, &staged_key));
                        if a.is_err() || a.ok() != b.ok() {
                            note(format!("{}: stored entry bytes", job.program));
                        }
                    }
                    epilogue(job, j, &out, &staged_key, &mut lay_epi, &epi_store, &pass_stores)
                        .map(|()| out)
                }
                (Err(e), _) | (_, Err(e)) => Err(e),
            };
            lay_epi.end_unit();
            let checked = out.and_then(|o| check(w, job, &o, cold.get(j)));
            tally.record(j, ns, checked);
        }
        if let Some((s, r)) = &pass_stores {
            corrupt += s.counters().corrupt + r.counters().corrupt;
        }
        tally.end_pass();
        if tally.passes == 1 {
            first = lay_fill.counts;
            first.add(&lay_jobs.counts);
            first.add(&lay_epi.counts);
        }
        if tally.done(args.seconds) {
            break;
        }
    }
    corrupt += epi_store.counters().corrupt;
    if let Some(ws) = warm_store {
        corrupt += ws.counters().corrupt;
    }
    Ok(TracedRun {
        jobs: lay_jobs,
        epilogue: lay_epi,
        fill: lay_fill,
        first,
        staged_ns,
        ref_ns,
        mismatch,
        corrupt,
    })
}

/// One job through the staged layer calls. Returns the content key and
/// the result.
fn staged_job(
    w: Workload,
    job: &Job,
    stamp: usize,
    lay: &mut Layers,
    pass_stores: Option<&(Store, Store)>,
    warm_store: Option<&Store>,
) -> Result<(String, Outcome), String> {
    match w {
        Workload::SpecCold => {
            let rec = staged::cold(lay, &job.stripped, &job.inputs)?;
            Ok((String::new(), Outcome::Cold(Box::new(rec))))
        }
        Workload::GenCold => {
            let (store, _) = pass_stores.expect("gen-cold passes have stores");
            let key = staged::key(lay, &job.stripped, &job.inputs);
            if staged::get(lay, store, &key)?.is_some() {
                return Err(format!("{}: hit in an empty store", job.program));
            }
            let rec = staged::cold(lay, &job.stripped, &job.inputs)?;
            staged::put(lay, store, &key, stamp as u64, &rec)?;
            Ok((key, Outcome::Cold(Box::new(rec))))
        }
        Workload::StoreWarm => {
            let store = warm_store.expect("store-warm has a filled store");
            let key = staged::key(lay, &job.stripped, &job.inputs);
            let art = staged::get(lay, store, &key)?
                .ok_or_else(|| format!("{}: miss in the filled store", job.program))?;
            if art.mode != "Wytiwyg" || art.opt != "Full" {
                return Err(format!("{}: stored entry has the wrong config", job.program));
            }
            staged::validate(lay, &job.stripped, &art.image, &job.inputs)?;
            Ok((key, Outcome::Warm(art.image)))
        }
    }
}

/// After a cold job in a traced run: read its artifact back from a store
/// and check the decoded image, which times the store's read path on this
/// workload's artifacts. `spec-cold` jobs do not store their result, so
/// the epilogue stores it first.
fn epilogue(
    job: &Job,
    stamp: usize,
    out: &Outcome,
    key: &str,
    lay: &mut Layers,
    epi_store: &Store,
    pass_stores: &Option<(Store, Store)>,
) -> Result<(), String> {
    let Outcome::Cold(rec) = out else { return Ok(()) };
    let (store, key) = match pass_stores {
        Some((s, _)) => (s, key.to_string()),
        None => {
            let key = staged::key(lay, &job.stripped, &job.inputs);
            staged::put(lay, epi_store, &key, stamp as u64, rec)?;
            (epi_store, key)
        }
    };
    let art = staged::get(lay, store, &key)?
        .ok_or_else(|| format!("{}: artifact not found after put", job.program))?;
    if art.image != rec.image {
        return Err(format!("{}: artifact read back differs", job.program));
    }
    Ok(())
}

/// Per-layer metrics: name, value, unit, and whether the value must
/// repeat exactly for a seed.
fn layer_metrics(
    lay: &Layers,
    first: &Counts,
    corrupt: u64,
    unattributed_ms: f64,
    overhead: f64,
) -> Vec<(&'static str, f64, &'static str, bool)> {
    let c = &lay.counts;
    let per = |ns: u64, n: u64| ns as f64 / n.max(1) as f64;
    let interp_ns = lay.busy(Layer::Vararg) + lay.busy(Layer::Regsave) + lay.busy(Layer::Bounds);
    let mut m: Vec<(&'static str, f64, &'static str, bool)> =
        LAYERS.iter().map(|&l| (l.metric(), lay.ms_per_unit(l), "ms", false)).collect();
    m.extend([
        ("emu.trace_insts", first.trace_insts as f64, "insts", true),
        ("emu.trace_ns_per_inst", per(lay.busy(Layer::EmuTrace), c.trace_insts), "ns/inst", false),
        ("emu.validate_insts", first.validate_insts as f64, "insts", true),
        (
            "emu.validate_ns_per_inst",
            per(lay.busy(Layer::EmuValidate), c.validate_insts),
            "ns/inst",
            false,
        ),
        ("lift.ir_insts", first.lift_ir_insts as f64, "count", true),
        ("lift.funcs", first.lift_funcs as f64, "count", true),
        ("core.vararg_steps", first.vararg_steps as f64, "steps", true),
        ("core.regsave_steps", first.regsave_steps as f64, "steps", true),
        ("core.bounds_steps", first.bounds_steps as f64, "steps", true),
        (
            "interp.ns_per_step",
            per(interp_ns, c.vararg_steps + c.regsave_steps + c.bounds_steps),
            "ns/step",
            false,
        ),
        ("opt.ir_insts_in", first.opt_insts_in as f64, "count", true),
        ("opt.ir_insts_out", first.opt_insts_out as f64, "count", true),
        ("backend.text_bytes", first.text_bytes as f64, "bytes", true),
        ("core.vars_recovered", first.vars_recovered as f64, "count", true),
        ("core.residual_stack_refs", first.residual_stack_refs as f64, "count", true),
        ("core.vararg_sites", first.vararg_sites as f64, "count", true),
        ("core.degraded_funcs", first.degraded_funcs as f64, "count", true),
        ("store.bytes_read", first.bytes_read as f64, "bytes", true),
        ("store.bytes_written", first.bytes_written as f64, "bytes", true),
        ("store.hit_frac", first.hits as f64 / first.gets.max(1) as f64, "frac", true),
        ("store.corrupt", corrupt as f64, "count", true),
        ("job.unattributed_ms", unattributed_ms, "ms", false),
        ("bench.trace_overhead_frac", overhead, "frac", false),
    ]);
    m
}

/// Compare this run's deterministic values with those an earlier run of
/// the same workload, seed and executable recorded, then record ours.
fn check_determinism(w: Workload, seed: u64, det: &[(String, f64)]) -> Result<(), String> {
    let exe = std::env::current_exe().and_then(std::fs::read).map_err(|e| format!("exe: {e}"))?;
    let build = &wyt_store::sha256_hex(&exe)[..16];
    let dir = Path::new(".bench_work").join("det");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-{seed}-{build}.json", w.name()));
    let mut known: BTreeMap<String, f64> = BTreeMap::new();
    if let Ok(text) = std::fs::read_to_string(&path) {
        let j = wyt_obs::json::parse(&text).map_err(|e| format!("{}: {e:?}", path.display()))?;
        if let Json::Obj(members) = j {
            for (k, v) in members {
                known
                    .insert(k, v.as_f64().ok_or_else(|| format!("{}: bad value", path.display()))?);
            }
        }
    }
    for (k, v) in det {
        match known.get(k) {
            Some(old) if old.to_bits() != v.to_bits() => {
                return Err(format!("{k} was {old} in an earlier run of seed {seed}, now {v}"));
            }
            _ => {
                known.insert(k.clone(), *v);
            }
        }
    }
    let out = Json::Obj(known.into_iter().map(|(k, v)| (k, Json::Num(v))).collect());
    let tmp = path.with_extension(format!("tmp{}", std::process::id()));
    std::fs::write(&tmp, out.to_string()).map_err(|e| format!("write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, &path).map_err(|e| format!("rename {}: {e}", path.display()))
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj(vec![("value", Json::Num(value)), ("unit", Json::from(unit))])
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wytbench: {e}");
            eprintln!(
                "usage: wytbench --workload spec-cold|gen-cold|store-warm --seed N --seconds N \
                 --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    for k in PROGRAM_ENV {
        std::env::remove_var(k);
    }
    wyt_obs::set_enabled(false);
    let threads = WORKERS.min(std::thread::available_parallelism().map_or(1, |n| n.get()));
    wyt_par::set_threads(threads);

    let result = WorkDir::new(args.workload, args.trace).and_then(|work| {
        let t = Instant::now();
        let rep = run(&args, &work)?;
        Ok((rep, t.elapsed().as_secs_f64()))
    });
    let (rep, wall_s) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("wytbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let t = &rep.tally;
    // Only a clean run's values are worth comparing with or recording.
    let clean = t.failed == 0 && !t.nondeterministic && !rep.staged_mismatch;
    let det = if clean { check_determinism(args.workload, args.seed, &rep.det) } else { Ok(()) };
    if let Err(e) = &det {
        eprintln!("wytbench: deterministic metric changed: {e}");
    }
    let p50 = stats::percentile(&t.samples_ms, 50.0);
    let p90 = stats::percentile(&t.samples_ms, 90.0);
    let pct = |p: &stats::Percentile| {
        Json::obj(vec![
            ("value", Json::Num(p.value)),
            ("samples", Json::from(p.samples as u64)),
            ("beyond", Json::from(p.beyond as u64)),
        ])
    };
    let detail = Json::obj(vec![
        ("workload", Json::from(args.workload.name())),
        ("seed", Json::from(args.seed)),
        ("trace", Json::Bool(args.trace)),
        ("threads", Json::from(threads as u64)),
        ("passes", Json::from(t.passes)),
        ("jobs", Json::from(t.attempted)),
        ("pass_s", Json::Arr(t.pass_ns.iter().map(|&ns| Json::Num(ns as f64 / 1e9)).collect())),
        ("wall_s", Json::Num(wall_s)),
        ("setup_s", Json::Arr(rep.setup_s.iter().map(|&s| Json::Num(s)).collect())),
        ("job_p50_ms", pct(&p50)),
        ("job_p90_ms", pct(&p90)),
        ("p90_supported", Json::Bool(p90.beyond >= 10)),
        (
            "shares",
            Json::Obj(rep.shares.iter().map(|(k, v)| (k.to_string(), Json::Num(*v))).collect()),
        ),
        ("manifest", Json::Arr(rep.manifest.clone())),
    ]);
    println!("{detail}");

    let correct = clean && det.is_ok();
    let metrics: Vec<(String, Json)> = if args.trace {
        rep.layers.iter().map(|(k, v, u, _)| (k.to_string(), metric(*v, u))).collect()
    } else {
        let (geo, matched, unsafe_) = t.quality().unwrap_or((0.0, 0.0, 0.0));
        let rss = match stats::peak_rss_mb() {
            Ok(r) => r,
            Err(e) => {
                eprintln!("wytbench: {e}");
                return ExitCode::FAILURE;
            }
        };
        vec![
            ("setup_s", metric(stats::median(&rep.setup_s), "s")),
            ("jobs_per_s", metric(t.jobs_per_s(), "1/s")),
            ("job_p50_ms", metric(p50.value, "ms")),
            ("ok_frac", metric((t.attempted - t.failed) as f64 / t.attempted as f64, "frac")),
            ("cycles_ratio_geomean", metric(geo, "ratio")),
            ("layout_match_frac", metric(matched, "frac")),
            ("layout_unsafe_frac", metric(unsafe_, "frac")),
            ("peak_rss_mb", metric(rss, "MiB")),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
    };
    let result = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::from(t.attempted)),
        ("failed", Json::from(t.failed)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
