//! The traced run's view of the program: each layer's public functions
//! called one by one from here, in the pipeline's own order, with the
//! benchmark's clock around every call. Nothing inside the program is
//! instrumented and its observability sink stays off, so the staged
//! calls do exactly the work the timed run does.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::Instant;
use wyt_core::artifact::{artifact_from_json, artifact_payload, StoredArtifact};
use wyt_core::{layout, regsave, runtime, spfold, symbolize, vararg, Recompiled};
use wyt_emu::Machine;
use wyt_ir::interp::{Interp, NoHooks};
use wyt_ir::{FuncId, InstId, InstKind, Module};
use wyt_isa::image::Image;
use wyt_lifter::{lift_from_trace, trace_image, Lifted};
use wyt_obs::PipelineReport;
use wyt_opt::{optimize, OptLevel};
use wyt_store::{Lookup, Store};

/// A layer boundary the traced run times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Compile,
    EmuTrace,
    Lift,
    Vararg,
    Regsave,
    Spfold,
    Bounds,
    Layout,
    Symbolize,
    Verify,
    Opt,
    Lower,
    EmuValidate,
    StoreKey,
    StoreGet,
    Decode,
    Encode,
    StorePut,
}

/// Every layer, in report order.
pub const LAYERS: [Layer; 18] = [
    Layer::Compile,
    Layer::EmuTrace,
    Layer::Lift,
    Layer::Vararg,
    Layer::Regsave,
    Layer::Spfold,
    Layer::Bounds,
    Layer::Layout,
    Layer::Symbolize,
    Layer::Verify,
    Layer::Opt,
    Layer::Lower,
    Layer::EmuValidate,
    Layer::StoreKey,
    Layer::StoreGet,
    Layer::Decode,
    Layer::Encode,
    Layer::StorePut,
];

impl Layer {
    /// Name of the layer's busy-time metric.
    pub fn metric(self) -> &'static str {
        match self {
            Layer::Compile => "minicc.compile_ms",
            Layer::EmuTrace => "emu.trace_ms",
            Layer::Lift => "lift.static_ms",
            Layer::Vararg => "core.vararg_ms",
            Layer::Regsave => "core.regsave_ms",
            Layer::Spfold => "core.spfold_ms",
            Layer::Bounds => "core.bounds_ms",
            Layer::Layout => "core.layout_ms",
            Layer::Symbolize => "core.symbolize_ms",
            Layer::Verify => "ir.verify_ms",
            Layer::Opt => "opt.ms",
            Layer::Lower => "backend.lower_ms",
            Layer::EmuValidate => "emu.validate_ms",
            Layer::StoreKey => "store.key_ms",
            Layer::StoreGet => "store.get_ms",
            Layer::Decode => "artifact.decode_ms",
            Layer::Encode => "artifact.encode_ms",
            Layer::StorePut => "store.put_ms",
        }
    }

    fn index(self) -> usize {
        LAYERS.iter().position(|&l| l == self).expect("every layer is listed")
    }
}

/// Deterministic work counts gathered at the layer boundaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub trace_insts: u64,
    pub validate_insts: u64,
    pub lift_ir_insts: u64,
    pub lift_funcs: u64,
    pub vararg_steps: u64,
    pub regsave_steps: u64,
    pub bounds_steps: u64,
    pub opt_insts_in: u64,
    pub opt_insts_out: u64,
    pub text_bytes: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub gets: u64,
    pub hits: u64,
    pub vars_recovered: u64,
    pub residual_stack_refs: u64,
    pub vararg_sites: u64,
    pub degraded_funcs: u64,
}

impl Counts {
    /// Field-wise sum.
    pub fn add(&mut self, o: &Counts) {
        self.trace_insts += o.trace_insts;
        self.validate_insts += o.validate_insts;
        self.lift_ir_insts += o.lift_ir_insts;
        self.lift_funcs += o.lift_funcs;
        self.vararg_steps += o.vararg_steps;
        self.regsave_steps += o.regsave_steps;
        self.bounds_steps += o.bounds_steps;
        self.opt_insts_in += o.opt_insts_in;
        self.opt_insts_out += o.opt_insts_out;
        self.text_bytes += o.text_bytes;
        self.bytes_read += o.bytes_read;
        self.bytes_written += o.bytes_written;
        self.gets += o.gets;
        self.hits += o.hits;
        self.vars_recovered += o.vars_recovered;
        self.residual_stack_refs += o.residual_stack_refs;
        self.vararg_sites += o.vararg_sites;
        self.degraded_funcs += o.degraded_funcs;
    }
}

/// Busy time per layer plus the counts, for one phase of a run (set-up,
/// the measured jobs, or the checks after a job).
#[derive(Debug, Default)]
pub struct Layers {
    busy_ns: [u64; LAYERS.len()],
    /// Units of work (a job, or one program's set-up) that used the layer.
    units: [u64; LAYERS.len()],
    touched: [bool; LAYERS.len()],
    /// Time of count-only replays, which belong to no layer and are
    /// subtracted from the staged job's wall time.
    pub aux_ns: u64,
    pub counts: Counts,
}

impl Layers {
    /// Run `f` as a call into layer `l`.
    pub fn time<R>(&mut self, l: Layer, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.busy_ns[l.index()] += t.elapsed().as_nanos() as u64;
        self.touched[l.index()] = true;
        r
    }

    /// Run `f` off every layer's clock (work only the traced run does).
    pub fn aux<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.aux_ns += t.elapsed().as_nanos() as u64;
        r
    }

    /// Close one unit of work: every layer it called counts it once.
    pub fn end_unit(&mut self) {
        for (u, t) in self.units.iter_mut().zip(self.touched.iter_mut()) {
            *u += u64::from(*t);
            *t = false;
        }
    }

    /// Busy nanoseconds of `l`.
    pub fn busy(&self, l: Layer) -> u64 {
        self.busy_ns[l.index()]
    }

    /// Busy nanoseconds over every layer.
    pub fn busy_total(&self) -> u64 {
        self.busy_ns.iter().sum()
    }

    /// Fold `o` into `self`.
    pub fn merge(&mut self, o: &Layers) {
        for i in 0..LAYERS.len() {
            self.busy_ns[i] += o.busy_ns[i];
            self.units[i] += o.units[i];
        }
        self.aux_ns += o.aux_ns;
        self.counts.add(&o.counts);
    }

    /// Mean busy milliseconds of `l` per unit that used it (0 when none did).
    pub fn ms_per_unit(&self, l: Layer) -> f64 {
        let i = l.index();
        if self.units[i] == 0 {
            0.0
        } else {
            self.busy_ns[i] as f64 / 1e6 / self.units[i] as f64
        }
    }
}

fn ir_insts(m: &Module) -> u64 {
    m.funcs.iter().flat_map(|f| f.blocks.iter()).map(|b| b.insts.len() as u64).sum()
}

fn verify(lay: &mut Layers, m: &Module, at: &str) -> Result<(), String> {
    lay.time(Layer::Verify, || wyt_ir::verify::verify_module(m))
        .map_err(|e| format!("verify after {at}: {e}"))
}

/// Interpreter steps of `m` over `inputs` — the replay count of the
/// refinement that just ran on `m`, without its analysis hooks.
fn replay_steps(lay: &mut Layers, m: &Module, inputs: &[Vec<u8>]) -> u64 {
    lay.aux(|| inputs.iter().map(|i| Interp::new(m, i.clone(), NoHooks).run().steps).sum())
}

/// Possible callees of every call instruction. `wyt_core::pipeline`
/// keeps its own copy private; this one computes the same map from the
/// public module and saved-register facts.
fn call_targets(m: &Module, regs: &regsave::RegSaveInfo) -> HashMap<(FuncId, InstId), Vec<FuncId>> {
    let mut out = HashMap::new();
    for (fi, f) in m.funcs.iter().enumerate() {
        let fid = FuncId(fi as u32);
        for b in f.rpo() {
            for &i in &f.blocks[b.index()].insts {
                match f.inst(i) {
                    InstKind::Call { f: c, .. } => {
                        out.insert((fid, i), vec![*c]);
                    }
                    InstKind::CallInd { .. } => {
                        let ts = regs
                            .indirect_targets
                            .get(&(fid, i))
                            .map(|s| s.iter().copied().collect())
                            .unwrap_or_default();
                        out.insert((fid, i), ts);
                    }
                    _ => {}
                }
            }
        }
    }
    out
}

/// The `Mode::Wytiwyg` pipeline on a clean job, one public stage call at
/// a time: trace, lift, vararg, regsave, spfold, bounds, layout,
/// symbolize, optimize, lower, then the replay of every traced input on
/// the new image. A job that would need the degradation ladder is an
/// error here; the benchmark's workloads never need it.
pub fn cold(lay: &mut Layers, img: &Image, inputs: &[Vec<u8>]) -> Result<Recompiled, String> {
    wyt_core::ingest::check_image(img).map_err(|e| e.to_string())?;
    let (trace, baseline) = lay.time(Layer::EmuTrace, || trace_image(img, inputs));
    lay.counts.trace_insts += baseline.iter().map(|r| r.inst_count).sum::<u64>();
    let Lifted { mut module, meta, trace, baseline_runs, .. } = lay
        .time(Layer::Lift, || lift_from_trace(img, trace, baseline))
        .map_err(|e| format!("lift: {e}"))?;
    lay.counts.lift_ir_insts += ir_insts(&module);
    lay.counts.lift_funcs += module.funcs.len() as u64;
    verify(lay, &module, "lift")?;

    // Each count-only replay runs after the stage it counts, so the
    // stage itself meets the allocator and caches as the pipeline does.
    let obs = lay
        .time(Layer::Vararg, || vararg::observe(&module, inputs))
        .map_err(|e| format!("vararg: {e}"))?;
    lay.counts.vararg_steps += replay_steps(lay, &module, inputs);
    let sites = lay.time(Layer::Vararg, || vararg::apply(&mut module, &obs));
    lay.counts.vararg_sites += sites as u64;
    verify(lay, &module, "vararg")?;

    let reginfo = lay
        .time(Layer::Regsave, || regsave::analyze(&module, &meta, inputs))
        .map_err(|e| format!("regsave: {e}"))?;
    lay.counts.regsave_steps += replay_steps(lay, &module, inputs);
    let none = BTreeSet::new();
    let (fold, fold_errs) = lay.time(Layer::Spfold, || {
        spfold::insert_save_restore(&mut module, &meta, &reginfo, &none);
        spfold::fold(&mut module, &meta, &reginfo, &none)
    });
    if let Some(e) = fold_errs.first() {
        return Err(format!("spfold would demote function {:?}: {}", e.func, e.what));
    }
    verify(lay, &module, "spfold")?;

    let bounds = lay
        .time(Layer::Bounds, || runtime::trace_bounds(&module, &fold, inputs))
        .map_err(|e| format!("bounds: {e}"))?;
    lay.counts.bounds_steps += replay_steps(lay, &module, inputs);

    let mut eligible: BTreeSet<FuncId> = meta.func_by_addr.values().copied().collect();
    eligible.insert(meta.start);
    let mlayout = lay.time(Layer::Layout, || {
        let targets = call_targets(&module, &reginfo);
        let mut l = layout::build_layout(&bounds, &fold, &reginfo, &targets);
        l.funcs.retain(|f, _| eligible.contains(f));
        l
    });
    let sym_errs = lay.time(Layer::Symbolize, || {
        symbolize::symbolize(&mut module, &meta, &fold, &reginfo, &mlayout, &eligible)
    });
    if let Some((f, e)) = sym_errs.first() {
        return Err(format!("symbolize would demote function {f:?}: {}", e.what));
    }
    verify(lay, &module, "symbolize")?;
    lay.counts.vars_recovered += mlayout.funcs.values().map(|l| l.vars.len() as u64).sum::<u64>();

    lay.counts.opt_insts_in += ir_insts(&module);
    lay.time(Layer::Opt, || {
        optimize(&mut module, OptLevel::Full);
        symbolize::dead_cell_stores(&mut module);
        optimize(&mut module, OptLevel::Full);
    });
    lay.counts.opt_insts_out += ir_insts(&module);
    verify(lay, &module, "optimize")?;
    let image = lay
        .time(Layer::Lower, || wyt_backend::lower_module(&module))
        .map_err(|e| format!("lower: {e}"))?;
    lay.counts.text_bytes += image.text.len() as u64;

    // The pipeline's behavioural gate: every traced input replayed on the
    // new image under the same fuel budget, against the traced runs.
    let budget = baseline_runs.iter().map(|r| r.inst_count).max().unwrap_or(0).saturating_mul(16)
        + 1_000_000;
    for (i, (input, want)) in inputs.iter().zip(&baseline_runs).enumerate() {
        let got = lay.time(Layer::EmuValidate, || {
            let mut m = Machine::new(&image, input.clone());
            m.set_fuel(budget);
            m.run()
        });
        lay.counts.validate_insts += got.inst_count;
        if !got.ok() || got.exit_code != want.exit_code || got.output != want.output {
            return Err(format!("validate: input {i} diverged from its traced run"));
        }
    }

    Ok(Recompiled {
        image,
        module,
        lifted_meta: meta,
        trace,
        layout: Some(mlayout),
        bounds: Some(bounds),
        fold: Some(fold),
        reginfo: Some(reginfo),
        vararg_obs: Some(obs),
        reused_funcs: BTreeSet::new(),
        baseline_runs,
        report: PipelineReport {
            mode: "Wytiwyg".to_string(),
            opt: "Full".to_string(),
            ..PipelineReport::default()
        },
    })
}

/// Content key of a job, as `recompile_stored` derives it.
pub fn key(lay: &mut Layers, img: &Image, inputs: &[Vec<u8>]) -> String {
    lay.time(Layer::StoreKey, || {
        wyt_core::artifact_key(img, inputs, wyt_core::Mode::Wytiwyg, OptLevel::Full)
    })
}

/// Size of the entry file behind `key` (the store's documented layout).
pub fn entry_bytes(store: &Store, key: &str) -> Result<u64, String> {
    entry_path(store, key).metadata().map(|m| m.len()).map_err(|e| format!("entry {key}: {e}"))
}

/// Path of the `"artifact"` entry behind `key`.
pub fn entry_path(store: &Store, key: &str) -> std::path::PathBuf {
    store.root().join("objects").join(&key[..2]).join(format!("{key}.artifact.json"))
}

/// Encode `rec` and persist it under `key`, as a cold `recompile_stored`
/// does after its pipeline run.
pub fn put(
    lay: &mut Layers,
    store: &Store,
    key: &str,
    stamp: u64,
    rec: &Recompiled,
) -> Result<(), String> {
    let payload = lay.time(Layer::Encode, || artifact_payload(rec));
    lay.time(Layer::StorePut, || store.put("artifact", key, stamp, payload))
        .map_err(|e| format!("store put: {e}"))?;
    lay.counts.bytes_written += entry_bytes(store, key)?;
    Ok(())
}

/// Look `key` up and decode the entry, as `recompile_stored` does before
/// deciding between a warm and a cold run. `None` is a miss.
pub fn get(lay: &mut Layers, store: &Store, key: &str) -> Result<Option<StoredArtifact>, String> {
    lay.counts.gets += 1;
    match lay.time(Layer::StoreGet, || store.get("artifact", key)) {
        Lookup::Miss => Ok(None),
        Lookup::Corrupt(why) => Err(format!("store entry {key} corrupt: {why}")),
        Lookup::Hit(payload) => {
            lay.counts.hits += 1;
            lay.counts.bytes_read += entry_bytes(store, key)?;
            lay.time(Layer::Decode, || artifact_from_json(&payload))
                .map(Some)
                .map_err(|e| format!("decode {key}: {e}"))
        }
    }
}

/// The warm path's replay check: the original and the stored image run
/// on every traced input and must agree (what `wyt_core::validate` does).
pub fn validate(
    lay: &mut Layers,
    original: &Image,
    stored: &Image,
    inputs: &[Vec<u8>],
) -> Result<(), String> {
    for (i, input) in inputs.iter().enumerate() {
        let (a, b) = lay.time(Layer::EmuValidate, || {
            (wyt_emu::run_image(original, input.clone()), wyt_emu::run_image(stored, input.clone()))
        });
        lay.counts.validate_insts += a.inst_count + b.inst_count;
        if !a.ok() || !b.ok() || a.exit_code != b.exit_code || a.output != b.output {
            return Err(format!("warm validate: input {i} diverged"));
        }
    }
    Ok(())
}

/// Digest of a recompilation's image and intermediates — final module,
/// layouts, folds, bounds, saved-register classes and vararg arities —
/// in a canonical order, so two runs of the same job compare equal
/// exactly when they recovered the same thing.
pub fn fingerprint(r: &Recompiled) -> String {
    use std::fmt::Write;
    let mut s = wyt_ir::print::module_to_string(&r.module);
    let _ = write!(s, "\nimage {:?}", r.image);
    if let Some(l) = &r.layout {
        for (f, fl) in l.funcs.iter().collect::<BTreeMap<_, _>>() {
            let _ = write!(
                s,
                "\nlayout {f:?} {:?} {:?} {} {:?}",
                fl.vars, fl.assignment, fl.stack_args, fl.reg_args
            );
        }
        let _ =
            write!(s, "\ncallee_args {:?}", l.callee_stack_args.iter().collect::<BTreeMap<_, _>>());
    }
    if let Some(fold) = &r.fold {
        let _ = write!(s, "\nfold {:?}", fold.funcs.iter().collect::<BTreeMap<_, _>>());
    }
    if let Some(b) = &r.bounds {
        let _ = write!(
            s,
            "\nbounds {:?} {:?} {:?} {:?}",
            b.vars.iter().collect::<BTreeMap<_, _>>(),
            b.links,
            b.callsite_args.iter().collect::<BTreeMap<_, _>>(),
            b.entered
        );
    }
    if let Some(g) = &r.reginfo {
        let _ = write!(
            s,
            "\nregsave {:?} {:?}",
            g.class.iter().collect::<BTreeMap<_, _>>(),
            g.indirect_targets.iter().collect::<BTreeMap<_, _>>()
        );
    }
    if let Some(v) = &r.vararg_obs {
        let _ = write!(s, "\nvararg {:?}", v.arg_counts.iter().collect::<BTreeMap<_, _>>());
    }
    wyt_store::sha256_hex(s.as_bytes())
}
