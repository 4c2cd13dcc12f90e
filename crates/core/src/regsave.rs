//! Refinement 2a: dynamic saved-register analysis (paper §4.1).
//!
//! At every function entry each virtual register cell is assigned a fresh
//! symbolic token. A register is *saved* by a function iff, in every traced
//! invocation, (1) its token is only stored into the function's own stack
//! frame and loaded back (never used in an operation or written anywhere
//! else), and (2) the register cell again holds the token when the function
//! returns. Registers whose token is passed untouched to a callee are
//! *forwarded*: their classification is resolved after tracing with the
//! constraint "if it is an argument anywhere downstream, it is an argument
//! here" — exactly the paper's deferred constraint scheme.
//!
//! The per-step state is dense (DESIGN §18): facts live in a vector
//! indexed by `(function, cell)`, spilled tokens in a paged
//! [`ShadowMap`], and frame liveness in a bitset over serials.

use crate::shadow::{LiveFrames, ShadowMap};
use std::collections::{BTreeSet, HashMap};
use wyt_emu::{ExtId, Memory};
use wyt_ir::interp::{ExtArgs, Hooks, Interp, InterpError, Shadow, Tagged};
use wyt_ir::{BinOp, CmpOp, FuncId, InstId, Module, Ty};
use wyt_lifter::{vcpu_reg_addr, LiftedMeta, VCPU_BASE};

/// Number of tracked register cells (8 GPRs + 2 vector halves).
pub const NUM_CELLS: usize = 10;

/// Index of the `esp` cell.
pub const ESP_CELL: usize = 4;

/// Cell index of a vcpu cell address, if it is one. The cells are 4-byte
/// words from [`VCPU_BASE`]: the eight GPRs in encoding order, then the
/// two vector halves.
pub fn cell_of_addr(addr: u32) -> Option<usize> {
    let off = addr.wrapping_sub(VCPU_BASE);
    (off < 4 * NUM_CELLS as u32 && off.is_multiple_of(4)).then_some((off / 4) as usize)
}

/// Final classification of a register with respect to one function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegClass {
    /// Preserved: the caller's value is intact after the call.
    Saved,
    /// Consumed as an input to the function.
    Argument,
    /// Overwritten without reading the caller's value (includes the return
    /// value register).
    Clobbered,
}

/// Aggregated per-(function, cell) facts across all traced invocations.
#[derive(Debug, Default, Clone)]
struct CellFacts {
    entered: bool,
    used_in_op: bool,
    stored_outside: bool,
    not_restored: bool,
    /// Fact indices (see [`fact_ix`]) of the callee cells this cell was
    /// passed to untouched.
    forwarded_to: BTreeSet<usize>,
}

/// Index of the facts of `(f, cell)` in a dense fact vector.
fn fact_ix(f: FuncId, cell: usize) -> usize {
    f.index() * NUM_CELLS + cell
}

/// The symbolic token of `cell` in the frame with serial `serial`.
fn token(serial: u32, cell: usize) -> Shadow {
    // INVARIANT: a frame costs the interpreter at least two steps and its
    // fuel is 5e8, so serials stay below u32::MAX / NUM_CELLS.
    serial * NUM_CELLS as Shadow + cell as Shadow
}

/// Result of the analysis.
#[derive(Debug, Clone)]
pub struct RegSaveInfo {
    /// Classification per function per cell.
    pub class: HashMap<FuncId, [RegClass; NUM_CELLS]>,
    /// Observed callees per indirect call site.
    pub indirect_targets: HashMap<(FuncId, InstId), BTreeSet<FuncId>>,
}

impl RegSaveInfo {
    /// Cells classified [`RegClass::Saved`] for `f`.
    pub fn saved_cells(&self, f: FuncId) -> Vec<usize> {
        match self.class.get(&f) {
            Some(cs) => (0..NUM_CELLS).filter(|&i| cs[i] == RegClass::Saved).collect(),
            None => Vec::new(),
        }
    }

    /// Cells classified [`RegClass::Argument`] for `f` (the register part
    /// of its recovered signature).
    pub fn arg_cells(&self, f: FuncId) -> Vec<usize> {
        match self.class.get(&f) {
            Some(cs) => (0..NUM_CELLS).filter(|&i| cs[i] == RegClass::Argument).collect(),
            None => Vec::new(),
        }
    }
}

struct Frame {
    func: FuncId,
    serial: u32,
    sp0: u32,
    caller_shadows: [Option<Shadow>; NUM_CELLS],
}

/// The analysis hook.
///
/// A token names its frame serial and cell ([`token`]), so it needs no
/// table; `frame_funcs` gives the frame's function.
pub struct RegSaveHook {
    /// Function of each frame serial.
    frame_funcs: Vec<FuncId>,
    /// Indexed by [`fact_ix`].
    facts: Vec<CellFacts>,
    frames: Vec<Frame>,
    live: LiveFrames,
    /// Shadow currently stored in each vcpu cell.
    cell_shadows: [Option<Shadow>; NUM_CELLS],
    /// Address → shadow for spilled tokens (4-byte entries).
    addr_map: ShadowMap,
    cur_esp: u32,
    indirect_targets: HashMap<(FuncId, InstId), BTreeSet<FuncId>>,
}

impl RegSaveHook {
    fn new(num_funcs: usize) -> RegSaveHook {
        RegSaveHook {
            frame_funcs: Vec::new(),
            facts: vec![CellFacts::default(); num_funcs * NUM_CELLS],
            frames: Vec::new(),
            live: LiveFrames::new(),
            cell_shadows: [None; NUM_CELLS],
            addr_map: ShadowMap::new(),
            cur_esp: 0,
            indirect_targets: HashMap::new(),
        }
    }

    /// A shadow is meaningful only while its owning frame is live.
    fn live(&self, s: Shadow) -> bool {
        self.live.is_live(s / NUM_CELLS as Shadow)
    }

    fn fact(&mut self, s: Shadow) -> &mut CellFacts {
        let (serial, cell) = (s as usize / NUM_CELLS, s as usize % NUM_CELLS);
        &mut self.facts[fact_ix(self.frame_funcs[serial], cell)]
    }

    fn mark_op_use(&mut self, s: Option<Shadow>) {
        if let Some(s) = s {
            if self.live(s) {
                self.fact(s).used_in_op = true;
            }
        }
    }
}

impl Hooks for RegSaveHook {
    fn fn_enter(
        &mut self,
        f: FuncId,
        callsite: Option<(FuncId, InstId)>,
        _args: &[Tagged],
        mem: &Memory,
    ) {
        // Forwarding edges: cells of the (still current) parent frame that
        // hold its own entry token pass it untouched to the callee.
        if let (Some(_), Some(parent)) = (callsite, self.frames.last()) {
            for cell in 0..NUM_CELLS {
                if self.cell_shadows[cell] == Some(token(parent.serial, cell)) {
                    self.facts[fact_ix(parent.func, cell)].forwarded_to.insert(fact_ix(f, cell));
                }
            }
        }
        let serial = self.live.enter();
        self.frame_funcs.push(f);
        let sp0 = mem.read_u32(vcpu_reg_addr(wyt_isa::Reg::Esp));
        self.cur_esp = sp0;
        let caller_shadows = self.cell_shadows;
        for cell in 0..NUM_CELLS {
            self.cell_shadows[cell] = Some(token(serial, cell));
            self.facts[fact_ix(f, cell)].entered = true;
        }
        self.frames.push(Frame { func: f, serial, sp0, caller_shadows });
    }

    fn fn_exit(&mut self, f: FuncId, _ret: Option<Tagged>, _mem: &Memory) {
        let Some(frame) = self.frames.pop() else { return };
        debug_assert_eq!(frame.func, f);
        self.live.exit(frame.serial);
        for cell in 0..NUM_CELLS {
            let restored = self.cell_shadows[cell] == Some(token(frame.serial, cell));
            if restored {
                // The caller's tracking resumes seamlessly.
                self.cell_shadows[cell] = frame.caller_shadows[cell];
            } else {
                self.facts[fact_ix(f, cell)].not_restored = true;
                self.cell_shadows[cell] = None;
            }
        }
        // Restore the caller's stack-pointer view.
        if let Some(parent) = self.frames.last() {
            self.cur_esp = parent.sp0;
        }
    }

    fn call_pre(&mut self, caller: FuncId, inst: InstId, callee: FuncId, _mem: &Memory) {
        // Record observed targets per call site (used for indirect calls).
        self.indirect_targets.entry((caller, inst)).or_default().insert(callee);
    }

    fn bin(
        &mut self,
        _f: FuncId,
        _i: InstId,
        _op: BinOp,
        a: Tagged,
        b: Tagged,
        _res: u32,
    ) -> Option<Shadow> {
        self.mark_op_use(a.1);
        self.mark_op_use(b.1);
        None
    }

    fn cmp(&mut self, _f: FuncId, _i: InstId, _op: CmpOp, a: Tagged, b: Tagged) {
        self.mark_op_use(a.1);
        self.mark_op_use(b.1);
    }

    fn load(&mut self, _f: FuncId, _i: InstId, ty: Ty, addr: Tagged, _val: u32) -> Option<Shadow> {
        self.mark_op_use(addr.1);
        if let Some(cell) = cell_of_addr(addr.0) {
            return self.cell_shadows[cell].filter(|s| self.live(*s));
        }
        if ty == Ty::I32 {
            return self.addr_map.get(addr.0).filter(|&s| self.live(s));
        }
        None
    }

    fn store(&mut self, _f: FuncId, _i: InstId, ty: Ty, addr: Tagged, val: Tagged) {
        self.mark_op_use(addr.1);
        if let Some(cell) = cell_of_addr(addr.0) {
            if cell == ESP_CELL {
                self.cur_esp = val.0;
            }
            self.cell_shadows[cell] = val.1.filter(|s| self.live(*s));
            return;
        }
        self.addr_map.invalidate(addr.0, ty.bytes());
        let Some(s) = val.1.filter(|s| self.live(*s)) else { return };
        // Is the destination inside the current frame?
        let in_frame = self
            .frames
            .last()
            .map(|fr| addr.0 < fr.sp0 && addr.0 >= self.cur_esp.min(fr.sp0.saturating_sub(1 << 20)))
            .unwrap_or(false);
        if in_frame && ty == Ty::I32 {
            self.addr_map.insert(addr.0, s);
        } else {
            self.fact(s).stored_outside = true;
        }
    }

    fn transparent(&mut self, s: Option<Shadow>) -> Option<Shadow> {
        s.filter(|s| self.live(*s))
    }

    fn ext_call(&mut self, _f: FuncId, _i: InstId, _e: ExtId, args: &ExtArgs<'_>, _mem: &Memory) {
        // Explicit argument values carrying tokens are operand uses.
        if let ExtArgs::Explicit(vals) = args {
            for (_, s) in vals.iter() {
                self.mark_op_use(*s);
            }
        }
    }
}

/// Run the saved-register analysis over all inputs and classify.
///
/// # Errors
/// Returns the interpreter error if a traced input fails to execute.
pub fn analyze(
    module: &Module,
    meta: &LiftedMeta,
    inputs: &[Vec<u8>],
) -> Result<RegSaveInfo, InterpError> {
    // Per-input replays are independent: run them on the pool and merge
    // facts in input order (the merge is a monotone union keyed by
    // (FuncId, cell), so the result equals a serial sweep).
    let num_funcs = module.funcs.len();
    let runs = wyt_par::par_map(inputs, |_, input| {
        let mut interp = Interp::new(module, input.clone(), RegSaveHook::new(num_funcs));
        let out = interp.run();
        (out.error, interp.hooks)
    });
    let mut facts = vec![CellFacts::default(); num_funcs * NUM_CELLS];
    let mut indirect: HashMap<(FuncId, InstId), BTreeSet<FuncId>> = HashMap::new();
    for (error, hook) in runs {
        if let Some(e) = error {
            return Err(e);
        }
        for (e, v) in facts.iter_mut().zip(hook.facts) {
            e.entered |= v.entered;
            e.used_in_op |= v.used_in_op;
            e.stored_outside |= v.stored_outside;
            e.not_restored |= v.not_restored;
            e.forwarded_to.extend(v.forwarded_to);
        }
        for (k, v) in hook.indirect_targets {
            indirect.entry(k).or_default().extend(v);
        }
    }

    // Fixpoint: argument-ness propagates backwards along forwarding edges.
    let mut argument: Vec<bool> = facts.iter().map(|f| f.used_in_op || f.stored_outside).collect();
    loop {
        let mut changed = false;
        for (k, f) in facts.iter().enumerate() {
            if !argument[k] && f.forwarded_to.iter().any(|&t| argument[t]) {
                argument[k] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let no_facts = CellFacts::default();
    let mut class: HashMap<FuncId, [RegClass; NUM_CELLS]> = HashMap::new();
    for &fid in meta.func_by_addr.values() {
        let mut cs = [RegClass::Clobbered; NUM_CELLS];
        for (cell, c) in cs.iter_mut().enumerate() {
            let k = fact_ix(fid, cell);
            let fact = facts.get(k).unwrap_or(&no_facts);
            let is_arg = argument.get(k).copied().unwrap_or(false);
            *c = if is_arg {
                RegClass::Argument
            } else if fact.entered && !fact.not_restored {
                RegClass::Saved
            } else {
                RegClass::Clobbered
            };
        }
        // The stack pointer is handled structurally by sp0 folding, never
        // as data.
        cs[ESP_CELL] = RegClass::Saved;
        class.insert(fid, cs);
    }
    // The entry wrapper.
    class.entry(meta.start).or_insert([RegClass::Clobbered; NUM_CELLS]);

    Ok(RegSaveInfo { class, indirect_targets: indirect })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wyt_lifter::lift_image;
    use wyt_minicc::{compile, Profile};

    fn analyze_src(
        src: &str,
        profile: &Profile,
        inputs: &[&[u8]],
    ) -> (RegSaveInfo, wyt_lifter::Lifted, wyt_isa::image::Image) {
        let img = compile(src, profile).unwrap();
        let stripped = img.stripped();
        let inputs: Vec<Vec<u8>> = inputs.iter().map(|i| i.to_vec()).collect();
        let lifted = lift_image(&stripped, &inputs).unwrap();
        let info = analyze(&lifted.module, &lifted.meta, &inputs).unwrap();
        (info, lifted, img)
    }

    #[test]
    fn cell_of_addr_matches_a_scan_of_the_cell_addresses() {
        // The plain statement: compare against every cell's address.
        let scan = |addr: u32| -> Option<usize> {
            let regs = wyt_isa::Reg::ALL.iter().map(|&r| (vcpu_reg_addr(r), r.index()));
            let vregs = [(wyt_lifter::vcpu_vreg_addr(0), 8), (wyt_lifter::vcpu_vreg_addr(1), 9)];
            regs.chain(vregs).find(|&(a, _)| a == addr).map(|(_, cell)| cell)
        };
        for addr in VCPU_BASE - 8..VCPU_BASE + 4 * NUM_CELLS as u32 + 8 {
            assert_eq!(cell_of_addr(addr), scan(addr), "{addr:#x}");
        }
        for addr in [0, 4, u32::MAX - 3, VCPU_BASE.wrapping_neg()] {
            assert_eq!(cell_of_addr(addr), scan(addr), "{addr:#x}");
        }
    }

    #[test]
    fn frame_pointer_is_saved_not_argument() {
        // GCC 4.4 profile uses ebp as a frame pointer with push/pop.
        let src = r#"
            int leaf(int a, int b) {
                int arr[4];
                arr[0] = a;
                arr[1] = b;
                return arr[0] * arr[1];
            }
            int main() { return leaf(6, 7); }
        "#;
        let (info, lifted, img) = analyze_src(src, &Profile::gcc44_o3(), &[b""]);
        let leaf = lifted.meta.func_by_addr[&img.symbol("leaf").unwrap()];
        let cs = &info.class[&leaf];
        assert_eq!(cs[wyt_isa::Reg::Ebp.index()], RegClass::Saved, "ebp saved");
        assert_eq!(cs[wyt_isa::Reg::Eax.index()], RegClass::Clobbered, "eax is the return");
    }

    #[test]
    fn callee_saved_register_locals_are_saved() {
        // GCC 12 allocates hot locals into ebx/esi/edi and saves them.
        let src = r#"
            int work(int n) {
                int acc = 0;
                int i;
                for (i = 0; i < n; i++) acc += i * 3;
                return acc;
            }
            int main() { return work(9) & 0xff; }
        "#;
        let (info, lifted, img) = analyze_src(src, &Profile::gcc12_o3(), &[b""]);
        let work = lifted.meta.func_by_addr[&img.symbol("work").unwrap()];
        let cs = &info.class[&work];
        let saved_count = [wyt_isa::Reg::Ebx, wyt_isa::Reg::Esi, wyt_isa::Reg::Edi]
            .iter()
            .filter(|r| cs[r.index()] == RegClass::Saved)
            .count();
        assert!(saved_count >= 1, "register locals imply saved callee regs: {cs:?}");
    }

    #[test]
    fn regparm_arguments_are_classified_as_arguments() {
        // Custom convention: static functions take args in ecx/edx under
        // GCC 12 -O3 — the heuristic-defeating case of §4.1.
        let src = r#"
            static int mix(int a, int b) {
                int i;
                int acc = b;
                for (i = 0; i < a; i++) acc += i * 10;
                return acc;
            }
            int main() { return mix(4, 2); }
        "#;
        let (info, lifted, img) = analyze_src(src, &Profile::gcc12_o3(), &[b""]);
        let mix = lifted.meta.func_by_addr[&img.symbol("mix").unwrap()];
        let cs = &info.class[&mix];
        assert_eq!(cs[wyt_isa::Reg::Ecx.index()], RegClass::Argument, "{cs:?}");
        assert_eq!(cs[wyt_isa::Reg::Edx.index()], RegClass::Argument, "{cs:?}");
    }

    #[test]
    fn forwarded_registers_resolve_through_the_chain() {
        // `outer` forwards its regparm args untouched to `inner`, which
        // uses them: both must classify as arguments (the edx example of
        // §4.1).
        let src = r#"
            static int inner(int a, int b) {
                int i;
                int acc = 0;
                for (i = 0; i < a; i++) acc += b + i;
                return acc;
            }
            static int outer(int a, int b) { return inner(a, b); }
            int main() { return outer(9, 4); }
        "#;
        let (info, lifted, img) = analyze_src(src, &Profile::gcc12_o3(), &[b""]);
        let outer = lifted.meta.func_by_addr[&img.symbol("outer").unwrap()];
        let cs = &info.class[&outer];
        // outer loads its args to re-pass them, so they are used in ops or
        // at least forwarded-to-argument.
        assert_eq!(cs[wyt_isa::Reg::Ecx.index()], RegClass::Argument, "{cs:?}");
    }

    #[test]
    fn indirect_call_targets_recorded() {
        let src = r#"
            int one() { return 1; }
            int two() { return 2; }
            int main() {
                int t = getchar() == '1' ? (int)&one : (int)&two;
                return __icall(t);
            }
        "#;
        let (info, _lifted, _img) = analyze_src(src, &Profile::gcc44_o3(), &[b"1", b"2"]);
        let all: BTreeSet<FuncId> =
            info.indirect_targets.values().flat_map(|s| s.iter().copied()).collect();
        assert!(all.len() >= 2, "both indirect targets observed");
    }
}
