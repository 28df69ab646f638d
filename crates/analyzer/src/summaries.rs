//! Per-function mod/ref + synchronization summaries, computed bottom-up
//! over the call graph's SCCs, plus the interprocedural lints they enable.
//!
//! A summary answers, for one function *including everything it may call*:
//! which constant addresses can it store to / load from (and whether any
//! access has a non-constant address), which words does it synchronize on
//! (`AtomicRmw` targets), does it fence, does it cross a region boundary,
//! does it write into the reserved checkpoint range, and what is its net
//! lock balance per lock word (CAS-acquires minus Swap-releases). The race
//! detector uses summaries as the conservative fallback when it cannot
//! descend into a callee; the intra-procedural I1–I3 passes get sharper
//! call handling from the same data.
//!
//! SCCs of size one are summarized in a single pass; recursion cycles are
//! iterated to a fixed point (all summary components are monotone — sets
//! grow, flags latch — so the iteration converges).

use crate::callgraph::CallGraph;
use crate::consts::ConstProp;
use crate::diag::{Diagnostic, Invariant, Location, Severity};
use cwsp_ir::function::Function;
use cwsp_ir::inst::{AtomicOp, Inst, Operand};
use cwsp_ir::layout;
use cwsp_ir::module::{FuncId, Module};
use cwsp_ir::types::Word;
use std::collections::{BTreeMap, BTreeSet};

/// Transitive may-effect summary of one function.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FuncSummary {
    /// Constant program-data addresses the function (or a callee) may
    /// store to.
    pub stores: BTreeSet<Word>,
    /// Some store has an address the analysis could not resolve.
    pub stores_unknown: bool,
    /// Constant program-data addresses the function (or a callee) may
    /// load from.
    pub loads: BTreeSet<Word>,
    /// Some load has an address the analysis could not resolve.
    pub loads_unknown: bool,
    /// Constant addresses targeted by `AtomicRmw` (locks, flags, counters).
    pub sync_addrs: BTreeSet<Word>,
    /// Some atomic targets an unresolvable address.
    pub sync_unknown: bool,
    /// The function (or a callee) executes a `Fence`.
    pub has_fence: bool,
    /// The function (or a callee) publishes output (`Out`) — a durability
    /// commit point for the I6 pass ([`crate::persist`]).
    pub has_out: bool,
    /// The function (or a callee) crosses a region boundary.
    pub has_boundary: bool,
    /// The function (or a callee) performs a raw `Store` into the reserved
    /// checkpoint/metadata range — a hazard for every caller's slot state.
    pub writes_ckpt_range: bool,
    /// Net lock balance per constant lock word: +1 for each CAS(0→_)
    /// acquire site, −1 for each Swap(→0) release site, summed over the
    /// function body only (not callees — balance is a per-body shape lint).
    pub lock_balance: BTreeMap<Word, i64>,
}

impl FuncSummary {
    /// Whether the function may write `addr`.
    pub fn may_store(&self, addr: Word) -> bool {
        self.stores_unknown || self.stores.contains(&addr)
    }

    /// Fold a callee's transitive effects into this summary. Returns true
    /// when anything changed (drives the SCC fixed point).
    pub(crate) fn absorb(&mut self, callee: &FuncSummary) -> bool {
        let mut changed = false;
        for &a in &callee.stores {
            changed |= self.stores.insert(a);
        }
        for &a in &callee.loads {
            changed |= self.loads.insert(a);
        }
        for &a in &callee.sync_addrs {
            changed |= self.sync_addrs.insert(a);
        }
        macro_rules! latch {
            ($field:ident) => {
                if callee.$field && !self.$field {
                    self.$field = true;
                    changed = true;
                }
            };
        }
        latch!(stores_unknown);
        latch!(loads_unknown);
        latch!(sync_unknown);
        latch!(has_fence);
        latch!(has_out);
        latch!(has_boundary);
        latch!(writes_ckpt_range);
        changed
    }
}

/// Summaries for every function of a module.
#[derive(Debug, Clone, Default)]
pub struct Summaries {
    by_func: Vec<FuncSummary>,
}

impl Summaries {
    /// Compute all summaries bottom-up over `cg`'s SCCs.
    pub fn compute(module: &Module, cg: &CallGraph) -> Self {
        let n = module.function_count();
        let mut by_func: Vec<FuncSummary> = vec![FuncSummary::default(); n];
        for scc in cg.sccs_bottom_up() {
            // Seed each member with its own body effects, then iterate
            // callee absorption to a fixed point (1 pass for acyclic SCCs).
            for &fid in scc {
                if fid.index() < n {
                    by_func[fid.index()] = body_summary(module, module.function(fid));
                }
            }
            loop {
                let mut changed = false;
                for &fid in scc {
                    for &callee in cg.callees(fid) {
                        if callee == fid {
                            continue;
                        }
                        let callee_sum = by_func[callee.index()].clone();
                        changed |= by_func[fid.index()].absorb(&callee_sum);
                    }
                }
                if !changed {
                    break;
                }
            }
        }
        Summaries { by_func }
    }

    /// Assemble summaries from per-function parts (indexed by `FuncId`) —
    /// the constructor the incremental layer ([`crate::incr`]) uses after
    /// recomputing only the dirty SCCs.
    pub(crate) fn from_parts(by_func: Vec<FuncSummary>) -> Self {
        Summaries { by_func }
    }

    /// Summary of `f` (default-empty for out-of-range ids).
    pub fn get(&self, f: FuncId) -> &FuncSummary {
        static EMPTY: FuncSummary = FuncSummary {
            stores: BTreeSet::new(),
            stores_unknown: false,
            loads: BTreeSet::new(),
            loads_unknown: false,
            sync_addrs: BTreeSet::new(),
            sync_unknown: false,
            has_fence: false,
            has_out: false,
            has_boundary: false,
            writes_ckpt_range: false,
            lock_balance: BTreeMap::new(),
        };
        self.by_func.get(f.index()).unwrap_or(&EMPTY)
    }
}

/// Summarize one function body (no callee effects).
pub(crate) fn body_summary(module: &Module, f: &Function) -> FuncSummary {
    let mut s = FuncSummary::default();
    let consts = ConstProp::compute(f);
    for (b, block) in f.iter_blocks() {
        for (i, inst) in block.insts.iter().enumerate() {
            match inst {
                Inst::Store { addr, .. } => {
                    match crate::races::resolve_addr(module, &consts, f, b, i, addr) {
                        Some(a) => {
                            if layout::is_ckpt_addr(a) || layout::is_hw_meta_addr(a) {
                                s.writes_ckpt_range = true;
                            } else {
                                s.stores.insert(a);
                            }
                        }
                        None => s.stores_unknown = true,
                    }
                }
                Inst::Load { addr, .. } => {
                    match crate::races::resolve_addr(module, &consts, f, b, i, addr) {
                        Some(a) => {
                            s.loads.insert(a);
                        }
                        None => s.loads_unknown = true,
                    }
                }
                Inst::AtomicRmw {
                    op,
                    addr,
                    src,
                    expected,
                    ..
                } => match crate::races::resolve_addr(module, &consts, f, b, i, addr) {
                    Some(a) => {
                        s.sync_addrs.insert(a);
                        match op {
                            AtomicOp::Cas => {
                                if matches!(expected, Operand::Imm(0)) {
                                    *s.lock_balance.entry(a).or_insert(0) += 1;
                                }
                            }
                            AtomicOp::Swap => {
                                if matches!(src, Operand::Imm(0)) {
                                    *s.lock_balance.entry(a).or_insert(0) -= 1;
                                }
                            }
                            AtomicOp::FetchAdd => {}
                        }
                    }
                    None => s.sync_unknown = true,
                },
                Inst::Fence => s.has_fence = true,
                Inst::Out { .. } => s.has_out = true,
                Inst::Boundary { .. } => s.has_boundary = true,
                _ => {}
            }
        }
    }
    s
}

/// Interprocedural lints enabled by the call graph + summaries:
/// `L-recursive-call` (the bounded-stack argument of the recovery model
/// cannot be made for unbounded recursion), `L-dead-function`, and the
/// I2 sharpening `I2-callee-clobbers-slot` (a call's `save_regs` rely on
/// checkpoint slots the callee may raw-write).
pub fn check_module(module: &Module, cg: &CallGraph, sums: &Summaries) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let has_entry = module.entry().is_some();
    for (fid, f) in module.iter_functions() {
        if has_entry && !cg.is_reachable(fid) {
            out.push(Diagnostic {
                severity: Severity::Info,
                invariant: Invariant::Lint,
                code: "L-dead-function",
                message: format!("function `{}` is never called from the entry", f.name),
                location: Location {
                    function: f.name.clone(),
                    block: f.entry().0,
                    inst: None,
                },
                region: None,
                witness: None,
            });
        }
        for (b, block) in f.iter_blocks() {
            for (i, inst) in block.insts.iter().enumerate() {
                let Inst::Call {
                    func, save_regs, ..
                } = inst
                else {
                    continue;
                };
                let callee_name = if func.index() < module.function_count() {
                    module.function(*func).name.clone()
                } else {
                    format!("fn#{}", func.index())
                };
                if cg.is_recursive(fid) && in_same_scc(cg, fid, *func) {
                    out.push(Diagnostic {
                        severity: Severity::Warning,
                        invariant: Invariant::Lint,
                        code: "L-recursive-call",
                        message: format!(
                            "call to `{callee_name}` closes a recursion cycle; \
                             frame depth (and checkpoint pressure) is unbounded",
                        ),
                        location: Location {
                            function: f.name.clone(),
                            block: b.0,
                            inst: Some(i),
                        },
                        region: None,
                        witness: None,
                    });
                }
                if !save_regs.is_empty() && sums.get(*func).writes_ckpt_range {
                    out.push(Diagnostic {
                        severity: Severity::Warning,
                        invariant: Invariant::CheckpointCoverage,
                        code: "I2-callee-clobbers-slot",
                        message: format!(
                            "call spills {} register(s) to checkpoint slots, but callee \
                             `{callee_name}` may raw-write the reserved checkpoint range",
                            save_regs.len(),
                        ),
                        location: Location {
                            function: f.name.clone(),
                            block: b.0,
                            inst: Some(i),
                        },
                        region: None,
                        witness: None,
                    });
                }
            }
        }
    }
    out
}

fn in_same_scc(cg: &CallGraph, a: FuncId, b: FuncId) -> bool {
    cg.sccs_bottom_up()
        .iter()
        .any(|scc| scc.contains(&a) && scc.contains(&b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwsp_ir::builder::FunctionBuilder;
    use cwsp_ir::inst::MemRef;
    use cwsp_ir::types::Reg;

    fn summarize(m: &Module) -> (CallGraph, Summaries) {
        let cg = CallGraph::compute(m);
        let sums = Summaries::compute(m, &cg);
        (cg, sums)
    }

    #[test]
    fn body_effects_are_collected() {
        let mut b = FunctionBuilder::new("f", 0);
        let e = b.entry();
        b.push(
            e,
            Inst::store(Operand::imm(1), MemRef::abs(layout::GLOBAL_BASE)),
        );
        let r = b.vreg();
        b.push(e, Inst::load(r, MemRef::abs(layout::GLOBAL_BASE + 8)));
        b.push(e, Inst::Fence);
        b.push(e, Inst::Ret { val: None });
        let mut m = Module::new("t");
        let fid = m.add_function(b.build());
        m.set_entry(fid);
        let (_, sums) = summarize(&m);
        let s = sums.get(fid);
        assert!(s.stores.contains(&layout::GLOBAL_BASE));
        assert!(s.loads.contains(&(layout::GLOBAL_BASE + 8)));
        assert!(s.has_fence);
        assert!(!s.stores_unknown && !s.loads_unknown);
        assert!(s.may_store(layout::GLOBAL_BASE));
        assert!(!s.may_store(layout::GLOBAL_BASE + 8));
    }

    #[test]
    fn callee_effects_flow_into_caller() {
        let mut leaf = FunctionBuilder::new("leaf", 0);
        let le = leaf.entry();
        leaf.push(
            le,
            Inst::store(Operand::imm(7), MemRef::abs(layout::GLOBAL_BASE + 64)),
        );
        leaf.push(le, Inst::Ret { val: None });

        let mut m = Module::new("t");
        let leaf_id = m.add_function(leaf.build());

        let mut main = FunctionBuilder::new("main", 0);
        let me = main.entry();
        main.push(
            me,
            Inst::Call {
                func: leaf_id,
                args: vec![],
                ret: None,
                save_regs: vec![],
            },
        );
        main.push(me, Inst::Halt);
        let main_id = m.add_function(main.build());
        m.set_entry(main_id);

        let (_, sums) = summarize(&m);
        assert!(sums
            .get(main_id)
            .stores
            .contains(&(layout::GLOBAL_BASE + 64)));
        // Leaf's own summary is unchanged by its caller.
        assert!(sums.get(leaf_id).stores.len() == 1);
    }

    #[test]
    fn recursion_reaches_fixed_point() {
        // a -> b -> a, with a storing X and b storing Y: both summaries see
        // both addresses.
        let x = layout::GLOBAL_BASE;
        let y = layout::GLOBAL_BASE + 8;
        let a_id = FuncId(0);
        let b_id = FuncId(1);
        let mut a = FunctionBuilder::new("a", 0);
        let ae = a.entry();
        a.push(ae, Inst::store(Operand::imm(1), MemRef::abs(x)));
        a.push(
            ae,
            Inst::Call {
                func: b_id,
                args: vec![],
                ret: None,
                save_regs: vec![],
            },
        );
        a.push(ae, Inst::Ret { val: None });
        let mut b = FunctionBuilder::new("b", 0);
        let be = b.entry();
        b.push(be, Inst::store(Operand::imm(2), MemRef::abs(y)));
        b.push(
            be,
            Inst::Call {
                func: a_id,
                args: vec![],
                ret: None,
                save_regs: vec![],
            },
        );
        b.push(be, Inst::Ret { val: None });
        let mut m = Module::new("t");
        m.add_function(a.build());
        m.add_function(b.build());
        m.set_entry(a_id);
        let (cg, sums) = summarize(&m);
        for fid in [a_id, b_id] {
            assert!(sums.get(fid).stores.contains(&x), "{fid:?}");
            assert!(sums.get(fid).stores.contains(&y), "{fid:?}");
        }
        let diags = check_module(&m, &cg, &sums);
        let rec: Vec<_> = diags
            .iter()
            .filter(|d| d.code == "L-recursive-call")
            .collect();
        assert_eq!(rec.len(), 2, "{diags:?}");
        assert!(rec.iter().all(|d| d.severity == Severity::Warning));
    }

    #[test]
    fn lock_balance_tracks_cas_and_swap() {
        let lock = layout::GLOBAL_BASE + 256;
        let mut b = FunctionBuilder::new("f", 0);
        let e = b.entry();
        let got = b.vreg();
        b.push(
            e,
            Inst::AtomicRmw {
                op: AtomicOp::Cas,
                dst: got,
                addr: MemRef::abs(lock),
                src: Operand::imm(1),
                expected: Operand::imm(0),
            },
        );
        b.push(
            e,
            Inst::AtomicRmw {
                op: AtomicOp::Swap,
                dst: got,
                addr: MemRef::abs(lock),
                src: Operand::imm(0),
                expected: Operand::imm(0),
            },
        );
        b.push(e, Inst::Ret { val: None });
        let mut m = Module::new("t");
        let fid = m.add_function(b.build());
        m.set_entry(fid);
        let (_, sums) = summarize(&m);
        let s = sums.get(fid);
        assert_eq!(s.lock_balance.get(&lock), Some(&0), "acquire+release");
        assert!(s.sync_addrs.contains(&lock));
    }

    #[test]
    fn dead_function_and_callee_slot_clobber_lints() {
        let mut evil = FunctionBuilder::new("evil", 0);
        let ee = evil.entry();
        evil.push(
            ee,
            Inst::store(
                Operand::imm(9),
                MemRef::abs(layout::ckpt_slot_addr(0, Reg(2))),
            ),
        );
        evil.push(ee, Inst::Ret { val: None });
        let mut m = Module::new("t");
        let evil_id = m.add_function(evil.build());

        let mut main = FunctionBuilder::new("main", 0);
        let me = main.entry();
        let r = main.mov(me, Operand::imm(5));
        main.push(me, Inst::Ckpt { reg: r });
        main.push(
            me,
            Inst::Call {
                func: evil_id,
                args: vec![],
                ret: None,
                save_regs: vec![r],
            },
        );
        main.push(me, Inst::Halt);
        let main_id = m.add_function(main.build());

        let mut dead = FunctionBuilder::new("unused", 0);
        let de = dead.entry();
        dead.push(de, Inst::Ret { val: None });
        m.add_function(dead.build());
        m.set_entry(main_id);

        let (cg, sums) = summarize(&m);
        assert!(sums.get(evil_id).writes_ckpt_range);
        let diags = check_module(&m, &cg, &sums);
        assert!(
            diags.iter().any(|d| d.code == "I2-callee-clobbers-slot"
                && d.severity == Severity::Warning
                && d.location.function == "main"),
            "{diags:?}"
        );
        let dead_lints: Vec<_> = diags
            .iter()
            .filter(|d| d.code == "L-dead-function")
            .collect();
        assert_eq!(dead_lints.len(), 1, "{diags:?}");
        assert_eq!(dead_lints[0].location.function, "unused");
        assert_eq!(dead_lints[0].severity, Severity::Info);
    }
}
