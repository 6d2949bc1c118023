//! Program structure — GPA's static-analysis product.
//!
//! The paper's static analyzer emits a *program structure file* holding
//! function symbols (global vs device), inline stacks, loop nests, and
//! source-line mappings. [`ProgramStructure`] is that artifact: built once
//! per module, it answers the queries the optimizers and the report need:
//!
//! * which function/loop/source line a PC belongs to,
//! * the [`Scope`] hierarchy for Eq. 5's scope-limited latency hiding,
//! * whether a function is a device function or a CUDA-math-library
//!   function (`__nv_*` / `__internal_*`), which the Function Inlining and
//!   Fast Math optimizers match on,
//! * the blamer's static def→use skeleton ([`StaticEdge`]), memoised per
//!   function the first time a profile stalls on an instruction.

pub mod slice;

mod skeleton;

pub use skeleton::StaticEdge;

use gpa_cfg::{Cfg, Dominators, LoopForest, LoopId};
use gpa_isa::{InlineFrame, Module, Visibility};
use std::fmt;

/// Analyzed structure of one function.
#[derive(Debug, Clone)]
pub struct FunctionInfo {
    /// Index into `Module::functions`.
    pub index: usize,
    /// Symbol name.
    pub name: String,
    /// Global kernel or device function.
    pub visibility: Visibility,
    /// Base PC.
    pub base: u64,
    /// One past the last PC.
    pub end: u64,
    /// Control-flow graph.
    pub cfg: Cfg,
    /// Dominator tree of `cfg` (the loop forest and the blamer read it).
    pub dom: Dominators,
    /// Natural-loop forest.
    pub loops: LoopForest,
    /// Lazily memoised blame skeleton (see [`StaticEdge`]).
    skeleton: skeleton::BlameSkeleton,
}

impl FunctionInfo {
    /// Whether this is a CUDA math-library style function.
    pub fn is_math_function(&self) -> bool {
        self.name.starts_with("__nv_") || self.name.starts_with("__internal_")
    }

    /// Whether this is a device (callee) function.
    pub fn is_device(&self) -> bool {
        self.visibility == Visibility::Device
    }
}

/// An optimization scope: a loop, a whole function, or the kernel.
///
/// Scopes order Eq. 5's analysis: "optimizations such as loop unrolling
/// only arrange code for a specific scope so that only the active samples
/// within the scope can be used to reduce latency samples".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scope {
    /// The whole kernel (all functions).
    Kernel,
    /// One function.
    Function(usize),
    /// One loop (function index, loop id).
    Loop(usize, LoopId),
}

/// The program structure of a module.
#[derive(Debug, Clone)]
pub struct ProgramStructure {
    functions: Vec<FunctionInfo>,
}

impl ProgramStructure {
    /// Analyzes a linked module.
    pub fn build(module: &Module) -> Self {
        let functions = module
            .functions
            .iter()
            .enumerate()
            .map(|(index, f)| {
                let cfg = Cfg::build(f);
                let dom = Dominators::build(&cfg);
                let loops = LoopForest::build_with_dominators(&cfg, &dom);
                FunctionInfo {
                    index,
                    name: f.name.clone(),
                    visibility: f.visibility,
                    base: f.base,
                    end: f.end(),
                    cfg,
                    dom,
                    loops,
                    skeleton: skeleton::BlameSkeleton::new(f.instrs.len()),
                }
            })
            .collect();
        ProgramStructure { functions }
    }

    /// All analyzed functions.
    pub fn functions(&self) -> &[FunctionInfo] {
        &self.functions
    }

    /// The function containing `pc`, with the instruction index inside it.
    pub fn locate(&self, pc: u64) -> Option<(&FunctionInfo, usize)> {
        self.functions.iter().find_map(|f| {
            if pc >= f.base && pc < f.end && (pc - f.base).is_multiple_of(gpa_isa::INSTR_BYTES) {
                Some((f, ((pc - f.base) / gpa_isa::INSTR_BYTES) as usize))
            } else {
                None
            }
        })
    }

    /// The innermost scope containing `pc` (a loop if any, else the
    /// function).
    pub fn scope_of(&self, pc: u64) -> Option<Scope> {
        let (f, idx) = self.locate(pc)?;
        match f.loops.innermost_of_instr(&f.cfg, idx) {
            Some(l) => Some(Scope::Loop(f.index, l)),
            None => Some(Scope::Function(f.index)),
        }
    }

    /// Whether `scope` contains `pc`.
    pub fn scope_contains(&self, scope: Scope, pc: u64) -> bool {
        match scope {
            Scope::Kernel => true,
            Scope::Function(fi) => self.locate(pc).is_some_and(|(f, _)| f.index == fi),
            Scope::Loop(fi, l) => self.locate(pc).is_some_and(|(f, idx)| {
                f.index == fi && f.loops.loop_contains_instr(&f.cfg, l, idx)
            }),
        }
    }

    /// Source location of `pc` in `module`, as `(file, line)`.
    pub fn source_of<'m>(&self, module: &'m Module, pc: u64) -> Option<(&'m str, u32)> {
        let (f, idx) = self.locate(pc)?;
        let loc = module.functions[f.index].lines.get(idx).copied().flatten()?;
        Some((module.file(loc.file), loc.line))
    }

    /// Inline stack of `pc` (innermost frame last; empty when not inlined).
    pub fn inline_stack_of<'m>(&self, module: &'m Module, pc: u64) -> &'m [InlineFrame] {
        match self.locate(pc) {
            Some((f, idx)) => {
                module.functions[f.index].inline_stacks.get(idx).map_or(&[], |s| s.as_slice())
            }
            None => &[],
        }
    }

    /// Human-readable description of a scope, with source info when
    /// available (e.g. `Loop at hotspot.cu:142 in calculate_temp`).
    pub fn describe_scope(&self, module: &Module, scope: Scope) -> String {
        match scope {
            Scope::Kernel => "Kernel".to_string(),
            Scope::Function(fi) => format!("Function {}", self.functions[fi].name),
            Scope::Loop(fi, l) => {
                let f = &self.functions[fi];
                let header = f.loops.get(l).header;
                let head_idx = f.cfg.block(header).start;
                let pc = f.base + head_idx as u64 * gpa_isa::INSTR_BYTES;
                match self.source_of(module, pc) {
                    Some((file, line)) => format!("Loop at {file}:{line} in {}", f.name),
                    None => format!("Loop at {pc:#x} in {}", f.name),
                }
            }
        }
    }
}

impl fmt::Display for Scope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scope::Kernel => write!(f, "kernel"),
            Scope::Function(i) => write!(f, "function#{i}"),
            Scope::Loop(i, l) => write!(f, "loop#{}.{}", i, l.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpa_isa::parse_module;

    fn module() -> Module {
        parse_module(
            r#"
.module demo
.kernel main
.line demo.cu 5
  MOV32I R0, 0 {S:1}
outer:
.line demo.cu 7
  MOV32I R1, 0 {S:1}
inner:
.line demo.cu 9
  IADD R1, R1, 1 {S:4}
  ISETP.LT.AND P0, R1, 8 {S:2}
  @P0 BRA inner {S:5}
.line demo.cu 11
  IADD R0, R0, 1 {S:4}
  ISETP.LT.AND P1, R0, 4 {S:2}
  @P1 BRA outer {S:5}
  CAL __nv_expf {S:5}
  EXIT
.endfunc
.func __nv_expf
  MUFU.EX2 R2, R2 {W:B0, S:1}
  RET {WT:[B0], S:5}
.endfunc
"#,
        )
        .unwrap()
    }

    #[test]
    fn locate_and_source() {
        let m = module();
        let s = ProgramStructure::build(&m);
        let f0 = m.function("main").unwrap();
        let (fi, idx) = s.locate(f0.pc_of(2)).unwrap();
        assert_eq!(fi.name, "main");
        assert_eq!(idx, 2);
        assert_eq!(s.source_of(&m, f0.pc_of(2)), Some(("demo.cu", 9)));
        assert!(s.locate(0x5).is_none());
    }

    #[test]
    fn scopes_and_nesting() {
        let m = module();
        let s = ProgramStructure::build(&m);
        let f0 = m.function("main").unwrap();
        // Instruction 2 is the inner loop's body, instruction 5 the outer's.
        let inner = s.scope_of(f0.pc_of(2)).unwrap();
        let outer = s.scope_of(f0.pc_of(5)).unwrap();
        assert!(matches!(inner, Scope::Loop(0, _)) && matches!(outer, Scope::Loop(0, _)));
        assert_ne!(inner, outer);
        assert!(s.scope_contains(outer, f0.pc_of(2)));
        assert!(s.scope_contains(outer, f0.pc_of(5)));
        assert!(!s.scope_contains(inner, f0.pc_of(5)));
        // describe_scope names the header line.
        let desc = s.describe_scope(&m, inner);
        assert!(desc.contains("demo.cu:9"), "got {desc}");
    }

    #[test]
    fn math_and_device_functions() {
        let m = module();
        let s = ProgramStructure::build(&m);
        let expf = s.functions().iter().find(|f| f.name == "__nv_expf").unwrap();
        assert!(expf.is_math_function());
        assert!(expf.is_device());
        let main = s.functions().iter().find(|f| f.name == "main").unwrap();
        assert!(!main.is_math_function());
        assert!(!main.is_device());
        // Scope of a PC in the device function.
        let scope = s.scope_of(expf.base).unwrap();
        assert_eq!(scope, Scope::Function(expf.index));
    }
}
