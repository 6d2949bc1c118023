//! Modules and functions — the "virtual CUBIN" container.
//!
//! A [`Module`] plays the role of a CUBIN: it holds functions (global
//! kernels and device functions), per-instruction source-line mappings
//! (the product of compiling with `-lineinfo`), and inline stacks. After
//! [`Module::link`], every function has an absolute base address and all
//! symbolic branch/call targets are resolved to absolute PCs; one
//! instruction occupies [`INSTR_BYTES`] bytes.

use crate::instruction::Instruction;
use crate::opcode::Opcode;
use crate::operand::Operand;
use crate::{IsaError, Result};
use std::collections::HashMap;
use std::fmt;

/// Size of one encoded instruction in bytes.
pub const INSTR_BYTES: u64 = 16;

/// Function symbol visibility.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Visibility {
    /// A `__global__` kernel entry point.
    Global,
    /// A `__device__` function.
    Device,
}

/// A source location: an index into the module's file table plus a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SourceLoc {
    /// Index into [`Module::files`].
    pub file: u16,
    /// 1-based source line.
    pub line: u32,
}

/// One frame of an inline stack: `callee` was inlined at `call_loc`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct InlineFrame {
    /// Name of the inlined function.
    pub callee: String,
    /// Call-site location in the caller.
    pub call_loc: SourceLoc,
}

/// Pending symbolic target recorded by the assembler, resolved at link time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum FixupTarget {
    /// A function-local label.
    Label(String),
    /// Another function's entry point.
    Function(String),
}

#[derive(Debug, Clone, PartialEq)]
struct Fixup {
    func: usize,
    instr: usize,
    src_slot: usize,
    target: FixupTarget,
}

/// A function: a named, contiguous run of instructions with line/inline
/// metadata and (after linking) an absolute base address.
///
/// Equality ignores label *names*: after linking, branch targets are
/// absolute PCs and labels are purely cosmetic, so a printed-and-reparsed
/// function compares equal to the original even though the assembler
/// generated fresh label names.
#[derive(Debug, Clone)]
pub struct Function {
    /// Symbol name.
    pub name: String,
    /// Global kernel or device function.
    pub visibility: Visibility,
    /// The instruction stream.
    pub instrs: Vec<Instruction>,
    /// Absolute address of the first instruction (valid after linking).
    pub base: u64,
    /// Per-instruction source location (parallel to `instrs`).
    pub lines: Vec<Option<SourceLoc>>,
    /// Per-instruction inline stack, innermost frame last (parallel to
    /// `instrs`; empty for non-inlined code).
    pub inline_stacks: Vec<Vec<InlineFrame>>,
    /// Label name → instruction index.
    pub labels: HashMap<String, usize>,
}

impl Function {
    /// Creates an empty function.
    pub fn new(name: impl Into<String>, visibility: Visibility) -> Self {
        Function {
            name: name.into(),
            visibility,
            instrs: Vec::new(),
            base: 0,
            lines: Vec::new(),
            inline_stacks: Vec::new(),
            labels: HashMap::new(),
        }
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the function has no instructions.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Absolute PC of instruction `idx`.
    pub fn pc_of(&self, idx: usize) -> u64 {
        self.base + idx as u64 * INSTR_BYTES
    }

    /// Instruction index for an absolute `pc` inside this function.
    pub fn index_of_pc(&self, pc: u64) -> Option<usize> {
        if pc < self.base {
            return None;
        }
        let off = pc - self.base;
        if !off.is_multiple_of(INSTR_BYTES) {
            return None;
        }
        let idx = (off / INSTR_BYTES) as usize;
        (idx < self.instrs.len()).then_some(idx)
    }

    /// End address (one past the last instruction).
    pub fn end(&self) -> u64 {
        self.base + self.instrs.len() as u64 * INSTR_BYTES
    }
}

impl PartialEq for Function {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.visibility == other.visibility
            && self.instrs == other.instrs
            && self.base == other.base
            && self.lines == other.lines
            && self.inline_stacks == other.inline_stacks
    }
}

/// A linked or un-linked collection of functions — the unit GPA analyzes.
#[derive(Debug, Clone, PartialEq)]
pub struct Module {
    /// Module name (usually the kernel or benchmark name).
    pub name: String,
    /// Architecture tag (`"volta"`).
    pub arch: String,
    /// Source-file table referenced by [`SourceLoc::file`].
    pub files: Vec<String>,
    /// Functions in layout order.
    pub functions: Vec<Function>,
    fixups: Vec<Fixup>,
    linked: bool,
}

impl Module {
    /// Creates an empty module for the Volta-like architecture.
    pub fn new(name: impl Into<String>) -> Self {
        Module {
            name: name.into(),
            arch: "volta".into(),
            files: Vec::new(),
            functions: Vec::new(),
            fixups: Vec::new(),
            linked: false,
        }
    }

    /// Whether [`Module::link`] has completed.
    pub fn is_linked(&self) -> bool {
        self.linked
    }

    /// Adds `path` to the file table (deduplicating) and returns its index.
    pub(crate) fn add_file(&mut self, path: &str) -> u16 {
        if let Some(i) = self.files.iter().position(|f| f == path) {
            return i as u16;
        }
        self.files.push(path.to_string());
        (self.files.len() - 1) as u16
    }

    /// The path for a file-table index.
    pub fn file(&self, id: u16) -> &str {
        self.files.get(id as usize).map_or("<unknown>", |s| s.as_str())
    }

    /// Adds a function and returns its index.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::ModuleError`] on duplicate function names.
    pub(crate) fn add_function(&mut self, f: Function) -> Result<usize> {
        if self.functions.iter().any(|g| g.name == f.name) {
            return Err(IsaError::ModuleError(format!("duplicate function `{}`", f.name)));
        }
        self.functions.push(f);
        self.linked = false;
        Ok(self.functions.len() - 1)
    }

    /// Records a symbolic branch/call target to be resolved by
    /// [`Module::link`]. `src_slot` indexes the instruction's `srcs`.
    pub(crate) fn add_fixup(
        &mut self,
        func: usize,
        instr: usize,
        src_slot: usize,
        target: FixupTarget,
    ) {
        self.fixups.push(Fixup { func, instr, src_slot, target });
        self.linked = false;
    }

    /// Assigns base addresses (256-byte aligned, first function at 0x1000)
    /// and resolves all symbolic targets to absolute PCs.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::UnresolvedSymbol`] if a label or function named
    /// by a fixup does not exist.
    pub fn link(&mut self) -> Result<()> {
        let mut addr: u64 = 0x1000;
        for f in &mut self.functions {
            f.base = addr;
            addr = (addr + f.instrs.len() as u64 * INSTR_BYTES + 255) & !255;
        }
        let fixups = std::mem::take(&mut self.fixups);
        for fx in &fixups {
            let target_pc = match &fx.target {
                FixupTarget::Label(name) => {
                    let f = &self.functions[fx.func];
                    let idx = *f.labels.get(name).ok_or_else(|| {
                        IsaError::UnresolvedSymbol(format!("label `{name}` in `{}`", f.name))
                    })?;
                    f.pc_of(idx)
                }
                FixupTarget::Function(name) => self
                    .functions
                    .iter()
                    .find(|f| &f.name == name)
                    .map(|f| f.base)
                    .ok_or_else(|| IsaError::UnresolvedSymbol(name.clone()))?,
            };
            let instr = &mut self.functions[fx.func].instrs[fx.instr];
            if fx.src_slot >= instr.srcs.len() {
                return Err(IsaError::ModuleError(format!(
                    "fixup slot {} out of range in `{}`",
                    fx.src_slot, self.functions[fx.func].name
                )));
            }
            instr.srcs[fx.src_slot] = Operand::Imm(target_pc as i64);
        }
        self.linked = true;
        Ok(())
    }

    /// Looks up a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Kernel entry points (functions with global visibility).
    pub fn kernels(&self) -> impl Iterator<Item = &Function> {
        self.functions.iter().filter(|f| f.visibility == Visibility::Global)
    }

    /// Total instruction count across all functions.
    pub fn instr_count(&self) -> usize {
        self.functions.iter().map(|f| f.instrs.len()).sum()
    }

    /// Writes the module back out as assembly text (parseable by
    /// [`crate::parse_module`]).
    pub fn write_asm(&self) -> String {
        let mut out = String::new();
        use fmt::Write;
        writeln!(out, ".module {}", self.name).unwrap();
        writeln!(out, ".arch {}", self.arch).unwrap();
        for f in &self.functions {
            let kw = match f.visibility {
                Visibility::Global => ".kernel",
                Visibility::Device => ".func",
            };
            writeln!(out, "{kw} {}", f.name).unwrap();
            // Collect branch-target PCs that land inside this function so we
            // can emit labels instead of raw addresses.
            let mut target_labels: HashMap<usize, String> = HashMap::new();
            for i in &f.instrs {
                if let Some(t) = i.branch_target() {
                    if let Some(idx) = f.index_of_pc(t) {
                        let n = target_labels.len();
                        target_labels.entry(idx).or_insert_with(|| format!("L{n}"));
                    }
                }
            }
            let mut cur_line: Option<SourceLoc> = None;
            let mut cur_stack: Vec<InlineFrame> = Vec::new();
            for (idx, instr) in f.instrs.iter().enumerate() {
                let loc = f.lines.get(idx).copied().flatten();
                if loc != cur_line {
                    if let Some(l) = loc {
                        writeln!(out, ".line {} {}", self.file(l.file), l.line).unwrap();
                    }
                    cur_line = loc;
                }
                let stack = f.inline_stacks.get(idx).cloned().unwrap_or_default();
                if stack != cur_stack {
                    // Pop frames that no longer apply, push new ones.
                    let common =
                        cur_stack.iter().zip(stack.iter()).take_while(|(a, b)| a == b).count();
                    for _ in common..cur_stack.len() {
                        writeln!(out, ".inline pop").unwrap();
                    }
                    for fr in &stack[common..] {
                        writeln!(
                            out,
                            ".inline push {} {} {}",
                            fr.callee,
                            self.file(fr.call_loc.file),
                            fr.call_loc.line
                        )
                        .unwrap();
                    }
                    cur_stack = stack;
                }
                if let Some(lbl) = target_labels.get(&idx) {
                    writeln!(out, "{lbl}:").unwrap();
                }
                // Substitute symbolic targets back in for readability.
                let mut text = instr.to_string();
                if let Some(t) = instr.branch_target() {
                    let sym = if instr.opcode == Opcode::Cal {
                        self.functions.iter().find(|g| g.base == t).map(|g| g.name.clone())
                    } else {
                        f.index_of_pc(t).and_then(|i| target_labels.get(&i).cloned())
                    };
                    if let Some(sym) = sym {
                        text = text.replace(&Operand::Imm(t as i64).to_string(), &sym);
                    }
                }
                writeln!(out, "  {text}").unwrap();
            }
            for _ in 0..cur_stack.len() {
                writeln!(out, ".inline pop").unwrap();
            }
            writeln!(out, ".endfunc").unwrap();
        }
        out
    }
}

impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.write_asm())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opcode::Opcode;

    fn simple_module() -> Module {
        let mut m = Module::new("t");
        let mut f = Function::new("k", Visibility::Global);
        f.instrs.push(Instruction::new(Opcode::Nop, vec![], vec![]));
        f.instrs.push(Instruction::new(Opcode::Bra, vec![], vec![Operand::Imm(0)]));
        f.instrs.push(Instruction::new(Opcode::Exit, vec![], vec![]));
        f.labels.insert("top".into(), 0);
        f.lines = vec![None; 3];
        f.inline_stacks = vec![Vec::new(); 3];
        let fi = m.add_function(f).unwrap();
        m.add_fixup(fi, 1, 0, FixupTarget::Label("top".into()));
        m
    }

    #[test]
    fn link_resolves_labels_and_addresses() {
        let mut m = simple_module();
        m.link().unwrap();
        assert!(m.is_linked());
        let f = m.function("k").unwrap();
        assert_eq!(f.base, 0x1000);
        assert_eq!(f.instrs[1].branch_target(), Some(0x1000));
        assert_eq!(f.index_of_pc(0x1010), Some(1));
        assert!(f.index_of_pc(0x1008).is_none(), "unaligned PC must not resolve");
        assert_eq!(m.instr_count(), 3);
    }

    #[test]
    fn unresolved_symbol_is_an_error() {
        let mut m = simple_module();
        m.add_fixup(0, 1, 0, FixupTarget::Function("missing".into()));
        assert!(matches!(m.link(), Err(IsaError::UnresolvedSymbol(_))));
    }

    #[test]
    fn duplicate_function_rejected() {
        let mut m = simple_module();
        let f = Function::new("k", Visibility::Device);
        assert!(m.add_function(f).is_err());
    }
}
