//! The textual assembler.
//!
//! Grammar (line oriented; `#` and `//` start comments):
//!
//! ```text
//! .module <name>
//! .arch <name>
//! .kernel <name>            # begin a global function
//! .func <name>              # begin a device function
//! .line <file> <line>       # source mapping for following instructions
//! .inline push <callee> <file> <line>
//! .inline pop
//! .endfunc
//! <label>:
//!   [@[!]Pn] MNEMONIC[.MOD]* [op {, op}] [{ctrl}]
//! ```
//!
//! Operands: `R7`, `RZ`, `R2:R3` (64-bit pair), `P3`, `PT`, `SR_TID.X`,
//! integer immediates (`42`, `-8`, `0x1f`), float immediates (`2.0`),
//! `c[0][0x160]`, memory refs `[R2:R3+0x10]`, and label / function names
//! for branch targets. Control items: `S:<n>`, `Y`, `W:Bn`, `R:Bn`,
//! `WT:[B0,B1]`.

use crate::control::ControlCode;
use crate::instruction::{Instruction, Modifier};
use crate::module::{FixupTarget, Function, InlineFrame, Module, SourceLoc, Visibility};
use crate::opcode::Opcode;
use crate::operand::{MemRef, Operand};
use crate::register::{BarrierReg, PredReg, Predicate, Register, SpecialReg};
use crate::{IsaError, Result};

/// Parses a whole module from assembly text and links it.
///
/// # Errors
///
/// Returns [`IsaError::ParseError`] (with a 1-based line number) on syntax
/// errors, or the linking errors of [`Module::link`].
pub fn parse_module(src: &str) -> Result<Module> {
    let mut p = Parser::new();
    for (ln, raw) in src.lines().enumerate() {
        p.line(ln + 1, raw)?;
    }
    p.finish()
}

struct Parser {
    module: Module,
    cur: Option<Function>,
    cur_index: usize,
    cur_loc: Option<SourceLoc>,
    cur_stack: Vec<InlineFrame>,
    pending_fixups: Vec<(usize, usize, FixupTarget)>,
}

fn err(line: usize, message: impl Into<String>) -> IsaError {
    IsaError::ParseError { line, message: message.into() }
}

impl Parser {
    fn new() -> Self {
        Parser {
            module: Module::new("module"),
            cur: None,
            cur_index: 0,
            cur_loc: None,
            cur_stack: Vec::new(),
            pending_fixups: Vec::new(),
        }
    }

    fn line(&mut self, ln: usize, raw: &str) -> Result<()> {
        let text = strip_comment(raw).trim();
        if text.is_empty() {
            return Ok(());
        }
        if let Some(rest) = text.strip_prefix('.') {
            return self.directive(ln, rest);
        }
        if let Some(label) = text.strip_suffix(':') {
            let label = label.trim();
            if !is_ident(label) {
                return Err(err(ln, format!("bad label `{label}`")));
            }
            let f = self.cur.as_mut().ok_or_else(|| err(ln, "label outside function"))?;
            let at = f.instrs.len();
            if f.labels.insert(label.to_string(), at).is_some() {
                return Err(err(ln, format!("duplicate label `{label}`")));
            }
            return Ok(());
        }
        self.instruction(ln, text)
    }

    fn directive(&mut self, ln: usize, rest: &str) -> Result<()> {
        let mut it = rest.split_whitespace();
        let name = it.next().unwrap_or("");
        match name {
            "module" => {
                self.module.name =
                    it.next().ok_or_else(|| err(ln, ".module needs a name"))?.to_string();
            }
            "arch" => {
                self.module.arch =
                    it.next().ok_or_else(|| err(ln, ".arch needs a name"))?.to_string();
            }
            "kernel" | "func" => {
                if self.cur.is_some() {
                    return Err(err(ln, "nested function (missing .endfunc?)"));
                }
                let fname = it.next().ok_or_else(|| err(ln, "function needs a name"))?;
                let vis = if name == "kernel" { Visibility::Global } else { Visibility::Device };
                self.cur = Some(Function::new(fname, vis));
                self.cur_loc = None;
                self.cur_stack.clear();
            }
            "endfunc" => {
                let f = self.cur.take().ok_or_else(|| err(ln, ".endfunc outside function"))?;
                let fi = self.module.add_function(f).map_err(|e| err(ln, e.to_string()))?;
                self.cur_index = fi + 1;
                for (instr, slot, target) in self.pending_fixups.drain(..) {
                    self.module.add_fixup(fi, instr, slot, target);
                }
            }
            "line" => {
                let file = it.next().ok_or_else(|| err(ln, ".line needs a file"))?;
                let line: u32 = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err(ln, ".line needs a line number"))?;
                let file = self.module.add_file(file);
                self.cur_loc = Some(SourceLoc { file, line });
            }
            "inline" => match it.next() {
                Some("push") => {
                    let callee = it.next().ok_or_else(|| err(ln, ".inline push needs a callee"))?;
                    let file = it.next().ok_or_else(|| err(ln, ".inline push needs a file"))?;
                    let line: u32 = it
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| err(ln, ".inline push needs a line"))?;
                    let file = self.module.add_file(file);
                    self.cur_stack.push(InlineFrame {
                        callee: callee.to_string(),
                        call_loc: SourceLoc { file, line },
                    });
                }
                Some("pop") => {
                    self.cur_stack
                        .pop()
                        .ok_or_else(|| err(ln, ".inline pop without matching push"))?;
                }
                _ => return Err(err(ln, ".inline expects push/pop")),
            },
            other => return Err(err(ln, format!("unknown directive `.{other}`"))),
        }
        Ok(())
    }

    fn instruction(&mut self, ln: usize, text: &str) -> Result<()> {
        if self.cur.is_none() {
            return Err(err(ln, "instruction outside function"));
        }
        // Split off the `{ctrl}` suffix first: its commas are not operand
        // separators.
        let (body, ctrl) = match text.split_once('{') {
            Some((body, rest)) => {
                let close = rest.rfind('}').ok_or_else(|| err(ln, "unterminated `{`"))?;
                (body.trim(), Some(&rest[..close]))
            }
            None => (text, None),
        };
        let mut rest = body;
        let mut pred = None;
        if let Some(after) = rest.strip_prefix('@') {
            let (ptok, tail) =
                after.split_once(char::is_whitespace).ok_or_else(|| err(ln, "lone predicate"))?;
            let negated = ptok.starts_with('!');
            let pname = ptok.trim_start_matches('!');
            let reg =
                parse_pred(pname).ok_or_else(|| err(ln, format!("bad predicate `{ptok}`")))?;
            pred = Some(Predicate { reg, negated });
            rest = tail.trim();
        }
        let (mnemonic, tail) = match rest.split_once(char::is_whitespace) {
            Some((m, t)) => (m, t.trim()),
            None => (rest, ""),
        };
        let mut parts = mnemonic.split('.');
        let opname = parts.next().unwrap_or("");
        let opcode = Opcode::from_name(opname)
            .ok_or_else(|| err(ln, format!("unknown opcode `{opname}`")))?;
        let mut mods = Vec::new();
        for m in parts {
            mods.push(
                Modifier::from_name(m)
                    .ok_or_else(|| err(ln, format!("unknown modifier `.{m}`")))?,
            );
        }
        // The first `dst_count` operands are destinations. Operands hold
        // no commas in this syntax (`[...]` and `c[..][..]` included), so
        // splitting on them is safe.
        let (mut dsts, mut srcs, mut fixups) = (Vec::new(), Vec::new(), Vec::new());
        // A symbol in a destination slot is reported after every operand
        // and the control code parsed.
        let mut symbol_dst = None;
        if !tail.is_empty() {
            for (i, tok) in tail.split(',').enumerate() {
                let tok = tok.trim();
                if tok.is_empty() {
                    return Err(err(ln, "empty operand"));
                }
                match parse_operand(ln, tok)? {
                    ParsedOperand::Concrete(o) if i < opcode.dst_count() => dsts.push(o),
                    ParsedOperand::Concrete(o) => srcs.push(o),
                    ParsedOperand::Symbol(s) if i < opcode.dst_count() => {
                        symbol_dst.get_or_insert(s);
                    }
                    ParsedOperand::Symbol(s) => {
                        fixups.push((srcs.len(), s));
                        srcs.push(Operand::Imm(0));
                    }
                }
            }
        }
        let ctrl = match ctrl {
            Some(c) => parse_ctrl(ln, c)?,
            None => ControlCode::none(),
        };
        if let Some(s) = symbol_dst {
            return Err(err(ln, format!("symbol `{s}` cannot be a destination")));
        }
        let f = self.cur.as_mut().expect("checked above");
        let at = f.instrs.len();
        f.instrs.push(Instruction { pred, opcode, mods, dsts, srcs, ctrl });
        f.lines.push(self.cur_loc);
        f.inline_stacks.push(self.cur_stack.clone());
        for (slot, s) in fixups {
            let target = if opcode == Opcode::Cal {
                FixupTarget::Function(s)
            } else {
                FixupTarget::Label(s)
            };
            self.pending_fixups.push((at, slot, target));
        }
        Ok(())
    }

    fn finish(mut self) -> Result<Module> {
        if let Some(f) = &self.cur {
            return Err(IsaError::ModuleError(format!("function `{}` missing .endfunc", f.name)));
        }
        self.module.link()?;
        Ok(self.module)
    }
}

enum ParsedOperand {
    Concrete(Operand),
    Symbol(String),
}

/// `raw` up to its first `#` or `//`.
fn strip_comment(raw: &str) -> &str {
    let bytes = raw.as_bytes();
    let mut from = 0;
    while let Some(at) = bytes[from..].iter().position(|&b| b == b'#' || b == b'/') {
        let at = from + at;
        if bytes[at] == b'#' || bytes.get(at + 1) == Some(&b'/') {
            return &raw[..at];
        }
        from = at + 1;
    }
    raw
}

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '$')
}

fn parse_pred(s: &str) -> Option<PredReg> {
    if s == "PT" {
        return Some(PredReg::TRUE);
    }
    let n: u32 = s.strip_prefix('P')?.parse().ok()?;
    if n > 6 {
        return None;
    }
    PredReg::new(n).ok()
}

fn parse_reg(s: &str) -> Option<Register> {
    if s == "RZ" {
        return Some(Register::ZERO);
    }
    let n: u32 = s.strip_prefix('R')?.parse().ok()?;
    if n > 254 {
        return None;
    }
    Register::new(n).ok()
}

fn parse_int(s: &str) -> Option<i64> {
    let (neg, body) = match s.strip_prefix('-') {
        Some(b) => (true, b),
        None => (false, s),
    };
    let v = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16).ok()?
    } else {
        body.parse::<i64>().ok()?
    };
    Some(if neg { -v } else { v })
}

fn parse_operand(ln: usize, tok: &str) -> Result<ParsedOperand> {
    use ParsedOperand::{Concrete, Symbol};
    // Memory reference.
    if let Some(inner) = tok.strip_prefix('[') {
        let inner = inner.strip_suffix(']').ok_or_else(|| err(ln, "unterminated `[`"))?;
        // Split base from +/- offset. Watch out: pair syntax R2:R3 has no sign.
        let (base_txt, off) = match inner.find(['+', '-']) {
            Some(i) => {
                let (b, o) = inner.split_at(i);
                let off = parse_int(o.trim_start_matches('+'))
                    .ok_or_else(|| err(ln, format!("bad offset `{o}`")))?;
                (b, off)
            }
            None => (inner, 0),
        };
        let (base, wide) = parse_base(base_txt)
            .ok_or_else(|| err(ln, format!("bad address base `{base_txt}`")))?;
        let offset = i32::try_from(off).map_err(|_| err(ln, "offset exceeds 32 bits"))?;
        return Ok(Concrete(Operand::Mem(MemRef { base, offset, wide })));
    }
    // Constant memory.
    if let Some(rest) = tok.strip_prefix("c[") {
        let close = rest.find(']').ok_or_else(|| err(ln, "bad constant operand"))?;
        let bank: u8 = parse_int(&rest[..close])
            .and_then(|v| u8::try_from(v).ok())
            .ok_or_else(|| err(ln, "bad constant bank"))?;
        let rest2 =
            rest[close + 1..].strip_prefix('[').ok_or_else(|| err(ln, "bad constant operand"))?;
        let close2 = rest2.find(']').ok_or_else(|| err(ln, "bad constant operand"))?;
        let offset: u16 = parse_int(&rest2[..close2])
            .and_then(|v| u16::try_from(v).ok())
            .ok_or_else(|| err(ln, "bad constant offset"))?;
        return Ok(Concrete(Operand::CMem { bank, offset }));
    }
    // Special register.
    if tok.starts_with("SR_") {
        let s = SpecialReg::from_name(tok)
            .ok_or_else(|| err(ln, format!("unknown special register `{tok}`")))?;
        return Ok(Concrete(Operand::SReg(s)));
    }
    // Register pair.
    if let Some((lo, hi)) = tok.split_once(':') {
        let (lo, hi) = (
            parse_reg(lo).ok_or_else(|| err(ln, format!("bad register `{lo}`")))?,
            parse_reg(hi).ok_or_else(|| err(ln, format!("bad register `{hi}`")))?,
        );
        if lo.pair_hi() != hi {
            return Err(err(ln, format!("pair `{tok}` is not consecutive")));
        }
        return Ok(Concrete(Operand::RegPair(lo)));
    }
    if let Some(r) = parse_reg(tok) {
        return Ok(Concrete(Operand::Reg(r)));
    }
    if let Some(p) = parse_pred(tok) {
        return Ok(Concrete(Operand::Pred(p)));
    }
    // Float immediate: contains '.' and is not hex.
    if !tok.starts_with("0x") && !tok.starts_with("-0x") && tok.contains('.') {
        if let Ok(v) = tok.parse::<f64>() {
            return Ok(Concrete(Operand::FImm(v)));
        }
    }
    if let Some(v) = parse_int(tok) {
        return Ok(Concrete(Operand::Imm(v)));
    }
    if is_ident(tok) {
        return Ok(Symbol(tok.to_string()));
    }
    Err(err(ln, format!("cannot parse operand `{tok}`")))
}

fn parse_base(s: &str) -> Option<(Register, bool)> {
    if let Some((lo, hi)) = s.split_once(':') {
        let lo = parse_reg(lo.trim())?;
        let hi = parse_reg(hi.trim())?;
        if lo.pair_hi() != hi {
            return None;
        }
        Some((lo, true))
    } else {
        Some((parse_reg(s.trim())?, false))
    }
}

fn parse_barrier(ln: usize, s: &str) -> Result<BarrierReg> {
    let n: u32 = s
        .strip_prefix('B')
        .and_then(|b| b.parse().ok())
        .ok_or_else(|| err(ln, format!("bad barrier `{s}`")))?;
    BarrierReg::new(n).map_err(|e| err(ln, e.to_string()))
}

fn parse_ctrl(ln: usize, text: &str) -> Result<ControlCode> {
    let mut c = ControlCode::none();
    // Wait lists contain commas; extract them before splitting.
    let wait_list = text.find("WT:[");
    let spliced;
    let rest = match wait_list {
        Some(i) => {
            let close = text[i..].find(']').ok_or_else(|| err(ln, "unterminated wait list"))? + i;
            for b in text[i + 4..close].split(',') {
                let b = b.trim();
                if !b.is_empty() {
                    c = c.with_wait(parse_barrier(ln, b)?);
                }
            }
            spliced = [&text[..i], &text[close + 1..]].concat();
            &spliced
        }
        None => text,
    };
    for item in rest.split(',') {
        let item = item.trim();
        if item.is_empty() {
            continue;
        }
        if item == "Y" {
            c.yield_flag = true;
        } else if let Some(v) = item.strip_prefix("S:") {
            let n: u8 = v.trim().parse().map_err(|_| err(ln, format!("bad stall count `{v}`")))?;
            if n > 15 {
                return Err(err(ln, "stall count must be 0..=15"));
            }
            c.stall = n;
        } else if let Some(v) = item.strip_prefix("W:") {
            c.write_barrier = Some(parse_barrier(ln, v.trim())?);
        } else if let Some(v) = item.strip_prefix("R:") {
            c.read_barrier = Some(parse_barrier(ln, v.trim())?);
        } else {
            return Err(err(ln, format!("unknown control item `{item}`")));
        }
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instruction::Slot;

    const DEMO: &str = r#"
.module demo
.arch volta
.kernel main
.line demo.cu 10
  S2R R0, SR_TID.X {W:B0, S:1}
  MOV32I R1, 0x80 {S:1}
  ISETP.LT.AND P0, R0, R1 {WT:[B0], S:2}
top:
.line demo.cu 12
  @P0 LDG.E.32 R4, [R2:R3+0x10] {W:B1, S:1}
  @!P0 LDC.32 R4, c[0][0x20] {W:B1, S:1}
  IADD R5, R4, 1 {WT:[B1], S:4}
  ISETP.LT.AND P1, R5, R1 {S:2}
  @P1 BRA top {S:5}
  CAL helper {S:5}
  EXIT
.endfunc
.func helper
  RET {S:5}
.endfunc
"#;

    #[test]
    fn parse_demo() {
        let m = parse_module(DEMO).unwrap();
        assert_eq!(m.name, "demo");
        assert_eq!(m.functions.len(), 2);
        let main = m.function("main").unwrap();
        assert_eq!(main.visibility, Visibility::Global);
        assert_eq!(main.instrs.len(), 10);
        // Branch resolves to label `top` (index 3).
        assert_eq!(main.instrs[7].branch_target(), Some(main.pc_of(3)));
        // Call resolves to `helper`'s base.
        let helper = m.function("helper").unwrap();
        assert_eq!(main.instrs[8].branch_target(), Some(helper.base));
        // Line info attaches.
        assert_eq!(main.lines[0], Some(SourceLoc { file: 0, line: 10 }));
        assert_eq!(main.lines[3], Some(SourceLoc { file: 0, line: 12 }));
        // Wait masks parse into barrier uses.
        assert!(main.instrs[5].uses().any(|s| s == Slot::Bar(BarrierReg::new(1).unwrap())));
    }

    #[test]
    fn roundtrip_print_parse() {
        let m = parse_module(DEMO).unwrap();
        let text = m.write_asm();
        let m2 = parse_module(&text).unwrap();
        assert_eq!(m, m2, "print → parse must be a fixed point\n{text}");
    }

    #[test]
    fn errors_carry_line_numbers() {
        // The second text closes its control code before opening it.
        for (bad, at) in [
            (".module x\n.kernel k\n  FROB R0\n.endfunc\n", 3),
            (".kernel k\n  NOP } {S:1\n  EXIT\n.endfunc\n", 2),
        ] {
            match parse_module(bad) {
                Err(IsaError::ParseError { line, .. }) => assert_eq!(line, at),
                other => panic!("expected parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn store_operand_order() {
        let src = ".kernel k\n  STG.E.32 [R2:R3], R0 {S:1}\n  EXIT\n.endfunc\n";
        let m = parse_module(src).unwrap();
        let st = &m.function("k").unwrap().instrs[0];
        assert!(st.dsts.is_empty());
        assert_eq!(st.srcs.len(), 2);
        assert_eq!(st.srcs[1], Operand::Reg(Register::from_u8(0)));
    }

    #[test]
    fn negative_offsets_and_floats() {
        let src = ".kernel k\n  LDS.32 R0, [R1-0x8] {W:B0,S:1}\n  FMUL R2, R0, -0.5 {WT:[B0],S:4}\n  EXIT\n.endfunc\n";
        let m = parse_module(src).unwrap();
        let f = m.function("k").unwrap();
        match f.instrs[0].srcs[0] {
            Operand::Mem(mr) => assert_eq!(mr.offset, -8),
            ref o => panic!("expected mem operand, got {o:?}"),
        }
        assert_eq!(f.instrs[1].srcs[1], Operand::FImm(-0.5));
    }

    #[test]
    fn inline_stack_parsing() {
        let src = "\
.kernel k
.line a.cu 5
  NOP {S:1}
.inline push helper a.cu 6
.line h.cu 2
  NOP {S:1}
.inline pop
.line a.cu 7
  EXIT
.endfunc
";
        let m = parse_module(src).unwrap();
        let f = m.function("k").unwrap();
        assert!(f.inline_stacks[0].is_empty());
        assert_eq!(f.inline_stacks[1].len(), 1);
        assert_eq!(f.inline_stacks[1][0].callee, "helper");
        assert!(f.inline_stacks[2].is_empty());
    }
    /// Comment stripping, control-code splicing and the order in which a
    /// line's errors are reported, as recorded before the parser stopped
    /// allocating per operand list and per control code.
    #[test]
    fn line_answers_match_the_recorded_ones() {
        let answers: Vec<String> = PROBES
            .iter()
            .map(|line| {
                match parse_module(&format!(".kernel k\ntop:\n{line}\n  EXIT\n.endfunc\n")) {
                    Ok(m) => format!("ok {}", m.functions[0].instrs[0]),
                    Err(e) => e.to_string(),
                }
            })
            .collect();
        assert_eq!(answers, RECORDED, "{answers:#?}");
    }

    const PROBES: [&str; 15] = [
        "  MOV R1, R2 {S:1} # note // more",
        "  MOV R1, R2 {S:1} // note # more",
        "  MOV R1, R2 {S:1}/",
        "  MOV R1, R2 {S:1} / 2",
        "//  MOV R1, R2 {S:1}",
        "  IADD R1, R2, 1 {W:B0, WT:[B0,B1], S:4}",
        "  IADD R1, R2, 1 {S:4, WT:[B0] Y}",
        "  IADD R1, R2, 1 {S:WT:[B0]4}",
        "  IADD R1, R2, 1 {WT:[B0}",
        "  MOV top, R1 {S:1}",
        "  MOV top, R1 {S:99}",
        "  MOV top, R1x {S:1}",
        "  MOV top, [R1 {S:1}",
        "  BRA top, {S:1}",
        "  IADD R1, top, bottom {S:1}",
    ];

    const RECORDED: [&str; 15] = [
        "ok MOV R1, R2 {S:1}",
        "ok MOV R1, R2 {S:1}",
        "ok MOV R1, R2 {S:1}",
        "ok MOV R1, R2 {S:1}",
        "ok EXIT {S:1}",
        "ok IADD R1, R2, 1 {WT:[B0,B1], W:B0, S:4}",
        "ok IADD R1, R2, 1 {WT:[B0], S:4, Y}",
        "ok IADD R1, R2, 1 {WT:[B0], S:4}",
        "parse error at line 3: unterminated wait list",
        "parse error at line 3: symbol `top` cannot be a destination",
        "parse error at line 3: stall count must be 0..=15",
        "parse error at line 3: symbol `top` cannot be a destination",
        "parse error at line 3: unterminated `[`",
        "parse error at line 3: empty operand",
        "unresolved symbol `label `bottom` in `k``",
    ];
}
