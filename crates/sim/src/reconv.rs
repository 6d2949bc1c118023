//! Branch-reconvergence points from immediate postdominators.

use gpa_cfg::{Cfg, PostDominators};
use gpa_isa::{Module, Opcode};
use std::collections::HashMap;

/// For every conditional branch PC in the module, the PC where its two
/// sides reconverge (the start of the immediate postdominator block of the
/// branch's block).
///
/// Branches whose postdominator is the function exit map to `u64::MAX`,
/// meaning both sides run to completion independently.
pub(crate) fn build_reconvergence(module: &Module) -> HashMap<u64, u64> {
    let mut map = HashMap::new();
    for f in &module.functions {
        if f.is_empty() {
            continue;
        }
        let cfg = Cfg::build(f);
        let pdom = PostDominators::build(&cfg);
        for b in cfg.blocks() {
            let last = b.end - 1;
            let instr = &f.instrs[last];
            let conditional =
                instr.opcode == Opcode::Bra && instr.pred.is_some_and(|p| !p.always());
            if !conditional {
                continue;
            }
            let reconv = match pdom.ipdom(b.id) {
                Some(r) => f.pc_of(cfg.block(r).start),
                None => u64::MAX,
            };
            map.insert(f.pc_of(last), reconv);
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpa_isa::parse_module;

    #[test]
    fn diamond_reconverges_at_join() {
        let m = parse_module(
            r#"
.kernel k
  ISETP.LT.AND P0, R0, R1 {S:2}
  @P0 BRA else_part {S:5}
  MOV R2, R3 {S:1}
  BRA join {S:5}
else_part:
  MOV R2, R4 {S:1}
join:
  IADD R5, R2, 1 {S:4}
  EXIT
.endfunc
"#,
        )
        .unwrap();
        let f = m.function("k").unwrap();
        let map = build_reconvergence(&m);
        assert_eq!(map.len(), 1);
        assert_eq!(map[&f.pc_of(1)], f.pc_of(5));
    }

    #[test]
    fn loop_branch_reconverges_at_exit_block() {
        let m = parse_module(
            r#"
.kernel k
top:
  IADD R0, R0, 1 {S:4}
  ISETP.LT.AND P0, R0, 10 {S:2}
  @P0 BRA top {S:5}
  EXIT
.endfunc
"#,
        )
        .unwrap();
        let f = m.function("k").unwrap();
        let map = build_reconvergence(&m);
        assert_eq!(map[&f.pc_of(2)], f.pc_of(3));
    }
}
