//! Read/write views over line-granular metadata.
//!
//! The Merkle-tree logic is the same whether it operates on the
//! durable NVM image (recovery), the on-chip Meta Cache contents
//! layered over NVM (runtime), or a scratch rebuild area. These traits
//! abstract that storage: [`MetaSource`] is the read side (absent
//! lines mean "default content"), [`MetaView`] adds writes.

use ccnvm_mem::{Line, LineAddr, LineStore};

/// Read access to metadata lines; `None` means the line was never
/// materialized and holds its default (all-zero / default-node) value.
pub trait MetaSource {
    /// Content of `line`, if materialized.
    fn load_meta(&self, line: LineAddr) -> Option<Line>;
}

/// Read/write access to metadata lines.
pub trait MetaView: MetaSource {
    /// Overwrites `line` with `content`.
    fn store_meta(&mut self, line: LineAddr, content: Line);
}

impl MetaSource for LineStore {
    fn load_meta(&self, line: LineAddr) -> Option<Line> {
        self.get(line).copied()
    }
}

impl MetaView for LineStore {
    fn store_meta(&mut self, line: LineAddr, content: Line) {
        self.write(line, content);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_store_view_roundtrip() {
        let mut s = LineStore::new();
        assert_eq!(s.load_meta(LineAddr(0)), None);
        s.store_meta(LineAddr(0), [3u8; 64]);
        assert_eq!(s.load_meta(LineAddr(0)), Some([3u8; 64]));
    }
}
