//! String interning for hot-path labels.
//!
//! Span names, attribute keys/values and phase labels repeat across every
//! unit in a run; at 100k units the per-span `String` copies dominated the
//! trace's memory footprint. A [`SymbolTable`] maps each distinct string to
//! a dense `u32` [`Symbol`] once, so spans carry 4-byte ids and comparisons
//! are integer equality.
//!
//! Determinism: symbol ids are assigned in first-intern order, which is a
//! pure function of the (deterministic) event sequence — two runs with the
//! same seed produce identical id assignments, so comparing `Symbol`s
//! across same-seed runs is exact. Tables are per-[`crate::trace::Trace`]
//! (never global): a process-wide table's ids would depend on test
//! interleaving across threads and break bit-identical replay comparisons.
//!
//! The `&str -> id` index is a `HashMap`, so interning is expected O(1)
//! instead of a string-compare walk down a tree that, at 100k units, holds
//! ~200k per-unit symbols. Its per-process random hash seed cannot leak
//! into ids or output: the index is only probed, never iterated, and the
//! id-ordered `names` vector is the table's only ordered view.

use std::collections::HashMap;

/// Interned string id. `Symbol::NONE` (0) is the empty string, reserved so
/// synthetic nodes (e.g. the critical-path virtual root) have a stable id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(pub(crate) u32);

impl Symbol {
    pub const NONE: Symbol = Symbol(0);

    /// Dense index of this symbol in its table (0 = empty string).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Append-only intern table: `&str -> Symbol` with expected O(1) intern
/// and lookup, and O(1) resolve. Ids are dense (0..len), so per-symbol
/// side tables can be plain `Vec`s indexed by [`Symbol::index`].
#[derive(Debug, Clone)]
pub struct SymbolTable {
    names: Vec<String>,
    /// Probed only, never iterated: its order is the random hash order.
    index: HashMap<String, u32>,
}

impl Default for SymbolTable {
    fn default() -> Self {
        SymbolTable::new()
    }
}

impl SymbolTable {
    pub fn new() -> SymbolTable {
        SymbolTable {
            names: vec![String::new()],
            index: [(String::new(), 0)].into_iter().collect(),
        }
    }

    /// Intern `s`, returning the existing id if already present.
    pub fn intern(&mut self, s: &str) -> Symbol {
        if let Some(&id) = self.index.get(s) {
            return Symbol(id);
        }
        let id = u32::try_from(self.names.len()).expect("symbol table overflow");
        self.names.push(s.to_string());
        self.index.insert(s.to_string(), id);
        Symbol(id)
    }

    /// The string behind `sym`. Panics on a symbol from another table
    /// whose id is out of range.
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.names[sym.index()]
    }

    /// Id of `s` if it was ever interned (read-only probe).
    pub fn lookup(&self, s: &str) -> Option<Symbol> {
        self.index.get(s).map(|&id| Symbol(id))
    }

    /// Number of distinct symbols, including the reserved empty string.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    pub fn is_empty(&self) -> bool {
        false // the empty string is always present
    }

    /// All interned strings in id order (index = `Symbol::index`).
    pub fn names(&self) -> &[String] {
        &self.names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut t = SymbolTable::new();
        let a = t.intern("unit.run");
        let b = t.intern("unit.exec");
        assert_eq!(t.intern("unit.run"), a);
        assert_ne!(a, b);
        assert_eq!(t.resolve(a), "unit.run");
        assert_eq!(t.resolve(b), "unit.exec");
        assert_eq!(t.len(), 3);
        assert_eq!(a.index(), 1);
        assert_eq!(b.index(), 2);
    }

    #[test]
    fn empty_string_is_reserved() {
        let mut t = SymbolTable::new();
        assert_eq!(t.intern(""), Symbol::NONE);
        assert_eq!(t.resolve(Symbol::NONE), "");
        assert_eq!(t.lookup(""), Some(Symbol::NONE));
        assert_eq!(t.lookup("missing"), None);
    }
}
