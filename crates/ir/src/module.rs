//! Modules: named collections of functions (kernels).

use crate::entities::FuncId;
use crate::function::Function;
use std::sync::Arc;

/// A compilation unit holding one or more kernels.
///
/// Kernels in this IR do not call each other (device functions are assumed
/// inlined, as Clang does for CUDA at `-O3`), so the module is a flat list.
/// Each function sits behind an [`Arc`]: cloning a module copies one
/// pointer per function, and [`Module::function_mut`] copies a function
/// only while another module (or a compile memo) still shares it, so
/// variants of one module share every function they do not change.
///
/// # Examples
///
/// ```
/// use uu_ir::{Module, Function, Type};
/// let mut m = Module::new("app");
/// let id = m.add_function(Function::new("kern", vec![], Type::Void));
/// assert_eq!(m.function(id).name(), "kern");
/// assert_eq!(m.find("kern"), Some(id));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Module {
    name: String,
    functions: Vec<Arc<Function>>,
}

impl Module {
    /// Create an empty module.
    pub fn new(name: impl Into<String>) -> Self {
        Module {
            name: name.into(),
            functions: Vec::new(),
        }
    }

    /// Module name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Add a function, returning its ID.
    pub fn add_function(&mut self, f: Function) -> FuncId {
        let id = FuncId(self.functions.len() as u32);
        self.functions.push(Arc::new(f));
        id
    }

    /// Immutable access to a function.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a function of this module.
    pub fn function(&self, id: FuncId) -> &Function {
        &self.functions[id.index()]
    }

    /// Mutable access to a function, copying it first if it is shared
    /// ([`Arc::make_mut`]).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a function of this module.
    pub fn function_mut(&mut self, id: FuncId) -> &mut Function {
        Arc::make_mut(&mut self.functions[id.index()])
    }

    /// The shared handle of a function: what a content-addressed store keys
    /// by pointer identity.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a function of this module.
    pub fn function_arc(&self, id: FuncId) -> &Arc<Function> {
        &self.functions[id.index()]
    }

    /// Replace a function by a shared one, copying nothing.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a function of this module.
    pub fn set_function(&mut self, id: FuncId, f: Arc<Function>) {
        self.functions[id.index()] = f;
    }

    /// Number of functions.
    pub fn num_functions(&self) -> usize {
        self.functions.len()
    }

    /// Iterate over `(FuncId, &Function)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (FuncId, &Function)> + '_ {
        self.functions
            .iter()
            .enumerate()
            .map(|(i, f)| (FuncId(i as u32), &**f))
    }

    /// Find a function by name.
    pub fn find(&self, name: &str) -> Option<FuncId> {
        self.iter().find(|(_, f)| f.name() == name).map(|(i, _)| i)
    }

    /// Total number of linked instructions across all functions — a crude
    /// "IR size" measure.
    pub fn total_insts(&self) -> usize {
        self.functions.iter().map(|f| f.num_insts()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Type;

    #[test]
    fn add_and_find() {
        let mut m = Module::new("m");
        let a = m.add_function(Function::new("a", vec![], Type::Void));
        let b = m.add_function(Function::new("b", vec![], Type::Void));
        assert_eq!(m.num_functions(), 2);
        assert_eq!(m.find("a"), Some(a));
        assert_eq!(m.find("b"), Some(b));
        assert_eq!(m.find("c"), None);
        assert_eq!(m.iter().count(), 2);
    }

    #[test]
    fn total_insts_counts_linked() {
        let mut m = Module::new("m");
        let id = m.add_function(Function::new("a", vec![], Type::Void));
        assert_eq!(m.total_insts(), 0);
        let entry = m.function(id).entry();
        let f = m.function_mut(id);
        let mut b = crate::FunctionBuilder::new(f);
        b.switch_to(entry);
        b.ret(None);
        assert_eq!(m.total_insts(), 1);
    }

    #[test]
    fn clones_share_functions_until_one_is_mutated() {
        let mut m = Module::new("m");
        let a = m.add_function(Function::new("a", vec![], Type::Void));
        let b = m.add_function(Function::new("b", vec![], Type::Void));
        let mut copy = m.clone();
        assert!(Arc::ptr_eq(m.function_arc(a), copy.function_arc(a)));
        let entry = copy.function(a).entry();
        copy.function_mut(a).set_loop_pragma(entry, crate::LoopPragma::NoUnroll);
        assert!(!Arc::ptr_eq(m.function_arc(a), copy.function_arc(a)));
        assert!(Arc::ptr_eq(m.function_arc(b), copy.function_arc(b)));
        assert_ne!(m.function(a), copy.function(a), "the original is untouched");
        copy.set_function(a, Arc::clone(m.function_arc(a)));
        assert!(Arc::ptr_eq(m.function_arc(a), copy.function_arc(a)));
    }
}
