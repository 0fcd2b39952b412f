//! Join points: the named program events that aspects can intercept.
//!
//! AspectC++ generates join points for both *function calls* (at the caller)
//! and *function executions* (at the callee).  The platform mirrors this with
//! [`JoinPointKind::Call`] and [`JoinPointKind::Execution`]; every platform
//! operation that the paper's aspect modules advise is dispatched with its
//! canonical name (see [`crate::names`]) and kind.

use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Whether a join point corresponds to a *call* site or an *execution* site.
///
/// The distinction matters for the paper's aspect modules: e.g. the MPI
/// module advises the *execution* of `main` (AspectType I) but the *call* of
/// `Memory::refresh` (AspectType III), so that the advice runs in the caller
/// task's context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum JoinPointKind {
    /// The join point is the call site of a function.
    Call,
    /// The join point is the execution (body) of a function.
    Execution,
}

impl fmt::Display for JoinPointKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JoinPointKind::Call => write!(f, "call"),
            JoinPointKind::Execution => write!(f, "execution"),
        }
    }
}

/// Context handed to every piece of advice.
///
/// It carries the join-point identity plus a type-erased `payload` describing
/// the intercepted operation (e.g. the block list produced by
/// `Memory::get_blocks`, or the missing-page list consumed by
/// `Memory::refresh`).  Advice downcasts the payload to the concrete type
/// published by the platform for that join point.
///
/// String/integer attributes provide lightweight out-of-band information such
/// as the current task id or layer, without forcing a concrete type onto every
/// advice implementation.
pub struct JoinPointCtx<'a> {
    /// Canonical join-point name, e.g. `"Memory::refresh"`.
    pub name: &'a str,
    /// Call or execution.
    pub kind: JoinPointKind,
    /// Operation-specific data; the platform documents the concrete type per
    /// join point.
    pub payload: &'a mut dyn Any,
    /// Integer attributes (task ids, step counters, parallelism degrees, …).
    attrs: HashMap<&'static str, i64>,
    /// Whether `proceed()` has been invoked by an around advice (or the body
    /// ran because no around advice was present).
    proceeded: bool,
}

impl<'a> JoinPointCtx<'a> {
    /// Create a new context for a dispatch.
    pub fn new(name: &'a str, kind: JoinPointKind, payload: &'a mut dyn Any) -> Self {
        JoinPointCtx { name, kind, payload, attrs: HashMap::new(), proceeded: false }
    }

    /// Attach an integer attribute (builder style).
    pub fn with_attr(mut self, key: &'static str, value: i64) -> Self {
        self.attrs.insert(key, value);
        self
    }

    /// Set an integer attribute.
    pub fn set_attr(&mut self, key: &'static str, value: i64) {
        self.attrs.insert(key, value);
    }

    /// Read an integer attribute.
    pub fn attr(&self, key: &str) -> Option<i64> {
        self.attrs.get(key).copied()
    }

    /// Downcast the payload to a concrete type (shared).
    pub fn payload_ref<T: 'static>(&self) -> Option<&T> {
        self.payload.downcast_ref::<T>()
    }

    /// Downcast the payload to a concrete type (exclusive).
    pub fn payload_mut<T: 'static>(&mut self) -> Option<&mut T> {
        self.payload.downcast_mut::<T>()
    }

    /// Record that the original body has been executed.
    pub(crate) fn mark_proceeded(&mut self) {
        self.proceeded = true;
    }
}

impl fmt::Debug for JoinPointCtx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JoinPointCtx")
            .field("name", &self.name)
            .field("kind", &self.kind)
            .field("attrs", &self.attrs)
            .field("proceeded", &self.proceeded)
            .finish()
    }
}

/// Well-known attribute keys used by the platform when dispatching.
pub mod attr {
    /// Global task id of the executing task (`ch_tid` of the paper).
    pub const TASK_ID: &str = "task_id";
    /// Rank within the distributed layer.
    pub const RANK: &str = "rank";
    /// Thread index within the shared-memory layer.
    pub const THREAD: &str = "thread";
    /// Iteration / step counter.
    pub const STEP: &str = "step";
    /// Degree of parallelism of the layer owning this dispatch.
    pub const PARALLELISM: &str = "parallelism";
    /// 1 if the dispatch happens during warm-up (dry-run), 0 otherwise.
    pub const WARMUP: &str = "warmup";
    /// Trace id correlating spans across layers (observability dispatches).
    pub const TRACE: &str = "trace";
    /// Span id of the enclosing span (observability dispatches).
    pub const PARENT: &str = "parent";
    /// Service job id.
    pub const JOB: &str = "job";
    /// Kernel family tag (0 = stencil, 1 = particle, 2 = usgrid).
    pub const FAMILY: &str = "family";
    /// Plan resolution origin (0 = hit, 1 = compiled, 2 = fetched); set by
    /// the dispatched body for around advice to read after `proceed`.
    pub const ORIGIN: &str = "origin";
    /// Block index within a kernel sweep.
    pub const BLOCK: &str = "block";
    /// Number of cells processed by the dispatched operation.
    pub const CELLS: &str = "cells";
    /// Cluster node / rank involved in the dispatched operation.
    pub const NODE: &str = "node";
    /// 1 if the dispatched operation succeeded, 0 otherwise; set by the body.
    pub const OK: &str = "ok";
}

/// Per-join-point dispatch counters.
///
/// The weaver keeps one [`JoinPointStats`] per woven program; it is the
/// mechanism behind the "Platform NOP" measurements (how many dispatches a
/// run performs even when no advice is attached) and is also handy in tests.
#[derive(Debug, Default)]
pub struct JoinPointStats {
    dispatches: AtomicU64,
    advised_dispatches: AtomicU64,
    advice_executions: AtomicU64,
}

impl JoinPointStats {
    /// New, zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record_dispatch(&self, advised: bool) {
        self.dispatches.fetch_add(1, Ordering::Relaxed);
        if advised {
            self.advised_dispatches.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn record_advice(&self, count: u64) {
        self.advice_executions.fetch_add(count, Ordering::Relaxed);
    }

    /// Total number of join-point dispatches.
    pub fn dispatches(&self) -> u64 {
        self.dispatches.load(Ordering::Relaxed)
    }

    /// Number of dispatches that had at least one matching advice.
    pub fn advised_dispatches(&self) -> u64 {
        self.advised_dispatches.load(Ordering::Relaxed)
    }

    /// Number of individual advice executions.
    pub fn advice_executions(&self) -> u64 {
        self.advice_executions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_display() {
        assert_eq!(JoinPointKind::Call.to_string(), "call");
        assert_eq!(JoinPointKind::Execution.to_string(), "execution");
    }

    #[test]
    fn ctx_attrs_roundtrip() {
        let mut payload = 41i32;
        let mut ctx = JoinPointCtx::new("X::y", JoinPointKind::Call, &mut payload)
            .with_attr(attr::TASK_ID, 7);
        ctx.set_attr(attr::STEP, 3);
        assert_eq!(ctx.attr(attr::TASK_ID), Some(7));
        assert_eq!(ctx.attr(attr::STEP), Some(3));
        assert_eq!(ctx.attr("missing"), None);
    }

    #[test]
    fn ctx_payload_downcast() {
        let mut payload: Vec<u32> = vec![1, 2, 3];
        let mut ctx = JoinPointCtx::new("X::y", JoinPointKind::Execution, &mut payload);
        assert!(ctx.payload_ref::<String>().is_none());
        ctx.payload_mut::<Vec<u32>>().unwrap().push(4);
        assert_eq!(ctx.payload_ref::<Vec<u32>>().unwrap(), &vec![1, 2, 3, 4]);
    }

    #[test]
    fn stats_counters() {
        let stats = JoinPointStats::new();
        stats.record_dispatch(false);
        stats.record_dispatch(true);
        stats.record_advice(3);
        assert_eq!(stats.dispatches(), 2);
        assert_eq!(stats.advised_dispatches(), 1);
        assert_eq!(stats.advice_executions(), 3);
    }
}
