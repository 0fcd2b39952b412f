//! The weaver: matches aspects against join points and drives advice chains.
//!
//! [`Weaver`] collects aspect modules (the "transcompile with the AC++
//! compiler" step of the paper); [`Weaver::weave`] produces a
//! [`WovenProgram`], the runtime analogue of the parallelised C++ source: a
//! compiled table of pointcut→advice bindings plus dispatch machinery.
//!
//! Dispatch semantics (matching AspectC++):
//!
//! 1. all matching *before* advice runs, outer aspects first;
//! 2. all matching *around* advice wraps the body, outer aspects outermost;
//!    an around advice may call `proceed` zero, one or several times (the
//!    OpenMP-like module uses several — once per worker task);
//! 3. the original body runs when the innermost `proceed` is reached (or
//!    directly, if no around advice matched);
//! 4. all matching *after* advice runs, inner aspects first (reverse order).

use crate::advice::{Advice, AroundAdviceFn, SimpleAdviceFn};
use crate::aspect::Aspect;
use crate::join_point::{JoinPointCtx, JoinPointKind, JoinPointStats};
use crate::names::ALL_JOIN_POINTS;
use crate::pointcut::Pointcut;
use std::any::Any;
use std::fmt;
use std::sync::Arc;

/// Collects aspect modules prior to weaving.
#[derive(Default)]
pub struct Weaver {
    aspects: Vec<Box<dyn Aspect>>,
}

impl Weaver {
    /// An empty weaver ("Platform NOP" when woven without aspects).
    pub fn new() -> Self {
        Weaver { aspects: Vec::new() }
    }

    /// Register an aspect module.
    pub fn add_aspect(&mut self, aspect: Box<dyn Aspect>) -> &mut Self {
        self.aspects.push(aspect);
        self
    }

    /// Builder-style variant of [`Weaver::add_aspect`].
    pub fn with_aspect(mut self, aspect: Box<dyn Aspect>) -> Self {
        self.aspects.push(aspect);
        self
    }

    /// Produce the woven program: resolve precedences and freeze the binding
    /// table.
    pub fn weave(&self) -> WovenProgram {
        let mut entries: Vec<BindingEntry> = Vec::new();
        let mut order: Vec<(i32, usize)> =
            self.aspects.iter().enumerate().map(|(i, a)| (a.precedence(), i)).collect();
        // Stable sort: same precedence keeps registration order.
        order.sort_by_key(|(p, _)| *p);
        for (rank, (_, idx)) in order.iter().enumerate() {
            let aspect = &self.aspects[*idx];
            for (binding_idx, binding) in aspect.bindings().into_iter().enumerate() {
                entries.push(BindingEntry {
                    aspect_name: aspect.name().to_string(),
                    aspect_rank: rank,
                    binding_idx,
                    pointcut: binding.pointcut,
                    advice: binding.advice,
                });
            }
        }
        WovenProgram { entries: Arc::new(entries), stats: Arc::new(JoinPointStats::new()) }
    }
}

impl fmt::Debug for Weaver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<&str> = self.aspects.iter().map(|a| a.name()).collect();
        f.debug_struct("Weaver").field("aspects", &names).finish()
    }
}

struct BindingEntry {
    aspect_name: String,
    aspect_rank: usize,
    binding_idx: usize,
    pointcut: Pointcut,
    advice: Advice,
}

/// The result of weaving: a dispatchable program configuration.
///
/// Cloning is cheap (shared binding table and statistics), so each task of a
/// parallel run can hold its own handle.
#[derive(Clone)]
pub struct WovenProgram {
    entries: Arc<Vec<BindingEntry>>,
    stats: Arc<JoinPointStats>,
}

impl WovenProgram {
    /// A program woven with no aspects at all (every dispatch just runs its
    /// body).  Equivalent to `Weaver::new().weave()`.
    pub fn unwoven() -> Self {
        Weaver::new().weave()
    }

    /// Dispatch a join point: run matching advice around `body`.
    ///
    /// `payload` carries the operation-specific data documented per join
    /// point; `attrs` carries integer attributes such as the task id.
    pub fn dispatch_with(
        &self,
        name: &str,
        kind: JoinPointKind,
        attrs: &[(&'static str, i64)],
        payload: &mut dyn Any,
        body: &mut dyn FnMut(&mut JoinPointCtx<'_>),
    ) {
        let mut ctx = JoinPointCtx::new(name, kind, payload);
        for (k, v) in attrs {
            ctx.set_attr(k, *v);
        }

        let mut befores: Vec<&SimpleAdviceFn> = Vec::new();
        let mut arounds: Vec<&AroundAdviceFn> = Vec::new();
        let mut afters: Vec<&SimpleAdviceFn> = Vec::new();
        for entry in self.entries.iter() {
            if entry.pointcut.matches(name, kind) {
                match &entry.advice {
                    Advice::Before(f) => befores.push(f),
                    Advice::Around(f) => arounds.push(f),
                    Advice::After(f) => afters.push(f),
                }
            }
        }
        let advised = !(befores.is_empty() && arounds.is_empty() && afters.is_empty());
        self.stats.record_dispatch(advised);

        for f in &befores {
            f(&mut ctx);
        }
        run_around_chain(&arounds, &mut ctx, body);
        for f in afters.iter().rev() {
            f(&mut ctx);
        }
    }

    /// Run `body` under a join point that carries no payload and hand back
    /// what it returns: the form a traced call site takes, where advice reads
    /// the attributes (those in `attrs` and those the body sets) and the
    /// caller needs the body's result.  The body runs at most once, at the
    /// first `proceed`.
    ///
    /// # Panics
    ///
    /// If around advice suppresses the body: a result the caller needs
    /// cannot be skipped.
    pub fn dispatch_returning<R>(
        &self,
        name: &str,
        kind: JoinPointKind,
        attrs: &[(&'static str, i64)],
        body: impl FnOnce(&mut JoinPointCtx<'_>) -> R,
    ) -> R {
        let mut body = Some(body);
        let mut result = None;
        self.dispatch_with(name, kind, attrs, &mut (), &mut |ctx| {
            if let Some(body) = body.take() {
                result = Some(body(ctx));
            }
        });
        result.expect("advice on a value-returning join point must proceed")
    }

    /// Dispatch statistics accumulated so far.
    pub fn stats(&self) -> &JoinPointStats {
        &self.stats
    }

    /// Number of advice bindings that would fire for the given join point.
    pub fn matching_advice_count(&self, name: &str, kind: JoinPointKind) -> usize {
        self.entries.iter().filter(|e| e.pointcut.matches(name, kind)).count()
    }

    /// Build a human-readable weave report over the platform's canonical join
    /// points — the analogue of AspectC++'s weave log; every
    /// `Platform::run` outcome carries one.
    pub fn report(&self) -> WeaveReport {
        let mut lines = Vec::new();
        for name in ALL_JOIN_POINTS {
            for kind in [JoinPointKind::Call, JoinPointKind::Execution] {
                for entry in self.entries.iter() {
                    if entry.pointcut.matches(name, kind) {
                        lines.push(WeaveReportLine {
                            join_point: (*name).to_string(),
                            kind,
                            aspect: entry.aspect_name.clone(),
                            advice_kind: entry.advice.kind(),
                            aspect_rank: entry.aspect_rank,
                            binding_idx: entry.binding_idx,
                        });
                    }
                }
            }
        }
        WeaveReport { lines }
    }
}

impl fmt::Debug for WovenProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WovenProgram").field("bindings", &self.entries.len()).finish()
    }
}

fn run_around_chain(
    arounds: &[&AroundAdviceFn],
    ctx: &mut JoinPointCtx<'_>,
    body: &mut dyn FnMut(&mut JoinPointCtx<'_>),
) {
    match arounds.split_first() {
        None => {
            body(ctx);
            ctx.mark_proceeded();
        }
        Some((outer, rest)) => {
            // `proceed` runs the rest of the chain (and eventually the body).
            let mut proceed = |inner_ctx: &mut JoinPointCtx<'_>| {
                run_around_chain(rest, inner_ctx, body);
            };
            outer(ctx, &mut proceed);
        }
    }
}

/// One line of the weave report: which advice applies to which join point.
#[derive(Debug, Clone)]
pub struct WeaveReportLine {
    /// Join point name.
    pub join_point: String,
    /// Join point kind.
    pub kind: JoinPointKind,
    /// Contributing aspect module.
    pub aspect: String,
    /// before / after / around.
    pub advice_kind: crate::advice::AdviceKind,
    /// Position of the aspect in precedence order (0 = outermost).
    pub aspect_rank: usize,
    /// Position of the binding within its aspect.
    pub binding_idx: usize,
}

/// A complete weave report.
#[derive(Debug, Clone, Default)]
pub struct WeaveReport {
    /// All matched (join point, advice) pairs.
    pub lines: Vec<WeaveReportLine>,
}

impl WeaveReport {
    /// Names of aspects that advise at least one join point.
    pub fn active_aspects(&self) -> Vec<String> {
        let mut names: Vec<String> = self.lines.iter().map(|l| l.aspect.clone()).collect();
        names.sort();
        names.dedup();
        names
    }
}

impl fmt::Display for WeaveReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "weave report ({} matched bindings):", self.lines.len())?;
        for line in &self.lines {
            writeln!(
                f,
                "  {}({}) <- {} advice from aspect '{}'",
                line.kind, line.join_point, line.advice_kind, line.aspect
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aspect::ClosureAspect;
    use crate::names;
    use parking_lot::Mutex;
    use std::sync::Arc as StdArc;

    fn trace_aspect(name: &str, precedence: i32, log: StdArc<Mutex<Vec<String>>>) -> ClosureAspect {
        let l1 = log.clone();
        let l2 = log.clone();
        let l3 = log;
        let n1 = name.to_string();
        let n2 = name.to_string();
        let n3 = name.to_string();
        ClosureAspect::new(name)
            .with_precedence(precedence)
            .with_binding(
                Pointcut::execution("Annotation::Processing"),
                Advice::before(move |_| l1.lock().push(format!("{n1}:before"))),
            )
            .with_binding(
                Pointcut::execution("Annotation::Processing"),
                Advice::around(move |ctx, proceed| {
                    l2.lock().push(format!("{n2}:around-in"));
                    proceed(ctx);
                    l2.lock().push(format!("{n2}:around-out"));
                }),
            )
            .with_binding(
                Pointcut::execution("Annotation::Processing"),
                Advice::after(move |_| l3.lock().push(format!("{n3}:after"))),
            )
    }

    #[test]
    fn empty_weaver_runs_body_directly() {
        let woven = WovenProgram::unwoven();
        let mut payload = 0u32;
        woven.dispatch_with(
            names::PROCESSING,
            JoinPointKind::Execution,
            &[],
            &mut payload,
            &mut |ctx| {
                *ctx.payload_mut::<u32>().unwrap() += 1;
            },
        );
        assert_eq!(payload, 1);
        assert_eq!(woven.stats().dispatches(), 1);
        assert_eq!(woven.stats().advised_dispatches(), 0);
    }

    #[test]
    fn advice_ordering_follows_precedence() {
        let log = StdArc::new(Mutex::new(Vec::new()));
        let mut weaver = Weaver::new();
        // Registered in the "wrong" order; precedence must fix it.
        weaver.add_aspect(Box::new(trace_aspect("inner", 20, log.clone())));
        weaver.add_aspect(Box::new(trace_aspect("outer", 10, log.clone())));
        let woven = weaver.weave();

        let mut payload = ();
        woven.dispatch_with(
            names::PROCESSING,
            JoinPointKind::Execution,
            &[],
            &mut payload,
            &mut |_| {
                log.lock().push("body".to_string());
            },
        );

        let got = log.lock().clone();
        assert_eq!(
            got,
            vec![
                "outer:before",
                "inner:before",
                "outer:around-in",
                "inner:around-in",
                "body",
                "inner:around-out",
                "outer:around-out",
                "inner:after",
                "outer:after",
            ]
        );
    }

    #[test]
    fn around_advice_may_proceed_multiple_times() {
        let aspect = ClosureAspect::new("fanout").with_binding(
            Pointcut::execution("Annotation::Processing"),
            Advice::around(|ctx, proceed| {
                proceed(ctx);
                proceed(ctx);
                proceed(ctx);
            }),
        );
        let woven = Weaver::new().with_aspect(Box::new(aspect)).weave();
        let mut payload = 0usize;
        woven.dispatch_with(
            names::PROCESSING,
            JoinPointKind::Execution,
            &[],
            &mut payload,
            &mut |ctx| {
                *ctx.payload_mut::<usize>().unwrap() += 1;
            },
        );
        assert_eq!(payload, 3);
    }

    #[test]
    fn around_advice_may_suppress_the_body() {
        let aspect = ClosureAspect::new("suppress").with_binding(
            Pointcut::call("Memory::refresh"),
            Advice::around(|_ctx, _proceed| { /* never proceeds */ }),
        );
        let woven = Weaver::new().with_aspect(Box::new(aspect)).weave();
        let mut payload = false;
        woven.dispatch_with(names::REFRESH, JoinPointKind::Call, &[], &mut payload, &mut |ctx| {
            *ctx.payload_mut::<bool>().unwrap() = true;
        });
        assert!(!payload);
    }

    #[test]
    fn non_matching_kind_is_not_advised() {
        let aspect = ClosureAspect::new("call-only")
            .with_binding(Pointcut::call("Memory::refresh"), Advice::before(|_| panic!("no")));
        let woven = Weaver::new().with_aspect(Box::new(aspect)).weave();
        let mut payload = ();
        // Execution kind: the call() pointcut must not fire.
        woven.dispatch_with(
            names::REFRESH,
            JoinPointKind::Execution,
            &[],
            &mut payload,
            &mut |_| {},
        );
        assert_eq!(woven.stats().advised_dispatches(), 0);
    }

    #[test]
    fn attrs_are_visible_to_advice() {
        let seen = StdArc::new(Mutex::new(None));
        let s2 = seen.clone();
        let aspect = ClosureAspect::new("attr").with_binding(
            Pointcut::within("Memory::get_blocks"),
            Advice::before(move |ctx| {
                *s2.lock() = ctx.attr(crate::join_point::attr::TASK_ID);
            }),
        );
        let woven = Weaver::new().with_aspect(Box::new(aspect)).weave();
        let mut payload = ();
        woven.dispatch_with(
            names::GET_BLOCKS,
            JoinPointKind::Call,
            &[(crate::join_point::attr::TASK_ID, 42)],
            &mut payload,
            &mut |_| {},
        );
        assert_eq!(*seen.lock(), Some(42));
    }

    #[test]
    fn weave_report_lists_matches() {
        let log = StdArc::new(Mutex::new(Vec::new()));
        let woven = Weaver::new()
            .with_aspect(Box::new(trace_aspect("mpi-like", 10, log.clone())))
            .with_aspect(Box::new(trace_aspect("omp-like", 20, log)))
            .weave();
        let report = woven.report();
        assert_eq!(report.active_aspects(), vec!["mpi-like".to_string(), "omp-like".to_string()]);
        // Each aspect advises execution(Annotation::Processing) with 3 advice.
        assert_eq!(report.lines.len(), 6);
        let text = report.to_string();
        assert!(text.contains("execution(Annotation::Processing)"));
    }

    #[test]
    fn matching_advice_count() {
        let aspect = ClosureAspect::new("x")
            .with_binding(Pointcut::within("Memory::%"), Advice::before(|_| {}))
            .with_binding(Pointcut::call("Memory::refresh"), Advice::after(|_| {}));
        let woven = Weaver::new().with_aspect(Box::new(aspect)).weave();
        assert_eq!(woven.matching_advice_count(names::REFRESH, JoinPointKind::Call), 2);
        assert_eq!(woven.matching_advice_count(names::REFRESH, JoinPointKind::Execution), 1);
        assert_eq!(woven.matching_advice_count(names::MAIN, JoinPointKind::Execution), 0);
    }

    #[test]
    fn clone_shares_stats() {
        let woven = WovenProgram::unwoven();
        let clone = woven.clone();
        let mut payload = ();
        clone.dispatch_with(names::MAIN, JoinPointKind::Execution, &[], &mut payload, &mut |_| {});
        assert_eq!(woven.stats().dispatches(), 1);
    }
}
