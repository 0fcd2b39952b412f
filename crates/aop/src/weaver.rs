//! The weaver: binds aspects to join points and drives advice chains.
//!
//! [`Weaver`] collects aspect modules (the "transcompile with the AC++
//! compiler" step of the paper); [`Weaver::weave`] produces a
//! [`WovenProgram`], the runtime analogue of the parallelised C++ source.
//! Pointcuts are evaluated once, at weave time: for every canonical join
//! point ([`ALL_JOIN_POINTS`] × call/execution) the weave resolves the
//! ordered chain of advice that applies, and the woven program keeps only
//! that table.  A dispatch looks its chain up and runs it; it matches no
//! pointcut.  A name outside the canonical list has no chain, so it runs its
//! body unadvised, like any join point nothing advises.
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

use crate::advice::Advice;
use crate::aspect::Aspect;
use crate::join_point::{JoinPointCtx, JoinPointKind, JoinPointStats};
use crate::names::ALL_JOIN_POINTS;
use std::any::Any;
use std::fmt;
use std::ops::Range;
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

    /// Produce the woven program: order the aspects by precedence and bind
    /// each canonical join point to the advice whose pointcut selects it.
    pub fn weave(&self) -> WovenProgram {
        let mut order: Vec<&dyn Aspect> = self.aspects.iter().map(|a| a.as_ref()).collect();
        // Stable sort: same precedence keeps registration order.
        order.sort_by_key(|a| a.precedence());
        let mut aspects = Vec::with_capacity(order.len());
        let mut bindings = Vec::new();
        for (rank, aspect) in order.into_iter().enumerate() {
            aspects.push(aspect.name().to_string());
            bindings.extend(aspect.bindings().into_iter().map(|b| (rank, b)));
        }
        // Most bindings name one join point: one link each.
        let mut links = Vec::with_capacity(bindings.len());
        let mut chains = Vec::with_capacity(bindings.len());
        for &name in ALL_JOIN_POINTS {
            for kind in [JoinPointKind::Call, JoinPointKind::Execution] {
                let start = links.len();
                for (rank, binding) in &bindings {
                    if binding.pointcut.matches(name, kind) {
                        links.push(Link { advice: binding.advice.clone(), aspect_rank: *rank });
                    }
                }
                if links.len() > start {
                    chains.push(Chain { name, kind, links: start..links.len() });
                }
            }
        }
        WovenProgram(Arc::new(Table { aspects, chains, links, stats: JoinPointStats::new() }))
    }
}

impl fmt::Debug for Weaver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<&str> = self.aspects.iter().map(|a| a.name()).collect();
        f.debug_struct("Weaver").field("aspects", &names).finish()
    }
}

/// One advice bound to a join point, in chain order (aspect precedence, then
/// declaration order within the aspect).
struct Link {
    advice: Advice,
    aspect_rank: usize,
}

/// The advised join point `(name, kind)` and its slice of [`Table::links`].
struct Chain {
    name: &'static str,
    kind: JoinPointKind,
    links: Range<usize>,
}

/// What a weave resolved: a chain for every advised canonical join point
/// (none for the rest), and the dispatch counters.
struct Table {
    /// Aspect names by precedence rank.
    aspects: Vec<String>,
    chains: Vec<Chain>,
    links: Vec<Link>,
    stats: JoinPointStats,
}

/// The result of weaving: a dispatchable program configuration.
///
/// Cloning is cheap (one shared table, statistics included), so each task of
/// a parallel run can hold its own handle.
#[derive(Clone)]
pub struct WovenProgram(Arc<Table>);

impl WovenProgram {
    /// A program woven with no aspects at all (every dispatch just runs its
    /// body).  Equivalent to `Weaver::new().weave()`.
    pub fn unwoven() -> Self {
        Weaver::new().weave()
    }

    /// The advice chain of `(name, kind)`: empty when nothing advises it.
    fn chain(&self, name: &str, kind: JoinPointKind) -> &[Link] {
        let table = &*self.0;
        table
            .chains
            .iter()
            .find(|c| c.kind == kind && c.name == name)
            .map_or(&[], |c| &table.links[c.links.clone()])
    }

    /// Dispatch a join point: run its advice chain around `body`.
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
        for &(k, v) in attrs {
            ctx.set_attr(k, v);
        }
        let chain = self.chain(name, kind);
        self.0.stats.record_dispatch(!chain.is_empty());
        for link in chain {
            if let Advice::Before(f) = &link.advice {
                f(&mut ctx);
            }
        }
        run_around_chain(chain, &mut ctx, body);
        for link in chain.iter().rev() {
            if let Advice::After(f) = &link.advice {
                f(&mut ctx);
            }
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
        &self.0.stats
    }

    /// Number of advice bindings that fire for the given join point.
    pub fn matching_advice_count(&self, name: &str, kind: JoinPointKind) -> usize {
        self.chain(name, kind).len()
    }

    /// Build a human-readable weave report over the platform's canonical join
    /// points — the analogue of AspectC++'s weave log; every
    /// `Platform::run` outcome carries one.
    pub fn report(&self) -> WeaveReport {
        let table = &*self.0;
        let lines = table
            .chains
            .iter()
            .flat_map(|chain| {
                table.links[chain.links.clone()].iter().map(|link| WeaveReportLine {
                    join_point: chain.name.to_string(),
                    kind: chain.kind,
                    aspect: table.aspects[link.aspect_rank].clone(),
                    advice_kind: link.advice.kind(),
                    aspect_rank: link.aspect_rank,
                })
            })
            .collect();
        WeaveReport { lines }
    }
}

impl fmt::Debug for WovenProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WovenProgram").field("advised_join_points", &self.0.chains.len()).finish()
    }
}

/// Run the around advice of `chain`, outermost first, with `body` innermost.
fn run_around_chain(
    chain: &[Link],
    ctx: &mut JoinPointCtx<'_>,
    body: &mut dyn FnMut(&mut JoinPointCtx<'_>),
) {
    let outer = chain.iter().enumerate().find_map(|(i, link)| match &link.advice {
        Advice::Around(f) => Some((f, &chain[i + 1..])),
        _ => None,
    });
    match outer {
        None => body(ctx),
        // `proceed` runs the rest of the chain (and eventually the body).
        Some((outer, rest)) => outer(ctx, &mut |inner| run_around_chain(rest, inner, body)),
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
    use crate::pointcut::Pointcut;
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
    fn wildcard_pointcut_is_bound_at_weave_time_and_fires() {
        let hits = StdArc::new(Mutex::new(Vec::new()));
        let h = hits.clone();
        let aspect = ClosureAspect::new("memory").with_binding(
            Pointcut::within("Memory::%"),
            Advice::before(move |ctx| h.lock().push((ctx.name.to_string(), ctx.kind))),
        );
        let woven = Weaver::new().with_aspect(Box::new(aspect)).weave();
        // Both memory join points, either kind, are in the table.
        for name in [names::GET_BLOCKS, names::REFRESH] {
            for kind in [JoinPointKind::Call, JoinPointKind::Execution] {
                assert_eq!(woven.matching_advice_count(name, kind), 1, "{kind}({name})");
            }
        }
        assert_eq!(woven.report().lines.len(), 4);
        woven.dispatch_with(names::GET_BLOCKS, JoinPointKind::Call, &[], &mut (), &mut |_| {});
        woven.dispatch_with(names::REFRESH, JoinPointKind::Execution, &[], &mut (), &mut |_| {});
        woven.dispatch_with(names::PROCESSING, JoinPointKind::Execution, &[], &mut (), &mut |_| {});
        assert_eq!(
            *hits.lock(),
            vec![
                (names::GET_BLOCKS.to_string(), JoinPointKind::Call),
                (names::REFRESH.to_string(), JoinPointKind::Execution),
            ]
        );
        assert_eq!((woven.stats().dispatches(), woven.stats().advised_dispatches()), (3, 2));
    }

    #[test]
    fn a_name_outside_the_canonical_list_runs_unadvised() {
        let aspect = ClosureAspect::new("everything")
            .with_binding(Pointcut::Any, Advice::around(|_, _| panic!("advised")));
        let woven = Weaver::new().with_aspect(Box::new(aspect)).weave();
        assert_eq!(woven.matching_advice_count("Bench::probe", JoinPointKind::Call), 0);
        let mut ran = 0;
        woven.dispatch_with(
            "Bench::probe",
            JoinPointKind::Call,
            &[("task_id", 3)],
            &mut (),
            &mut |ctx| {
                assert_eq!(ctx.attr("task_id"), Some(3));
                ran += 1;
            },
        );
        assert_eq!(ran, 1);
        assert_eq!((woven.stats().dispatches(), woven.stats().advised_dispatches()), (1, 0));
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
