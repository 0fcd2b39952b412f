//! Advice: the code an aspect contributes at a join point.
//!
//! The platform supports the three insertion modes of the JoinPoint Model the
//! paper relies on: *before*, *after* and *around* (replacing the original
//! body, with the ability to `proceed()` to it).

use crate::join_point::JoinPointCtx;
use std::fmt;
use std::sync::Arc;

/// The kind of an advice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AdviceKind {
    /// Runs before the original body.
    Before,
    /// Runs after the original body.
    After,
    /// Wraps the original body; decides whether/when to `proceed()`.
    Around,
}

impl fmt::Display for AdviceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdviceKind::Before => write!(f, "before"),
            AdviceKind::After => write!(f, "after"),
            AdviceKind::Around => write!(f, "around"),
        }
    }
}

/// Signature of a before/after advice body.
pub type SimpleAdviceFn = Arc<dyn Fn(&mut JoinPointCtx<'_>) + Send + Sync>;

/// Signature of an around advice body.  The second argument is `proceed`:
/// invoking it runs the next advice in the chain (or the original body).
pub type AroundAdviceFn =
    Arc<dyn Fn(&mut JoinPointCtx<'_>, &mut dyn FnMut(&mut JoinPointCtx<'_>)) + Send + Sync>;

/// A single advice, ready to be bound to a pointcut.
#[derive(Clone)]
pub enum Advice {
    /// Advice executed before the intercepted operation.
    Before(SimpleAdviceFn),
    /// Advice executed after the intercepted operation.
    After(SimpleAdviceFn),
    /// Advice wrapped around the intercepted operation.
    Around(AroundAdviceFn),
}

impl Advice {
    /// Construct a before advice from a closure.
    pub fn before<F>(f: F) -> Self
    where
        F: Fn(&mut JoinPointCtx<'_>) + Send + Sync + 'static,
    {
        Advice::Before(Arc::new(f))
    }

    /// Construct an after advice from a closure.
    pub fn after<F>(f: F) -> Self
    where
        F: Fn(&mut JoinPointCtx<'_>) + Send + Sync + 'static,
    {
        Advice::After(Arc::new(f))
    }

    /// Construct an around advice from a closure.
    pub fn around<F>(f: F) -> Self
    where
        F: Fn(&mut JoinPointCtx<'_>, &mut dyn FnMut(&mut JoinPointCtx<'_>)) + Send + Sync + 'static,
    {
        Advice::Around(Arc::new(f))
    }

    /// The kind of this advice.
    pub fn kind(&self) -> AdviceKind {
        match self {
            Advice::Before(_) => AdviceKind::Before,
            Advice::After(_) => AdviceKind::After,
            Advice::Around(_) => AdviceKind::Around,
        }
    }
}

impl fmt::Debug for Advice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Advice::{}", self.kind())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join_point::JoinPointKind;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc as StdArc;

    #[test]
    fn advice_kind_reported() {
        assert_eq!(Advice::before(|_| {}).kind(), AdviceKind::Before);
        assert_eq!(Advice::after(|_| {}).kind(), AdviceKind::After);
        assert_eq!(Advice::around(|_, _| {}).kind(), AdviceKind::Around);
        assert_eq!(format!("{:?}", Advice::before(|_| {})), "Advice::before");
    }

    #[test]
    fn before_advice_runs_against_ctx() {
        let counter = StdArc::new(AtomicUsize::new(0));
        let c2 = counter.clone();
        let advice = Advice::before(move |ctx| {
            c2.fetch_add(ctx.attr("task_id").unwrap_or(0) as usize, Ordering::SeqCst);
        });
        let mut payload = ();
        let mut ctx = JoinPointCtx::new("X::y", JoinPointKind::Execution, &mut payload);
        ctx.set_attr("task_id", 5);
        if let Advice::Before(f) = &advice {
            f(&mut ctx);
        }
        assert_eq!(counter.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn around_advice_can_skip_proceed() {
        let advice = Advice::around(|_ctx, _proceed| {
            // intentionally do not proceed
        });
        let mut ran = false;
        let mut payload = ();
        let mut ctx = JoinPointCtx::new("X::y", JoinPointKind::Execution, &mut payload);
        if let Advice::Around(f) = &advice {
            let mut proceed = |_: &mut JoinPointCtx<'_>| {
                ran = true;
            };
            f(&mut ctx, &mut proceed);
        }
        assert!(!ran, "around advice that never proceeds must skip the body");
    }
}
