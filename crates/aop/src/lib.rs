//! # aohpc-aop — the join-point model underneath the platform
//!
//! The paper builds its DSL-constructing platform on *Aspect-Oriented
//! Programming*: cross-cutting concerns (runtime control, block assignment,
//! inter-task communication) are packaged as **Aspect modules** and woven into
//! the end-user's serial program at well-defined **join points** via
//! **pointcut** patterns and **advice** (before / after / around).
//!
//! The original prototype uses AspectC++, a source-to-source weaver.  Rust has
//! no equivalent compiler, so this crate keeps the *JoinPoint Model* (JPM)
//! intact but performs the weave at dispatch time: the platform names every
//! operation that AspectC++ would expose as a join point (`main`,
//! `Annotation::Initialize|Processing|Finalize`, `Memory::get_blocks`,
//! `Memory::refresh`, …) and routes it through a [`Weaver`].  Aspect modules
//! register [`Pointcut`]s and [`Advice`]; the weaver matches them exactly like
//! the AspectC++ pattern language (`%` wildcards, `call`/`execution` kinds,
//! `&&`/`||`/`!` combinators) and executes the advice chain around the
//! original body.
//!
//! The observable semantics the paper relies on are preserved:
//!
//! * an aspect module written once (e.g. the MPI module) applies unchanged to
//!   every DSL built on the platform, because the join-point names come from
//!   the platform's annotation and memory libraries, not from user code;
//! * "Platform NOP" — transcompiled through the weaver with *no* aspect
//!   modules — is expressible and measurable (the dispatch overhead);
//! * advice ordering is deterministic (aspect precedence, then registration
//!   order), mirroring AspectC++ `aspect order` declarations.
//!
//! ```
//! use aohpc_aop::{Weaver, Aspect, AdviceBinding, Advice, Pointcut, JoinPointKind, JoinPointCtx};
//! use std::sync::Arc;
//! use std::sync::atomic::{AtomicUsize, Ordering};
//!
//! struct Tracer(Arc<AtomicUsize>);
//! impl Aspect for Tracer {
//!     fn name(&self) -> &str { "tracer" }
//!     fn bindings(&self) -> Vec<AdviceBinding> {
//!         let n = self.0.clone();
//!         vec![AdviceBinding::new(
//!             Pointcut::execution("Annotation::Processing"),
//!             Advice::before(move |_ctx: &mut JoinPointCtx| { n.fetch_add(1, Ordering::SeqCst); }),
//!         )]
//!     }
//! }
//!
//! let hits = Arc::new(AtomicUsize::new(0));
//! let mut weaver = Weaver::new();
//! weaver.add_aspect(Box::new(Tracer(hits.clone())));
//! let woven = weaver.weave();
//!
//! let mut payload = ();
//! woven.dispatch("Annotation::Processing", JoinPointKind::Execution, &mut payload, |_ctx| {});
//! assert_eq!(hits.load(Ordering::SeqCst), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod advice;
pub mod aspect;
pub mod join_point;
pub mod names;
pub mod pointcut;
pub mod weaver;

pub use advice::{Advice, AdviceKind};
pub use aspect::{AdviceBinding, Aspect, ClosureAspect};
pub use join_point::{attr, JoinPointCtx, JoinPointKind, JoinPointStats};
pub use names::*;
pub use pointcut::Pointcut;
pub use weaver::{WeaveReport, Weaver, WovenProgram};
