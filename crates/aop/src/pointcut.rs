//! Pointcut expressions.
//!
//! A pointcut selects the set of join points an advice applies to.  The
//! platform supports the subset of the AspectC++ pattern language that the
//! paper's modules need:
//!
//! * `execution("pattern")` — match execution join points whose name matches
//!   `pattern`;
//! * `call("pattern")` — match call join points;
//! * `within("pattern")` — match either kind (name only);
//! * `%` — wildcard matching any (possibly empty) substring inside a pattern,
//!   exactly like AspectC++'s match expressions;
//! * `&&`, `||`, `!` and parentheses to combine pointcuts.
//!
//! Pointcuts are built programmatically ([`Pointcut::execution`],
//! [`Pointcut::call`], [`Pointcut::and`], …); `Display` prints the textual
//! form above.

use crate::join_point::JoinPointKind;
use std::fmt;

/// A pointcut expression tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pointcut {
    /// Matches execution join points with a matching name.
    Execution(Pattern),
    /// Matches call join points with a matching name.
    Call(Pattern),
    /// Matches any kind of join point with a matching name.
    Within(Pattern),
    /// Logical conjunction.
    And(Box<Pointcut>, Box<Pointcut>),
    /// Logical disjunction.
    Or(Box<Pointcut>, Box<Pointcut>),
    /// Logical negation.
    Not(Box<Pointcut>),
    /// Matches every join point (used by tracing / NOP aspects in tests).
    Any,
}

impl Pointcut {
    /// `execution("name")`
    pub fn execution(pattern: &str) -> Self {
        Pointcut::Execution(Pattern::new(pattern))
    }

    /// `call("name")`
    pub fn call(pattern: &str) -> Self {
        Pointcut::Call(Pattern::new(pattern))
    }

    /// `within("name")` — name match regardless of kind.
    pub fn within(pattern: &str) -> Self {
        Pointcut::Within(Pattern::new(pattern))
    }

    /// Conjunction of two pointcuts.
    pub fn and(self, other: Pointcut) -> Self {
        Pointcut::And(Box::new(self), Box::new(other))
    }

    /// Disjunction of two pointcuts.
    pub fn or(self, other: Pointcut) -> Self {
        Pointcut::Or(Box::new(self), Box::new(other))
    }

    /// Negation of a pointcut.
    pub fn negate(self) -> Self {
        Pointcut::Not(Box::new(self))
    }

    /// Does this pointcut select the given join point?
    pub fn matches(&self, name: &str, kind: JoinPointKind) -> bool {
        match self {
            Pointcut::Execution(p) => kind == JoinPointKind::Execution && p.matches(name),
            Pointcut::Call(p) => kind == JoinPointKind::Call && p.matches(name),
            Pointcut::Within(p) => p.matches(name),
            Pointcut::And(a, b) => a.matches(name, kind) && b.matches(name, kind),
            Pointcut::Or(a, b) => a.matches(name, kind) || b.matches(name, kind),
            Pointcut::Not(a) => !a.matches(name, kind),
            Pointcut::Any => true,
        }
    }
}

impl fmt::Display for Pointcut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pointcut::Execution(p) => write!(f, "execution(\"{}\")", p.raw()),
            Pointcut::Call(p) => write!(f, "call(\"{}\")", p.raw()),
            Pointcut::Within(p) => write!(f, "within(\"{}\")", p.raw()),
            Pointcut::And(a, b) => write!(f, "({a} && {b})"),
            Pointcut::Or(a, b) => write!(f, "({a} || {b})"),
            Pointcut::Not(a) => write!(f, "!{a}"),
            Pointcut::Any => write!(f, "any()"),
        }
    }
}

/// A name pattern with `%` wildcards (AspectC++ match-expression style).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pattern {
    raw: String,
    segments: Vec<String>,
    leading_wildcard: bool,
    trailing_wildcard: bool,
}

impl Pattern {
    /// Build a pattern from its textual form.
    pub fn new(raw: &str) -> Self {
        let leading_wildcard = raw.starts_with('%');
        let trailing_wildcard = raw.ends_with('%');
        let segments: Vec<String> =
            raw.split('%').filter(|s| !s.is_empty()).map(|s| s.to_string()).collect();
        Pattern { raw: raw.to_string(), segments, leading_wildcard, trailing_wildcard }
    }

    /// The original textual pattern.
    pub fn raw(&self) -> &str {
        &self.raw
    }

    /// Wildcard matching: every literal segment must appear in order; the
    /// first/last segment is anchored to the start/end of the name unless the
    /// pattern starts/ends with `%`.
    pub fn matches(&self, name: &str) -> bool {
        if self.segments.is_empty() {
            // "" matches only the empty string; "%" (or "%%…") matches anything.
            return self.leading_wildcard || self.trailing_wildcard || name.is_empty();
        }
        let mut pos = 0usize;
        let last_idx = self.segments.len() - 1;
        for (i, seg) in self.segments.iter().enumerate() {
            let first = i == 0;
            let last = i == last_idx;
            let anchored_start = first && !self.leading_wildcard;
            let anchored_end = last && !self.trailing_wildcard;
            if anchored_start && anchored_end {
                return name == seg;
            }
            if anchored_start {
                if !name.starts_with(seg.as_str()) {
                    return false;
                }
                pos = seg.len();
            } else if anchored_end {
                if !name.ends_with(seg.as_str()) {
                    return false;
                }
                return name.len() - seg.len() >= pos;
            } else {
                match name[pos..].find(seg.as_str()) {
                    None => return false,
                    Some(found) => pos += found + seg.len(),
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn literal_pattern_matches_exactly() {
        let p = Pattern::new("Memory::refresh");
        assert!(p.matches("Memory::refresh"));
        assert!(!p.matches("Memory::refresh2"));
        assert!(!p.matches("XMemory::refresh"));
        assert!(!p.matches("Memory::refres"));
    }

    #[test]
    fn wildcard_prefix_suffix() {
        assert!(Pattern::new("Memory::%").matches("Memory::get_blocks"));
        assert!(Pattern::new("Memory::%").matches("Memory::"));
        assert!(!Pattern::new("Memory::%").matches("Annotation::Processing"));
        assert!(Pattern::new("%::refresh").matches("Memory::refresh"));
        assert!(!Pattern::new("%::refresh").matches("Memory::refresh_all"));
        assert!(Pattern::new("%").matches("anything at all"));
        assert!(Pattern::new("%").matches(""));
    }

    #[test]
    fn wildcard_infix() {
        let p = Pattern::new("Annotation::%ize");
        assert!(p.matches("Annotation::Initialize"));
        assert!(p.matches("Annotation::Finalize"));
        assert!(!p.matches("Annotation::Processing"));
    }

    #[test]
    fn multiple_wildcards() {
        let p = Pattern::new("%::%_blocks");
        assert!(p.matches("Memory::get_blocks"));
        assert!(!p.matches("Memory::get_block"));
    }

    #[test]
    fn empty_pattern() {
        assert!(Pattern::new("").matches(""));
        assert!(!Pattern::new("").matches("x"));
    }

    #[test]
    fn pointcut_kind_filtering() {
        let pc = Pointcut::execution("Annotation::Processing");
        assert!(pc.matches("Annotation::Processing", JoinPointKind::Execution));
        assert!(!pc.matches("Annotation::Processing", JoinPointKind::Call));
        let pc = Pointcut::call("Memory::refresh");
        assert!(pc.matches("Memory::refresh", JoinPointKind::Call));
        assert!(!pc.matches("Memory::refresh", JoinPointKind::Execution));
        let pc = Pointcut::within("Memory::refresh");
        assert!(pc.matches("Memory::refresh", JoinPointKind::Call));
        assert!(pc.matches("Memory::refresh", JoinPointKind::Execution));
    }

    #[test]
    fn pointcut_combinators() {
        let pc = Pointcut::execution("Annotation::%")
            .and(Pointcut::execution("Annotation::Finalize").negate());
        assert!(pc.matches("Annotation::Initialize", JoinPointKind::Execution));
        assert!(!pc.matches("Annotation::Finalize", JoinPointKind::Execution));
        let pc = Pointcut::call("Memory::refresh").or(Pointcut::call("Memory::get_blocks"));
        assert!(pc.matches("Memory::get_blocks", JoinPointKind::Call));
        assert!(!pc.matches("Memory::other", JoinPointKind::Call));
    }

    #[test]
    fn display_prints_the_textual_form() {
        let pc = Pointcut::execution("Annotation::%")
            .and(Pointcut::call("Memory::refresh").negate())
            .or(Pointcut::Any);
        assert_eq!(
            pc.to_string(),
            r#"((execution("Annotation::%") && !call("Memory::refresh")) || any())"#
        );
    }

    proptest! {
        /// A pattern built by inserting '%' separators between fragments of the
        /// name always matches the name it was derived from.
        #[test]
        fn derived_wildcard_pattern_always_matches(name in "[A-Za-z_:]{1,24}", cuts in proptest::collection::vec(0usize..24, 0..4)) {
            let mut indices: Vec<usize> = cuts.into_iter().map(|c| c % (name.len() + 1)).collect();
            indices.sort_unstable();
            indices.dedup();
            let mut pattern = String::new();
            let mut prev = 0usize;
            for &i in &indices {
                pattern.push_str(&name[prev..i]);
                pattern.push('%');
                prev = i;
            }
            pattern.push_str(&name[prev..]);
            let p = Pattern::new(&pattern);
            prop_assert!(p.matches(&name), "pattern {:?} should match {:?}", pattern, name);
        }

        /// A literal pattern matches exactly the equal string.
        #[test]
        fn literal_pattern_iff_equal(a in "[A-Za-z_:]{0,16}", b in "[A-Za-z_:]{0,16}") {
            let p = Pattern::new(&a);
            prop_assert_eq!(p.matches(&b), a == b);
        }

        /// Negation is an involution on match results.
        #[test]
        fn double_negation(name in "[A-Za-z_:]{1,16}") {
            let pc = Pointcut::within("Memory::%");
            let double_neg = pc.clone().negate().negate();
            prop_assert_eq!(
                pc.matches(&name, JoinPointKind::Call),
                double_neg.matches(&name, JoinPointKind::Call)
            );
        }
    }
}
