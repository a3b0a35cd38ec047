//! Static analysis over SAND task configurations and plans.
//!
//! `sand-lint` runs *before* any video is decoded: it inspects the parsed
//! [`TaskConfig`] set, the derived abstract view dependency graphs, and a
//! dry-planned concrete object graph, and reports everything it can prove
//! statically — dead configuration branches, graph invariant violations,
//! budgets that can never be met, and missed sharing opportunities.
//!
//! Each finding is a [`Diagnostic`] with a stable `SL0xx` code:
//!
//! | family | codes | what it covers |
//! |---|---|---|
//! | config semantics | `SL001`–`SL004` | unreachable arms, zero-probability arms, vacuous merges, dead streams |
//! | graph invariants | `SL010`–`SL014` | edge legality, acyclicity, dangling references |
//! | resource feasibility | `SL020`–`SL022`, `SL025` | budget lower bounds, decode amplification, prefetch window sizing |
//! | sharing | `SL030`–`SL031` | near-miss cross-task merge opportunities |
//!
//! The lint judges what the user wrote: the task configs and the plan
//! derived from them. A config that cannot run at all is not a finding —
//! `TaskConfig::validate` and the constructors that read the field
//! (`ObjectStore::open`, `SandEngine::new`, `Fleet::new`) reject it.
//!
//! Diagnostics render rustc-style for humans ([`LintReport::render_human`])
//! and as JSON lines for tooling ([`LintReport::render_jsonl`]). The engine
//! runs the full pass at startup behind `EngineConfig { lint }`; deny-level
//! findings fail startup.

#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod config;
pub mod graph;
pub mod resources;
pub mod sharing;

pub use config::lint_configs;
pub use graph::{lint_abstract, lint_concrete};
pub use resources::lint_resources;
pub use sharing::lint_sharing;

use sand_config::TaskConfig;
use sand_graph::{AbstractGraph, ConcreteGraph, VideoMeta};

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but servable; reported and ignored.
    Warn,
    /// The configuration is broken or infeasible; startup should fail.
    Deny,
}

impl Severity {
    /// Lowercase label used in rendered output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Severity::Warn => "warning",
            Severity::Deny => "deny",
        }
    }
}

/// How the engine treats lint findings at startup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LintLevel {
    /// Skip the lint pass entirely.
    Off,
    /// Run the pass and report findings, but never fail startup.
    #[default]
    Warn,
    /// Run the pass; any deny-severity finding fails startup.
    Deny,
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code, e.g. `SL001`.
    pub code: &'static str,
    /// Finding severity.
    pub severity: Severity,
    /// Where the problem is: a dotted config path
    /// (`train.augmentation.crop.arms[1]`) or a graph node/edge id.
    pub location: String,
    /// What is wrong.
    pub message: String,
    /// How to fix it.
    pub help: String,
}

impl Diagnostic {
    /// Renders one diagnostic rustc-style:
    ///
    /// ```text
    /// warning[SL001]: arm 1 of conditional branch `c` can never be taken
    ///   --> train.augmentation.c.arms[1]
    ///   = help: `epoch > 100` is false for every epoch in 0..4
    /// ```
    #[must_use]
    pub fn render_human(&self) -> String {
        format!(
            "{}[{}]: {}\n  --> {}\n  = help: {}",
            self.severity.label(),
            self.code,
            self.message,
            self.location,
            self.help
        )
    }

    /// Renders one diagnostic as a single JSON object (one line).
    #[must_use]
    pub fn render_json(&self) -> String {
        format!(
            "{{\"code\":\"{}\",\"severity\":\"{}\",\"location\":\"{}\",\"message\":\"{}\",\"help\":\"{}\"}}",
            self.code,
            self.severity.label(),
            json_escape(&self.location),
            json_escape(&self.message),
            json_escape(&self.help)
        )
    }
}

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Inputs the analyses need beyond the configs and graphs themselves.
#[derive(Debug, Clone)]
pub struct LintOptions {
    /// Total training epochs (bounds the `epoch` condition variable).
    pub total_epochs: u64,
    /// Iterations per epoch, when known (bounds the `iteration` condition
    /// variable; `None` = unbounded, only trivially-false conditions are
    /// flagged).
    pub iterations_per_epoch: Option<u64>,
    /// Algorithm-1 cache budget in bytes.
    pub cache_budget: u64,
    /// Memory-tier budget of the object store in bytes.
    pub memory_budget: u64,
    /// Epoch-ahead prefetch depth (`EngineConfig::prefetch_depth`;
    /// `0` = prefetching off, its lints are skipped).
    pub prefetch_depth: usize,
}

impl Default for LintOptions {
    fn default() -> Self {
        LintOptions {
            total_epochs: 4,
            iterations_per_epoch: None,
            cache_budget: 256 << 20,
            memory_budget: 64 << 20,
            prefetch_depth: 0,
        }
    }
}

/// The result of a full lint pass.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// All findings, in analysis order.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Number of deny-severity findings.
    #[must_use]
    pub fn deny_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Deny)
            .count()
    }

    /// True when nothing was found.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Diagnostics carrying `code`.
    #[must_use]
    pub fn with_code(&self, code: &str) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.code == code).collect()
    }

    /// Renders every diagnostic rustc-style, plus a summary line.
    #[must_use]
    pub fn render_human(&self) -> String {
        if self.diagnostics.is_empty() {
            return "lint: no findings".to_string();
        }
        let body: Vec<String> = self
            .diagnostics
            .iter()
            .map(Diagnostic::render_human)
            .collect();
        let denies = self.deny_count();
        let warns = self.diagnostics.len() - denies;
        format!(
            "{}\n\nlint: {} finding(s): {} deny, {} warning",
            body.join("\n\n"),
            self.diagnostics.len(),
            denies,
            warns
        )
    }

    /// Renders every diagnostic as one JSON object per line.
    #[must_use]
    pub fn render_jsonl(&self) -> String {
        self.diagnostics
            .iter()
            .map(Diagnostic::render_json)
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Runs every analysis family over the given inputs.
///
/// `abstract_graphs` should parallel `tasks` (one graph per task, as built
/// by [`AbstractGraph::from_config`]); `concrete` is a dry-planned chunk
/// when available. Missing pieces skip the analyses that need them.
#[must_use]
pub fn lint_all(
    tasks: &[TaskConfig],
    abstract_graphs: &[AbstractGraph],
    concrete: Option<&ConcreteGraph>,
    videos: &[VideoMeta],
    opts: &LintOptions,
) -> LintReport {
    let mut diagnostics = Vec::new();
    diagnostics.extend(lint_configs(tasks, opts));
    diagnostics.extend(lint_abstract(abstract_graphs));
    if let Some(g) = concrete {
        diagnostics.extend(lint_concrete(g));
    }
    diagnostics.extend(lint_resources(tasks, concrete, videos, opts));
    diagnostics.extend(lint_sharing(tasks));
    LintReport { diagnostics }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(severity: Severity) -> Diagnostic {
        Diagnostic {
            code: "SL001",
            severity,
            location: "t.augmentation.c.arms[0]".into(),
            message: "arm can never be taken".into(),
            help: "remove it".into(),
        }
    }

    #[test]
    fn human_rendering_is_rustc_style() {
        let d = diag(Severity::Warn);
        let s = d.render_human();
        assert!(s.starts_with("warning[SL001]: "), "{s}");
        assert!(s.contains("--> t.augmentation.c.arms[0]"), "{s}");
        assert!(s.contains("= help: remove it"), "{s}");
    }

    #[test]
    fn json_rendering_escapes() {
        let mut d = diag(Severity::Deny);
        d.message = "bad \"quote\"\nnewline".into();
        let s = d.render_json();
        assert!(s.contains(r#""severity":"deny""#), "{s}");
        assert!(s.contains(r#"bad \"quote\"\nnewline"#), "{s}");
        assert!(!s.contains('\n'), "JSON line must be single-line: {s}");
    }

    #[test]
    fn report_counts_and_summary() {
        let r = LintReport {
            diagnostics: vec![diag(Severity::Warn), diag(Severity::Deny)],
        };
        assert_eq!(r.deny_count(), 1);
        assert!(!r.is_clean());
        assert_eq!(r.with_code("SL001").len(), 2);
        assert!(r.render_human().contains("2 finding(s): 1 deny, 1 warning"));
        assert_eq!(r.render_jsonl().lines().count(), 2);
        assert!(LintReport::default().is_clean());
    }
}
