//! The diagnostics report type shared by every analysis pass.

use core::fmt;

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but not provably incorrect (e.g. a buffer overwritten
    /// while holding a result nothing ever read).
    Warning,
    /// A violated invariant: a data race, a denormalised DD node, an
    /// out-of-bounds ELL column.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => f.write_str("warning"),
            Severity::Error => f.write_str("error"),
        }
    }
}

/// One finding of one analysis pass.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// How serious the finding is.
    pub severity: Severity,
    /// Short name of the pass that produced it (e.g. `races`).
    pub pass: &'static str,
    /// Where in the analysed artifact the finding points (task label,
    /// node id, row/slot).
    pub location: String,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.pass, self.location, self.message
        )
    }
}

/// The report produced by an analysis run: an ordered list of findings.
#[derive(Debug, Clone, Default)]
pub struct Diagnostics {
    items: Vec<Diagnostic>,
}

impl Diagnostics {
    /// An empty report.
    pub fn new() -> Self {
        Diagnostics::default()
    }

    /// Records a finding.
    pub fn push(
        &mut self,
        severity: Severity,
        pass: &'static str,
        location: impl Into<String>,
        message: impl Into<String>,
    ) {
        self.items.push(Diagnostic {
            severity,
            pass,
            location: location.into(),
            message: message.into(),
        });
    }

    /// Records an [`Severity::Error`] finding.
    pub fn error(
        &mut self,
        pass: &'static str,
        location: impl Into<String>,
        message: impl Into<String>,
    ) {
        self.push(Severity::Error, pass, location, message);
    }

    /// Records a [`Severity::Warning`] finding.
    pub fn warning(
        &mut self,
        pass: &'static str,
        location: impl Into<String>,
        message: impl Into<String>,
    ) {
        self.push(Severity::Warning, pass, location, message);
    }

    /// Appends all findings of `other`.
    pub fn merge(&mut self, other: Diagnostics) {
        self.items.extend(other.items);
    }

    /// Whether the report has no findings at all.
    pub fn is_clean(&self) -> bool {
        self.items.is_empty()
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.items
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.items
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// Total number of findings.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the report is empty (alias of [`Diagnostics::is_clean`]).
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterates over the findings.
    pub fn iter(&self) -> core::slice::Iter<'_, Diagnostic> {
        self.items.iter()
    }

    /// Whether any finding's message contains `needle` (test helper).
    pub fn mentions(&self, needle: &str) -> bool {
        self.items
            .iter()
            .any(|d| d.message.contains(needle) || d.location.contains(needle))
    }
}

impl fmt::Display for Diagnostics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.items.is_empty() {
            return writeln!(f, "no findings");
        }
        for item in &self.items {
            writeln!(f, "{item}")?;
        }
        Ok(())
    }
}

/// Escapes `s` for inclusion in a JSON string literal (no surrounding
/// quotes). Handles the two mandatory escapes plus control characters;
/// everything else passes through as UTF-8, which JSON permits raw.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

impl Diagnostic {
    /// The finding as a single JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"severity\":\"{}\",\"pass\":\"{}\",\"location\":\"{}\",\"message\":\"{}\"}}",
            self.severity,
            json_escape(self.pass),
            json_escape(&self.location),
            json_escape(&self.message),
        )
    }
}

impl Diagnostics {
    /// The report as a JSON array of finding objects.
    pub fn to_json(&self) -> String {
        let items: Vec<String> = self.items.iter().map(Diagnostic::to_json).collect();
        format!("[{}]", items.join(","))
    }
}

/// One titled section of an [`AnalysisReport`]: a pass family's summary
/// line plus its findings.
#[derive(Debug, Clone)]
pub struct ReportSection {
    /// Section heading (e.g. `pipeline artifacts`, `journal state machine`).
    pub title: String,
    /// One-line context for the section (counts, budgets, verdicts).
    pub summary: String,
    /// The section's findings.
    pub diagnostics: Diagnostics,
}

/// A full analysis run: ordered sections, renderable as human text or as
/// machine-readable JSON from the *same* structure, so the two outputs
/// can never drift apart.
#[derive(Debug, Clone, Default)]
pub struct AnalysisReport {
    sections: Vec<ReportSection>,
}

impl AnalysisReport {
    /// An empty report.
    pub fn new() -> Self {
        AnalysisReport::default()
    }

    /// Appends a section.
    pub fn push_section(
        &mut self,
        title: impl Into<String>,
        summary: impl Into<String>,
        diagnostics: Diagnostics,
    ) {
        self.sections.push(ReportSection {
            title: title.into(),
            summary: summary.into(),
            diagnostics,
        });
    }

    /// The sections in insertion order.
    pub fn sections(&self) -> &[ReportSection] {
        &self.sections
    }

    /// Total error-severity findings across all sections.
    pub fn error_count(&self) -> usize {
        self.sections
            .iter()
            .map(|s| s.diagnostics.error_count())
            .sum()
    }

    /// Total warning-severity findings across all sections.
    pub fn warning_count(&self) -> usize {
        self.sections
            .iter()
            .map(|s| s.diagnostics.warning_count())
            .sum()
    }

    /// Whether no section has any finding.
    pub fn is_clean(&self) -> bool {
        self.sections.iter().all(|s| s.diagnostics.is_clean())
    }

    /// Renders the report as the CLI's human-readable text.
    pub fn render_text(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        for s in &self.sections {
            let _ = writeln!(out, "== {} ==", s.title);
            if !s.summary.is_empty() {
                let _ = writeln!(out, "{}", s.summary);
            }
            let _ = write!(out, "{}", s.diagnostics);
        }
        let _ = writeln!(
            out,
            "analysis: {} error(s), {} warning(s)",
            self.error_count(),
            self.warning_count()
        );
        out
    }

    /// Renders the report as one JSON object:
    /// `{"sections": [{"title", "summary", "diagnostics": [...]}, ...],
    /// "errors": N, "warnings": N}`.
    pub fn to_json(&self) -> String {
        let sections: Vec<String> = self
            .sections
            .iter()
            .map(|s| {
                format!(
                    "{{\"title\":\"{}\",\"summary\":\"{}\",\"diagnostics\":{}}}",
                    json_escape(&s.title),
                    json_escape(&s.summary),
                    s.diagnostics.to_json(),
                )
            })
            .collect();
        format!(
            "{{\"sections\":[{}],\"errors\":{},\"warnings\":{}}}",
            sections.join(","),
            self.error_count(),
            self.warning_count(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_accumulates_and_counts() {
        let mut d = Diagnostics::new();
        assert!(d.is_clean());
        d.error("races", "task 3", "unordered write pair");
        d.warning("lifetime", "D[1]", "overwritten while unread");
        assert!(!d.is_clean());
        assert_eq!(d.error_count(), 1);
        assert_eq!(d.warning_count(), 1);
        assert_eq!(d.len(), 2);
        let text = d.to_string();
        assert!(text.contains("error[races] task 3"));
        assert!(text.contains("warning[lifetime]"));
        assert!(d.mentions("unordered"));
        assert!(!d.mentions("nonexistent"));
    }

    #[test]
    fn json_escaping_handles_quotes_and_control_characters() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\ny\t\u{1}"), "x\\ny\\t\\u0001");
    }

    #[test]
    fn diagnostics_render_as_a_json_array() {
        let mut d = Diagnostics::new();
        d.error("races", "task 3 'up \"a\"'", "unordered\nwrite pair");
        let json = d.to_json();
        assert!(json.starts_with('['), "{json}");
        assert!(json.contains("\"severity\":\"error\""), "{json}");
        assert!(json.contains("\"pass\":\"races\""), "{json}");
        assert!(json.contains("task 3 'up \\\"a\\\"'"), "{json}");
        assert!(json.contains("unordered\\nwrite pair"), "{json}");
        assert_eq!(Diagnostics::new().to_json(), "[]");
    }

    #[test]
    fn report_renders_same_structure_as_text_and_json() {
        let mut report = AnalysisReport::new();
        let mut d = Diagnostics::new();
        d.warning("lifetime", "D[1]", "overwritten while unread");
        report.push_section("task graph", "3 tasks, 2 buffers", d);
        report.push_section("recovery schedule", "0 injected faults", Diagnostics::new());
        assert!(!report.is_clean());
        assert_eq!(report.error_count(), 0);
        assert_eq!(report.warning_count(), 1);

        let text = report.render_text();
        assert!(text.contains("== task graph =="), "{text}");
        assert!(text.contains("3 tasks, 2 buffers"), "{text}");
        assert!(text.contains("warning[lifetime]"), "{text}");
        assert!(text.contains("no findings"), "{text}");
        assert!(
            text.contains("analysis: 0 error(s), 1 warning(s)"),
            "{text}"
        );

        let json = report.to_json();
        assert!(json.contains("\"title\":\"task graph\""), "{json}");
        assert!(json.contains("\"summary\":\"0 injected faults\""), "{json}");
        assert!(json.contains("\"errors\":0"), "{json}");
        assert!(json.contains("\"warnings\":1"), "{json}");
    }
}
