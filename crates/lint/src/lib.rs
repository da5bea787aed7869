//! Proves that the workspace's static checks still fire.
//!
//! rustc and clippy enforce the determinism and accounting contract: bans
//! in the root `clippy.toml`, `#[must_use]` on `OperationCost`, the levels
//! in `[workspace.lints]` and scoped `deny` attributes ("Static checks" in
//! `docs/ARCHITECTURE.md`). A check that quietly stopped firing would pass
//! every build, so `ci/lint-canary` seeds violations of each one. The tests
//! of this crate run clippy over the canary and require exactly the
//! findings in [`rules::EXPECTED`], at the seeded lines, and run it over
//! the workspace and require none.
//!
//! [`Report::parse`] reads cargo's `--message-format=json` stream:
//!
//! ```
//! let stream = concat!(
//!     r#"{"reason":"compiler-message","message":{"level":"error","#,
//!     r#""code":{"code":"clippy::as_conversions"},"rendered":"","#,
//!     r#""spans":[{"file_name":"src/ledger.rs","line_start":8,"is_primary":true}]}}"#,
//!     "\n",
//!     r#"{"reason":"build-finished","success":false}"#,
//! );
//! let report = ft_lint::Report::parse(stream);
//! assert!(!report.success);
//! assert_eq!(report.render(), "src/ledger.rs:8: error clippy::as_conversions\n");
//! ```

pub mod rules;
pub mod taint;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

/// One diagnostic, located at its primary span.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Path relative to the checked workspace's root; empty when the
    /// diagnostic has no span (a bad command-line flag).
    pub file: String,
    /// 1-based line of the primary span; 0 without one.
    pub line: u32,
    /// The lint (`clippy::…` or a rustc lint name) or the error code.
    pub lint: String,
    /// `error` or `warning`.
    pub level: String,
    /// The diagnostic as rustc prints it, notes included.
    pub rendered: String,
}

/// What one `cargo clippy` run reported.
#[derive(Debug)]
pub struct Report {
    /// Whether the build succeeded.
    pub success: bool,
    /// Every diagnostic, sorted and deduplicated: a library checked with
    /// and without `cfg(test)` reports its findings twice.
    pub findings: Vec<Finding>,
    /// Cargo's own error output, for failure messages.
    pub stderr: String,
}

impl Report {
    /// Reads cargo's `--message-format=json` stream: one JSON object per
    /// line. Compiler messages without a lint code or a span ("aborting
    /// due to …") are summaries and are skipped.
    pub fn parse(stream: &str) -> Report {
        let mut success = false;
        let mut findings = BTreeSet::new();
        for msg in stream.lines().filter_map(parse_json) {
            match msg.get("reason").and_then(Json::str) {
                Some("build-finished") => {
                    success = matches!(msg.get("success"), Some(Json::Bool(true)));
                }
                Some("compiler-message") => {
                    findings.extend(msg.get("message").and_then(Finding::from_message));
                }
                _ => {}
            }
        }
        Report {
            success,
            findings: findings.into_iter().collect(),
            stderr: String::new(),
        }
    }

    /// The findings on `line` of `file`.
    pub fn findings_at(&self, file: &str, line: u32) -> Vec<&Finding> {
        self.findings
            .iter()
            .filter(|f| f.file == file && f.line == line)
            .collect()
    }

    /// The distinct lints on `line` of `file`, sorted.
    pub fn lints_at(&self, file: &str, line: u32) -> Vec<&str> {
        let lints: BTreeSet<&str> = self
            .findings_at(file, line)
            .into_iter()
            .map(|f| f.lint.as_str())
            .collect();
        lints.into_iter().collect()
    }

    /// One `file:line: level lint` line per finding.
    pub fn render(&self) -> String {
        self.findings
            .iter()
            .map(|f| format!("{}:{}: {} {}\n", f.file, f.line, f.level, f.lint))
            .collect()
    }

    /// A successful build with nothing to report.
    pub fn is_clean(&self) -> bool {
        self.success && self.findings.is_empty()
    }
}

impl Finding {
    fn from_message(msg: &Json) -> Option<Finding> {
        let lint = msg
            .get("code")
            .and_then(|c| c.get("code"))
            .and_then(Json::str);
        let span = match msg.get("spans") {
            Some(Json::Arr(spans)) => spans
                .iter()
                .find(|s| matches!(s.get("is_primary"), Some(Json::Bool(true)))),
            _ => None,
        };
        if lint.is_none() && span.is_none() {
            return None;
        }
        let text = |v: Option<&Json>| v.and_then(Json::str).unwrap_or_default().to_string();
        Some(Finding {
            file: text(span.and_then(|s| s.get("file_name"))),
            line: match span.and_then(|s| s.get("line_start")) {
                Some(Json::Num(n)) => n.parse().ok()?,
                _ => 0,
            },
            lint: lint.unwrap_or_default().to_string(),
            level: text(msg.get("level")),
            rendered: text(msg.get("rendered")),
        })
    }
}

/// The repository root.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The seeded-violation package, a workspace of its own.
pub fn canary_root() -> PathBuf {
    repo_root().join("ci/lint-canary")
}

/// Runs `cargo clippy` on the package or workspace at `root` with
/// `cargo_args`, passing `lint_args` to clippy.
pub fn clippy(root: &Path, cargo_args: &[&str], lint_args: &[&str]) -> Report {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .args([
            "clippy",
            "--quiet",
            "--message-format=json",
            "--manifest-path",
        ])
        .arg(root.join("Cargo.toml"))
        .args(cargo_args)
        .arg("--")
        .args(lint_args)
        .env_remove("CARGO_TARGET_DIR")
        .output()
        .unwrap_or_else(|e| panic!("cannot run cargo clippy: {e}"));
    let mut report = Report::parse(&String::from_utf8_lossy(&out.stdout));
    report.success &= out.status.success();
    report.stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    report
}

/// Clippy over every target of the canary with `-D warnings`, as CI
/// runs it. Runs once per test binary.
pub fn canary() -> &'static Report {
    static RUN: OnceLock<Report> = OnceLock::new();
    RUN.get_or_init(|| clippy(&canary_root(), &["--all-targets"], &["-D", "warnings"]))
}

/// The same run without `-D warnings`: every lint keeps its own level.
pub fn canary_plain() -> &'static Report {
    static RUN: OnceLock<Report> = OnceLock::new();
    RUN.get_or_init(|| clippy(&canary_root(), &["--all-targets"], &[]))
}

/// The 1-based line of canary file `file` whose trimmed text is `text`.
///
/// # Panics
/// Unless exactly one line matches.
pub fn line_of(file: &str, text: &str) -> u32 {
    let path = canary_root().join(file);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let hits: Vec<usize> = src
        .lines()
        .enumerate()
        .filter(|(_, l)| l.trim() == text)
        .map(|(i, _)| i + 1)
        .collect();
    match hits[..] {
        [line] => u32::try_from(line).unwrap_or(u32::MAX),
        _ => panic!("{file}: {} lines read `{text}`", hits.len()),
    }
}

/// A JSON value; numbers keep their source text.
#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses one JSON document; `None` if it is malformed.
fn parse_json(text: &str) -> Option<Json> {
    let mut p = JsonParser {
        chars: text.chars().peekable(),
    };
    let value = p.value()?;
    p.chars.next().is_none().then_some(value)
}

struct JsonParser<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while self.chars.next_if(char::is_ascii_whitespace).is_some() {}
    }

    fn eat(&mut self, c: char) -> Option<()> {
        self.chars.next_if_eq(&c).map(|_| ())
    }

    fn keyword(&mut self, word: &str, value: Json) -> Option<Json> {
        word.chars().try_for_each(|c| self.eat(c))?;
        Some(value)
    }

    /// A value with the whitespace around it.
    fn value(&mut self) -> Option<Json> {
        self.skip_ws();
        let value = match *self.chars.peek()? {
            'n' => self.keyword("null", Json::Null)?,
            't' => self.keyword("true", Json::Bool(true))?,
            'f' => self.keyword("false", Json::Bool(false))?,
            '"' => Json::Str(self.string()?),
            '[' => Json::Arr(self.list(']', Self::value)?),
            '{' => Json::Obj(self.list('}', |p| {
                p.skip_ws();
                let key = p.string()?;
                p.skip_ws();
                p.eat(':')?;
                Some((key, p.value()?))
            })?),
            _ => {
                let num: String = std::iter::from_fn(|| {
                    self.chars
                        .next_if(|c| c.is_ascii_digit() || "+-.eE".contains(*c))
                })
                .collect();
                if num.is_empty() {
                    return None;
                }
                Json::Num(num)
            }
        };
        self.skip_ws();
        Some(value)
    }

    /// The comma-separated items of an array or object, brackets included.
    fn list<T>(&mut self, close: char, item: fn(&mut Self) -> Option<T>) -> Option<Vec<T>> {
        self.chars.next();
        self.skip_ws();
        let mut items = Vec::new();
        if self.eat(close).is_some() {
            return Some(items);
        }
        loop {
            items.push(item(self)?);
            self.skip_ws();
            if self.eat(close).is_some() {
                return Some(items);
            }
            self.eat(',')?;
        }
    }

    fn string(&mut self) -> Option<String> {
        self.eat('"')?;
        let mut out = String::new();
        loop {
            match self.chars.next()? {
                '"' => return Some(out),
                '\\' => out.push(match self.chars.next()? {
                    c @ ('"' | '\\' | '/') => c,
                    'b' => '\u{8}',
                    'f' => '\u{c}',
                    'n' => '\n',
                    'r' => '\r',
                    't' => '\t',
                    'u' => self.escaped_char()?,
                    _ => return None,
                }),
                c => out.push(c),
            }
        }
    }

    /// The character of a `\u` escape, joining a UTF-16 surrogate pair.
    fn escaped_char(&mut self) -> Option<char> {
        let high = self.hex4()?;
        if !(0xD800..0xDC00).contains(&high) {
            return char::from_u32(high);
        }
        self.eat('\\')?;
        self.eat('u')?;
        let low = self.hex4()?;
        if !(0xDC00..0xE000).contains(&low) {
            return None;
        }
        char::from_u32(0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00))
    }

    fn hex4(&mut self) -> Option<u32> {
        (0..4).try_fold(0, |acc, _| {
            Some(acc * 16 + self.chars.next()?.to_digit(16)?)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping_is_sound() {
        let s = |text: &str| parse_json(text).and_then(|v| v.str().map(str::to_string));
        assert_eq!(
            s(r#""q\"b\\s\/n\nt\tuép😀""#).as_deref(),
            Some("q\"b\\s/n\nt\tu\u{e9}p\u{1f600}")
        );
        assert_eq!(
            s("\"caf\u{e9} \u{1f600}\"").as_deref(),
            Some("caf\u{e9} \u{1f600}")
        );
        for bad in [
            r#""\ud83d""#,
            r#""\ude00""#,
            r#""\ud83dA""#,
            r#""\q""#,
            r#""\u12""#,
            r#""open"#,
            r#""one" "two""#,
        ] {
            assert_eq!(parse_json(bad), None, "{bad}");
        }
        let obj = parse_json(r#" {"a\"k": [1, -2.5e3, true, null, {}], "b": "\\"} "#);
        assert_eq!(
            obj,
            Some(Json::Obj(vec![
                (
                    "a\"k".to_string(),
                    Json::Arr(vec![
                        Json::Num("1".to_string()),
                        Json::Num("-2.5e3".to_string()),
                        Json::Bool(true),
                        Json::Null,
                        Json::Obj(vec![]),
                    ])
                ),
                ("b".to_string(), Json::Str("\\".to_string())),
            ]))
        );
    }

    #[test]
    fn clean_report_renders_and_exits_zero_shaped() {
        let clean = Report::parse(concat!(
            r#"{"reason":"compiler-artifact","fresh":true}"#,
            "\n",
            r#"{"reason":"compiler-message","message":{"level":"error","message":"aborting due to 1 previous error","code":null,"spans":[]}}"#,
            "\n",
            r#"{"reason":"build-finished","success":true}"#,
        ));
        assert!(clean.is_clean());
        assert_eq!(clean.render(), "");

        let dirty = Report::parse(concat!(
            r#"{"reason":"compiler-message","message":{"level":"error","code":{"code":"E0602"},"spans":[]}}"#,
            "\n",
            r#"{"reason":"build-finished","success":false}"#,
        ));
        assert!(!dirty.is_clean());
        assert_eq!(dirty.render(), ":0: error E0602\n");

        let unfinished = Report::parse("");
        assert!(!unfinished.success, "no build-finished line is a failure");
    }
}
