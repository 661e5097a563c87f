//! `lint.toml` loading, through the TOML-subset reader
//! (`gfsc_obs::toml_subset`) the daemon config shares.
//!
//! Scope patterns are `/`-separated globs: `*` matches within one path
//! segment, `**` matches any number of segments (including zero).

use crate::findings::Severity;
use gfsc_obs::toml_subset::{self, parse_string, parse_string_array};
use std::collections::BTreeMap;

/// Per-rule configuration block (`[rules.<slug>]`).
#[derive(Debug, Clone, Default)]
pub struct RuleConfig {
    /// `severity = "error" | "warn" | "off"`.
    pub severity: Severity,
    /// Files the rule applies to (globs, relative to the repo root).
    pub scope: Vec<String>,
    /// Files carved back out of `scope`.
    pub exclude: Vec<String>,
    /// For function-scoped rules (alloc hygiene): only bodies of these
    /// functions are checked. Empty = whole file.
    pub functions: Vec<String>,
    /// Free-form string keys a rule may consume (e.g. the taxonomy
    /// rule's `enum_file` / `match_file`).
    pub extra: BTreeMap<String, String>,
}

impl RuleConfig {
    /// Does `path` (repo-relative, `/`-separated) fall in this rule's
    /// scope after exclusions?
    #[must_use]
    pub fn applies_to(&self, path: &str) -> bool {
        self.scope.iter().any(|g| glob_match(g, path))
            && !self.exclude.iter().any(|g| glob_match(g, path))
    }
}

/// The whole parsed `lint.toml`.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// `[lint] max_waivers` — the workspace-wide waiver budget; the
    /// run fails when more waiver comments than this are in force, so
    /// the count can only be ratcheted *down* over time.
    pub max_waivers: usize,
    /// `[rules.<slug>]` blocks by slug.
    pub rules: BTreeMap<String, RuleConfig>,
}

impl Config {
    /// Looks up a rule, returning an `Off` default when absent.
    #[must_use]
    pub fn rule(&self, slug: &str) -> RuleConfig {
        self.rules.get(slug).cloned().unwrap_or_default()
    }

    /// Parses config text. Returns a line-numbered message on the
    /// first construct outside the supported subset.
    ///
    /// # Errors
    ///
    /// Unknown syntax, unterminated arrays, or bad severity values.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut config = Self::default();
        toml_subset::read(
            text,
            |_| Ok(()),
            |section, key, value| apply_key(&mut config, section, key, value),
        )
        .map_err(|e| format!("lint.toml:{}: {}", e.line, e.message))?;
        Ok(config)
    }
}

fn apply_key(config: &mut Config, section: &str, key: &str, value: &str) -> Result<(), String> {
    if section == "lint" {
        if key == "max_waivers" {
            config.max_waivers =
                value.parse().map_err(|_| format!("bad integer `{value}` for max_waivers"))?;
            return Ok(());
        }
        return Err(format!("unknown key `{key}` in [lint]"));
    }
    let Some(slug) = section.strip_prefix("rules.") else {
        return Err(format!("unknown section `[{section}]`"));
    };
    let rule = config.rules.entry(slug.to_string()).or_default();
    match key {
        "severity" => {
            rule.severity = match parse_string(value)?.as_str() {
                "error" => Severity::Error,
                "warn" => Severity::Warn,
                "off" => Severity::Off,
                other => return Err(format!("bad severity `{other}`")),
            };
        }
        "scope" => rule.scope = parse_string_array(value)?,
        "exclude" => rule.exclude = parse_string_array(value)?,
        "functions" => rule.functions = parse_string_array(value)?,
        _ => {
            rule.extra.insert(key.to_string(), parse_string(value)?);
        }
    }
    Ok(())
}

/// `/`-separated glob match: `**` spans segments, `*` stays within one.
#[must_use]
pub fn glob_match(pattern: &str, path: &str) -> bool {
    let p: Vec<&str> = pattern.split('/').collect();
    let t: Vec<&str> = path.split('/').collect();
    match_segments(&p, &t)
}

fn match_segments(p: &[&str], t: &[&str]) -> bool {
    match p.split_first() {
        None => t.is_empty(),
        Some((&"**", rest)) => (0..=t.len()).any(|k| match_segments(rest, &t[k..])),
        Some((seg, rest)) => match t.split_first() {
            Some((head, tail)) => match_wild(seg, head) && match_segments(rest, tail),
            None => false,
        },
    }
}

/// Single-segment wildcard match where `*` matches any run of chars.
fn match_wild(pattern: &str, text: &str) -> bool {
    match pattern.split_once('*') {
        None => pattern == text,
        Some((prefix, rest)) => {
            let Some(stripped) = text.strip_prefix(prefix) else {
                return false;
            };
            if rest.is_empty() {
                return true;
            }
            // Try every split point for the `*`.
            (0..=stripped.len())
                .filter(|&k| stripped.is_char_boundary(k))
                .any(|k| match_wild(rest, &stripped[k..]))
        }
    }
}
