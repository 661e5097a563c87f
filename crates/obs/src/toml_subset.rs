//! The TOML subset the workspace's hand-written config files use
//! (`lint.toml`, the `gfsc-daemond` config), read by one line loop — the
//! build container is offline, so no TOML crate.
//!
//! The subset: `[section]` / `[section.sub]` headers; `key = "string"`,
//! `key = 123`, `key = 1.5`, `key = true`; `key = ["a", "b"]` string
//! arrays, which may span lines; `#` comments outside quotes. Values
//! reach the caller as trimmed text: [`parse_string`] and
//! [`parse_string_array`] decode the quoted forms, numbers are the
//! caller's to parse.
//!
//! # Examples
//!
//! ```
//! use gfsc_obs::toml_subset::{parse_string_array, read};
//!
//! let mut sensors = Vec::new();
//! read(
//!     "[ipmi]\nsensors = [\n  \"CPU0, Die\",  # comma inside the quotes\n  \"CPU1\",\n]\n",
//!     |_section| Ok(()),
//!     |_section, _key, value| {
//!         sensors = parse_string_array(value)?;
//!         Ok(())
//!     },
//! )
//! .unwrap();
//! assert_eq!(sensors, ["CPU0, Die", "CPU1"]);
//! ```

use std::fmt;

/// A failure at one line of a document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineError {
    /// The 1-based line the failing construct starts on.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for LineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

/// Walks `text` line by line: `on_section` sees every header's name,
/// `on_entry` every `(section, key, value)` in document order, the value
/// as trimmed text with a multi-line array joined onto one line. Keys
/// before the first header come with an empty section name.
///
/// # Errors
///
/// The first malformed line, unterminated array, or callback error stops
/// the walk, tagged with its line.
pub fn read(
    text: &str,
    mut on_section: impl FnMut(&str) -> Result<(), String>,
    mut on_entry: impl FnMut(&str, &str, &str) -> Result<(), String>,
) -> Result<(), LineError> {
    let mut section = String::new();
    let mut lines = text.lines().enumerate();
    while let Some((idx, raw)) = lines.next() {
        let at = |message: String| LineError { line: idx + 1, message };
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|r| r.strip_suffix(']')) {
            section = name.trim().to_string();
            on_section(&section).map_err(at)?;
            continue;
        }
        let Some((key, value)) = split_key_value(line) else {
            return Err(at("expected `key = value`".into()));
        };
        let mut value = value.to_string();
        // Multi-line arrays: keep consuming until the `]` closes.
        if value.starts_with('[') && !balanced_array(&value) {
            for (_, cont) in lines.by_ref() {
                value.push(' ');
                value.push_str(strip_comment(cont).trim());
                if balanced_array(&value) {
                    break;
                }
            }
            if !balanced_array(&value) {
                return Err(at(format!("unterminated array for `{key}`")));
            }
        }
        on_entry(&section, key, &value).map_err(at)?;
    }
    Ok(())
}

/// Splits `key = value` at the first `=`, trimming both halves; `None`
/// when either half is empty.
fn split_key_value(line: &str) -> Option<(&str, &str)> {
    let (key, value) = line.split_once('=')?;
    let (key, value) = (key.trim(), value.trim());
    (!key.is_empty() && !value.is_empty()).then_some((key, value))
}

/// Removes a trailing `#` comment that is not inside a quoted string.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut prev_backslash = false;
    for (i, ch) in line.char_indices() {
        match ch {
            '"' if !prev_backslash => in_str = !in_str,
            '#' if !in_str => return line.get(..i).unwrap_or(line),
            _ => {}
        }
        prev_backslash = ch == '\\' && !prev_backslash;
    }
    line
}

/// Whether an array value has reached its closing `]` (outside quotes).
fn balanced_array(value: &str) -> bool {
    let mut in_str = false;
    for ch in value.chars() {
        match ch {
            '"' => in_str = !in_str,
            ']' if !in_str => return true,
            _ => {}
        }
    }
    false
}

/// Decodes a `"quoted"` value.
///
/// # Errors
///
/// The value is not a quoted string.
pub fn parse_string(value: &str) -> Result<String, String> {
    value
        .strip_prefix('"')
        .and_then(|r| r.strip_suffix('"'))
        .map(str::to_string)
        .ok_or_else(|| format!("expected a quoted string, got `{value}`"))
}

/// Decodes a `["a", "b"]` array of quoted strings. Commas separate items
/// only outside quotes, so `"CPU0, Die"` stays one item; a trailing comma
/// is allowed.
///
/// # Errors
///
/// The value is not a bracketed array, or an item is not a quoted
/// string.
pub fn parse_string_array(value: &str) -> Result<Vec<String>, String> {
    let inner = value
        .strip_prefix('[')
        .and_then(|r| r.strip_suffix(']'))
        .ok_or_else(|| format!("expected an array, got `{value}`"))?;
    let mut in_str = false;
    inner
        .split(|ch| {
            if ch == '"' {
                in_str = !in_str;
            }
            ch == ',' && !in_str
        })
        .map(str::trim)
        .filter(|item| !item.is_empty())
        .map(parse_string)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries(text: &str) -> Result<Vec<(String, String, String)>, LineError> {
        let mut out = Vec::new();
        read(
            text,
            |_| Ok(()),
            |section, key, value| {
                out.push((section.to_string(), key.to_string(), value.to_string()));
                Ok(())
            },
        )?;
        Ok(out)
    }

    #[test]
    fn reads_sections_keys_comments_and_multi_line_arrays() {
        let got = entries(
            "top = 1\n# full-line comment\n[a.b]\nname = \"x # not a comment\" # trailing\n\
             list = [\n  \"p\",  # first\n  \"q\",\n]\n",
        )
        .unwrap();
        let row = |s: &str, k: &str, v: &str| (s.to_string(), k.to_string(), v.to_string());
        assert_eq!(
            got,
            [
                row("", "top", "1"),
                row("a.b", "name", "\"x # not a comment\""),
                row("a.b", "list", "[ \"p\", \"q\", ]"),
            ]
        );
    }

    #[test]
    fn errors_carry_their_line() {
        assert_eq!(entries("[s]\n\njunk\n").unwrap_err().line, 3);
        let err = entries("[s]\nlist = [\"a\",\n\"b\"\n").unwrap_err();
        assert_eq!((err.line, err.message.as_str()), (2, "unterminated array for `list`"));
        let err = read("[x]\n", |name| Err(format!("no [{name}]")), |_, _, _| Ok(())).unwrap_err();
        assert_eq!(err.to_string(), "line 1: no [x]");
    }

    #[test]
    fn string_arrays_split_only_outside_quotes() {
        assert_eq!(parse_string_array(r#"["CPU0, Die", "CPU1"]"#).unwrap(), ["CPU0, Die", "CPU1"]);
        assert_eq!(parse_string_array("[]").unwrap(), Vec::<String>::new());
        assert!(parse_string_array(r#"["a", b]"#).is_err());
        assert!(parse_string_array(r#""a""#).is_err());
        assert_eq!(parse_string(r#""v""#).unwrap(), "v");
        assert!(parse_string("v").is_err());
    }
}
