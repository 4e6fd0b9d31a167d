//! `wire-exhaustiveness`: the wire protocol must stay fully wired. A new
//! `Frame` variant has to land in four places at once — the `kind()` tag
//! map, the `encode_frame_into` match, the `decode_frame_traced` tag
//! match, and the proptest strategy-coverage pin in the protocol test — or a 20th frame
//! kind ships half-wired: encodable but not decodable, or invisible to
//! the roundtrip fuzzer. The compiler catches some of these (exhaustive
//! matches) but not the cross-file ones (decode tags, the strategy pin's
//! `[false; N]` arity), so this rule checks the whole chain:
//!
//! 1. every `enum Frame` variant appears in `kind()`,
//!    `encode_frame_into`, and the test's `kind_index`;
//! 2. the tag set produced by `kind()` equals the tag set matched by
//!    `decode_frame_traced`;
//! 3. the coverage pin `[false; N]` equals the variant count.
//!
//! The rule is silent when the configured frame file does not exist
//! under the scanned root (fixture trees exercise other rules); the
//! self-check test asserts via [`crate::Report::rule_stats`] that on the
//! real workspace it examined both files.

use std::collections::{BTreeMap, BTreeSet};

use super::Rule;
use crate::workspace::SourceFile;
use crate::{LintConfig, Violation};

/// See module docs.
pub struct WireExhaustive;

impl Rule for WireExhaustive {
    fn name(&self) -> &'static str {
        "wire-exhaustiveness"
    }

    fn describe(&self) -> &'static str {
        "every Frame kind wired through encode, decode, and the coverage pin"
    }

    fn check(
        &self,
        config: &LintConfig,
        files: &[SourceFile],
        stats: &mut BTreeMap<&'static str, usize>,
    ) -> Vec<Violation> {
        let Some(frame) = files.iter().find(|f| f.rel == config.frame_file) else {
            return Vec::new();
        };
        *stats.entry(self.name()).or_insert(0) += 1;
        let mut out = Vec::new();

        let Some((variants, enum_line)) = parse_enum_variants(frame, "Frame") else {
            out.push(self.at(frame, 1, "could not locate `enum Frame`".into()));
            return out;
        };

        // kind(): variant -> tag.
        let kind_pairs = fn_body(frame, "kind")
            .map(variant_tag_pairs)
            .unwrap_or_default();
        let kind_variants: BTreeSet<&str> = kind_pairs.iter().map(|(v, _)| v.as_str()).collect();
        let kind_tags: BTreeSet<u8> = kind_pairs.iter().map(|&(_, t)| t).collect();

        // Encode and decode coverage.
        let encode_variants = fn_body(frame, "encode_frame_into")
            .map(frame_variant_mentions)
            .unwrap_or_default();
        let decode_tags = fn_body(frame, "decode_frame_traced")
            .map(tag_match_arms)
            .unwrap_or_default();

        for v in &variants {
            if !kind_variants.contains(v.as_str()) {
                out.push(self.at(
                    frame,
                    enum_line,
                    format!("Frame::{v} has no tag in `kind()`"),
                ));
            }
            if !encode_variants.contains(v.as_str()) {
                out.push(self.at(
                    frame,
                    enum_line,
                    format!("Frame::{v} is not handled by `encode_frame_into`"),
                ));
            }
        }
        for &(ref v, tag) in &kind_pairs {
            if !decode_tags.contains(&tag) {
                out.push(self.at(
                    frame,
                    enum_line,
                    format!("tag {tag:#04x} (Frame::{v}) has no `decode_frame_traced` arm"),
                ));
            }
        }
        for &tag in decode_tags.difference(&kind_tags) {
            out.push(self.at(
                frame,
                enum_line,
                format!("`decode_frame_traced` matches tag {tag:#04x} that `kind()` never emits"),
            ));
        }

        // The cross-file leg: the proptest coverage pin.
        if let Some(cov) = files.iter().find(|f| f.rel == config.coverage_file) {
            *stats.entry(self.name()).or_insert(0) += 1;
            let pin_variants = fn_body(cov, "kind_index")
                .map(frame_variant_mentions)
                .unwrap_or_default();
            for v in &variants {
                if !pin_variants.contains(v.as_str()) {
                    out.push(self.at(
                        cov,
                        1,
                        format!(
                            "Frame::{v} missing from the strategy-coverage `kind_index` \
                             in {}",
                            cov.rel
                        ),
                    ));
                }
            }
            if let Some((n, line)) = coverage_pin_arity(cov) {
                if n != variants.len() {
                    out.push(self.at(
                        cov,
                        line,
                        format!(
                            "coverage pin `[false; {n}]` disagrees with the {} Frame \
                             variants",
                            variants.len()
                        ),
                    ));
                }
            } else {
                out.push(self.at(
                    cov,
                    1,
                    "strategy-coverage pin `[false; N]` not found".into(),
                ));
            }
        } else {
            out.push(self.at(
                frame,
                enum_line,
                format!("coverage file {} is missing", config.coverage_file),
            ));
        }
        out
    }
}

impl WireExhaustive {
    fn at(&self, file: &SourceFile, line: usize, message: String) -> Violation {
        Violation {
            rule: self.name(),
            file: file.rel.clone(),
            line,
            message,
            anchors: Vec::new(),
        }
    }
}

/// The masked body of the first function named `name` in `file`.
fn fn_body<'a>(file: &'a SourceFile, name: &str) -> Option<&'a str> {
    let f = file.lexed.functions.iter().find(|f| f.name == name)?;
    Some(&file.lexed.masked[f.body_start..f.body_end])
}

/// Variant names of `enum <name>`: idents with an uppercase first letter
/// at brace depth 1 / paren depth 0 of the enum body (paren tracking
/// keeps tuple-variant *types* out). Returns the enum's 1-based line too.
fn parse_enum_variants(file: &SourceFile, name: &str) -> Option<(Vec<String>, usize)> {
    let masked = &file.lexed.masked;
    let needle = format!("enum {name}");
    let mut search = 0usize;
    let at = loop {
        let rel = masked[search..].find(&needle)?;
        let at = search + rel;
        let end = at + needle.len();
        let boundary = masked
            .as_bytes()
            .get(end)
            .is_none_or(|b| !(b.is_ascii_alphanumeric() || *b == b'_'));
        if boundary {
            break at;
        }
        search = end;
    };
    let open = at + masked[at..].find('{')?;
    let bytes = masked.as_bytes();
    let mut brace = 0i32;
    let mut paren = 0i32;
    let mut i = open;
    let mut variants = Vec::new();
    while i < bytes.len() {
        match bytes[i] {
            b'{' => brace += 1,
            b'}' => {
                brace -= 1;
                if brace == 0 {
                    break;
                }
            }
            b'(' | b'[' | b'<' => paren += 1,
            b')' | b']' | b'>' => paren -= 1,
            b if brace == 1 && paren == 0 && b.is_ascii_uppercase() => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                variants.push(masked[start..i].to_string());
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    Some((variants, file.lexed.line_of(at)))
}

/// `Frame::<Variant> … => 0xNN` pairs inside a match body.
fn variant_tag_pairs(body: &str) -> Vec<(String, u8)> {
    let mut out = Vec::new();
    for line in body.lines() {
        let Some(v) = frame_variant_on(line) else {
            continue;
        };
        let Some(arrow) = line.find("=>") else {
            continue;
        };
        if let Some(tag) = parse_hex_tag(&line[arrow..]) {
            out.push((v, tag));
        }
    }
    out
}

/// All `Frame::<Variant>` mentions in a body (or-patterns included).
fn frame_variant_mentions(body: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut from = 0usize;
    while let Some(rel) = body[from..].find("Frame::") {
        let at = from + rel + "Frame::".len();
        let ident: String = body[at..]
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        from = at + ident.len().max(1);
        if ident.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
            out.insert(ident);
        }
    }
    out
}

/// `0xNN =>` match arms in a decode body.
fn tag_match_arms(body: &str) -> BTreeSet<u8> {
    let mut out = BTreeSet::new();
    for line in body.lines() {
        let t = line.trim_start();
        if !t.starts_with("0x") {
            continue;
        }
        let hex: String = t[2..]
            .chars()
            .take_while(|c| c.is_ascii_hexdigit())
            .collect();
        if hex.is_empty() || hex.len() > 2 {
            continue;
        }
        if t[2 + hex.len()..].trim_start().starts_with("=>") {
            if let Ok(tag) = u8::from_str_radix(&hex, 16) {
                out.insert(tag);
            }
        }
    }
    out
}

/// The first `Frame::<Variant>` on a line.
fn frame_variant_on(line: &str) -> Option<String> {
    let at = line.find("Frame::")? + "Frame::".len();
    let ident: String = line[at..]
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    if ident.is_empty() {
        None
    } else {
        Some(ident)
    }
}

/// Parses `0xNN` at the first `0x` in `s`.
fn parse_hex_tag(s: &str) -> Option<u8> {
    let at = s.find("0x")?;
    let hex: String = s[at + 2..]
        .chars()
        .take_while(|c| c.is_ascii_hexdigit())
        .collect();
    if hex.is_empty() || hex.len() > 2 {
        return None;
    }
    u8::from_str_radix(&hex, 16).ok()
}

/// The `[false; N]` coverage-pin arity and its line.
fn coverage_pin_arity(file: &SourceFile) -> Option<(usize, usize)> {
    let masked = &file.lexed.masked;
    let at = masked.find("[false;")?;
    let n: String = masked[at + "[false;".len()..]
        .chars()
        .skip_while(|c| c.is_whitespace())
        .take_while(|c| c.is_ascii_digit())
        .collect();
    n.parse().ok().map(|n| (n, file.lexed.line_of(at)))
}
