//! Entity escaping and unescaping.

use std::borrow::Cow;

use crate::XmlError;

/// Appends `s` to `out` with `&`, `<`, `>` escaped, plus `"` and `'` when
/// `attr` is set. Runs of plain text are copied whole.
fn escape_into(out: &mut String, s: &str, attr: bool) {
    let mut plain = 0;
    for (i, b) in s.bytes().enumerate() {
        let entity = match b {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' if attr => "&quot;",
            b'\'' if attr => "&apos;",
            _ => continue,
        };
        // `i` is at an ASCII byte, so both slices are on char boundaries.
        out.push_str(&s[plain..i]);
        out.push_str(entity);
        plain = i + 1;
    }
    out.push_str(&s[plain..]);
}

/// Appends escaped text content to `out`: `&`, `<`, `>` (the latter for
/// `]]>` safety).
pub fn escape_text_into(out: &mut String, s: &str) {
    escape_into(out, s, false);
}

/// Appends an escaped attribute value (quoted with `"`) to `out`: text
/// escapes plus `"` and `'`.
pub fn escape_attr_into(out: &mut String, s: &str) {
    escape_into(out, s, true);
}

/// Expands the five predefined entities plus decimal/hex character
/// references. Text without a `&` is returned as it is, unallocated.
pub fn unescape(s: &str) -> Result<Cow<'_, str>, XmlError> {
    if !s.contains('&') {
        return Ok(Cow::Borrowed(s));
    }
    let mut out = String::with_capacity(s.len());
    let mut chars = s.char_indices();
    while let Some((_, c)) = chars.next() {
        if c != '&' {
            out.push(c);
            continue;
        }
        // Collect until ';'.
        let mut entity = String::new();
        let mut closed = false;
        for (_, e) in chars.by_ref() {
            if e == ';' {
                closed = true;
                break;
            }
            if entity.len() > 10 {
                break;
            }
            entity.push(e);
        }
        if !closed {
            return Err(XmlError::BadEntity { entity });
        }
        match entity.as_str() {
            "amp" => out.push('&'),
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "quot" => out.push('"'),
            "apos" => out.push('\''),
            _ => {
                let code = if let Some(hex) = entity.strip_prefix("#x") {
                    u32::from_str_radix(hex, 16).ok()
                } else if let Some(dec) = entity.strip_prefix('#') {
                    dec.parse::<u32>().ok()
                } else {
                    None
                };
                match code.and_then(char::from_u32) {
                    Some(ch) => out.push(ch),
                    None => return Err(XmlError::BadEntity { entity }),
                }
            }
        }
    }
    Ok(Cow::Owned(out))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn escape_text(s: &str) -> String {
        let mut out = String::new();
        escape_text_into(&mut out, s);
        out
    }

    fn escape_attr(s: &str) -> String {
        let mut out = String::new();
        escape_attr_into(&mut out, s);
        out
    }

    #[test]
    fn text_escaping() {
        assert_eq!(escape_text("a<b & c>d"), "a&lt;b &amp; c&gt;d");
        assert_eq!(escape_text("plain"), "plain");
    }

    #[test]
    fn attr_escaping_includes_quotes() {
        assert_eq!(
            escape_attr(r#"say "hi" & 'bye'"#),
            "say &quot;hi&quot; &amp; &apos;bye&apos;"
        );
    }

    #[test]
    fn unescape_roundtrips_escape() {
        for s in ["a<b & c>d", r#""quoted" & 'apos'"#, "plain", "<<>>&&"] {
            assert_eq!(unescape(&escape_attr(s)).unwrap(), s);
            assert_eq!(unescape(&escape_text(s)).unwrap(), s);
        }
    }

    #[test]
    fn character_references() {
        assert_eq!(unescape("&#65;&#x42;").unwrap(), "AB");
        assert_eq!(unescape("&#x1F600;").unwrap(), "\u{1F600}");
    }

    #[test]
    fn bad_entities_rejected() {
        assert!(unescape("&nosuch;").is_err());
        assert!(unescape("&unterminated").is_err());
        assert!(unescape("&#xZZ;").is_err());
        assert!(unescape("&#1114112;").is_err()); // beyond char::MAX
    }
}
