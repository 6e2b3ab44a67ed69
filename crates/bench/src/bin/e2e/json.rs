//! The little JSON this benchmark writes (the build is offline, so there
//! is no serde), and field extractors for reading its own result files
//! back in `e2e compare`.

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit of `x` (`null` if not finite).
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_owned()
    }
}

/// The text after the first `"key":` in `text`.
fn after_key<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    Some(&text[text.find(&pat)? + pat.len()..])
}

/// The string value of the first `"key": "…"` in `text` (no escapes).
pub fn str_field(text: &str, key: &str) -> Option<String> {
    let after = after_key(text, key)?.trim_start().strip_prefix('"')?;
    Some(after[..after.find('"')?].to_owned())
}

/// The numeric value of the first `"key": …` in `text`.
pub fn num_field(text: &str, key: &str) -> Option<f64> {
    let after = after_key(text, key)?;
    let end = after.find([',', '}', ']']).unwrap_or(after.len());
    after[..end].trim().parse().ok()
}

/// The value of metric `name` in a result file, whose metric blocks map
/// each name to `{"value": …, …}`.
pub fn metric_value(text: &str, name: &str) -> Option<f64> {
    num_field(after_key(text, name)?, "value")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_back_what_the_benchmark_writes() {
        let text = format!(
            "{{\"workload\": {}, \"traced\": true, \"stamp\": {{\"commit\": \"abc\", \"seed\": 3}},\n  \
             \"end_to_end\": {{\n    \"verify_p50_ms\": {{\"value\": {}, \"unit\": \"ms\"}},\n    \
             \"p50_ms\": {{\"value\": {}, \"unit\": \"ms\"}}\n  }}\n}}",
            quote("bls_wire"),
            num(0.1),
            num(-2.5e-9)
        );
        assert_eq!(str_field(&text, "workload").as_deref(), Some("bls_wire"));
        assert_eq!(str_field(&text, "commit").as_deref(), Some("abc"));
        assert_eq!(num_field(&text, "seed"), Some(3.0));
        assert_eq!(metric_value(&text, "verify_p50_ms"), Some(0.1));
        // The quote before the name keeps `p50_ms` from matching inside
        // `verify_p50_ms`.
        assert_eq!(metric_value(&text, "p50_ms"), Some(-2.5e-9));
        assert_eq!(metric_value(&text, "req_per_s"), None);
        assert!(text.contains("\"traced\": true"));
        assert_eq!(quote("a\"b\\c\n\u{1}"), "\"a\\\"b\\\\c\\n\\u0001\"");
        assert_eq!(num(f64::NAN), "null");
    }
}
