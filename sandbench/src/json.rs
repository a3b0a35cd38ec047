//! A JSON writer over `sand_telemetry::JsonValue`.
//!
//! The telemetry crate already owns a JSON parser and value type; the
//! benchmark renders the same type, so every file it writes is read back
//! by the parser a production export is validated with.

pub use sand_telemetry::{parse_json, JsonValue};

/// Builds an object from `(key, value)` pairs.
#[must_use]
pub fn obj(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A string value.
#[must_use]
pub fn s(v: &str) -> JsonValue {
    JsonValue::Str(v.to_string())
}

/// A number value.
#[must_use]
pub fn n(v: f64) -> JsonValue {
    JsonValue::Num(v)
}

fn escape_into(out: &mut String, text: &str) {
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn render_into(out: &mut String, v: &JsonValue) {
    match v {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        // JSON has no NaN or infinity; a metric that is not a number is
        // written as null so the reader sees it is missing, not zero.
        JsonValue::Num(x) if !x.is_finite() => out.push_str("null"),
        // Rust prints the shortest decimal that reads back to the same
        // f64: all the digits measured, and integers without a fraction.
        JsonValue::Num(x) => out.push_str(&format!("{x}")),
        JsonValue::Str(text) => escape_into(out, text),
        JsonValue::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_into(out, item);
            }
            out.push(']');
        }
        JsonValue::Obj(fields) => {
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                escape_into(out, k);
                out.push(':');
                render_into(out, item);
            }
            out.push('}');
        }
    }
}

/// Renders `v` as one line of JSON.
#[must_use]
pub fn render(v: &JsonValue) -> String {
    let mut out = String::new();
    render_into(&mut out, v);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_the_telemetry_parser() {
        let v = obj(vec![
            ("correct", JsonValue::Bool(true)),
            ("attempted", n(2625.0)),
            (
                "name",
                s("quote \" slash \\ newline \n tab \t bell \u{7} é"),
            ),
            (
                "metrics",
                obj(vec![(
                    "batch_wait_p99_ms",
                    obj(vec![("value", n(75.411_039_035_804_7)), ("unit", s("ms"))]),
                )]),
            ),
            (
                "list",
                JsonValue::Arr(vec![n(-1.5e-7), JsonValue::Null, n(0.0)]),
            ),
        ]);
        let text = render(&v);
        assert!(!text.contains('\n'), "one line: {text}");
        assert_eq!(parse_json(&text).expect("parses"), v);
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(
            render(&JsonValue::Arr(vec![n(f64::NAN), n(f64::INFINITY)])),
            "[null,null]"
        );
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(render(&n(1000.0)), "1000");
        assert_eq!(render(&n(1.2034)), "1.2034");
    }
}
