//! The one JSON emitter behind the committed `BENCH_serve.json` and
//! `BENCH_daemon.json` baselines.
//!
//! `serve_bench` and `daemon_bench` write their documents through this
//! single writer, with two hard guarantees so baselines diff cleanly
//! across commits:
//!
//! * **sorted keys** — every object's fields are emitted in lexicographic
//!   order, recursively, regardless of insertion order;
//! * **trailing newline** — the document always ends in exactly one
//!   `\n`.

use serde_json::Value;

/// Builds an object value from `(key, value)` pairs (order irrelevant —
/// rendering sorts).
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A float rounded to 3 decimals for wall-clock style measurements
/// (sub-microsecond noise has no place in a committed baseline).
pub fn ms(x: f64) -> Value {
    Value::Float((x * 1e3).round() / 1e3)
}

/// A float rounded to 6 decimals for rates/fractions.
pub fn rate(x: f64) -> Value {
    Value::Float((x * 1e6).round() / 1e6)
}

/// Renders a report document: keys sorted recursively, pretty-printed,
/// exactly one trailing newline.
pub fn render(value: &Value) -> String {
    let mut text = serde_json::to_string_pretty(&sort_keys(value.clone()))
        .expect("value printing is infallible");
    while text.ends_with('\n') {
        text.pop();
    }
    text.push('\n');
    text
}

fn sort_keys(value: Value) -> Value {
    match value {
        Value::Object(mut fields) => {
            fields.sort_by(|(a, _), (b, _)| a.cmp(b));
            Value::Object(fields.into_iter().map(|(k, v)| (k, sort_keys(v))).collect())
        }
        Value::Array(items) => Value::Array(items.into_iter().map(sort_keys).collect()),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_come_out_sorted_recursively() {
        let doc = obj(vec![
            ("zeta", Value::Int(1)),
            (
                "alpha",
                obj(vec![("b", Value::Int(2)), ("a", Value::Int(3))]),
            ),
            (
                "cases",
                Value::Array(vec![obj(vec![
                    ("name", Value::String("x".into())),
                    ("hit_rate", rate(0.5)),
                ])]),
            ),
        ]);
        let text = render(&doc);
        let alpha = text.find("\"alpha\"").unwrap();
        let zeta = text.find("\"zeta\"").unwrap();
        assert!(alpha < zeta, "top-level keys sorted:\n{text}");
        let a = text.find("\"a\"").unwrap();
        let b = text.find("\"b\"").unwrap();
        assert!(a < b, "nested keys sorted:\n{text}");
        let hit = text.find("\"hit_rate\"").unwrap();
        let name = text.find("\"name\"").unwrap();
        assert!(hit < name, "keys inside arrays sorted:\n{text}");
    }

    #[test]
    fn exactly_one_trailing_newline() {
        let text = render(&obj(vec![("k", Value::Int(1))]));
        assert!(text.ends_with('\n'));
        assert!(!text.ends_with("\n\n"));
    }

    #[test]
    fn rendering_is_idempotent_and_parseable() {
        let doc = obj(vec![("b", ms(12.34567)), ("a", rate(0.1234567))]);
        let text = render(&doc);
        let reparsed: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(
            render(&reparsed),
            text,
            "render(parse(render(x))) fixed point"
        );
        assert!(text.contains("12.346"), "{text}");
        assert!(text.contains("0.123457"), "{text}");
    }
}
