//! A std-only JSON emitter (the workspace builds offline, without serde).
//! String escaping is the trace crate's.

use forestbal::trace::json_escape;

pub enum Json {
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(&'static str, Json)>),
}

impl Json {
    pub fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    /// The value on one line, without spaces.
    pub fn compact(&self) -> String {
        match self {
            Json::Bool(b) => b.to_string(),
            Json::Num(v) => number(*v),
            Json::Str(s) => format!("\"{}\"", json_escape(s)),
            Json::Arr(items) => {
                let items: Vec<String> = items.iter().map(Json::compact).collect();
                format!("[{}]", items.join(","))
            }
            Json::Obj(fields) => {
                let fields: Vec<String> = fields
                    .iter()
                    .map(|(k, v)| format!("\"{}\":{}", json_escape(k), v.compact()))
                    .collect();
                format!("{{{}}}", fields.join(","))
            }
        }
    }
}

/// A finite number with all its digits; whole numbers print without a
/// fraction. Non-finite values have no JSON form and print as `null`.
pub fn number(v: f64) -> String {
    if !v.is_finite() {
        "null".to_string()
    } else if v == v.trunc() && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_and_escapes() {
        let j = Json::Obj(vec![
            ("ok", Json::Bool(true)),
            ("n", Json::Num(3.0)),
            ("x", Json::Num(1.25)),
            ("s", Json::str("a\"b\\c\n")),
            ("v", Json::Arr(vec![Json::Num(1.0), Json::Num(2.5)])),
            ("m", Json::Obj(vec![("k", Json::Num(-7.0))])),
        ]);
        assert_eq!(
            j.compact(),
            r#"{"ok":true,"n":3,"x":1.25,"s":"a\"b\\c\n","v":[1,2.5],"m":{"k":-7}}"#
        );
        forestbal::trace::validate_json(&j.compact()).expect("valid JSON");
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(number(1e-9), "0.000000001");
        assert_eq!(number(1234567.0), "1234567");
        assert_eq!(number(f64::NAN), "null");
    }
}
