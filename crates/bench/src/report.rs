//! The one row type of the harness and its two renderings.
//!
//! Every experiment returns [`BenchRecord`]s: ordered `(key, value)`
//! lists with typed values. A record prints as one machine-readable
//! `BENCH {...}` JSON line (scraped from CI logs and committed as
//! `BENCH_*.json`), and any fixed-width table is a *projection* of
//! records through a column list ([`Table::project`]) — so a table can
//! only show what its `BENCH` rows carry.

use forestbal_trace::json_escape;

/// One typed field value of a [`BenchRecord`].
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A count, size, checksum or integer time.
    U64(u64),
    /// A wall-clock time or a derived ratio.
    F64(f64),
    /// A label (scheme, mesh, variant, ...).
    Str(String),
}

/// One measurement row: `bench` (the curve/table family it belongs to)
/// followed by fields in insertion order. Hand-rolled JSON (the
/// workspace builds offline with no serde): keys are emitted in
/// insertion order, strings minimally escaped, floats rendered via
/// Rust's shortest-roundtrip formatting.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRecord {
    fields: Vec<(String, Value)>,
}

impl BenchRecord {
    /// New record named `bench`.
    pub fn new(bench: &str) -> BenchRecord {
        BenchRecord {
            fields: vec![("bench".to_string(), Value::Str(bench.to_string()))],
        }
    }

    /// Append an unsigned-integer field.
    pub fn u(mut self, key: &str, v: u64) -> Self {
        self.fields.push((key.to_string(), Value::U64(v)));
        self
    }

    /// Append a float field (rendered `null` if not finite — JSON has
    /// no NaN).
    pub fn f(mut self, key: &str, v: f64) -> Self {
        self.fields.push((key.to_string(), Value::F64(v)));
        self
    }

    /// Append a string field.
    pub fn s(mut self, key: &str, v: &str) -> Self {
        self.fields
            .push((key.to_string(), Value::Str(v.to_string())));
        self
    }

    /// Append the derived field `key` = field `num` / field `den` (both
    /// floats already in the record); the floor keeps a zero-time
    /// denominator finite.
    pub fn speedup(self, key: &str, num: &str, den: &str) -> Self {
        let v = self.f64(num) / self.f64(den).max(1e-12);
        self.f(key, v)
    }

    /// The family name given to [`BenchRecord::new`].
    pub fn bench(&self) -> &str {
        self.str("bench")
    }

    /// Field names in emission order (`"bench"` first).
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.fields.iter().map(|(k, _)| k.as_str())
    }

    /// The value of `key`. Panics on a key the record does not carry: a
    /// misspelt column is a bug in the harness, not a runtime condition.
    pub fn get(&self, key: &str) -> &Value {
        match self.fields.iter().find(|(k, _)| k == key) {
            Some((_, v)) => v,
            None => panic!("record {:?} has no field {key:?}", self.bench()),
        }
    }

    /// Integer field `key` (panics if missing or not an integer).
    pub fn u64(&self, key: &str) -> u64 {
        match self.get(key) {
            Value::U64(v) => *v,
            other => panic!("field {key:?} is {other:?}, not an integer"),
        }
    }

    /// Float field `key` (panics if missing or not a float).
    pub fn f64(&self, key: &str) -> f64 {
        match self.get(key) {
            Value::F64(v) => *v,
            other => panic!("field {key:?} is {other:?}, not a float"),
        }
    }

    /// String field `key` (panics if missing or not a string).
    pub fn str(&self, key: &str) -> &str {
        match self.get(key) {
            Value::Str(v) => v,
            other => panic!("field {key:?} is {other:?}, not a string"),
        }
    }

    /// The record as one JSON object.
    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| {
                let rendered = match v {
                    Value::U64(v) => v.to_string(),
                    Value::F64(v) if v.is_finite() => format!("{v:?}"),
                    Value::F64(_) => "null".to_string(),
                    Value::Str(v) => format!("\"{}\"", json_escape(v)),
                };
                format!("\"{}\":{rendered}", json_escape(k))
            })
            .collect();
        format!("{{{}}}", body.join(","))
    }

    /// Print the `BENCH {...}` line.
    pub fn emit(&self) {
        println!("BENCH {}", self.json());
    }
}

/// A cell formatter: renders field `key` of a record. It receives the
/// whole record so a column may normalize by a sibling field.
pub type Fmt = fn(&BenchRecord, &str) -> String;

/// One table column: header text, the record field it shows, and how.
#[derive(Clone, Copy)]
pub struct Col<'a> {
    /// Header text.
    pub head: &'a str,
    /// Field name handed to `fmt` (empty for a constant cell).
    pub key: &'a str,
    /// Cell formatter.
    pub fmt: Fmt,
}

impl<'a> Col<'a> {
    /// Column `head` showing field `key` through `fmt` (a one-line
    /// spelling of the struct literal, which rustfmt would spread over
    /// five).
    pub const fn new(head: &'a str, key: &'a str, fmt: Fmt) -> Col<'a> {
        Col { head, key, fmt }
    }
}

/// A printable table: header row plus data rows of equal arity.
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// The table titled `title` with one row per record and one cell per
    /// column.
    pub fn project<'a>(
        title: &str,
        cols: &[Col<'_>],
        rows: impl IntoIterator<Item = &'a BenchRecord>,
    ) -> Table {
        let mut t = Table {
            title: title.to_string(),
            header: cols.iter().map(|c| c.head.to_string()).collect(),
            rows: Vec::new(),
        };
        t.extend(cols, rows);
        t
    }

    /// Append one more row per record under the existing header, through
    /// a second column list of the same arity (a record that fills
    /// several table rows).
    pub fn extend<'a>(
        &mut self,
        cols: &[Col<'_>],
        rows: impl IntoIterator<Item = &'a BenchRecord>,
    ) {
        assert_eq!(cols.len(), self.header.len(), "row arity mismatch");
        for r in rows {
            self.rows
                .push(cols.iter().map(|c| (c.fmt)(r, c.key)).collect());
        }
    }

    /// Render to a string with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cols() -> [Col<'static>; 2] {
        [
            Col::new("a", "a", |r, k| r.u64(k).to_string()),
            Col::new("bbbb", "b", |r, k| format!("{:.1}", r.f64(k))),
        ]
    }

    #[test]
    fn renders_aligned() {
        let rows = [
            BenchRecord::new("demo").u("a", 1).f("b", 2.0),
            BenchRecord::new("demo").u("a", 100).f("b", 2000000.04),
        ];
        let s = Table::project("demo", &cols(), &rows).render();
        assert!(s.contains("demo"));
        assert!(s.contains("2000000.0"));
        let lines: Vec<&str> = s.lines().filter(|l| !l.is_empty()).collect();
        // Data lines share the same width.
        assert_eq!(lines[4].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let rows = [BenchRecord::new("x").u("a", 1)];
        Table::project("x", &cols()[..1], &rows).extend(&cols(), &rows);
    }

    #[test]
    #[should_panic(expected = "no field \"b\"")]
    fn misspelt_column_panics() {
        let rows = [BenchRecord::new("x").u("a", 1)];
        Table::project("x", &cols(), &rows);
    }

    #[test]
    fn bench_record_is_valid_json() {
        let r = BenchRecord::new("sim_reversal")
            .u("ranks", 4096)
            .s("scheme", "notify")
            .f("virtual_ms", 1.25)
            .f("bad", f64::NAN);
        assert_eq!(
            r.json(),
            r#"{"bench":"sim_reversal","ranks":4096,"scheme":"notify","virtual_ms":1.25,"bad":null}"#
        );
        assert_eq!(
            r.keys().collect::<Vec<_>>(),
            ["bench", "ranks", "scheme", "virtual_ms", "bad"]
        );
        assert_eq!((r.u64("ranks"), r.str("scheme")), (4096, "notify"));
        let q = BenchRecord::new("a\"b\\c").json();
        assert_eq!(q, r#"{"bench":"a\"b\\c"}"#);
    }
}
