//! Counterexample traces: the minimal decision prefix that reproduces a
//! violation, serialized to JSON for artifacts and deterministic replay.
//!
//! A trace is *self-describing*: it embeds every configuration field that
//! influences the schedule (cluster size, FIFO mode, eager-collective
//! reduction, fault budgets), so [`crate::replay`] reconstructs the exact
//! execution from the JSON alone plus the scenario closure. The format is
//! a single flat JSON object, written and parsed by hand because the
//! workspace is dependency-free; strings are escaped by
//! [`forestbal_trace::json_escape`].

use forestbal_trace::json_escape;

/// A serializable counterexample: replaying `choices` through the
/// exploration strategy reproduces the violating execution exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    /// Format version (currently 1).
    pub version: u32,
    /// Cluster size the scenario ran at.
    pub size: usize,
    /// Whether the simulator enforced per-pair FIFO delivery.
    pub fifo: bool,
    /// Whether collective resumptions were delivered eagerly (not
    /// explored as choice points).
    pub eager_collectives: bool,
    /// Per-execution drop-fault budget.
    pub max_drops: u32,
    /// Per-execution duplicate-fault budget.
    pub max_duplicates: u32,
    /// Decision taken at each choice point, in order; executions longer
    /// than the list continue with arm 0.
    pub choices: Vec<u32>,
    /// Name of the violated invariant.
    pub invariant: String,
    /// Human-readable violation description from the original run.
    pub message: String,
}

impl Trace {
    /// Serialize to a single-object JSON string.
    pub fn to_json(&self) -> String {
        let choices: Vec<String> = self.choices.iter().map(u32::to_string).collect();
        format!(
            "{{\"version\":{},\"size\":{},\"fifo\":{},\"eager_collectives\":{},\
             \"max_drops\":{},\"max_duplicates\":{},\"choices\":[{}],\
             \"invariant\":\"{}\",\"message\":\"{}\"}}",
            self.version,
            self.size,
            self.fifo,
            self.eager_collectives,
            self.max_drops,
            self.max_duplicates,
            choices.join(","),
            json_escape(&self.invariant),
            json_escape(&self.message),
        )
    }

    /// Parse a trace written by [`Trace::to_json`] (tolerates reordered
    /// keys and arbitrary whitespace).
    pub fn from_json(s: &str) -> Result<Trace, String> {
        let mut p = Parser {
            s: s.as_bytes(),
            i: 0,
        };
        p.skip_ws();
        p.expect(b'{')?;
        let mut t = Trace {
            version: 1,
            size: 0,
            fifo: true,
            eager_collectives: true,
            max_drops: 0,
            max_duplicates: 0,
            choices: Vec::new(),
            invariant: String::new(),
            message: String::new(),
        };
        loop {
            p.skip_ws();
            if p.eat(b'}') {
                break;
            }
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            match key.as_str() {
                "version" => t.version = p.number()? as u32,
                "size" => t.size = p.number()? as usize,
                "fifo" => t.fifo = p.boolean()?,
                "eager_collectives" => t.eager_collectives = p.boolean()?,
                "max_drops" => t.max_drops = p.number()? as u32,
                "max_duplicates" => t.max_duplicates = p.number()? as u32,
                "choices" => t.choices = p.number_array()?,
                "invariant" => t.invariant = p.string()?,
                "message" => t.message = p.string()?,
                other => return Err(format!("unknown trace key {other:?}")),
            }
            p.skip_ws();
            if !p.eat(b',') {
                p.skip_ws();
                p.expect(b'}')?;
                break;
            }
        }
        if t.size == 0 {
            return Err("trace is missing a nonzero \"size\"".into());
        }
        Ok(t)
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.i < self.s.len() && self.s[self.i] == b {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {} of trace JSON",
                b as char, self.i
            ))
        }
    }

    fn number(&mut self) -> Result<u64, String> {
        let start = self.i;
        while self.i < self.s.len() && self.s[self.i].is_ascii_digit() {
            self.i += 1;
        }
        if self.i == start {
            return Err(format!("expected a number at byte {start}"));
        }
        std::str::from_utf8(&self.s[start..self.i])
            .unwrap()
            .parse()
            .map_err(|e| format!("bad number at byte {start}: {e}"))
    }

    fn boolean(&mut self) -> Result<bool, String> {
        if self.s[self.i..].starts_with(b"true") {
            self.i += 4;
            Ok(true)
        } else if self.s[self.i..].starts_with(b"false") {
            self.i += 5;
            Ok(false)
        } else {
            Err(format!("expected true/false at byte {}", self.i))
        }
    }

    fn number_array(&mut self) -> Result<Vec<u32>, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        loop {
            self.skip_ws();
            if self.eat(b']') {
                break;
            }
            out.push(self.number()? as u32);
            self.skip_ws();
            if !self.eat(b',') {
                self.skip_ws();
                self.expect(b']')?;
                break;
            }
        }
        Ok(out)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        while self.i < self.s.len() {
            match self.s[self.i] {
                b'"' => {
                    self.i += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.i += 1;
                    let esc = *self
                        .s
                        .get(self.i)
                        .ok_or("unterminated escape in trace JSON")?;
                    self.i += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .s
                                .get(self.i..self.i + 4)
                                .ok_or("truncated \\u escape")?;
                            self.i += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                _ => {
                    // Copy the full UTF-8 sequence starting here.
                    let rest = std::str::from_utf8(&self.s[self.i..])
                        .map_err(|_| "trace JSON is not UTF-8")?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.i += c.len_utf8();
                }
            }
        }
        Err("unterminated string in trace JSON".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip() {
        let t = Trace {
            version: 1,
            size: 3,
            fifo: false,
            eager_collectives: true,
            max_drops: 1,
            max_duplicates: 0,
            choices: vec![2, 0, 1],
            invariant: "oracle".into(),
            message: "rank 0: got [1], oracle says [2]\n\"quoted\"".into(),
        };
        let j = t.to_json();
        assert_eq!(Trace::from_json(&j).unwrap(), t);
    }

    #[test]
    fn parse_tolerates_whitespace_and_reordering() {
        let j = "{ \"size\": 2 , \"choices\" : [ ] ,\n \"fifo\": true, \
                 \"version\":1, \"eager_collectives\":false, \"max_drops\":0, \
                 \"max_duplicates\":0, \"invariant\":\"x\", \"message\":\"\" }";
        let t = Trace::from_json(j).unwrap();
        assert_eq!(t.size, 2);
        assert!(t.choices.is_empty());
        assert!(!t.eager_collectives);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Trace::from_json("not json").is_err());
        assert!(Trace::from_json("{\"bogus\":1}").is_err());
        // A size of 0 can never replay.
        assert!(Trace::from_json("{\"version\":1}").is_err());
    }
}
