//! Just enough JSON for `bench-pair` to read `dtk-bench` records and
//! `BENCHMARK.json` without a dependency. Of the string escapes it reads
//! `\"`, `\\`, `\/`, `\n` and `\t`, the ones those files can hold.

/// A parsed JSON value; object members keep their file order.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

static NULL: Value = Value::Null;

impl Value {
    /// Member `key` of an object; `Null` when absent.
    pub(crate) fn get(&self, key: &str) -> &Value {
        self.members().iter().find(|(k, _)| k == key).map_or(&NULL, |m| &m.1)
    }

    pub(crate) fn num(&self) -> f64 {
        let Value::Num(n) = self else { return f64::NAN };
        *n
    }

    pub(crate) fn str(&self) -> &str {
        let Value::Str(s) = self else { return "" };
        s
    }

    pub(crate) fn items(&self) -> &[Value] {
        let Value::Arr(items) = self else { return &[] };
        items
    }

    pub(crate) fn members(&self) -> &[(String, Value)] {
        let Value::Obj(members) = self else { return &[] };
        members
    }
}

/// Parses one JSON document.
pub(crate) fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { s: text.as_bytes(), i: 0 };
    let v = p.value()?;
    match p.peek() {
        None => Ok(v),
        Some(_) => Err(format!("trailing bytes at offset {}", p.i)),
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    /// The next non-blank byte, not consumed.
    fn peek(&mut self) -> Option<u8> {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
        self.s.get(self.i).copied()
    }

    /// Consumes the next non-blank byte if it is `byte`.
    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.i += usize::from(hit);
        hit
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.eat(byte) {
            return Ok(());
        }
        Err(format!("expected '{}' at offset {}", byte as char, self.i))
    }

    fn value(&mut self) -> Result<Value, String> {
        if self.eat(b'{') {
            return self.list(b'}', true).map(Value::Obj);
        }
        if self.eat(b'[') {
            return self
                .list(b']', false)
                .map(|m| Value::Arr(m.into_iter().map(|m| m.1).collect()));
        }
        if self.peek() == Some(b'"') {
            return self.string().map(Value::Str);
        }
        let s = self.s;
        let rest = &s[self.i..];
        let words =
            [("true", Value::Bool(true)), ("false", Value::Bool(false)), ("null", Value::Null)];
        for (word, v) in words {
            if rest.starts_with(word.as_bytes()) {
                self.i += word.len();
                return Ok(v);
            }
        }
        let len = rest.iter().take_while(|b| b"+-.eE0123456789".contains(b)).count();
        self.i += len;
        let text = std::str::from_utf8(&rest[..len]).unwrap_or("");
        text.parse().map(Value::Num).map_err(|_| format!("bad value at offset {}", self.i))
    }

    /// The members of an object (`keyed`) or the items of an array, after
    /// its opening bracket and up to its `close`.
    fn list(&mut self, close: u8, keyed: bool) -> Result<Vec<(String, Value)>, String> {
        let mut out = Vec::new();
        if self.eat(close) {
            return Ok(out);
        }
        loop {
            let key = if keyed { self.string()? } else { String::new() };
            if keyed {
                self.expect(b':')?;
            }
            out.push((key, self.value()?));
            if self.eat(close) {
                return Ok(out);
            }
            self.expect(b',')?;
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            let b = *self.s.get(self.i).ok_or("unterminated string")?;
            self.i += 1;
            match b {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let e = *self.s.get(self.i).ok_or("unterminated string")?;
                    self.i += 1;
                    out.push(match e {
                        b'n' => b'\n',
                        b't' => b'\t',
                        other => other,
                    });
                }
                _ => out.push(b),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_a_result_record_and_rejects_malformed_input() {
        let text = r#" {"workload": "adhoc_uncached", "correct": true, "failed": 0, "x": null,
            "samples": [0.3, 1e-2], "cpu": "AMD \"EPYC\" é\\", "empty": {}, "none": [],
            "metrics": {"throughput_qps": {"value": 2590.8, "unit": "req/s"}}} "#;
        let v = parse(text).expect("valid JSON");
        assert_eq!(v.get("workload").str(), "adhoc_uncached");
        assert_eq!((v.get("correct"), v.get("failed").num()), (&Value::Bool(true), 0.0));
        assert_eq!((v.get("samples").items().len(), v.get("none").items().len()), (2, 0));
        assert_eq!(v.get("cpu").str(), "AMD \"EPYC\" é\\");
        assert_eq!(v.get("metrics").get("throughput_qps").get("value").num(), 2590.8);
        assert_eq!((v.get("x"), v.get("missing")), (&Value::Null, &Value::Null));
        for bad in ["{", "[1,]", "[1 2]", "{\"a\" 1}", "\"open", "1 2", "tru", ""] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
