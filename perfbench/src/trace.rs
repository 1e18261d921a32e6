//! Per-layer accounting of one traced pass, read from the engine's own
//! instrumentation: the span log (as the Chrome trace the obs layer
//! exports) and the obs counters.

use std::collections::HashMap;

/// Benchmark span around `RewriteSession::new`.
pub const SESSION_BUILD: &str = "bench.session_build";
/// Benchmark span around `RewriteSession::finish`.
pub const FINISH: &str = "bench.finish";

/// Where one traced pass spent its time and what work it did.
#[derive(Debug, Default)]
pub struct PassLayers {
    /// Span durations summed per span name, in milliseconds.
    pub span_ms: HashMap<String, f64>,
    /// The longest single `worker` span: the wall time of the worker team.
    pub team_ms: f64,
    /// Counter values, by obs name.
    pub counters: HashMap<String, u64>,
}

impl PassLayers {
    /// Collects the spans and counters recorded since the last
    /// `dacpara_obs::reset`.
    pub fn collect() -> Result<PassLayers, String> {
        let trace = parse(&dacpara_obs::chrome_trace_to_string())?;
        let events = trace
            .get("traceEvents")
            .and_then(Json::as_arr)
            .ok_or("trace has no traceEvents array")?;
        let mut layers = PassLayers::default();
        for e in events {
            if e.get("ph").and_then(Json::as_str) != Some("X") {
                continue;
            }
            let name = e
                .get("name")
                .and_then(Json::as_str)
                .ok_or("span without name")?;
            let dur_ms = e
                .get("dur")
                .and_then(Json::as_num)
                .ok_or("span without dur")?
                / 1e3;
            *layers.span_ms.entry(name.to_string()).or_default() += dur_ms;
            if name == "worker" {
                layers.team_ms = layers.team_ms.max(dur_ms);
            }
        }
        for (name, value) in dacpara_obs::global().counter_values() {
            layers.counters.insert(name.to_string(), value);
        }
        Ok(layers)
    }

    /// Summed duration of the spans called `name` (0 when none ran).
    pub fn ms(&self, name: &str) -> f64 {
        self.span_ms.get(name).copied().unwrap_or(0.0)
    }

    /// The obs counter `name` (0 when it never fired).
    pub fn count(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }
}

/// A parsed JSON value: just enough of JSON for the obs trace export.
#[derive(Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }
}

/// Parses one JSON document.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let value = p.value()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(format!("trailing characters at byte {}", p.i));
    }
    Ok(value)
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&byte) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", byte as char, self.i))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    fields.push((key, self.value()?));
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("bad object at byte {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("bad array at byte {}", self.i)),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of JSON".into()),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while self
            .s
            .get(self.i)
            .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.s[start..self.i])
            .ok()
            .and_then(|t| t.parse().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        if self.s.get(self.i) != Some(&b'"') {
            return Err(format!("expected string at byte {}", self.i));
        }
        self.i += 1;
        let mut out = Vec::new();
        loop {
            let c = *self.s.get(self.i).ok_or("unterminated string")?;
            self.i += 1;
            match c {
                b'"' => break,
                b'\\' => {
                    let e = *self.s.get(self.i).ok_or("unterminated escape")?;
                    self.i += 1;
                    match e {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self.s.get(self.i..self.i + 4).ok_or("short \\u escape")?;
                            self.i += 4;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            let ch = char::from_u32(code).unwrap_or('\u{FFFD}');
                            out.extend_from_slice(ch.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                _ => out.push(c),
            }
        }
        String::from_utf8(out).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_trace_event() {
        let doc = parse(
            r#"{"traceEvents":[{"name":"evaluate","ph":"X","ts":1.5,"dur":2e3,"args":{"id":"0"}}],"u":"µs"}"#,
        )
        .unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(
            events[0].get("name").and_then(Json::as_str),
            Some("evaluate")
        );
        assert_eq!(events[0].get("dur").and_then(Json::as_num), Some(2000.0));
        assert_eq!(doc.get("u").and_then(Json::as_str), Some("µs"));
    }

    #[test]
    fn rejects_truncated_input() {
        assert!(parse(r#"{"a":[1,2"#).is_err());
        assert!(parse(r#"{"a":1} x"#).is_err());
    }
}
