//! The one JSON writer behind every machine-readable document this crate
//! emits: the two `repro --stats-json` documents and the `BENCH_*.json`
//! files of the bench targets.
//!
//! The workspace deliberately has no serde dependency, so a document is
//! built as a [`Json`] value and rendered once. The layout is fixed and has
//! no options: containers at depth 0 and 1 put one entry per line, deeper
//! containers are inline, and there is no other whitespace. A document is
//! therefore one line per row, which keeps diffs of committed documents
//! readable and `--stats-json`'s bytes stable.

use std::fmt::Write;

/// A JSON value. Objects keep insertion order.
#[derive(Debug, PartialEq)]
pub enum Json {
    /// An unsigned integer. `u64`, not `i64`: seeds use the full range.
    Int(u64),
    /// A float rendered with a fixed number of decimals; non-finite values
    /// render as `null`.
    Num(f64, usize),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
    /// `null`.
    Null,
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, to be filled with [`Json::field`].
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends `key: value` to an object.
    ///
    /// # Panics
    ///
    /// If `self` is not an object.
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(entries) => entries.push((key.to_string(), value.into())),
            other => panic!("Json::field on a non-object: {other:?}"),
        }
        self
    }

    /// Renders the document, newline-terminated.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Int(v) => write!(out, "{v}").expect("write to String"),
            Json::Num(v, decimals) if v.is_finite() => {
                write!(out, "{v:.decimals$}").expect("write to String")
            }
            Json::Num(..) | Json::Null => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Bool(b) => write!(out, "{b}").expect("write to String"),
            Json::Arr(items) => {
                write_container(out, depth, ['[', ']'], items.iter().map(|v| (None, v)))
            }
            Json::Obj(entries) => write_container(
                out,
                depth,
                ['{', '}'],
                entries.iter().map(|(k, v)| (Some(k.as_str()), v)),
            ),
        }
    }
}

fn write_container<'a>(
    out: &mut String,
    depth: usize,
    [open, close]: [char; 2],
    entries: impl Iterator<Item = (Option<&'a str>, &'a Json)>,
) {
    let sep = if depth < 2 { "\n" } else { "" };
    out.push(open);
    let mut empty = true;
    for (key, value) in entries {
        if !empty {
            out.push(',');
        }
        empty = false;
        out.push_str(sep);
        if let Some(key) = key {
            write_str(out, key);
            out.push(':');
        }
        value.write(out, depth + 1);
    }
    if !empty {
        out.push_str(sep);
    }
    out.push(close);
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if u32::from(c) < 0x20 => {
                write!(out, "\\u{:04x}", u32::from(c)).expect("write to String")
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

macro_rules! from_unsigned {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::Int(v as u64)
            }
        }
    )*};
}
from_unsigned!(u8, u16, u32, u64, usize);

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_layout() {
        let doc = Json::obj()
            .field("seed", u64::MAX)
            .field("nan", Json::Num(f64::NAN, 3))
            .field("ratio", Json::Num(2.0 / 3.0, 3))
            .field("quoted", "a\"b\\c\n")
            .field("empty", Json::Arr(Vec::new()))
            .field(
                "rows",
                vec![
                    Json::obj()
                        .field("ok", true)
                        .field("none", Option::<u64>::None)
                        .field("pairs", vec![vec![1u32, 2], vec![]])
                        .field("inner", Json::obj().field("ms", Json::Num(1.5, 6))),
                    Json::obj(),
                ],
            );
        assert_eq!(
            doc.render(),
            "{\n\
             \"seed\":18446744073709551615,\n\
             \"nan\":null,\n\
             \"ratio\":0.667,\n\
             \"quoted\":\"a\\\"b\\\\c\\u000a\",\n\
             \"empty\":[],\n\
             \"rows\":[\n\
             {\"ok\":true,\"none\":null,\"pairs\":[[1,2],[]],\"inner\":{\"ms\":1.500000}},\n\
             {}\n\
             ]\n\
             }\n"
        );
    }
}
