//! Small helpers over the workspace's JSON value type.

pub use serde::Content;

/// An object with keys in the given order.
pub fn obj(pairs: Vec<(&str, Content)>) -> Content {
    Content::Map(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

pub fn num(v: f64) -> Content {
    Content::F64(v)
}

pub fn int(v: u64) -> Content {
    Content::U64(v)
}

pub fn text(s: impl Into<String>) -> Content {
    Content::Str(s.into())
}

/// The value under `key` of an object.
pub fn get<'a>(c: &'a Content, key: &str) -> Option<&'a Content> {
    c.as_map()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

pub fn as_f64(c: &Content) -> Option<f64> {
    match c {
        Content::F64(v) => Some(*v),
        Content::U64(v) => Some(*v as f64),
        Content::I64(v) => Some(*v as f64),
        _ => None,
    }
}

pub fn as_str(c: &Content) -> Option<&str> {
    match c {
        Content::Str(s) => Some(s),
        _ => None,
    }
}

pub fn parse(s: &str) -> Result<Content, String> {
    serde_json::from_str(s).map_err(|e| e.to_string())
}

pub fn render(c: &Content) -> String {
    serde_json::to_string(c).expect("a Content tree always serializes")
}
