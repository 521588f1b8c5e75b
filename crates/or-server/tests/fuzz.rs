//! Hostile input at the three boundaries a client reaches: HTTP framing
//! (`read_request`), the JSON codec (`Json::parse`), and the OrQL parser
//! and type checker.  Every property feeds arbitrary or near-valid input
//! and requires an `Ok` or an `Err` — a panic fails the test.  The JSON
//! codec additionally round-trips: `parse(encode(j)) == j`.

use proptest::prelude::*;

use or_lang::check::TypeEnv;
use or_lang::{infer_type, parse_statement, Statement};
use or_object::Type;
use or_server::http::read_request;
use or_server::Json;

/// Well-formed requests, the seeds of the near-valid cases.
const REQUESTS: [&str; 4] = [
    "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
    "GET /stats?db=d HTTP/1.1\r\n\r\n",
    "POST /query HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: 40\r\n\r\n\
     {\"db\":\"d\",\"statement\":\"{ x | x <- db }\"}",
    "POST /shutdown HTTP/1.1\r\ncontent-length: 0\r\n\r\n",
];

/// Fragments spliced into requests: framing bytes and hostile headers.
const REQUEST_BITS: [&str; 9] = [
    "\r\n",
    "\r\n\r\n",
    ":",
    "\n",
    "\0",
    "é",
    "Content-Length: 5\r\n",
    "Content-Length: 99999999999999999999\r\n",
    "content-length: -1\r\n",
];

/// Well-formed request bodies.
const BODIES: [&str; 4] = [
    r#"{"db": "d", "statement": "{ fst(p) | p <- db, snd(p) <= 20 }"}"#,
    r#"{"db":"d","statement":"let k = 3","budget":{"worlds":64,"time_ms":100}}"#,
    r#"[1, -2.5e3, true, false, null, "a\"b\\c\né😀", {}, []]"#,
    r#"{"nested": {"a": [[[]]], "b": {"c": "\u0000"}}}"#,
];

/// Fragments spliced into bodies: structure, escapes, odd numbers.
const BODY_BITS: [&str; 14] = [
    "{", "}", "[", "]", "\"", "\\", "\\u", "\\ud800", "\\udc00", ",", ":", "1e999", "-0.", "nul",
];

/// Well-formed statements over [`type_env`].
const STATEMENTS: [&str; 6] = [
    "{ fst(p) | p <- db, snd(p) <= 20 }",
    "let k = 3 in { fst(r) | r <- alts, ormember(k, snd(r)) }",
    "{ w | r <- alts, w <- toset(normalize(r)), fst(w) < 3 }",
    "union({ x | x <- db }, { (n, n) | q <- db })",
    "let s = { 1, 2 }",
    "if member(1, { fst(p) | p <- db }) then <| 1, 2 |> else <| \"a\" |>",
];

/// Token texts for OrQL token soups: every keyword and operator, names the
/// environment binds and some it does not, and edge-case literals.
const TOKENS: [&str; 44] = [
    "let",
    "in",
    "if",
    "then",
    "else",
    "true",
    "false",
    "unit",
    "(",
    ")",
    "{",
    "}",
    "<|",
    "|>",
    ",",
    "|",
    "<-",
    "=",
    "==",
    "!=",
    "<=",
    ">=",
    "<",
    ">",
    "+",
    "-",
    "*",
    "&&",
    "||",
    ";",
    "db",
    "alts",
    "n",
    "x",
    "fst",
    "snd",
    "normalize",
    "toset",
    "union",
    "ormember",
    "0",
    "9223372036854775807",
    "\"s\"",
    "\"",
];

fn type_env() -> TypeEnv {
    vec![
        (
            "db".to_string(),
            Type::set(Type::prod(Type::Int, Type::Int)),
        ),
        (
            "alts".to_string(),
            Type::set(Type::prod(Type::Int, Type::orset(Type::Int))),
        ),
        ("n".to_string(), Type::Int),
    ]
}

fn pick<'a>(items: &[&'a str], rng: &mut TestRng) -> &'a str {
    items[rng.below(items.len() as u64) as usize]
}

/// A strategy for near-valid input: one of `seeds` with up to four random
/// edits — truncation, a bit flip, a deleted or duplicated span, or one of
/// `bits` spliced in.
struct Mutated {
    seeds: &'static [&'static str],
    bits: &'static [&'static str],
}

impl Strategy for Mutated {
    type Value = Vec<u8>;

    fn generate(&self, rng: &mut TestRng) -> Vec<u8> {
        let mut bytes = pick(self.seeds, rng).as_bytes().to_vec();
        for _ in 0..1 + rng.below(4) {
            let at = rng.below(bytes.len() as u64 + 1) as usize;
            let end = (at + rng.below(16) as usize).min(bytes.len());
            match rng.below(5) {
                0 => bytes.truncate(at),
                1 if at < bytes.len() => bytes[at] ^= 1 << rng.below(8),
                2 => drop(bytes.drain(at..end)),
                3 => {
                    let span = bytes[at..end].to_vec();
                    bytes.splice(at..at, span);
                }
                _ => {
                    let bit = pick(self.bits, rng).as_bytes();
                    bytes.splice(at..at, bit.iter().copied());
                }
            }
        }
        bytes
    }
}

/// A strategy for a string of up to 40 [`TOKENS`], space-separated or
/// run together.
struct TokenSoup;

impl Strategy for TokenSoup {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let glue = if rng.below(2) == 0 { " " } else { "" };
        (0..rng.below(41))
            .map(|_| pick(&TOKENS, rng))
            .collect::<Vec<_>>()
            .join(glue)
    }
}

/// A strategy for JSON documents the encoder can round-trip: numbers are
/// integers (exact in an `f64`), strings need escaping, and the nesting,
/// spine included, stays below the parser's 128-level limit.
struct JsonTree;

/// Characters a JSON string must escape, plus multi-byte UTF-8.
const CHARS: [char; 12] = [
    'a', 'Z', ' ', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', 'é', '😀',
];

fn json_string(rng: &mut TestRng) -> String {
    (0..rng.below(8))
        .map(|_| CHARS[rng.below(CHARS.len() as u64) as usize])
        .collect()
}

fn json_tree(rng: &mut TestRng, depth: u32) -> Json {
    let kinds = if depth == 0 { 4 } else { 6 };
    match rng.below(kinds) {
        0 => Json::Null,
        1 => Json::Bool(rng.below(2) == 1),
        2 => {
            let n = (rng.next_u64() % (1 << 53)) as i64 - (1 << 52);
            Json::Num(n as f64)
        }
        3 => Json::Str(json_string(rng)),
        4 => Json::Arr(
            (0..rng.below(4))
                .map(|_| json_tree(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.below(4))
                .map(|_| (json_string(rng), json_tree(rng, depth - 1)))
                .collect(),
        ),
    }
}

impl Strategy for JsonTree {
    type Value = Json;

    fn generate(&self, rng: &mut TestRng) -> Json {
        let mut json = json_tree(rng, 4);
        for _ in 0..rng.below(120) {
            json = if rng.below(2) == 0 {
                Json::Arr(vec![json])
            } else {
                Json::Obj(vec![(json_string(rng), json)])
            };
        }
        json
    }
}

fn lossy(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// Parse, then type-check what parsed: either step may fail, neither may
/// panic.
fn parse_and_check(src: &str) {
    if let Ok(statement) = parse_statement(src) {
        let expr = match statement {
            Statement::Bind(_, expr) | Statement::Expr(expr) => expr,
        };
        let _ = infer_type(&expr, &type_env());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 3000, ..ProptestConfig::default() })]

    #[test]
    fn read_request_survives_arbitrary_bytes(bytes in collection::vec(0u8..=255, 0..512)) {
        let _ = read_request(bytes.as_slice());
    }

    #[test]
    fn read_request_survives_mutated_requests(
        bytes in Mutated { seeds: &REQUESTS, bits: &REQUEST_BITS },
    ) {
        let _ = read_request(bytes.as_slice());
    }

    #[test]
    fn json_parse_survives_arbitrary_strings(bytes in collection::vec(0u8..=255, 0..256)) {
        let _ = Json::parse(&lossy(&bytes));
    }

    #[test]
    fn json_parse_survives_mutated_bodies(bytes in Mutated { seeds: &BODIES, bits: &BODY_BITS }) {
        let _ = Json::parse(&lossy(&bytes));
    }

    #[test]
    fn json_encoding_round_trips(json in JsonTree) {
        prop_assert_eq!(Json::parse(&json.to_string()), Ok(json));
    }

    #[test]
    fn orql_survives_token_soups(src in TokenSoup) {
        parse_and_check(&src);
    }

    #[test]
    fn orql_survives_mutated_statements(bytes in Mutated { seeds: &STATEMENTS, bits: &TOKENS }) {
        parse_and_check(&lossy(&bytes));
    }
}
