//! Property test for rendering interned objects: `Interner::write_text`
//! prints exactly the bytes `Value`'s `Display` prints for the decoded
//! value, so a result can go to text without being decoded.

use std::sync::Arc;

use proptest::prelude::*;

use or_object::intern::Interner;
use or_object::Value;

/// SplitMix64: a tiny deterministic stream for building values from one
/// seed.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Pieces of strings, chosen for what `{:?}` does with them: quotes and
/// backslashes it escapes, control characters it writes as `\n`, `\0` or
/// `\u{..}`, grapheme extenders and invisible code points it escapes, and
/// multi-byte UTF-8 it keeps.
const PIECES: [&str; 18] = [
    "a", "Z9", " ", "\"", "\\", "'", "\n", "\r", "\t", "\u{0}", "\u{1b}", "\u{7f}", "é", "😀",
    "\u{200b}", "\u{301}", "{<|", "),",
];

fn string(stream: &mut Stream) -> String {
    (0..stream.below(5))
        .map(|_| PIECES[stream.below(PIECES.len() as u64) as usize])
        .collect()
}

/// A value of every shape: scalars, pairs, and sets, or-sets and bags —
/// empty ones included — nested up to `depth` levels.  Values need not be
/// well typed to be interned and printed.
fn value(stream: &mut Stream, depth: u32) -> Value {
    let kinds = if depth == 0 { 5 } else { 9 };
    let children = |stream: &mut Stream| -> Vec<Value> {
        (0..stream.below(4))
            .map(|_| value(stream, depth - 1))
            .collect()
    };
    match stream.below(kinds) {
        0 => Value::Unit,
        1 => Value::Bool(stream.below(2) == 0),
        2 => Value::Int(match stream.below(4) {
            0 => i64::MIN,
            1 => stream.next() as i64,
            _ => stream.below(21) as i64 - 10,
        }),
        3 => Value::Str(string(stream)),
        4 => Value::Null,
        5 => Value::pair(value(stream, depth - 1), value(stream, depth - 1)),
        6 => Value::set(children(stream)),
        7 => Value::orset(children(stream)),
        _ => Value::bag(children(stream)),
    }
}

fn text(arena: &Interner, id: or_object::intern::InternId) -> String {
    let mut out = String::new();
    arena
        .write_text(id, &mut out)
        .expect("a String sink does not fail");
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Rendering an interned object equals `decode(id).to_string()` byte
    /// for byte, in a root arena and in an overlay whose objects mix base
    /// and local nodes.
    #[test]
    fn rendering_ids_equals_displaying_their_decoded_values(seed in any::<u64>()) {
        let mut stream = Stream(seed);
        let values: Vec<Value> = (0..8).map(|_| value(&mut stream, 3)).collect();
        let mut base = Interner::new();
        for v in &values[..4] {
            base.intern(v);
        }
        let mut overlay = Interner::with_base(Arc::new(base.clone()));
        for v in &values {
            let id = base.intern(v);
            prop_assert_eq!(text(&base, id), base.value(id).to_string());
            prop_assert_eq!(text(&base, id), v.to_string());
            let id = overlay.intern(v);
            prop_assert_eq!(text(&overlay, id), v.to_string());
        }
        // a set built in the overlay over children in both levels
        let all = Value::set(values);
        let id = overlay.intern(&all);
        prop_assert_eq!(text(&overlay, id), overlay.value(id).to_string());
        prop_assert_eq!(text(&overlay, id), all.to_string());
    }
}
