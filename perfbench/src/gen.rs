//! Seeded inputs: the database scripts (in OrQL syntax) and the per-client
//! operation lists of every workload.
//!
//! Everything here is a pure function of the seed, so the same seed gives
//! the same script and the same statements.  Or-sets are written `<|…|>`
//! by hand: `Value`'s `Display` prints `<…>`, which the parser rejects.

use std::fmt::Write as _;

/// SplitMix64: small, fast, and good enough to draw constants from.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for `lane` (a client, say) under `seed`.
    pub fn derive(seed: u64, lane: u64) -> Rng {
        let mut base = Rng::new(seed ^ lane.wrapping_add(1).wrapping_mul(0xA076_1D64_78BD_642F));
        base.next_u64();
        base
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> i64 {
        (self.next_u64() % n) as i64
    }

    /// `k` distinct values from `0..n`, sorted.
    pub fn distinct(&mut self, k: usize, n: u64) -> Vec<i64> {
        let mut out: Vec<i64> = Vec::with_capacity(k);
        while out.len() < k {
            let v = self.below(n);
            if !out.contains(&v) {
                out.push(v);
            }
        }
        out.sort_unstable();
        out
    }

    /// A shuffled sequence of `len` class indices in which class `i`
    /// appears in proportion to `weights[i]` (rounded; the largest class
    /// absorbs the rounding), so every seed runs the same mix.
    pub fn mix(&mut self, weights: &[u32], len: usize) -> Vec<usize> {
        let total: u32 = weights.iter().sum();
        let mut counts: Vec<usize> = weights
            .iter()
            .map(|&w| (len as u64 * u64::from(w) / u64::from(total)) as usize)
            .collect();
        let largest = (0..weights.len()).max_by_key(|&i| weights[i]).unwrap_or(0);
        counts[largest] += len - counts.iter().sum::<usize>();
        let mut classes: Vec<usize> = counts
            .iter()
            .enumerate()
            .flat_map(|(class, &n)| std::iter::repeat(class).take(n))
            .collect();
        for i in (1..classes.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            classes.swap(i, j);
        }
        classes
    }
}

/// Relation sizes of the relational workloads.
pub const PARTS: usize = 20_000;
pub const PRICES: u64 = 1_000;
pub const CATEGORIES: u64 = 50;
pub const USERS: usize = 2_000;
pub const GROUPS: u64 = 32;
pub const NESTED: usize = 2_000;
pub const NESTED_RANGE: u64 = 200;
/// Rows each `let` rebind of a client binding copies out of `parts`.
pub const CLIENT_ROWS: i64 = 200;

/// Relation sizes of the expansion workload: `alts` rows have 3 × 2 = 6
/// worlds, `fan` rows 8 × 4 = 32.
pub const ALTS: usize = 500;
pub const FAN: usize = 250;

/// One statement of a workload, with its class for reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    pub stmt: String,
    pub class: usize,
    pub write: bool,
}

/// A workload's statement classes and their weights in the mix.
pub struct Mix {
    pub names: &'static [&'static str],
    pub weights: &'static [u32],
}

/// Relational mix (`http_mixed`, `session_relational`).  Measured
/// in-process, the classes sort by latency as client_read < union < write
/// < filter_project < join < dependent < fallback: the median falls in the
/// middle of `filter_project` (35–72 %), and p99 in the middle of the
/// 2 % `fallback` class.
pub const RELATIONAL_MIX: Mix = Mix {
    names: &[
        "filter_project",
        "join",
        "union",
        "dependent",
        "fallback",
        "client_read",
        "write",
    ],
    weights: &[37, 8, 15, 18, 2, 10, 10],
};

/// Expansion mix (`session_expand`): `ormember`, `write` and `expand`, 65 %
/// together, spread over the same few milliseconds, and the median falls
/// inside that spread; `expand_filter` and `expand_project` are slower, and
/// p99 falls inside `expand_project`.
pub const EXPAND_MIX: Mix = Mix {
    names: &[
        "expand",
        "expand_filter",
        "expand_project",
        "ormember",
        "write",
    ],
    weights: &[40, 20, 15, 15, 10],
};

fn write_set<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut row: impl FnMut(&mut String, T),
) {
    out.push('{');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        row(out, item);
    }
    out.push('}');
}

fn write_orset(out: &mut String, items: &[i64]) {
    out.push_str("<|");
    for (i, v) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{v}");
    }
    out.push_str("|>");
}

/// Name of client `c`'s rebindable relation in the relational workloads.
pub fn client_binding(client: usize) -> String {
    format!("mine{client}")
}

/// The relational database script: `parts`, `users`, `groups`, `nested`,
/// a small or-set relation `design` for the statement outside the
/// plannable fragment, and one `mine<c>` relation per client.
pub fn relational_script(seed: u64, clients: usize) -> String {
    let mut rng = Rng::derive(seed, 1_000);
    let mut s = String::with_capacity(PARTS * 20);
    s.push_str("-- relational workload database (generated)\nlet parts = ");
    write_set(&mut s, 0..PARTS, |out, i| {
        let price = rng.below(PRICES);
        let cat = rng.below(CATEGORIES);
        let _ = write!(out, "({i}, ({price}, {cat}))");
    });
    s.push_str("\nlet users = ");
    write_set(&mut s, 0..USERS, |out, i| {
        let grp = rng.below(GROUPS);
        let _ = write!(out, "({i}, {grp})");
    });
    s.push_str("\nlet groups = ");
    write_set(&mut s, 0..GROUPS, |out, g| {
        let tag = rng.below(1_000);
        let _ = write!(out, "({g}, {tag})");
    });
    s.push_str("\nlet nested = ");
    write_set(&mut s, 0..NESTED, |out, _| {
        let members = rng.distinct(3, NESTED_RANGE);
        write_set(out, members, |o, v| {
            let _ = write!(o, "{v}");
        });
    });
    s.push_str("\nlet design = ");
    write_set(&mut s, 0..5, |out, _| {
        write_orset(out, &rng.distinct(3, 12))
    });
    s.push('\n');
    for client in 0..clients {
        let _ = writeln!(
            s,
            "let {} = {{ p | p <- parts, fst(p) < {CLIENT_ROWS} }}",
            client_binding(client)
        );
    }
    s
}

/// The expansion database script: `alts` (6 worlds per row), `fan` (32
/// worlds per row), and the rebindable `exp0`.
pub fn expand_script(seed: u64) -> String {
    let mut rng = Rng::derive(seed, 2_000);
    let mut s = String::with_capacity(ALTS * 40);
    s.push_str("-- expansion workload database (generated)\nlet alts = ");
    write_set(&mut s, 0..ALTS, |out, i| {
        let _ = write!(out, "({i}, (");
        write_orset(out, &rng.distinct(3, 10));
        out.push_str(", ");
        write_orset(out, &rng.distinct(2, 10));
        out.push_str("))");
    });
    s.push_str("\nlet fan = ");
    write_set(&mut s, 0..FAN, |out, i| {
        let _ = write!(out, "({i}, (");
        write_orset(out, &rng.distinct(8, 16));
        out.push_str(", ");
        write_orset(out, &rng.distinct(4, 8));
        out.push_str("))");
    });
    s.push_str("\nlet exp0 = { w | r <- alts, fst(r) < 100, w <- toset(normalize(r)) }\n");
    s
}

/// Class index of the `let` rebinds in each mix.
const RELATIONAL_WRITE: usize = 6;
const EXPAND_WRITE: usize = 4;

/// Move a write to the front, so a cycle never reads a client binding
/// before rebinding it and replays identically every time round.
fn start_with_write(classes: &mut [usize], write: usize) {
    if let Some(first) = classes.iter().position(|&c| c == write) {
        classes.swap(0, first);
    }
}

/// Client `client`'s relational operation list: `len` statements, the
/// first a `let` so the list can be replayed as a cycle.
pub fn relational_ops(seed: u64, client: usize, len: usize) -> Vec<Op> {
    let mut rng = Rng::derive(seed, client as u64);
    let mine = client_binding(client);
    let mut classes = rng.mix(RELATIONAL_MIX.weights, len);
    start_with_write(&mut classes, RELATIONAL_WRITE);
    let mut ops = Vec::with_capacity(len);
    for class in classes {
        let stmt = match class {
            0 => {
                let a = rng.below(PRICES / 10 - 4) * 10;
                format!(
                    "{{ (fst(p), fst(snd(p))) | p <- parts, fst(snd(p)) >= {a}, fst(snd(p)) < {} }}",
                    a + 40
                )
            }
            1 => {
                let b = rng.below(GROUPS / 4) * 4;
                format!(
                    "{{ (fst(u), snd(g)) | u <- users, g <- groups, snd(u) == fst(g), fst(g) >= {b}, fst(g) < {} }}",
                    b + 4
                )
            }
            2 => format!(
                "union({{ fst(p) | p <- parts, snd(snd(p)) == {} }}, {{ fst(u) | u <- users, snd(u) == {} }})",
                rng.below(10) * 5,
                rng.below(4) * 8
            ),
            3 => {
                let e = rng.below(30) * 6;
                format!("{{ x | xs <- nested, x <- xs, x >= {e}, x < {} }}", e + 20)
            }
            4 => format!(
                "<| w | w <- normalize(design), member({}, w) |>",
                rng.below(12)
            ),
            5 => format!(
                "{{ fst(p) | p <- {mine}, fst(snd(p)) < {} }}",
                rng.below(PRICES)
            ),
            _ => {
                let start = rng.below(20) * (PARTS as i64 / 20);
                format!(
                    "let {mine} = {{ p | p <- parts, fst(p) >= {start}, fst(p) < {} }}",
                    start + CLIENT_ROWS
                )
            }
        };
        ops.push(Op {
            stmt,
            class,
            write: class == RELATIONAL_WRITE,
        });
    }
    ops
}

/// The expansion operation list (one client): fewer than 128 distinct
/// statements, so every repeat can hit the plan cache.
///
/// The `n`-th statement of a class takes the `n`-th constant of a fixed
/// rotation, so every seed runs the same statements in the same numbers;
/// the seed picks their order and where the writes start.  The rotations
/// vary the rows an `expand` or a `write` expands tenfold or more, so the
/// latencies around the median and the write median form a broad spread
/// rather than one narrow peak: a narrow peak splits in two when the host
/// slows down part of a run, and the median jumps between the halves.
pub fn expand_ops(seed: u64, len: usize) -> Vec<Op> {
    let mut rng = Rng::derive(seed, 77);
    let mut classes = rng.mix(EXPAND_MIX.weights, len);
    start_with_write(&mut classes, EXPAND_WRITE);
    let mut nth = vec![0i64; EXPAND_MIX.weights.len()];
    let mut ops = Vec::with_capacity(len);
    for class in classes {
        let n = nth[class];
        nth[class] += 1;
        let stmt = match class {
            0 => format!(
                "{{ w | r <- alts, fst(r) < {}, w <- toset(normalize(r)) }}",
                (n % 20 + 1) * (ALTS as i64 / 20)
            ),
            1 => format!(
                "{{ w | r <- fan, w <- toset(normalize(r)), fst(w) < {} }}",
                (n % 8 + 1) * 10
            ),
            2 => format!(
                "{{ (fst(snd(w)), snd(snd(w)) + {}) | r <- fan, w <- toset(normalize(r)) }}",
                n % 8
            ),
            // half of the scans bind their constant with `let … in`, which
            // the direct planner leaves to compile_query + lower
            3 => match n % 10 {
                k if k % 2 == 0 => format!("{{ fst(r) | r <- alts, ormember({k}, fst(snd(r))) }}"),
                k => format!("let k = {k} in {{ fst(r) | r <- alts, ormember(k, fst(snd(r))) }}"),
            },
            _ => {
                let start = rng.below(5) * (ALTS as i64 / 5);
                format!(
                    "let exp0 = {{ w | r <- alts, fst(r) >= {start}, fst(r) < {}, w <- toset(normalize(r)) }}",
                    start + (n % 10 + 1) * 10
                )
            }
        };
        ops.push(Op {
            stmt,
            class,
            write: class == EXPAND_WRITE,
        });
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        assert_eq!(relational_script(7, 2), relational_script(7, 2));
        assert_eq!(relational_ops(7, 1, 50), relational_ops(7, 1, 50));
        assert_ne!(relational_ops(7, 0, 50), relational_ops(7, 1, 50));
        assert_ne!(expand_script(7), expand_script(8));
    }

    #[test]
    fn relational_shapes_overflow_the_plan_cache_and_expansion_shapes_fit() {
        // a `let` shares its plan-cache shape with its right-hand side
        let shapes = |ops: &[Op]| {
            ops.iter()
                .map(|op| match op.stmt.split_once(" = ") {
                    Some((_, rhs)) if op.write => rhs,
                    _ => op.stmt.as_str(),
                })
                .collect::<std::collections::HashSet<_>>()
                .len()
        };
        for seed in 0..5 {
            let relational = shapes(&relational_ops(seed, 0, 600));
            assert!(relational > 128, "{relational} relational shapes");
            let expand = shapes(&expand_ops(seed, 1_000));
            assert!(expand < 128, "{expand} expansion shapes");
        }
    }

    #[test]
    fn every_seed_runs_the_same_expansion_reads() {
        let reads = |seed| {
            let mut stmts: Vec<String> = expand_ops(seed, 1_000)
                .into_iter()
                .filter(|op| !op.write)
                .map(|op| op.stmt)
                .collect();
            stmts.sort();
            stmts
        };
        assert_eq!(reads(1), reads(2));
        assert_ne!(expand_ops(1, 1_000), expand_ops(2, 1_000));
    }

    #[test]
    fn op_lists_start_with_a_write() {
        assert!(relational_ops(3, 0, 10)[0].write);
        assert!(expand_ops(3, 10)[0].write);
    }

    #[test]
    fn every_seed_runs_the_same_mix() {
        let count = |classes: &[usize], class| classes.iter().filter(|&&c| c == class).count();
        for seed in 0..5 {
            let classes = Rng::new(seed).mix(&[1, 2, 7], 101);
            assert_eq!(classes.len(), 101);
            assert_eq!((count(&classes, 0), count(&classes, 1)), (10, 20));
            assert_eq!(count(&classes, 2), 71);
        }
        assert_ne!(Rng::new(1).mix(&[1, 1], 50), Rng::new(2).mix(&[1, 1], 50));
        let ops = relational_ops(9, 0, 600);
        assert_eq!(ops.iter().filter(|op| op.write).count(), 60);
    }
}
