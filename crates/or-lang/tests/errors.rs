//! Error-path coverage for the OrQL front end: malformed syntax must be
//! rejected by the parser with a position, ill-typed programs by the
//! checker with a message, and both must surface through the session as the
//! right [`SessionError`] variant — never as a panic.

use or_lang::parser::MAX_DEPTH;
use or_lang::session::Session;
use or_lang::{infer_type, parse, parse_statement, SessionError};
use or_object::{Type, Value};

// ---------------------------------------------------------------------------
// parse errors
// ---------------------------------------------------------------------------

#[test]
fn malformed_orset_literals_are_parse_errors() {
    for src in [
        "<| 1, 2",         // unterminated or-set
        "<| 1, , 2 |>",    // hole in the element list
        "<| |> |>",        // stray closer
        "<|,|>",           // lone comma
        "{ <|1|>, <|2| }", // unterminated inner or-set inside a set
    ] {
        let err = parse(src).expect_err(src);
        assert!(!err.message.is_empty(), "no message for {src}");
    }
}

#[test]
fn malformed_comprehensions_are_parse_errors() {
    for src in [
        "{ x | }",          // no qualifiers
        "{ x | x <- }",     // generator without a source
        "{ x | <- xs }",    // generator without a variable
        "<| x | x <- xs",   // unterminated or-comprehension
        "{ x | x <- xs, }", // trailing comma qualifier
    ] {
        assert!(parse(src).is_err(), "{src} should not parse");
    }
}

#[test]
fn parse_errors_carry_positions() {
    let err = parse("1 +").unwrap_err();
    assert!(err.position > 0);
    let err = parse_statement("let = 3").unwrap_err();
    assert!(!err.message.is_empty());
}

#[test]
fn incomplete_operators_and_parens_are_parse_errors() {
    for src in [
        "(1, 2",
        "1 *",
        "if true then 1",
        "let x = in x",
        "fst(",
        ")",
    ] {
        assert!(parse(src).is_err(), "{src} should not parse");
    }
}

// ---------------------------------------------------------------------------
// nesting depth
// ---------------------------------------------------------------------------

/// Run `f` on a thread with the standard 2 MiB stack, as a server worker
/// does.  A stack overflow there aborts the whole test binary.
fn on_default_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .expect("thread spawns")
        .join()
        .expect("thread does not panic")
}

/// A named way to nest a statement `n` levels deep.
type Shape = (&'static str, fn(usize) -> String);

/// Statement shapes that nest `n` levels deep in different ways.
fn nested_shapes() -> Vec<Shape> {
    vec![
        ("parentheses", |n| {
            format!(
                "{}{{ x | x <- db, x <= 2 }}{}",
                "(".repeat(n),
                ")".repeat(n)
            )
        }),
        ("operator chain", |n| {
            format!("{{ x{} | x <- db }}", " + 1".repeat(n))
        }),
        ("pairs", |n| {
            format!("{{ {}x{} | x <- db }}", "(x, ".repeat(n), ")".repeat(n))
        }),
        ("negations", |n| {
            format!("{{ x | x <- db, {}(x <= 2) }}", "!".repeat(n))
        }),
        ("comprehensions", |n| {
            format!("{}db{}", "{ y | y <- ".repeat(n), " }".repeat(n))
        }),
    ]
}

#[test]
fn deep_nesting_is_a_parse_error_not_a_stack_overflow() {
    for (name, shape) in nested_shapes() {
        let err = on_default_stack(move || parse_statement(&shape(100_000))).expect_err(name);
        assert!(err.message.contains("nested deeper"), "{name}: {err}");
    }
    let parens = format!("{}1{}", "(".repeat(100_000), ")".repeat(100_000));
    assert!(on_default_stack(move || parse_statement(&parens)).is_err());
}

/// A statement nested exactly to `MAX_DEPTH` is served — checked, planned,
/// lowered, executed and cross-checked against the interpreter — on a
/// default-stack thread, so every stage that recurses on the syntax tree
/// fits under the parser's limit.
#[test]
fn statements_nested_to_the_limit_are_served() {
    use or_engine::ExecConfig;
    use or_lang::{ExecMode, QueryBudget, SessionCore};
    for (name, shape) in nested_shapes() {
        // the deepest instance of the shape the parser accepts
        let depth = (1..=MAX_DEPTH)
            .take_while(|&n| parse_statement(&shape(n)).is_ok())
            .last()
            .expect("shallow statements parse");
        assert!(depth < MAX_DEPTH, "{name} hit no limit");
        let statement = shape(depth);
        on_default_stack(move || {
            let mut core = SessionCore::new();
            core.bind("db", Value::int_set([1, 2, 3]));
            for mode in [ExecMode::EngineChecked, ExecMode::Interp] {
                let served = core.eval_statement(
                    &statement,
                    mode,
                    ExecConfig::default(),
                    QueryBudget::unlimited(),
                );
                assert!(served.is_ok(), "{name} at depth {depth}: {served:?}");
            }
        });
    }
}

// ---------------------------------------------------------------------------
// check errors
// ---------------------------------------------------------------------------

#[test]
fn unbound_variables_are_check_errors() {
    let expr = parse("nosuchvar + 1").unwrap();
    let err = infer_type(&expr, &vec![]).unwrap_err();
    assert!(err.message.contains("unbound"), "got: {}", err.message);
    // bound in one scope, used outside of it
    let expr = parse("(let x = 1 in x) + x").unwrap();
    assert!(infer_type(&expr, &vec![]).is_err());
    // comprehension variables do not leak out of the comprehension
    let expr = parse("union({ y | y <- db }, { y })").unwrap();
    let env = vec![("db".to_string(), Type::set(Type::Int))];
    assert!(infer_type(&expr, &env).is_err());
}

#[test]
fn ill_typed_comprehensions_are_check_errors() {
    let env = vec![
        ("nums".to_string(), Type::set(Type::Int)),
        ("alts".to_string(), Type::orset(Type::Int)),
    ];
    // generating a set comprehension from an or-set (and vice versa)
    for src in [
        "{ x | x <- alts }",
        "<| x | x <- nums |>",
        // guard is not boolean
        "{ x | x <- nums, x + 1 }",
        // head mixes element types in a literal
        "{ x | x <- nums, member(x, {true}) }",
        // generating from a non-collection
        "{ x | x <- 3 }",
    ] {
        let expr = parse(src).expect(src);
        assert!(infer_type(&expr, &env).is_err(), "{src} should not check");
    }
}

#[test]
fn heterogeneous_literals_are_check_errors() {
    for src in [
        "{1, true}",
        "<| \"a\", 1 |>",
        "if 1 then 2 else 3",
        "1 + true",
    ] {
        let expr = parse(src).expect(src);
        assert!(
            infer_type(&expr, &vec![]).is_err(),
            "{src} should not check"
        );
    }
}

// ---------------------------------------------------------------------------
// session-level classification
// ---------------------------------------------------------------------------

#[test]
fn session_classifies_parse_check_and_runtime_errors() {
    let mut s = Session::new();
    assert!(matches!(s.run("<| 1,"), Err(SessionError::Parse(_))));
    assert!(matches!(s.run("{1, true}"), Err(SessionError::Check(_))));
    assert!(matches!(s.run("novar"), Err(SessionError::Check(_))));
    // errors do not poison the session
    s.bind("db", Value::int_set([1, 2, 3]));
    assert_eq!(
        s.run("{ x | x <- db, x <= 2 }").unwrap().value,
        Value::int_set([1, 2])
    );
}

#[test]
fn engine_mode_classifies_errors_identically() {
    use or_engine::ExecConfig;
    let mut s = Session::with_engine(ExecConfig::default());
    assert!(matches!(s.run("<| 1,"), Err(SessionError::Parse(_))));
    assert!(matches!(s.run("{1, true}"), Err(SessionError::Check(_))));
    s.bind("db", Value::int_set([1, 2, 3]));
    assert_eq!(
        s.run("{ x | x <- db, x <= 2 }").unwrap().value,
        Value::int_set([1, 2])
    );
}
