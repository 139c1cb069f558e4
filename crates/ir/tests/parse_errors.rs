//! Every diagnostic `parse_sequence` can produce, pinned: each row is a
//! malformed program, the line the error must name and its exact
//! message. A parser change that moves a line number or rewords a
//! message fails here, row by row.

use sp_ir::parse_sequence;

/// Two declared arrays, so that statements have something to name.
const HEAD: &str = "! array A0 a(8)\n! array A1 b(8,8)\n";

/// A one-level nest around `stmt`, after [`HEAD`]: the statement is on
/// line 5.
fn nest1(stmt: &str) -> String {
    format!("{HEAD}L1:\n  do i0 = 1, 6\n    {stmt}\n  end do\n")
}

/// `(what, program, line, message)`.
fn rows() -> Vec<(&'static str, String, usize, &'static str)> {
    vec![
        // Tokens.
        (
            "ascii junk",
            nest1("a[i0] = a[i0] & 1.0"),
            5,
            "unexpected character '&'",
        ),
        (
            "non-ascii junk",
            nest1("a[i0] = a[i0] \u{d7} 2.0"),
            5,
            "unexpected character '\u{d7}'",
        ),
        // References.
        (
            "missing open bracket",
            nest1("a i0] = 1.0"),
            5,
            "expected '[', found Some(Ident(\"i0\"))",
        ),
        (
            "missing equals",
            nest1("a[i0] 1.0"),
            5,
            "expected '=', found Some(Num(\"1.0\"))",
        ),
        (
            "unclosed paren",
            nest1("a[i0] = (a[i0] + 1.0"),
            5,
            "expected ')', found None",
        ),
        (
            "unclosed unary call",
            nest1("a[i0] = Sqrt(a[i0]"),
            5,
            "expected ')', found None",
        ),
        (
            "unary call without paren",
            nest1("a[i0] = Abs a[i0]"),
            5,
            "expected '(', found Some(Ident(\"a\"))",
        ),
        (
            "undeclared array on the left",
            nest1("q[i0] = 1.0"),
            5,
            "undeclared array q",
        ),
        (
            "undeclared array on the right",
            nest1("a[i0] = q[i0]"),
            5,
            "undeclared array q",
        ),
        (
            "subscripts not separated",
            nest1("a[i0 i0] = 1.0"),
            5,
            "expected ',' or ']', found Some(Ident(\"i0\"))",
        ),
        (
            "unclosed subscript list",
            nest1("a[i0"),
            5,
            "expected ',' or ']', found None",
        ),
        // Subscripts.
        (
            "fractional subscript",
            nest1("a[1.5] = 1.0"),
            5,
            "bad integer 1.5",
        ),
        (
            "coefficient without variable",
            nest1("a[2*3] = 1.0"),
            5,
            "expected loop variable after '*'",
        ),
        (
            "foreign variable",
            nest1("a[j] = 1.0"),
            5,
            "j is not a loop variable",
        ),
        (
            "foreign variable after a coefficient",
            nest1("a[2*j] = 1.0"),
            5,
            "j is not a loop variable",
        ),
        (
            "variable deeper than the nest",
            nest1("a[i1] = 1.0"),
            5,
            "loop variable i1 exceeds depth",
        ),
        (
            "scaled variable deeper than the nest",
            nest1("a[2*i3] = 1.0"),
            5,
            "loop variable i3 exceeds depth",
        ),
        (
            "empty subscript",
            nest1("a[] = 1.0"),
            5,
            "expected subscript term, found Some(Sym(']'))",
        ),
        // Values.
        (
            "two decimal points",
            nest1("a[i0] = 1.2.3"),
            5,
            "bad number 1.2.3",
        ),
        (
            "exponent without digits",
            nest1("a[i0] = 1e+"),
            5,
            "bad number 1e+",
        ),
        (
            "operator where a value belongs",
            nest1("a[i0] = *"),
            5,
            "expected expression, found Some(Sym('*'))",
        ),
        (
            "nothing after equals",
            nest1("a[i0] ="),
            5,
            "expected expression, found None",
        ),
        (
            "statement starts with a number",
            nest1("1.0 = a[i0]"),
            5,
            "statement must start with an array name",
        ),
        (
            "trailing reference",
            nest1("a[i0] = a[i0] a[i0]"),
            5,
            "trailing tokens after expression: Some(Ident(\"a\"))",
        ),
        (
            "trailing colon",
            nest1("a[i0] = 1.0:"),
            5,
            "trailing tokens after expression: Some(Sym(':'))",
        ),
        // Headers.
        (
            "array without dimensions",
            "! array A0 a\n".to_string(),
            1,
            "array header needs (dims)",
        ),
        (
            "non-numeric dimension",
            "! array A0 a(x)\n".to_string(),
            1,
            "bad dimensions \"x\"",
        ),
        (
            "empty dimension list",
            "! array A0 a()\n".to_string(),
            1,
            "bad dimensions \"\"",
        ),
        (
            "zero dimension",
            "! array A0 a(0)\n".to_string(),
            1,
            "zero dimension in \"0\"",
        ),
        (
            "zero inner dimension",
            "! array A0 a(8,0)\n".to_string(),
            1,
            "zero dimension in \"8,0\"",
        ),
        // Nest structure.
        (
            "label inside a loop",
            format!("{HEAD}L1:\n  do i0 = 1, 6\nL2:\n"),
            5,
            "label inside an open loop",
        ),
        (
            "loop header after a statement",
            format!("{HEAD}L1:\n  do i0 = 1, 6\n    a[i0] = 1.0\n    do i1 = 1, 6\n"),
            6,
            "loop header after statements (imperfect nest)",
        ),
        (
            "do header without equals",
            format!("{HEAD}L1:\n  do i0 1, 6\n"),
            4,
            "malformed do header",
        ),
        (
            "do header without comma",
            format!("{HEAD}L1:\n  do i0 = 1 6\n"),
            4,
            "do header needs 'lo, hi'",
        ),
        (
            "non-numeric bound",
            format!("{HEAD}L1:\n  do i0 = 1, n\n"),
            4,
            "bad loop bounds",
        ),
        (
            "empty loop",
            format!("{HEAD}L1:\n  do i0 = 5, 4\n"),
            4,
            "empty loop bounds 5, 4",
        ),
        (
            "end do without a loop",
            format!("{HEAD}  end do\n"),
            3,
            "unmatched end do",
        ),
        (
            "empty nest",
            format!("{HEAD}L1:\n  do i0 = 1, 6\n  end do\n"),
            5,
            "nest has no statements",
        ),
        (
            "statement outside a loop",
            format!("{HEAD}a[1] = 1.0\n"),
            3,
            "statement outside a loop: \"a[1] = 1.0\"",
        ),
        (
            "unclosed loop",
            format!("{HEAD}L1:\n  do i0 = 1, 6\n    a[i0] = 1.0\n\n"),
            6,
            "unclosed do loop",
        ),
        // A `do` names the level it opens, outermost first.
        (
            "do variable out of order",
            format!("{HEAD}L1:\n  do i1 = 1, 6\n    a[i0] = 1.0\n  end do\n"),
            4,
            "do header names \"i1\", expected i0",
        ),
        (
            "swapped do variables",
            format!(
                "{HEAD}L1:\n  do i1 = 1, 6\n    do i0 = 1, 6\n      b[i0,i1] = 1.0\n    end do\n  end do\n"
            ),
            4,
            "do header names \"i1\", expected i0",
        ),
        (
            "do variable missing",
            format!("{HEAD}L1:\n  do = 1, 6\n"),
            4,
            "do header names \"\", expected i0",
        ),
        // An array header's tag is the id its references will carry.
        (
            "array tags out of order",
            "! array A1 a(8)\n! array A0 b(8)\n".to_string(),
            1,
            "array header tag \"A1\", expected A0",
        ),
        (
            "array tag skips an id",
            "! array A0 a(8)\n! array A2 b(8)\n".to_string(),
            2,
            "array header tag \"A2\", expected A1",
        ),
        (
            "array without a tag",
            "! array a(8)\n".to_string(),
            1,
            "array header has no tag, expected A0",
        ),
    ]
}

#[test]
fn every_diagnostic_is_pinned() {
    let mut wrong = Vec::new();
    for (what, src, line, message) in rows() {
        match parse_sequence(&src) {
            Ok(_) => wrong.push(format!("{what}: parsed, wanted line {line}: {message}")),
            Err(e) if e.line != line || e.message != message => wrong.push(format!(
                "{what}: got line {}: {}, wanted line {line}: {message}",
                e.line, e.message
            )),
            Err(_) => {}
        }
    }
    assert!(wrong.is_empty(), "\n{}", wrong.join("\n"));
}

/// What the tokenizer must still accept: Unicode whitespace between
/// tokens, exponents with a sign, a leading-dot literal, loop headers
/// and tags in order.
#[test]
fn near_misses_still_parse() {
    for stmt in [
        "a[i0] =\u{a0}a[i0]",
        "a[i0] = 1e-3 * a[i0]",
        "a[i0] = .5 + a[i0]",
        "a[-i0+7] = (a[i0] min 2.5E+1)",
        "b[2*i0-2, i0] = Neg(b[i0,i0])",
    ] {
        let src = nest1(stmt);
        if let Err(e) = parse_sequence(&src) {
            panic!("{stmt:?} must parse: {e}");
        }
    }
    let two_deep = format!(
        "{HEAD}L1:\n  do i0 = 1, 6\n    do i1 = 1, 6\n      b[i0,i1] = 1.0\n    end do\n  end do\n"
    );
    let seq = parse_sequence(&two_deep).expect("levels in order");
    assert_eq!(seq.nests[0].depth(), 2);
    assert_eq!(seq.arrays[1].name, "b");
}
