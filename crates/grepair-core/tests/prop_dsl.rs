//! The rule DSL on hostile input: whatever the text, `parse_rules`
//! returns rules or a [`ParseError`] naming a line of the input, and
//! never panics.

use grepair_core::{parse_rules, ParseError};
use grepair_gen::catalog::{GOLD_KG_DSL, SOCIAL_DSL};
use proptest::prelude::*;

/// DSL fragments: every keyword, punctuation token and literal shape,
/// the lexer's edge cases (`]->` split, unterminated strings, escapes,
/// integer overflow, a bare `-`, comments) and multi-byte UTF-8.
const SOUP: &[&str] = &[
    "rule ", "match ", "where ", "repair ", "priority ", "not ", "missing", "has", "insert ",
    "delete ", "relabel ", "node ", "edge ", "set ", "unset ", "merge ", "into ", "to ",
    "[incompleteness]", "[conflict]", "[bogus]", "(", ")", "[", "]", "]->", "-[", "-", ">",
    "*", ":", ",", ";", ".", "{", "}", "==", "!=", "<", "<=", ">=", "=", "x", "y", "x.k", "P",
    "0", "-1", "1.5", "1.", "9223372036854775807", "9223372036854775808", "true", "null",
    "\"", "\"s\"", "\\", "\\\"", "#", "\n", "\r\n", "\t", " ", "\0", "é", "🦀",
];

/// An 8-stage attribute cascade, the shape of the `e2e` benchmark's
/// `cascade-rounds-inmem` rule set.
fn cascade_src() -> String {
    (0..8)
        .map(|i| {
            format!(
                "rule stage{i} [incompleteness]\nmatch (x:T) where has(x.a{i}), missing(x.a{n})\nrepair set x.a{n} = true\n",
                n = i + 1
            )
        })
        .collect()
}

/// Concatenations of up to 40 [`SOUP`] fragments.
fn soup_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(0..SOUP.len(), 0..40)
        .prop_map(|ix| ix.into_iter().map(|i| SOUP[i]).collect())
}

/// Parse `text`; an error must name one of its lines (or the one past
/// its end, where an unfinished rule runs out of input).
fn check(text: &str) -> Result<(), String> {
    match parse_rules(text) {
        Ok(_) => Ok(()),
        Err(ParseError { line, message }) => {
            let lines = text.split('\n').count();
            if (1..=lines + 1).contains(&line) {
                Ok(())
            } else {
                Err(format!("line {line} of {lines}: {message}\n{text:?}"))
            }
        }
    }
}

/// `text` with `junk` inserted at char boundary `at` (modulo their count).
fn splice(text: &str, junk: &str, at: usize) -> String {
    let cuts: Vec<usize> = text.char_indices().map(|(i, _)| i).chain([text.len()]).collect();
    let mut out = text.to_owned();
    out.insert_str(cuts[at % cuts.len()], junk);
    out
}

#[test]
fn valid_texts_parse() {
    for text in [GOLD_KG_DSL.to_owned(), SOCIAL_DSL.to_owned(), cascade_src()] {
        assert!(parse_rules(&text).is_ok());
    }
}

/// Every char boundary of each valid text, with a fragment of
/// [`SOUP`] rotating through them.
#[test]
fn junk_at_every_char_boundary_is_an_error_or_rules() {
    for text in [GOLD_KG_DSL.to_owned(), SOCIAL_DSL.to_owned(), cascade_src()] {
        for at in 0..=text.chars().count() {
            check(&splice(&text, SOUP[at % SOUP.len()], at)).unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Hostile text yields rules or a line-numbered error, never a panic
    /// — on its own and spliced into valid rule text at any character
    /// boundary.
    #[test]
    fn dsl_parse_never_panics(
        soup in soup_strategy(),
        text in 0usize..3,
        at in any::<usize>(),
    ) {
        prop_assert!(check(&soup).is_ok(), "{}", check(&soup).unwrap_err());
        let valid = [GOLD_KG_DSL.to_owned(), SOCIAL_DSL.to_owned(), cascade_src()];
        let spliced = splice(&valid[text], &soup, at);
        prop_assert!(check(&spliced).is_ok(), "{}", check(&spliced).unwrap_err());
    }
}
