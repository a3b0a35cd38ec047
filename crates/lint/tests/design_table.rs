//! DESIGN.md §6 documents every diagnostic code; this pins the table to
//! the codes the analyses can actually emit.

#![allow(clippy::unwrap_used)]

use std::collections::BTreeSet;

/// Every `SL0xx` that follows `prefix` somewhere in `text`.
fn codes_after(text: &str, prefix: &str) -> BTreeSet<String> {
    text.match_indices(prefix)
        .filter_map(|(at, _)| text.get(at + prefix.len()..at + prefix.len() + 5))
        .filter(|code| code.starts_with("SL0") && code[3..].bytes().all(|b| b.is_ascii_digit()))
        .map(str::to_string)
        .collect()
}

#[test]
fn design_table_lists_exactly_the_emitted_codes() {
    let emitted: BTreeSet<String> = [
        include_str!("../src/config.rs"),
        include_str!("../src/graph.rs"),
        include_str!("../src/resources.rs"),
        include_str!("../src/sharing.rs"),
    ]
    .iter()
    .flat_map(|src| codes_after(src, "code: \""))
    .collect();
    let documented = codes_after(include_str!("../../../DESIGN.md"), "\n| ");
    assert_eq!(documented, emitted);
}
