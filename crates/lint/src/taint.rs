//! `determinism-taint` followed hash-container order through calls to a
//! protocol send. Its sources were the functions that mention a hash
//! container. `clippy.toml` bans every such container, so no source can
//! exist and there is no chain left to follow.

/// The types whose mention made a function a taint source.
pub const SOURCES: [&str; 2] = ["std::collections::HashMap", "std::collections::HashSet"];

/// The `path` of every `disallowed-types` entry in a `clippy.toml`.
pub fn banned_types(clippy_toml: &str) -> Vec<&str> {
    clippy_toml
        .lines()
        .filter_map(|l| l.split_once("path = \"")?.1.split_once('"'))
        .map(|(path, _)| path)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{canary, line_of, repo_root};

    #[test]
    fn every_source_is_banned() {
        let toml = std::fs::read_to_string(repo_root().join("clippy.toml"))
            .expect("the root clippy.toml is readable");
        let banned = banned_types(&toml);
        for source in SOURCES {
            assert!(banned.contains(&source), "{source} missing from {banned:?}");
        }
    }

    #[test]
    fn iteration_without_a_container_is_not_a_source() {
        // Only the two lines that name `HashMap` are reported; the chain
        // over a `BTreeMap` below them is clean.
        let file = "src/taint.rs";
        let lines: Vec<u32> = canary()
            .findings
            .iter()
            .filter(|f| f.file == file)
            .map(|f| f.line)
            .collect();
        let sources = [
            line_of(file, "use std::collections::HashMap as Hashed;"),
            line_of(file, "pub type Table = Hashed<u32, u32>;"),
        ];
        assert_eq!(lines, sources);
    }
}
