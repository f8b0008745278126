//! A minimal option parser: `--flag`, `--key value`, `-k value`.
//!
//! Deliberately dependency-free — the workspace's only binary interface
//! is small and stable, and the parser is thoroughly unit-tested.
//!
//! The parser does not know a command's options; it remembers which ones
//! the command asked about, and [`Args::reject_unread`] turns the rest
//! into errors. A command reads every option it understands, calls it,
//! and only then starts work — so a misspelt or retired option stops the
//! command instead of silently running it with a default.

use std::cell::Cell;
use std::collections::HashMap;

/// Parsed options: flags, key-value options, and positional arguments.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// Each option's value, and whether the command has asked about it.
    options: HashMap<String, (String, Cell<bool>)>,
    flags: Vec<String>,
    positional: Vec<String>,
}

impl Args {
    /// Parses raw arguments given the set of boolean flag names (which
    /// consume no value).
    ///
    /// # Errors
    ///
    /// Returns a message when a non-flag option is missing its value.
    pub fn parse(argv: &[String], flag_names: &[&str]) -> Result<Args, String> {
        let mut args = Args::default();
        let mut iter = argv.iter().peekable();
        while let Some(arg) = iter.next() {
            if let Some(name) = arg.strip_prefix("--").or_else(|| arg.strip_prefix('-')) {
                if flag_names.contains(&name) {
                    args.flags.push(name.to_owned());
                } else {
                    let value = iter
                        .next()
                        .ok_or_else(|| format!("option --{name} requires a value"))?;
                    args.options
                        .insert(name.to_owned(), (value.clone(), Cell::new(false)));
                }
            } else {
                args.positional.push(arg.clone());
            }
        }
        Ok(args)
    }

    /// The value of `--name`, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(|(value, read)| {
            read.set(true);
            value.as_str()
        })
    }

    /// Fails if an option was given that the command has not asked about
    /// (through [`Args::get`] and its wrappers) by now: one it does not
    /// know, or one that means nothing in this invocation.
    ///
    /// # Errors
    ///
    /// Returns `unknown option --x` naming every such option.
    pub fn reject_unread(&self) -> Result<(), String> {
        let mut unread: Vec<&str> = self
            .options
            .iter()
            .filter(|(_, (_, read))| !read.get())
            .map(|(name, _)| name.as_str())
            .collect();
        if unread.is_empty() {
            return Ok(());
        }
        unread.sort_unstable();
        Err(format!("unknown option --{}", unread.join(", --")))
    }

    /// The value of `--name` or an error naming the option.
    ///
    /// # Errors
    ///
    /// Returns a message when the option is absent.
    pub fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("missing required option --{name}"))
    }

    /// True if `--name` was passed as a flag.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// Parses `--name` as a value of type `T`, with a default.
    ///
    /// # Errors
    ///
    /// Returns a message when the value does not parse.
    pub fn get_parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("option --{name}: cannot parse {raw:?}")),
        }
    }

    /// Positional arguments. No current subcommand takes positionals,
    /// but the parser collects them so future commands (and tests) can.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn positional(&self) -> &[String] {
        &self.positional
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_options_flags_and_positionals() {
        let args = Args::parse(
            &argv(&["--store", "a.store", "--small", "extra", "-k", "10"]),
            &["small"],
        )
        .unwrap();
        assert_eq!(args.get("store"), Some("a.store"));
        assert!(args.flag("small"));
        assert!(!args.flag("other"));
        assert_eq!(args.get("k"), Some("10"));
        assert_eq!(args.positional(), ["extra"]);
    }

    #[test]
    fn missing_value_is_an_error() {
        let err = Args::parse(&argv(&["--store"]), &[]).unwrap_err();
        assert!(err.contains("--store"));
    }

    #[test]
    fn require_reports_the_option_name() {
        let args = Args::parse(&argv(&[]), &[]).unwrap();
        let err = args.require("query").unwrap_err();
        assert!(err.contains("--query"));
    }

    #[test]
    fn options_nobody_read_are_rejected() {
        let args = Args::parse(
            &argv(&["--workers", "4", "--replicas", "4", "--worker", "8"]),
            &[],
        )
        .unwrap();
        assert_eq!(args.get_parsed("workers", 2usize).unwrap(), 4);
        let err = args.reject_unread().unwrap_err();
        assert_eq!(err, "unknown option --replicas, --worker");
        // Asking is what counts, not using the answer.
        let _ = args.get("replicas");
        let _ = args.get("worker");
        assert_eq!(args.reject_unread(), Ok(()));
        // An option that was asked about but not given is nobody's error.
        assert_eq!(args.get("addr"), None);
        assert_eq!(args.reject_unread(), Ok(()));
    }

    #[test]
    fn get_parsed_defaults_and_errors() {
        let args = Args::parse(&argv(&["--k", "7"]), &[]).unwrap();
        assert_eq!(args.get_parsed("k", 20usize).unwrap(), 7);
        assert_eq!(args.get_parsed("missing", 20usize).unwrap(), 20);
        let bad = Args::parse(&argv(&["--k", "x"]), &[]).unwrap();
        assert!(bad.get_parsed::<usize>("k", 0).is_err());
    }
}
