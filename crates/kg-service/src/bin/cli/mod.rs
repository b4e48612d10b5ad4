//! The strict command-line parser `kg-serve` and `kg-load` share. An
//! unknown flag, a value that does not parse, or a flag with no value exits
//! with status 2 and one stderr line naming the flag, before the binary does
//! any work: a typo that fell back to a default would let a CI gate such as
//! `kg-load --min-ok-rate` pass without checking anything.

use std::str::FromStr;

/// A command line split into `(flag, value)` pairs.
pub struct Flags<'a> {
    program: &'static str,
    pairs: Vec<(&'a str, &'a str)>,
}

impl<'a> Flags<'a> {
    /// Splits `args` (program name first): each flag in `valued` takes the
    /// next argument as its value, each flag in `switches` takes none and
    /// reads as `true`. Anything else exits 2.
    pub fn parse(
        program: &'static str,
        args: &'a [String],
        valued: &[&str],
        switches: &[&str],
    ) -> Self {
        let mut flags = Self {
            program,
            pairs: Vec::new(),
        };
        let mut rest = args.iter().skip(1).map(String::as_str);
        while let Some(flag) = rest.next() {
            let value = if switches.contains(&flag) {
                "true"
            } else if !valued.contains(&flag) {
                flags.usage_error(&format!("unknown flag {flag} (see --help)"))
            } else {
                match rest.next() {
                    Some(value) => value,
                    None => flags.usage_error(&format!("{flag} needs a value")),
                }
            };
            flags.pairs.push((flag, value));
        }
        flags
    }

    /// Prints `{program}: {message}` and exits with status 2.
    pub fn usage_error(&self, message: &str) -> ! {
        eprintln!("{}: {message}", self.program);
        std::process::exit(2);
    }

    /// Every value given for `flag`, in order.
    pub fn values<'s>(&'s self, flag: &'s str) -> impl Iterator<Item = &'a str> + 's {
        let pairs = self.pairs.iter();
        pairs.filter(move |(f, _)| *f == flag).map(|&(_, v)| v)
    }

    /// The first value given for `flag`, parsed, or `default` when the flag
    /// is absent. A value that does not parse exits 2.
    pub fn get<T: FromStr>(&self, flag: &str, default: T) -> T {
        self.get_opt(flag).unwrap_or(default)
    }

    /// [`Self::get`] for a flag with no default: `None` when it is absent.
    pub fn get_opt<T: FromStr>(&self, flag: &str) -> Option<T> {
        let value = self.values(flag).next()?;
        let parsed = value.parse();
        Some(
            parsed.unwrap_or_else(|_| self.usage_error(&format!("{flag}: cannot parse {value:?}"))),
        )
    }
}
