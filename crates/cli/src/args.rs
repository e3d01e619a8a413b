//! Hand-rolled `--key value` argument parsing (the sanctioned dependency
//! set has no CLI parser, and the surface is small enough not to need one).
//!
//! A command's [`Flag`] rows are the one declaration of its surface:
//! [`Args::parse`] refuses any flag they do not name, [`Args::get`] falls
//! back to a row's default, and `aligraph help` prints them. Flags shared by
//! several subcommands (`--seed`, `--workers`, `--scale`) normalize through
//! [`CommonArgs`] so every command clamps them the same way.

use aligraph_chaos::FaultConfig;
use std::collections::HashMap;
use std::str::FromStr;

/// CLI errors, split so the binary can pick exit codes.
#[derive(Debug)]
pub enum CliError {
    /// Bad invocation (usage text included).
    Usage(String),
    /// Runtime failure (I/O, graph errors, ...).
    Runtime(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) | CliError::Runtime(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<aligraph_graph::GraphError> for CliError {
    fn from(e: aligraph_graph::GraphError) -> Self {
        CliError::Runtime(e.to_string())
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Runtime(format!("io error: {e}"))
    }
}

/// One `--flag` a command takes.
///
/// The metavar is the kind of value it takes: `N` (a count or an id),
/// `BYTES`, `F` (a float), `FILE`, `DIR` or `PATH`, or a `|`-separated list
/// of choices. The default is `None` for a required flag, `Some("")` for one
/// that is off unless given, and otherwise the value the command runs with
/// when the flag is absent.
#[derive(Debug)]
pub struct Flag {
    /// The name, without its `--`.
    pub name: &'static str,
    /// The kind of value.
    pub metavar: &'static str,
    /// The value an absent flag takes (`None`: the flag is required).
    pub default: Option<&'static str>,
}

impl Flag {
    /// Whether `value` is of this flag's kind (defaults and docs are held to it).
    #[cfg(test)]
    pub(crate) fn accepts(&self, value: &str) -> bool {
        match self.metavar {
            "N" | "BYTES" => value.parse::<u64>().is_ok(),
            "F" => value.parse::<f64>().is_ok(),
            "FILE" | "DIR" | "PATH" => !value.is_empty(),
            choices => choices.split('|').any(|c| c == value),
        }
    }
}

/// A flag that defaults to `default` (`""`: off unless given).
pub(crate) const fn flag(name: &'static str, metavar: &'static str, default: &'static str) -> Flag {
    Flag { name, metavar, default: Some(default) }
}

/// `--metrics-json PATH`, which every command takes.
pub(crate) const METRICS_JSON: Flag = flag("metrics-json", "PATH", "");

/// Parsed invocation: a command plus the `--key value` options it was given.
#[derive(Debug, Clone)]
pub struct Args {
    /// The subcommand.
    pub command: String,
    flags: &'static [Flag],
    options: HashMap<String, String>,
}

impl Args {
    /// Parses `argv` (the options after the command name) against the
    /// command's `flags`. A flag they do not declare is a usage error: a
    /// misspelt flag would otherwise run with the default and exit 0.
    pub fn parse(command: &str, flags: &'static [Flag], argv: &[String]) -> Result<Args, CliError> {
        let mut args = Args { command: command.to_string(), flags, options: HashMap::new() };
        let mut it = argv.iter();
        while let Some(key) = it.next() {
            let key = key
                .strip_prefix("--")
                .ok_or_else(|| CliError::Usage(format!("expected --option, got `{key}`")))?;
            if args.declared(key).is_err() {
                let names = flags.iter().map(|f| f.name).collect::<Vec<_>>().join(" --");
                let why = format!("`{command}` takes no --{key}; it reads: --{names}");
                return Err(CliError::Usage(why));
            }
            let value =
                it.next().ok_or_else(|| CliError::Usage(format!("--{key} requires a value")))?;
            args.options.insert(key.to_string(), value.clone());
        }
        Ok(args)
    }

    /// `--name`'s value as given, else its row's default; a required flag
    /// that is absent is a usage error.
    pub fn get<T: FromStr>(&self, name: &str) -> Result<T, CliError> {
        let default = self.declared(name)?.default;
        let value = self.options.get(name).map(String::as_str).or(default);
        let value =
            value.ok_or_else(|| CliError::Usage(format!("missing required option --{name}")))?;
        parse_value(name, value)
    }

    /// `--name`'s value if it was given and is not empty, else `None`; the
    /// row's default is not read. For flags that are off unless given.
    pub fn opt<T: FromStr>(&self, name: &str) -> Result<Option<T>, CliError> {
        self.declared(name)?;
        self.options.get(name).filter(|v| !v.is_empty()).map(|v| parse_value(name, v)).transpose()
    }

    /// `name`'s row. Reading a flag the table does not declare is a bug in
    /// the command, not a silent default.
    fn declared(&self, name: &str) -> Result<&'static Flag, CliError> {
        self.flags.iter().chain([&METRICS_JSON]).find(|f| f.name == name).ok_or_else(|| {
            CliError::Runtime(format!(
                "`{}` reads --{name}, which its flag table does not declare",
                self.command
            ))
        })
    }
}

fn parse_value<T: FromStr>(name: &str, value: &str) -> Result<T, CliError> {
    value.parse().map_err(|_| CliError::Usage(format!("--{name}: cannot parse `{value}`")))
}

/// The flags every benchmark-style subcommand shares, parsed once:
/// `--seed N`, `--workers N` (clamped to >= 1) and `--scale F`.
#[derive(Debug, Clone)]
pub struct CommonArgs {
    /// Base RNG seed.
    pub seed: u64,
    /// Worker/shard count (>= 1).
    pub workers: usize,
    /// Synthetic-graph scale factor.
    pub scale: f64,
}

impl CommonArgs {
    /// Reads the shared flags out of `args`.
    pub fn from_args(args: &Args) -> Result<CommonArgs, CliError> {
        Ok(CommonArgs {
            seed: args.get("seed")?,
            workers: args.get::<usize>("workers")?.max(1),
            scale: args.get("scale")?,
        })
    }
}

/// The chaos-plane pair `--fault-seed N` / `--drop-rate F`, built into the
/// [`FaultConfig`] a command hands to its subsystem: a fault plane is
/// attached iff `--fault-seed` is given, a `--drop-rate` without it is a
/// usage error, and the rate clamps to `[0, 0.999]`.
pub fn fault_config(args: &Args) -> Result<Option<FaultConfig>, CliError> {
    let drop_rate: f64 = args.get("drop-rate")?;
    match args.opt("fault-seed")? {
        Some(seed) => Ok(Some(FaultConfig::with_seed(seed, drop_rate))),
        None if args.opt::<String>("drop-rate")?.is_some() => {
            Err(CliError::Usage("--drop-rate needs --fault-seed".into()))
        }
        None => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: &[Flag] = &[
        Flag { name: "kind", metavar: "taobao|ba", default: Some("taobao") },
        Flag { name: "graph", metavar: "FILE", default: None },
        Flag { name: "seed", metavar: "N", default: Some("7") },
        Flag { name: "workers", metavar: "N", default: Some("4") },
        Flag { name: "scale", metavar: "F", default: Some("0.5") },
        Flag { name: "fault-seed", metavar: "N", default: Some("") },
        Flag { name: "drop-rate", metavar: "F", default: Some("0.1") },
    ];

    fn parse(line: &str) -> Result<Args, CliError> {
        Args::parse("bench", FLAGS, &line.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_command_and_options() {
        let a = parse("--kind ba --graph g.tsv --scale 0.25").unwrap();
        assert_eq!(a.command, "bench");
        assert_eq!(a.get::<String>("kind").unwrap(), "ba");
        assert_eq!(a.get::<String>("graph").unwrap(), "g.tsv");
        assert_eq!(a.get::<f64>("scale").unwrap(), 0.25);
        assert_eq!(a.get::<u64>("seed").unwrap(), 7, "an absent flag takes its row's default");
        assert_eq!(a.opt::<u64>("fault-seed").unwrap(), None, "off unless given");
        // Reading a name the table does not declare is an error, not a default.
        assert!(matches!(a.get::<u64>("dim"), Err(CliError::Runtime(m)) if m.contains("--dim")));
        assert!(matches!(a.opt::<u64>("dim"), Err(CliError::Runtime(_))));
    }

    #[test]
    fn rejects_malformed_invocations() {
        assert!(matches!(parse("positional"), Err(CliError::Usage(_))));
        assert!(matches!(parse("--graph"), Err(CliError::Usage(_))));
        let undeclared = parse("--dim 8");
        assert!(matches!(&undeclared, Err(CliError::Usage(m)) if m.contains("takes no --dim")));
        let a = parse("--seed abc").unwrap();
        assert!(matches!(a.get::<u64>("seed"), Err(CliError::Usage(_))));
        let missing = a.get::<String>("graph");
        assert!(matches!(missing, Err(CliError::Usage(m)) if m.contains("--graph")));
    }

    #[test]
    fn common_args_normalize_shared_flags() {
        let c = CommonArgs::from_args(&parse("").unwrap()).unwrap();
        assert_eq!((c.seed, c.workers, c.scale), (7, 4, 0.5));
        assert!(fault_config(&parse("").unwrap()).unwrap().is_none(), "no plane without a seed");

        let c =
            CommonArgs::from_args(&parse("--seed 9 --workers 0 --scale 0.25").unwrap()).unwrap();
        assert_eq!((c.seed, c.workers, c.scale), (9, 1, 0.25), "workers clamp to 1");
        let a = parse("--metrics-json /tmp/m.json").unwrap();
        assert_eq!(a.opt::<String>("metrics-json").unwrap().as_deref(), Some("/tmp/m.json"));
    }

    #[test]
    fn chaos_flags_parse_and_clamp() {
        let plan = |line: &str| fault_config(&parse(line).unwrap()).map(|f| f.map(|f| f.plan));
        let given = plan("--fault-seed 42 --drop-rate 0.2").unwrap().expect("--fault-seed given");
        assert_eq!((given.seed, given.drop_rate), (42, 0.2));
        let default = plan("--fault-seed 7").unwrap().expect("--fault-seed given");
        assert_eq!(default.drop_rate, 0.1, "the row's default rate");
        let clamped = plan("--fault-seed 7 --drop-rate 1.5").unwrap().expect("--fault-seed given");
        assert_eq!(clamped.drop_rate, 0.999, "rate clamps below certain loss");
        assert!(matches!(plan("--fault-seed x"), Err(CliError::Usage(_))));

        // A rate with no seed would run fault-free and exit 0.
        let err = plan("--drop-rate 0.5").expect_err("a rate needs a seed");
        assert!(matches!(&err, CliError::Usage(m) if m.contains("--fault-seed")), "{err}");
    }
}
