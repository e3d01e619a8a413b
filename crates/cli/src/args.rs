//! Hand-rolled `--key value` argument parsing (the sanctioned dependency
//! set has no CLI parser, and the surface is small enough not to need one).
//!
//! Flags shared by several subcommands (`--seed`, `--workers`, `--scale`,
//! `--metrics-json`) normalize through [`CommonArgs`] so every command
//! parses, defaults, and clamps them the same way.

use aligraph_chaos::FaultConfig;
use std::collections::HashMap;
use std::path::PathBuf;

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

/// Parsed invocation: a command plus `--key value` options.
#[derive(Debug, Clone)]
pub struct Args {
    /// The subcommand (first positional argument).
    pub command: String,
    options: HashMap<String, String>,
}

impl Args {
    /// Parses `argv` (without the program name).
    pub fn parse(argv: &[String]) -> Result<Args, CliError> {
        let mut it = argv.iter();
        let command = it.next().cloned().ok_or_else(|| CliError::Usage(crate::HELP.to_string()))?;
        let mut options = HashMap::new();
        while let Some(key) = it.next() {
            let key = key
                .strip_prefix("--")
                .ok_or_else(|| CliError::Usage(format!("expected --option, got `{key}`")))?;
            let value =
                it.next().ok_or_else(|| CliError::Usage(format!("--{key} requires a value")))?;
            options.insert(key.to_string(), value.clone());
        }
        Ok(Args { command, options })
    }

    /// Refuses any option that is neither in `known` nor `--metrics-json`:
    /// commands read only the keys they know, so a misspelt flag would
    /// otherwise run with the default and exit 0.
    pub fn expect_only(&self, known: &[&str]) -> Result<(), CliError> {
        let unread = |k: &&str| *k != "metrics-json" && !known.contains(k);
        match self.options.keys().map(String::as_str).filter(unread).min() {
            None => Ok(()),
            Some(key) => Err(CliError::Usage(format!(
                "`{}` takes no --{key}; it reads: --{}",
                self.command,
                known.join(" --")
            ))),
        }
    }

    /// A required string option.
    pub fn required(&self, key: &str) -> Result<&str, CliError> {
        self.options
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| CliError::Usage(format!("missing required option --{key}")))
    }

    /// An optional string option with a default.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.options.get(key).map(String::as_str).unwrap_or(default)
    }

    /// A parsed numeric option with a default.
    pub fn num_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => {
                v.parse().map_err(|_| CliError::Usage(format!("--{key}: cannot parse `{v}`")))
            }
        }
    }
}

/// Per-command defaults for the shared flags.
#[derive(Debug, Clone, Copy)]
pub struct CommonDefaults {
    /// Default `--seed`.
    pub seed: u64,
    /// Default `--workers`.
    pub workers: usize,
    /// Default `--scale`.
    pub scale: f64,
}

impl Default for CommonDefaults {
    fn default() -> Self {
        CommonDefaults { seed: 42, workers: 2, scale: 0.01 }
    }
}

/// The flags every benchmark-style subcommand shares, parsed once:
/// `--seed N`, `--workers N` (clamped to >= 1), `--scale F`,
/// `--metrics-json PATH` (where to dump the run's telemetry snapshot), and
/// the chaos-plane pair `--fault-seed N` / `--drop-rate F` (a fault plane is
/// attached iff `--fault-seed` is given, and a `--drop-rate` without it is a
/// usage error; the rate defaults to 0.1 and clamps to `[0, 0.999]`), built
/// once into the [`FaultConfig`] every command that takes them hands to its
/// subsystem.
#[derive(Debug, Clone)]
pub struct CommonArgs {
    /// Base RNG seed.
    pub seed: u64,
    /// Worker/shard count (>= 1).
    pub workers: usize,
    /// Synthetic-graph scale factor.
    pub scale: f64,
    /// Where to write the metrics JSON (`None` = don't).
    pub metrics_json: Option<PathBuf>,
    /// The chaos-plane attachment (`None` = no fault injection).
    pub fault: Option<FaultConfig>,
}

impl CommonArgs {
    /// Parses the shared flags out of `args`, falling back to `defaults`.
    pub fn from_args(args: &Args, defaults: CommonDefaults) -> Result<CommonArgs, CliError> {
        let path = args.get_or("metrics-json", "");
        let drop_rate = args.num_or("drop-rate", 0.1f64)?;
        let fault = match args.get_or("fault-seed", "") {
            "" if args.get_or("drop-rate", "").is_empty() => None,
            "" => return Err(CliError::Usage("--drop-rate needs --fault-seed".into())),
            _ => Some(FaultConfig::with_seed(args.num_or("fault-seed", 0u64)?, drop_rate)),
        };
        Ok(CommonArgs {
            seed: args.num_or("seed", defaults.seed)?,
            workers: args.num_or("workers", defaults.workers)?.max(1),
            scale: args.num_or("scale", defaults.scale)?,
            metrics_json: if path.is_empty() { None } else { Some(PathBuf::from(path)) },
            fault,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_command_and_options() {
        let a = Args::parse(&argv(&["generate", "--kind", "taobao", "--scale", "0.5"])).unwrap();
        assert_eq!(a.command, "generate");
        assert_eq!(a.required("kind").unwrap(), "taobao");
        assert_eq!(a.num_or("scale", 1.0f64).unwrap(), 0.5);
        assert_eq!(a.num_or("seed", 7u64).unwrap(), 7);
        assert_eq!(a.get_or("missing", "x"), "x");
    }

    #[test]
    fn rejects_malformed_invocations() {
        assert!(matches!(Args::parse(&[]), Err(CliError::Usage(_))));
        assert!(matches!(Args::parse(&argv(&["train", "positional"])), Err(CliError::Usage(_))));
        assert!(matches!(Args::parse(&argv(&["train", "--graph"])), Err(CliError::Usage(_))));
        let a = Args::parse(&argv(&["train", "--dim", "abc"])).unwrap();
        assert!(matches!(a.num_or("dim", 8usize), Err(CliError::Usage(_))));
        assert!(matches!(a.required("graph"), Err(CliError::Usage(_))));
    }

    #[test]
    fn common_args_normalize_shared_flags() {
        let d = CommonDefaults { seed: 7, workers: 4, scale: 0.5 };
        let a = Args::parse(&argv(&["bench"])).unwrap();
        let c = CommonArgs::from_args(&a, d).unwrap();
        assert_eq!((c.seed, c.workers, c.scale), (7, 4, 0.5));
        assert!(c.metrics_json.is_none());
        assert!(c.fault.is_none(), "no fault plane unless --fault-seed given");

        let a = Args::parse(&argv(&[
            "bench",
            "--seed",
            "9",
            "--workers",
            "0",
            "--scale",
            "0.25",
            "--metrics-json",
            "/tmp/m.json",
        ]))
        .unwrap();
        let c = CommonArgs::from_args(&a, d).unwrap();
        assert_eq!((c.seed, c.workers, c.scale), (9, 1, 0.25), "workers clamp to 1");
        assert_eq!(c.metrics_json.unwrap().to_string_lossy(), "/tmp/m.json");
    }

    #[test]
    fn chaos_flags_parse_and_clamp() {
        let d = CommonDefaults::default();
        let a = Args::parse(&argv(&["bench", "--fault-seed", "42", "--drop-rate", "0.2"])).unwrap();
        let plan = CommonArgs::from_args(&a, d).unwrap().fault.expect("--fault-seed given").plan;
        assert_eq!((plan.seed, plan.drop_rate), (42, 0.2));

        let a = Args::parse(&argv(&["bench", "--fault-seed", "7", "--drop-rate", "1.5"])).unwrap();
        let plan = CommonArgs::from_args(&a, d).unwrap().fault.expect("--fault-seed given").plan;
        assert_eq!(plan.drop_rate, 0.999, "rate clamps below certain loss");

        let a = Args::parse(&argv(&["bench", "--fault-seed", "x"])).unwrap();
        assert!(matches!(CommonArgs::from_args(&a, d), Err(CliError::Usage(_))));

        // A rate with no seed would run fault-free and exit 0.
        let a = Args::parse(&argv(&["bench", "--drop-rate", "0.5"])).unwrap();
        let err = CommonArgs::from_args(&a, d).expect_err("a rate needs a seed");
        assert!(matches!(&err, CliError::Usage(m) if m.contains("--fault-seed")), "{err}");
    }
}
