//! Hand-rolled argument parsing (the workspace keeps its dependency
//! surface to the sanctioned crates; a CLI parser is 60 lines).

/// Federation-shaping options shared by every command.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Number of bodies in the synthetic sky.
    pub bodies: usize,
    /// Catalog RNG seed.
    pub seed: u64,
    /// Cross-match worker threads per SkyNode (1 = sequential engine).
    pub workers: usize,
    /// Declination zone height in degrees of every SkyNode's layout.
    pub zone_height: f64,
    /// Retry attempts for every federation RPC (1 = no retries).
    pub retries: u32,
    /// First retry's backoff in simulated seconds (doubles per retry).
    pub retry_backoff_s: f64,
    /// How the Portal drives the chain: the recursive daisy chain, or
    /// checkpointed execution with failover re-planning.
    pub chain_mode: skyquery_core::ChainMode,
    /// Start the asynchronous job service alongside the Portal (the REPL
    /// starts it lazily on first `\submit` either way; this pre-arms it).
    pub jobs: bool,
    /// Declination-zone shards per archive (1 = one SkyNode per archive;
    /// more splits each archive across a scatter-gather shard group).
    pub shards: usize,
    /// Identical replicas per zone extent (1 = no replication; more
    /// gives each extent failover/hedge siblings).
    pub replicas: usize,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            bodies: 2000,
            seed: 42,
            workers: 1,
            zone_height: skyquery_storage::DEFAULT_ZONE_HEIGHT_DEG,
            retries: skyquery_core::RetryPolicy::default().max_attempts,
            retry_backoff_s: skyquery_core::RetryPolicy::default().backoff_base_s,
            chain_mode: skyquery_core::ChainMode::default(),
            jobs: false,
            shards: 1,
            replicas: 1,
        }
    }
}

impl Options {
    /// The retry policy these options describe.
    pub fn retry_policy(&self) -> skyquery_core::RetryPolicy {
        skyquery_core::RetryPolicy {
            max_attempts: self.retries,
            backoff_base_s: self.retry_backoff_s,
            ..skyquery_core::RetryPolicy::default()
        }
    }
}

/// Parsed CLI command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `skyquery demo` — quickstart.
    Demo(Options),
    /// `skyquery run <sql>` — one-shot query.
    Run(Options, String),
    /// `skyquery repl` — interactive session.
    Repl(Options),
    /// `skyquery help` or parse failure with the message to print.
    Help(Option<String>),
}

/// Parses `argv[1..]`.
pub fn parse_args<I, S>(args: I) -> Command
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let args: Vec<String> = args.into_iter().map(|s| s.as_ref().to_string()).collect();
    let mut opts = Options::default();
    let mut positional: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--bodies" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(n) => opts.bodies = n,
                    None => return Command::Help(Some("--bodies needs a number".into())),
                }
            }
            "--seed" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(n) => opts.seed = n,
                    None => return Command::Help(Some("--seed needs a number".into())),
                }
            }
            "--workers" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(n) if n >= 1 => opts.workers = n,
                    _ => return Command::Help(Some("--workers needs a number ≥ 1".into())),
                }
            }
            "--zone-height" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse::<f64>().ok()) {
                    Some(h) if h.is_finite() && h > 0.0 => opts.zone_height = h,
                    _ => {
                        return Command::Help(Some(
                            "--zone-height needs a positive number of degrees".into(),
                        ))
                    }
                }
            }
            "--retries" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(n) if n >= 1 => opts.retries = n,
                    _ => return Command::Help(Some("--retries needs a number ≥ 1".into())),
                }
            }
            "--retry-backoff" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse::<f64>().ok()) {
                    Some(s) if s.is_finite() && s >= 0.0 => opts.retry_backoff_s = s,
                    _ => {
                        return Command::Help(Some(
                            "--retry-backoff needs a non-negative number of seconds".into(),
                        ))
                    }
                }
            }
            "--chain" => {
                i += 1;
                match args.get(i).map(String::as_str) {
                    Some("recursive") => opts.chain_mode = skyquery_core::ChainMode::Recursive,
                    Some("checkpointed") => {
                        opts.chain_mode = skyquery_core::ChainMode::Checkpointed
                    }
                    _ => {
                        return Command::Help(Some(
                            "--chain needs recursive or checkpointed".into(),
                        ))
                    }
                }
            }
            "--shards" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(n) if n >= 1 => opts.shards = n,
                    _ => return Command::Help(Some("--shards needs a number ≥ 1".into())),
                }
            }
            "--replicas" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(n) if n >= 1 => opts.replicas = n,
                    _ => return Command::Help(Some("--replicas needs a number ≥ 1".into())),
                }
            }
            "--jobs" => opts.jobs = true,
            "--help" | "-h" => return Command::Help(None),
            other if other.starts_with("--") => {
                return Command::Help(Some(format!("unknown option {other}")))
            }
            other => positional.push(other.to_string()),
        }
        i += 1;
    }
    match positional.first().map(String::as_str) {
        Some("demo") => Command::Demo(opts),
        Some("repl") => Command::Repl(opts),
        Some("run") => {
            let sql = positional[1..].join(" ");
            if sql.trim().is_empty() {
                Command::Help(Some("run needs a query: skyquery run \"SELECT …\"".into()))
            } else {
                Command::Run(opts, sql)
            }
        }
        Some("help") | None => Command::Help(None),
        Some(other) => Command::Help(Some(format!("unknown command {other}"))),
    }
}

/// The help text.
pub fn usage() -> &'static str {
    "skyquery — a federated cross-match engine (SkyQuery, CIDR 2003)

USAGE:
    skyquery <COMMAND> [OPTIONS]

COMMANDS:
    demo             build a 3-archive federation and run the paper's sample query
    run \"<sql>\"      run one cross-match query against a fresh federation
    repl             interactive session (\\help inside for meta-commands)
    help             show this text

OPTIONS:
    --bodies <N>       synthetic bodies in the shared sky          [default: 2000]
    --seed <N>         catalog RNG seed                            [default: 42]
    --workers <N>      cross-match worker threads per SkyNode      [default: 1]
    --zone-height <D>  declination zone height, degrees            [default: 0.1]
    --retries <N>      RPC attempts before a node is unhealthy     [default: 3]
    --retry-backoff <S> first retry backoff, simulated seconds     [default: 0.05]
    --chain <M>        chain driver: recursive | checkpointed      [default: recursive]
    --shards <N>       declination-zone shards per archive         [default: 1]
    --replicas <N>     identical replicas per zone extent          [default: 1]
    --jobs             start the async job service (REPL: \\submit, \\jobs)
"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        assert_eq!(parse_args(["demo"]), Command::Demo(Options::default()));
        assert!(matches!(
            parse_args(Vec::<String>::new()),
            Command::Help(None)
        ));
        assert!(matches!(parse_args(["help"]), Command::Help(None)));
        assert!(matches!(parse_args(["--help"]), Command::Help(None)));
    }

    #[test]
    fn options_parsed() {
        match parse_args([
            "repl",
            "--bodies",
            "500",
            "--seed",
            "7",
            "--workers",
            "4",
            "--zone-height",
            "0.5",
            "--retries",
            "5",
            "--retry-backoff",
            "0.2",
            "--chain",
            "checkpointed",
            "--shards",
            "4",
            "--replicas",
            "2",
        ]) {
            Command::Repl(o) => {
                assert_eq!(o.bodies, 500);
                assert_eq!(o.seed, 7);
                assert_eq!(o.workers, 4);
                assert_eq!(o.zone_height, 0.5);
                assert_eq!(o.retries, 5);
                assert_eq!(o.retry_backoff_s, 0.2);
                assert_eq!(o.retry_policy().max_attempts, 5);
                assert_eq!(o.chain_mode, skyquery_core::ChainMode::Checkpointed);
                assert_eq!(o.shards, 4);
                assert_eq!(o.replicas, 2);
            }
            other => panic!("{other:?}"),
        }
        match parse_args(["repl", "--jobs"]) {
            Command::Repl(o) => assert!(o.jobs),
            other => panic!("{other:?}"),
        }
        assert!(!Options::default().jobs, "the job service is opt-in");
        assert_eq!(Options::default().shards, 1, "sharding is opt-in");
        assert_eq!(Options::default().replicas, 1, "replication is opt-in");
        // Options may precede the command.
        match parse_args(["--bodies", "10", "demo"]) {
            Command::Demo(o) => assert_eq!(o.bodies, 10),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn run_collects_sql() {
        match parse_args(["run", "SELECT", "O.a", "FROM", "S:T", "O"]) {
            Command::Run(_, sql) => assert_eq!(sql, "SELECT O.a FROM S:T O"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn errors_reported() {
        assert!(matches!(
            parse_args(["run"]),
            Command::Help(Some(msg)) if msg.contains("run needs a query")
        ));
        assert!(matches!(
            parse_args(["--bodies", "NaN", "demo"]),
            Command::Help(Some(_))
        ));
        assert!(matches!(
            parse_args(["--wat"]),
            Command::Help(Some(msg)) if msg.contains("--wat")
        ));
        // Retired knobs are refused like any unknown flag: the kernel
        // choice, and the zone-aware transfer's switch.
        assert!(matches!(
            parse_args(["--kernel", "htm", "demo"]),
            Command::Help(Some(msg)) if msg.contains("unknown option --kernel")
        ));
        assert!(matches!(
            parse_args(["--no-zone-chunking", "demo"]),
            Command::Help(Some(msg)) if msg.contains("unknown option --no-zone-chunking")
        ));
        assert!(matches!(
            parse_args(["launch"]),
            Command::Help(Some(msg)) if msg.contains("launch")
        ));
        assert!(matches!(
            parse_args(["--workers", "0", "demo"]),
            Command::Help(Some(msg)) if msg.contains("--workers")
        ));
        assert!(matches!(
            parse_args(["--zone-height", "-2", "demo"]),
            Command::Help(Some(msg)) if msg.contains("--zone-height")
        ));
        assert!(matches!(
            parse_args(["--retries", "0", "demo"]),
            Command::Help(Some(msg)) if msg.contains("--retries")
        ));
        assert!(matches!(
            parse_args(["--retry-backoff", "-1", "demo"]),
            Command::Help(Some(msg)) if msg.contains("--retry-backoff")
        ));
        assert!(matches!(
            parse_args(["--chain", "telepathic", "demo"]),
            Command::Help(Some(msg)) if msg.contains("--chain")
        ));
        assert!(matches!(
            parse_args(["--shards", "0", "demo"]),
            Command::Help(Some(msg)) if msg.contains("--shards")
        ));
        assert!(matches!(
            parse_args(["--replicas", "0", "demo"]),
            Command::Help(Some(msg)) if msg.contains("--replicas")
        ));
    }

    #[test]
    fn usage_mentions_commands() {
        for word in [
            "demo",
            "run",
            "repl",
            "--bodies",
            "--seed",
            "--workers",
            "--zone-height",
            "--retries",
            "--retry-backoff",
            "--chain",
            "--shards",
            "--replicas",
            "--jobs",
        ] {
            assert!(usage().contains(word), "{word}");
        }
    }
}
