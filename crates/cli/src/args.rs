//! Minimal argument parsing — no external dependency for four
//! subcommands and a handful of flags.

use std::collections::HashMap;
use std::fmt;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub command: Command,
    flags: HashMap<String, String>,
    switches: Vec<String>,
}

/// The subcommand to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Generate a labeled telemetry capture and write it to a file.
    Capture,
    /// Train a model bundle from a capture file.
    Train,
    /// Run the detection pipeline over a capture with a trained bundle.
    Detect,
    /// Send a capture's telemetry at a listening `detect --listen`.
    Replay,
    /// Scan a capture for queue microbursts.
    Microburst,
    /// End-to-end demonstration (capture → train → detect) in memory.
    Demo,
    /// Print usage.
    Help,
}

/// Parse failure, with the offending token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid arguments: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

pub const USAGE: &str = "\
amlight — INT-based automated DDoS detection (AmLight reproduction)

USAGE:
    amlight <COMMAND> [OPTIONS]

COMMANDS:
    capture      generate a labeled telemetry capture
                   --out <file>        output path (default capture.json)
                   --day-len <secs>    compressed day length (default 10)
                   --seed <n>          workload seed (default 41751)
                   --hops <n>          switches in the path (default 1)
    train        train scaler + MLP/RF/GNB bundle from a capture
                   --capture <file>    input capture (default capture.json)
                   --out <file>        bundle path (default bundle.json)
                   --telemetry <b>     backend view to train on:
                                       int | sflow | pint
                                       (default int; sflow resamples the
                                       capture 1-in-N and drops the queue
                                       features; pint re-derives hop state
                                       from k-bit digests)
                   --sample-period <n> sFlow sampling period for --telemetry
                                       sflow (default 256)
                   --pint-bits <k>     PINT digest width in bits for
                                       --telemetry pint (default 8)
                   --include-slowloris train on SlowLoris too (default: held
                                       out as the zero-day attack)
                   --fast              smoke-sized training (5 MLP epochs,
                                       10 forest trees)
                   --emit-meta         print the bundle's stamped metadata
                                       (schema, epoch, training window) as
                                       JSON after training
    detect       replay a capture through the detection pipeline
                   --capture <file>    input capture (default capture.json)
                   --bundle <file>     trained bundle (default bundle.json)
                   --telemetry <b>     backend to replay: int | sflow | pint
                                       (default int; must match the bundle)
                   --sample-period <n> sFlow sampling period (default 256)
                   --pint-bits <k>     PINT digest width in bits (default 8)
                   --paper-pace        model the paper's prototype latencies
                   --threaded          stream through the threaded runtime
                                       (wall-clock latency) instead of the
                                       virtual-time driver
                   --shards <n>        processor shards for --threaded
                                       (default 1, rounded to power of two)
                   --adapt             watch the benign distribution for
                                       drift, retrain in the background, and
                                       hot-swap fresh model epochs into the
                                       live run (implies --threaded)
                   --prefilter <m>     triage pre-filter mode: off | shadow
                                       | on (default off; implies
                                       --threaded). `shadow` scores every
                                       update without gating; `on` drops
                                       decimated flood updates and parks
                                       low-score ones on an idle-drained
                                       lane before the Predictor
                   --listen <url>      run as a collector daemon instead of
                                       replaying: bind udp://host:port or
                                       tcp://host:port (port 0 = ephemeral)
                                       and detect on whatever arrives; the
                                       wire framing follows --telemetry
                                       (sflow and pint are UDP-only). The
                                       five flags below need --listen;
                                       --capture, --sample-period,
                                       --pint-bits, --paper-pace, --threaded
                                       and --adapt are refused with it
                   --listeners <n>     SO_REUSEPORT listener threads
                                       (default 1)
                   --duration-ms <n>   listen window (default 10000)
                   --max-events <n>    stop after n decoded events
                                       (default 0 = until the window ends)
                   --port-file <file>  write the bound port for scripts
                                       that bound port 0
                   --require-clean     exit nonzero unless the run decoded
                                       events, produced predictions, and
                                       saw zero decode errors
    replay       send a capture's telemetry at a detect --listen daemon
                   --capture <file>    input capture (default capture.json)
                   --to <url>          destination udp://host:port or
                                       tcp://host:port
                   --telemetry <b>     wire framing: int | sflow | pint
                                       (default int; must match the daemon)
                   --sample-period <n> sFlow sampling period (default 256)
                   --pint-bits <k>     PINT digest width in bits (default 8)
                   --per-datagram <n>  reports per UDP datagram (default 4)
    microburst   scan a capture's queue telemetry for microbursts
                   --capture <file>    input capture (default capture.json)
    demo         run capture → train → detect end to end in memory
                   --seed <n>          workload seed
    help         show this message
";

/// The flags (value flags and switches) each command takes, as listed in
/// [`USAGE`]; any other `--flag` is a parse error.
fn accepted_flags(command: Command) -> &'static [&'static str] {
    match command {
        Command::Capture => &["out", "day-len", "seed", "hops"],
        Command::Train => &[
            "capture",
            "out",
            "telemetry",
            "sample-period",
            "pint-bits",
            "include-slowloris",
            "emit-meta",
            "fast",
        ],
        Command::Detect => &[
            "capture",
            "bundle",
            "telemetry",
            "sample-period",
            "pint-bits",
            "paper-pace",
            "threaded",
            "shards",
            "adapt",
            "prefilter",
            "listen",
            "listeners",
            "duration-ms",
            "max-events",
            "port-file",
            "require-clean",
        ],
        Command::Replay => &[
            "capture",
            "to",
            "telemetry",
            "sample-period",
            "pint-bits",
            "per-datagram",
        ],
        Command::Microburst => &["capture"],
        Command::Demo => &["seed"],
        Command::Help => &[],
    }
}

/// Which of `detect`'s two modes reads `flag`: `Some(true)` only the
/// daemon (`--listen`), `Some(false)` only the capture replay, `None`
/// both.
fn listen_only(flag: &str) -> Option<bool> {
    match flag {
        "listeners" | "duration-ms" | "max-events" | "port-file" | "require-clean" => Some(true),
        "capture" | "paper-pace" | "threaded" | "adapt" | "sample-period" | "pint-bits" => {
            Some(false)
        }
        _ => None,
    }
}

impl Args {
    /// Parse tokens (not including the program name).
    pub fn parse<I, S>(tokens: I) -> Result<Self, ParseError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut iter = tokens.into_iter().map(Into::into);
        let word = iter.next();
        let command = match word.as_deref() {
            Some("capture") => Command::Capture,
            Some("train") => Command::Train,
            Some("detect") => Command::Detect,
            Some("replay") => Command::Replay,
            Some("microburst") => Command::Microburst,
            Some("demo") => Command::Demo,
            Some("help") | Some("--help") | Some("-h") | None => Command::Help,
            Some(other) => return Err(ParseError(format!("unknown command `{other}`"))),
        };

        let mut flags = HashMap::new();
        let mut switches = Vec::new();
        let mut pending: Option<String> = None;
        for tok in iter {
            match pending.take() {
                Some(key) => {
                    flags.insert(key, tok);
                }
                None => {
                    if let Some(name) = tok.strip_prefix("--") {
                        if !accepted_flags(command).contains(&name) {
                            return Err(ParseError(format!(
                                "unknown flag `--{name}` for `{}`",
                                word.as_deref().unwrap_or("help")
                            )));
                        }
                        if Self::is_switch(name) {
                            switches.push(name.to_string());
                        } else {
                            pending = Some(name.to_string());
                        }
                    } else {
                        return Err(ParseError(format!("unexpected token `{tok}`")));
                    }
                }
            }
        }
        if let Some(key) = pending {
            return Err(ParseError(format!("flag --{key} needs a value")));
        }
        // Each of detect's modes reads only its own flags; one of the
        // other mode's is an error, never silently ignored.
        let listen = flags.get("listen").is_some_and(|url| !url.is_empty());
        let foreign = flags
            .keys()
            .chain(&switches)
            .filter(|name| command == Command::Detect && listen_only(name) == Some(!listen));
        if let Some(name) = foreign.min() {
            let relation = if listen {
                "cannot be used with"
            } else {
                "needs"
            };
            return Err(ParseError(format!("`--{name}` {relation} `--listen`")));
        }
        Ok(Self {
            command,
            flags,
            switches,
        })
    }

    fn is_switch(name: &str) -> bool {
        matches!(
            name,
            "paper-pace"
                | "include-slowloris"
                | "fast"
                | "threaded"
                | "require-clean"
                | "adapt"
                | "emit-meta"
        )
    }

    /// String flag with a default.
    pub fn get<'a>(&'a self, name: &str, default: &'a str) -> &'a str {
        self.flags.get(name).map(String::as_str).unwrap_or(default)
    }

    /// Numeric flag with a default.
    pub fn get_u64(&self, name: &str, default: u64) -> Result<u64, ParseError> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ParseError(format!("--{name} expects a number, got `{v}`"))),
        }
    }

    /// Boolean switch.
    pub fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_commands() {
        for (tok, cmd) in [
            ("capture", Command::Capture),
            ("train", Command::Train),
            ("detect", Command::Detect),
            ("replay", Command::Replay),
            ("microburst", Command::Microburst),
            ("demo", Command::Demo),
            ("help", Command::Help),
        ] {
            assert_eq!(Args::parse([tok]).unwrap().command, cmd);
        }
    }

    #[test]
    fn empty_is_help() {
        let args = Args::parse(Vec::<String>::new()).unwrap();
        assert_eq!(args.command, Command::Help);
    }

    #[test]
    fn unknown_command_rejected() {
        assert!(Args::parse(["frobnicate"]).is_err());
    }

    #[test]
    fn flags_and_defaults() {
        let args = Args::parse(["capture", "--out", "x.json", "--seed", "9"]).unwrap();
        assert_eq!(args.get("out", "capture.json"), "x.json");
        assert_eq!(args.get("missing", "fallback"), "fallback");
        assert_eq!(args.get_u64("seed", 1).unwrap(), 9);
        assert_eq!(args.get_u64("day-len", 10).unwrap(), 10);
    }

    #[test]
    fn switches_are_recognized() {
        let args = Args::parse(["detect", "--paper-pace"]).unwrap();
        assert!(args.has("paper-pace"));
        assert!(!args.has("include-slowloris"));
    }

    #[test]
    fn threaded_switch_and_shards_flag() {
        let args = Args::parse(["detect", "--threaded", "--shards", "4"]).unwrap();
        assert!(args.has("threaded"));
        assert_eq!(args.get_u64("shards", 1).unwrap(), 4);
        // --shards without --threaded still parses; detect decides.
        let args = Args::parse(["detect", "--shards", "2"]).unwrap();
        assert!(!args.has("threaded"));
    }

    #[test]
    fn telemetry_flag_parses_for_train_and_detect() {
        let args = Args::parse(["train", "--telemetry", "sflow", "--sample-period", "64"]).unwrap();
        assert_eq!(args.get("telemetry", "int"), "sflow");
        assert_eq!(args.get_u64("sample-period", 256).unwrap(), 64);
        let args = Args::parse(["detect", "--telemetry", "int"]).unwrap();
        assert_eq!(args.get("telemetry", "int"), "int");
        // Defaults to INT when the flag is absent.
        let args = Args::parse(["detect"]).unwrap();
        assert_eq!(args.get("telemetry", "int"), "int");
    }

    #[test]
    fn listen_flags_parse() {
        let args = Args::parse([
            "detect",
            "--listen",
            "udp://127.0.0.1:0",
            "--listeners",
            "4",
            "--require-clean",
        ])
        .unwrap();
        assert_eq!(args.get("listen", ""), "udp://127.0.0.1:0");
        assert_eq!(args.get_u64("listeners", 1).unwrap(), 4);
        assert!(args.has("require-clean"));
        let args = Args::parse(["replay", "--to", "tcp://127.0.0.1:9000"]).unwrap();
        assert_eq!(args.command, Command::Replay);
        assert_eq!(args.get("to", ""), "tcp://127.0.0.1:9000");
    }

    #[test]
    fn prefilter_is_a_value_flag() {
        let args = Args::parse(["detect", "--prefilter", "shadow"]).unwrap();
        assert_eq!(args.get("prefilter", "off"), "shadow");
        // Value flag, not a switch: a dangling --prefilter is an error.
        assert!(Args::parse(["detect", "--prefilter"]).is_err());
        // Absent → off.
        let args = Args::parse(["detect"]).unwrap();
        assert_eq!(args.get("prefilter", "off"), "off");
    }

    #[test]
    fn dangling_flag_rejected() {
        let err = Args::parse(["capture", "--seed"]).unwrap_err();
        assert!(err.0.contains("--seed"));
    }

    #[test]
    fn bad_number_rejected() {
        let args = Args::parse(["capture", "--seed", "abc"]).unwrap();
        assert!(args.get_u64("seed", 0).is_err());
    }

    #[test]
    fn unknown_flag_rejected_naming_it() {
        // A misspelt flag must not silently fall back to the defaults
        // (here: the unsharded, ungated virtual-time driver).
        let err = Args::parse(["detect", "--prefliter", "on", "--shard", "4"]).unwrap_err();
        assert!(err.0.contains("--prefliter"), "{err}");
        // A real flag of another command is just as unknown.
        let err = Args::parse(["capture", "--bundle", "b.json"]).unwrap_err();
        assert!(
            err.0.contains("--bundle") && err.0.contains("capture"),
            "{err}"
        );
        assert!(Args::parse(["train", "--fast", "--emit-meta"]).is_ok());
    }

    #[test]
    fn detect_rejects_the_other_modes_flags_naming_them() {
        let err = Args::parse([
            "detect",
            "--capture",
            "c.json",
            "--bundle",
            "b.json",
            "--require-clean",
            "--max-events",
            "5",
        ])
        .unwrap_err();
        assert_eq!(err.0, "`--max-events` needs `--listen`");
        for flag in ["--duration-ms", "--port-file"] {
            let err = Args::parse(["detect", flag, "1"]).unwrap_err();
            assert!(err.0.contains(flag), "{err}");
        }
        let err = Args::parse([
            "detect",
            "--listen",
            "udp://127.0.0.1:0",
            "--bundle",
            "b.json",
            "--adapt",
        ])
        .unwrap_err();
        assert!(err.0.contains("`--adapt` cannot be used with"), "{err}");
        for flag in ["--capture", "--sample-period", "--pint-bits"] {
            let err =
                Args::parse(["detect", "--listen", "udp://127.0.0.1:0", flag, "1"]).unwrap_err();
            assert!(err.0.contains(flag), "{err}");
        }
        for switch in ["--paper-pace", "--threaded"] {
            let err = Args::parse(["detect", switch, "--listen", "udp://127.0.0.1:0"]).unwrap_err();
            assert!(err.0.contains(switch), "{err}");
        }
        // Flags both modes read stay legal in either.
        for listen in [&["--listen", "tcp://127.0.0.1:0"][..], &[]] {
            let mut tokens = vec!["detect", "--bundle", "b.json", "--telemetry", "int"];
            tokens.extend(["--shards", "2", "--prefilter", "on"]);
            tokens.extend(listen);
            assert!(Args::parse(tokens).is_ok());
        }
    }

    #[test]
    fn positional_junk_rejected() {
        assert!(Args::parse(["capture", "whoops"]).is_err());
    }
}
