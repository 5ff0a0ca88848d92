//! The command line: targets in the order given, and five flags.

use std::str::FromStr;

pub const USAGE: &str = "\
usage: repro <target>... [--fast] [--seed N] [--check] [--period N] [--rust-pace]

targets run in the order given:
  table1 table2 table3 table4 table5 table6 fig3_4 fig5 fig7
                the paper's tables and figures
  all           table1 table2 table3 table4 table5 fig3_4 fig5 table6 fig7
  ablations     design-choice ablations
  overhead      detection accuracy vs INT byte budget
  variance      5-fold error bars on Table III
  baselines     INT vs sFlow vs counter polling
  telemetry     overhead/recall frontier of every telemetry backend
  prefilter     triage pre-filter load cut, recall and allocation gates
  drift         online adaptation and hot-swap gates
  detection     per-model prediction, vote, training and replay timings

  --fast        smoke-sized run; its JSON goes only to an explicitly set
                AMLIGHT_RESULTS_DIR, never over a committed artifact
  --seed N      replace every target's default seed
  --check       telemetry: validate the committed results/telemetry.json
                instead of running; prefilter, drift: fail unless every
                gate holds
  --period N    telemetry: sFlow 1-in-N period (default 256, 64 with --fast)
  --rust-pace   table6, and fig7 which plots its runs: this
                implementation's service times, not the paper prototype's";

/// One experiment `repro` can run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Target {
    Table1,
    Table2,
    Table3,
    Table4,
    Table5,
    Table6,
    Fig3_4,
    Fig5,
    Fig7,
    Ablations,
    Overhead,
    Variance,
    Baselines,
    Telemetry,
    Prefilter,
    Drift,
    Detection,
}

impl Target {
    const NAMED: [(&'static str, Target); 17] = [
        ("table1", Target::Table1),
        ("table2", Target::Table2),
        ("table3", Target::Table3),
        ("table4", Target::Table4),
        ("table5", Target::Table5),
        ("table6", Target::Table6),
        ("fig3_4", Target::Fig3_4),
        ("fig5", Target::Fig5),
        ("fig7", Target::Fig7),
        ("ablations", Target::Ablations),
        ("overhead", Target::Overhead),
        ("variance", Target::Variance),
        ("baselines", Target::Baselines),
        ("telemetry", Target::Telemetry),
        ("prefilter", Target::Prefilter),
        ("drift", Target::Drift),
        ("detection", Target::Detection),
    ];

    /// What `all` runs: every table and figure of the paper.
    pub const ALL: [Target; 9] = [
        Target::Table1,
        Target::Table2,
        Target::Table3,
        Target::Table4,
        Target::Table5,
        Target::Fig3_4,
        Target::Fig5,
        Target::Table6,
        Target::Fig7,
    ];

    pub fn name(self) -> &'static str {
        Target::NAMED
            .iter()
            .find(|(_, t)| *t == self)
            .map_or("?", |(name, _)| name)
    }
}

/// A parsed command line.
#[derive(Debug, Default, PartialEq)]
pub struct Args {
    pub targets: Vec<Target>,
    pub fast: bool,
    /// `--seed`: replaces every target's default seed.
    pub seed: Option<u64>,
    pub check: bool,
    /// `--period`: the telemetry target's sFlow sampling period.
    pub period: Option<u32>,
    pub rust_pace: bool,
}

/// Parse the arguments after the program name. An unknown target or
/// flag, a missing or unparsable `--seed`/`--period` value, or no
/// target at all is an error.
pub fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--fast" => args.fast = true,
            "--check" => args.check = true,
            "--rust-pace" => args.rust_pace = true,
            "--seed" => args.seed = Some(value(it.next(), "--seed")?),
            "--period" => args.period = Some(value(it.next(), "--period")?),
            "all" => args.targets.extend(Target::ALL),
            name => args.targets.push(
                Target::NAMED
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|(_, t)| *t)
                    .ok_or_else(|| format!("unknown target or flag `{name}`"))?,
            ),
        }
    }
    if args.targets.is_empty() {
        return Err("no target given".into());
    }
    Ok(args)
}

fn value<T: FromStr>(arg: Option<&String>, flag: &str) -> Result<T, String> {
    let v = arg.ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse()
        .map_err(|_| format!("{flag} takes a non-negative integer, not `{v}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&argv)
    }

    #[test]
    fn targets_and_flags_parse_in_any_order() {
        let args = parse_str("--fast fig7 --seed 42 table6 --period 16 --check --rust-pace")
            .expect("valid command line");
        assert_eq!(
            args,
            Args {
                targets: vec![Target::Fig7, Target::Table6],
                fast: true,
                seed: Some(42),
                check: true,
                period: Some(16),
                rust_pace: true,
            }
        );
    }

    #[test]
    fn all_expands_to_the_paper_set_in_place() {
        let args = parse_str("ablations all variance").expect("valid command line");
        let mut want = vec![Target::Ablations];
        want.extend(Target::ALL);
        want.push(Target::Variance);
        assert_eq!(args.targets, want);
        assert_eq!(
            Target::ALL.map(Target::name).join(" "),
            "table1 table2 table3 table4 table5 fig3_4 fig5 table6 fig7"
        );
    }

    #[test]
    fn every_target_name_round_trips() {
        for (name, target) in Target::NAMED {
            assert_eq!(target.name(), name);
            assert_eq!(parse_str(name).map(|a| a.targets), Ok(vec![target]));
        }
    }

    #[test]
    fn bad_input_is_an_error() {
        for line in [
            "",
            "--fast",
            "table7",
            "repro_all",
            "table1 --quick",
            "table1 --seed",
            "table1 --seed abc",
            "table1 --seed -1",
            "telemetry --period",
            "telemetry --period 1.5",
            "telemetry --period 4294967296",
        ] {
            assert!(parse_str(line).is_err(), "{line:?} parsed");
        }
    }
}
