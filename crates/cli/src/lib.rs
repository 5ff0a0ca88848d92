//! Library backing the `amlight` command-line tool.
//!
//! Everything the binary does lives here so it can be unit- and
//! integration-tested without spawning processes: argument parsing,
//! capture files, and the four subcommands (`capture`, `train`,
//! `detect`, `microburst`).

pub mod args;
pub mod commands;

pub use args::{Args, Command};
pub use commands::{run, CaptureFile, CliError};
