//! The `experiments` binary: parse, dispatch, print the failure, exit.  What it can
//! do is documented on, and implemented in, the library module [`dlrv::cli`].

use dlrv::cli::{dispatch, parse_cli};

fn main() {
    let outcome = parse_cli(std::env::args().skip(1).collect()).and_then(|cli| {
        if let Some(jobs) = cli.jobs {
            dlrv::set_jobs(jobs);
        }
        dispatch(&cli)
    });
    if let Err(error) = outcome {
        eprintln!("{}", error.message);
        std::process::exit(error.code);
    }
}
