//! Leveled stderr logging with monotonic timestamps and a per-process prefix.
//!
//! The level comes from the `DLRV_LOG` environment variable (`error`, `warn`,
//! `info`, `debug`, `trace`; default `warn`) and can be overridden with
//! [`set_log_level`] (how `monitord --log-level` works).  Output format:
//!
//! ```text
//! [    0.001234s] [daemon2] INFO  accepted control connection
//! ```
//!
//! Each line is written with a single `write!` so concurrent daemons
//! interleave whole lines, never fragments.

use std::io::Write;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};

/// Log severity, ordered from most to least severe.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// Unrecoverable or protocol-violating conditions.
    Error = 0,
    /// Suspicious but survivable conditions (the default threshold).
    Warn = 1,
    /// Lifecycle milestones (listen, handshake, finish, shutdown).
    Info = 2,
    /// Per-frame / per-event detail.
    Debug = 3,
    /// Everything, including hot-loop internals.
    Trace = 4,
}

impl LogLevel {
    /// Parses a level name (case-insensitive); `None` for unknown names.
    pub fn parse(s: &str) -> Option<LogLevel> {
        match s.to_ascii_lowercase().as_str() {
            "error" => Some(LogLevel::Error),
            "warn" | "warning" => Some(LogLevel::Warn),
            "info" => Some(LogLevel::Info),
            "debug" => Some(LogLevel::Debug),
            "trace" => Some(LogLevel::Trace),
            _ => None,
        }
    }

    /// Fixed-width display name.
    pub fn label(self) -> &'static str {
        match self {
            LogLevel::Error => "ERROR",
            LogLevel::Warn => "WARN ",
            LogLevel::Info => "INFO ",
            LogLevel::Debug => "DEBUG",
            LogLevel::Trace => "TRACE",
        }
    }

    fn from_u8(v: u8) -> LogLevel {
        match v {
            0 => LogLevel::Error,
            1 => LogLevel::Warn,
            2 => LogLevel::Info,
            3 => LogLevel::Debug,
            _ => LogLevel::Trace,
        }
    }
}

static LEVEL: AtomicU8 = AtomicU8::new(LogLevel::Warn as u8);
static LEVEL_INIT: OnceLock<()> = OnceLock::new();
static PREFIX: OnceLock<Mutex<String>> = OnceLock::new();

fn prefix_slot() -> &'static Mutex<String> {
    PREFIX.get_or_init(|| Mutex::new(String::new()))
}

/// The current threshold: messages at this severity or higher are emitted.
///
/// First call reads `DLRV_LOG`; afterwards only [`set_log_level`] changes it.
pub fn log_level() -> LogLevel {
    LEVEL_INIT.get_or_init(|| {
        if let Some(l) = std::env::var("DLRV_LOG")
            .ok()
            .as_deref()
            .and_then(LogLevel::parse)
        {
            LEVEL.store(l as u8, Ordering::Relaxed);
        }
    });
    LogLevel::from_u8(LEVEL.load(Ordering::Relaxed))
}

/// Overrides the threshold (wins over `DLRV_LOG`).
pub fn set_log_level(level: LogLevel) {
    LEVEL_INIT.get_or_init(|| ());
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// Sets the per-process prefix shown in every line (e.g. `daemon3`).
pub fn set_log_prefix(prefix: impl Into<String>) {
    *prefix_slot().lock().expect("log prefix poisoned") = prefix.into();
}

/// Emits one log line at `level` if it clears the threshold.
pub fn log(level: LogLevel, message: std::fmt::Arguments<'_>) {
    if level > log_level() {
        return;
    }
    let secs = crate::now_nanos() as f64 / 1e9;
    let prefix = prefix_slot().lock().expect("log prefix poisoned").clone();
    let mut err = std::io::stderr().lock();
    let _ = if prefix.is_empty() {
        writeln!(err, "[{secs:>12.6}s] {} {message}", level.label())
    } else {
        writeln!(
            err,
            "[{secs:>12.6}s] [{prefix}] {} {message}",
            level.label()
        )
    };
}

/// Logs at [`LogLevel::Error`].
#[macro_export]
macro_rules! obs_error {
    ($($arg:tt)*) => { $crate::log::log($crate::LogLevel::Error, format_args!($($arg)*)) };
}

/// Logs at [`LogLevel::Warn`].
#[macro_export]
macro_rules! obs_warn {
    ($($arg:tt)*) => { $crate::log::log($crate::LogLevel::Warn, format_args!($($arg)*)) };
}

/// Logs at [`LogLevel::Info`].
#[macro_export]
macro_rules! obs_info {
    ($($arg:tt)*) => { $crate::log::log($crate::LogLevel::Info, format_args!($($arg)*)) };
}

/// Logs at [`LogLevel::Debug`].
#[macro_export]
macro_rules! obs_debug {
    ($($arg:tt)*) => { $crate::log::log($crate::LogLevel::Debug, format_args!($($arg)*)) };
}

/// Logs at [`LogLevel::Trace`].
#[macro_export]
macro_rules! obs_trace {
    ($($arg:tt)*) => { $crate::log::log($crate::LogLevel::Trace, format_args!($($arg)*)) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_names_round_trip() {
        for l in [
            LogLevel::Error,
            LogLevel::Warn,
            LogLevel::Info,
            LogLevel::Debug,
            LogLevel::Trace,
        ] {
            assert_eq!(LogLevel::parse(l.label().trim()), Some(l));
        }
        assert_eq!(LogLevel::parse("bogus"), None);
        assert_eq!(LogLevel::parse("WARNING"), Some(LogLevel::Warn));
    }

    #[test]
    fn severity_ordering_matches_threshold_semantics() {
        assert!(LogLevel::Error < LogLevel::Warn);
        assert!(LogLevel::Warn < LogLevel::Info);
        assert!(LogLevel::Info < LogLevel::Debug);
        assert!(LogLevel::Debug < LogLevel::Trace);
    }
}
