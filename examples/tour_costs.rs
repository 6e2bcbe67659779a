//! What a token tour costs: the monitors' exact work counters per program event,
//! split into the feed phase and `finish` (the terminations), over seeded sessions.
//!
//! ```bash
//! cargo run --release --example tour_costs                  # A 4 8 1000 1
//! cargo run --release --example tour_costs -- C 3 30 50 2   # letter processes events/process sessions seed
//! ```
//!
//! Session seeds are drawn the way the repository benchmark draws them
//! ([`session_seed`]), so the default arguments are the sessions of its `stream-heavy` workload at `--seed 1`
//! and the `monitor messages` total is that run's `monitor_msgs_per_event`.  A
//! token visit serves one event and skips what the rest of its run would decide the
//! same way: `history events served` counts the visits, `history events covered`
//! the events they served or skipped (what one visit per event would have cost).  Every
//! number is a count the seed determines; the last line fingerprints the per-session
//! verdict sets, so two builds can be compared session for session.

use dlrv_core::dlrv_monitor::{DecentralizedSession, MonitorOptions};
use dlrv_core::{
    session_seed, simulate_session, CompiledProperty, ExperimentConfig, PaperProperty,
};

const ROWS: [&str; 8] = [
    "monitor messages",
    "tokens sent",
    "history events served",
    "history events covered",
    "tokens parked",
    "tokens failed at termination",
    "backlog events drained",
    "tokens sent after termination",
];

/// The session's counters so far, in [`ROWS`] order, summed over its monitors.
fn work(session: &DecentralizedSession) -> [usize; 8] {
    let mut sum = [0; 8];
    sum[0] = session.monitor_messages();
    for m in session.monitors().iter().map(|m| m.metrics()) {
        let counters = [
            m.tokens_sent,
            m.history_events_served,
            m.history_events_covered,
            m.tokens_parked,
            m.tokens_failed_at_termination,
            m.backlog_events_drained,
            m.tokens_sent_after_termination,
        ];
        for (slot, count) in sum[1..].iter_mut().zip(counters) {
            *slot += count;
        }
    }
    sum
}

fn usage() -> ! {
    eprintln!("usage: tour_costs [A-F [PROCESSES [EVENTS_PER_PROCESS [SESSIONS [SEED]]]]]");
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = |i: usize, default: &'static str| args.get(i).map_or(default, String::as_str);
    let number = |i, default| arg(i, default).parse::<u64>().unwrap_or_else(|_| usage());
    let letter = arg(0, "A");
    let property = PaperProperty::from_name(letter).unwrap_or_else(|| usage());
    let n = number(1, "4") as usize;
    let events_per_process = number(2, "8") as usize;
    let sessions = number(3, "1000");
    let seed = number(4, "1");

    let config = ExperimentConfig {
        events_per_process,
        ..ExperimentConfig::paper_default(property, n)
    };
    let compiled = CompiledProperty::compile(&config.property, n);

    let (mut feed, mut total) = ([0usize; 8], [0usize; 8]);
    let (mut events, mut known_at, mut views, mut peak_views) = (0usize, 0usize, 0usize, 0usize);
    // Sessions by final verdict, in `Verdict`'s own order: false, unknown, true.
    let mut ending = [0usize; 3];
    // FNV-1a over every session's detected and possible verdict sets, in order.
    let mut fingerprint = 0xcbf2_9ce4_8422_2325u64;
    for index in 0..sessions {
        let workload = config.workload_config(session_seed(seed, index));
        let input = simulate_session(&workload, &compiled.registry);
        let mut session = compiled.session(input.initial_state, MonitorOptions::default());
        for event in &input.events {
            known_at += usize::from(session.feed_event(event).is_final());
        }
        events += input.events.len();
        for (slot, count) in feed.iter_mut().zip(work(&session)) {
            *slot += count;
        }
        ending[session.finish() as usize] += 1;
        for (slot, count) in total.iter_mut().zip(work(&session)) {
            *slot += count;
        }
        for m in session.monitors().iter().map(|m| m.metrics()) {
            views += m.global_views_created;
            peak_views += m.max_live_views;
        }
        for set in [session.detected_verdicts(), session.possible_verdicts()] {
            let bits = set.iter().fold(0u64, |bits, v| bits | 1 << v as u64);
            fingerprint = (fingerprint ^ bits).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    println!(
        "property {letter}, {n} processes, {events_per_process} events per process, \
         {sessions} sessions, seed {seed}: {events} program events"
    );
    println!(
        "{:<32}{:>10}{:>10}{:>10}",
        "per program event", "feed", "finish", "total"
    );
    let per_event = |count: usize| count as f64 / events.max(1) as f64;
    for ((name, fed), all) in ROWS.iter().zip(feed).zip(total) {
        println!(
            "{name:<32}{:>10.4}{:>10.4}{:>10.4}",
            per_event(fed),
            per_event(all - fed),
            per_event(all)
        );
    }
    println!("global views created {views}, peak live views {peak_views} (summed over monitors)");
    println!("fed events at which a final verdict was already known: {known_at} of {events}");
    println!(
        "sessions ending false / unknown / true: {} / {} / {}",
        ending[0], ending[1], ending[2]
    );
    println!(
        "fingerprint of every session's detected and possible verdict sets: {fingerprint:016x}"
    );
}
