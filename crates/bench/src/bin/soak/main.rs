//! `soak <scenario> [--rounds R]`: the long-running checks of the
//! served stack, one scenario per module (`serve`, `chaos`, `store`,
//! `query`, `router`; each module's doc says what it checks). Each run
//! streams deterministic `(session, round)` inputs at a live loopback
//! server or router, and exits non-zero on any violation, printing with
//! every failure the command that replays its inputs.

mod chaos;
mod query;
mod router;
mod serve;
mod store;

use emprof_bench::soak::{parse_args, usage, Scenario, Soak};

const SCENARIOS: &[Scenario] = &[
    Scenario::new("serve", serve::ROUNDS, serve::run),
    Scenario::new("chaos", chaos::ROUNDS, chaos::run),
    Scenario::new("store", store::ROUNDS, store::run),
    Scenario::new("query", query::ROUNDS, query::run),
    Scenario::new("router", router::ROUNDS, router::run),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (scenario, rounds) = parse_args(&args, SCENARIOS).unwrap_or_else(|e| {
        eprint!("soak: {e}\n\n{}", usage(SCENARIOS));
        std::process::exit(2)
    });
    let soak = Soak::new(scenario.name, rounds);
    // A panic outside a session round still ends in the report, after
    // the scenario's temp dirs and servers have been dropped.
    let pass = soak.guard(scenario.name, || (scenario.run)(&soak));
    std::process::exit(soak.report(pass.unwrap_or_default()));
}
