//! The end-to-end runner: times one workload with tracing off and prints
//! every end-to-end metric. See the benchmark's README for the metrics.

use greednet_perfbench::inputs::DesProfile;
use greednet_perfbench::report::{finish, host_facts};
use greednet_perfbench::{e2e, Args, Workload, E2E_METRICS};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) if !a.trace => a,
        Ok(_) => {
            eprintln!("perfbench times the untraced run; the traced run is perfbench-trace");
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    eprintln!("{}", host_facts());
    eprintln!(
        "workload {} seed {} for {} s (end-to-end, untraced)",
        args.workload.name(),
        args.seed,
        args.seconds
    );
    let m = match args.workload {
        Workload::DesBacklog => e2e::run_des(DesProfile::Backlog, args.seed, args.seconds),
        Workload::DesManyUsers => e2e::run_des(DesProfile::ManyUsers, args.seed, args.seconds),
        Workload::LargenEquilibrium => e2e::run_largen(args.seed, args.seconds),
        Workload::ServeMixed => e2e::run_serve(args.seed, args.seconds),
    };
    for line in &m.report {
        eprintln!("{line}");
    }
    let expected: Vec<(String, &str)> = E2E_METRICS
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    std::process::exit(finish(&m.into_result(), &expected));
}
