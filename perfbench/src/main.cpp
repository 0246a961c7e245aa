// dnsbs_perfbench — runs one benchmark workload and prints its metrics.
//
//   dnsbs_perfbench --workload replay_cold|retrain_hourly|live_udp
//                   --log FILE --cli DNSBS_CLI --work-dir DIR
//                   --seed N --scale S --seconds T --trace 0|1
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// The last line of stdout is one JSON object: correct, attempted, failed
// and metrics.  A failed output check prints the reason to stderr and
// exits 1 without a result.  perfbench/run.py builds this binary, makes the
// log from the seed and calls it.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "util/log.hpp"
#include "workloads.hpp"

namespace {

bool parse_args(int argc, char** argv, perfbench::Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") a.workload = value;
    else if (flag == "--log") a.log_path = value;
    else if (flag == "--cli") a.cli_path = value;
    else if (flag == "--work-dir") a.work_dir = value;
    else if (flag == "--seed") a.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--scale") a.scale = std::strtod(value.c_str(), nullptr);
    else if (flag == "--seconds") a.seconds = std::strtod(value.c_str(), nullptr);
    else if (flag == "--trace") a.trace = value == "1";
    else if (flag == "--reference-records") a.reference_records = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--reference-stats") a.reference_stats = value;
    else if (flag == "--reference-windows") a.reference_windows = value;
    else return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && !a.log_path.empty() && a.scale > 0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr, "usage: dnsbs_perfbench --workload W --log FILE --cli DNSBS_CLI "
                         "--work-dir DIR --seed N --scale S --seconds T --trace 0|1\n");
    return 2;
  }
  // Per-window pipeline log lines would interleave with the report.
  dnsbs::util::set_log_level(dnsbs::util::LogLevel::kWarn);
  try {
    if (args.workload == "live_reference") return perfbench::run_live_reference(args);
    perfbench::Outcome outcome;
    if (args.workload == "replay_cold") outcome = perfbench::run_replay_cold(args);
    else if (args.workload == "retrain_hourly") outcome = perfbench::run_retrain_hourly(args);
    else if (args.workload == "live_udp") outcome = perfbench::run_live_udp(args);
    else {
      std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
      return 2;
    }
    outcome.report.print_table(args.workload + (args.trace ? " (per-layer)" : " (end-to-end)"));
    std::printf("%s\n", outcome.report.result_line(true, outcome.attempted, outcome.failed).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "%s: %s\n", args.workload.c_str(), e.what());
    return 1;
  }
}
