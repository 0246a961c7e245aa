// The three benchmark workloads and what they share: the simulated world
// the log was generated from, the parsed log, the seeded label sample and
// the output digests the checks compare.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/sensor.hpp"
#include "dns/query_log.hpp"
#include "labeling/ground_truth.hpp"
#include "sim/scenario.hpp"

namespace perfbench {

/// What a workload hands back to main(): the metrics to print and the
/// record accounting of the result line.
struct Outcome {
  Report report;
  std::uint64_t attempted = 0;  ///< records offered to the system
  std::uint64_t failed = 0;     ///< offered records missing from the output
};

Outcome run_replay_cold(const Args& args);
Outcome run_retrain_hourly(const Args& args);
Outcome run_live_udp(const Args& args);
/// Child mode of live_udp: replays the first `reference_records` records of
/// the log through an in-process StreamingWindowDriver configured like the
/// daemon and checks the daemon's windows file against it byte for byte.
int run_live_reference(const Args& args);

/// Per-layer metrics every workload prints in a traced run, zero where the
/// workload does not use the layer.  Filled piecewise, added in a fixed order.
struct LayerMetrics {
  double parse_busy_s = 0, parse_ns_per_line = 0, parse_skipped = 0;
  double decode_ns_per_packet = 0, decode_accepted_frac = 0;
  double udp_received_frac = 0, queue_dropped = 0, queue_depth_peak = 0, wait_ns_p50 = 0;
  double offer_ns_p50 = 0, offer_ns_tail = 0, close_ms_p50 = 0;
  double close_depth_peak = 0, export_depth_peak = 0, window_ms_p50 = 0;
  double ingest_busy_s = 0, ingest_ns_per_record = 0, admitted_frac = 0;
  double features_busy_s = 0, features_us_per_row = 0, reuse_frac = 0;
  double originators = 0, dedup_entries = 0;
  double fit_busy_s = 0, fit_count = 0, split_candidates = 0, classify_ns_per_row = 0;
  double window_ms_tail = 0, late_ms_tail = 0, overhead_frac = 0, sustained_rps = 0;
};

/// Adds every per-layer metric, in the order BENCHMARK.json lists them.
void add_layer_metrics(const LayerMetrics& m, Report& r);

inline double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Builds the world (address plan, AS/geo databases, naming, queriers,
/// ground truth) the log was generated from, without running traffic.
std::unique_ptr<dnsbs::sim::Scenario> make_world(const Args& args);

/// Every workload runs on the first kInputRecords records of the seed's
/// log, so runs with different seeds do the same amount of work.
inline constexpr std::size_t kInputRecords = 300000;

/// The first kInputRecords lines of the log at `path`, as text.
std::string load_input(const std::string& path);

/// Parses a whole log held in memory.
std::vector<dnsbs::dns::QueryRecord> parse_log(const std::string& text);

/// Size of the labeled set, the same for every seed so each seed's forests
/// fit the same number of examples.
inline constexpr std::size_t kLabels = 128;

/// The labeled set: ground truth for kLabels detected originators, drawn
/// by a seeded shuffle from those that have a true class.
dnsbs::labeling::GroundTruth sample_labels(const dnsbs::sim::Scenario& world,
                                           std::span<const dnsbs::core::FeatureVector> rows,
                                           std::uint64_t seed);

/// Digest of feature rows (originator, footprint, every feature's bits).
std::uint64_t digest_rows(std::span<const dnsbs::core::FeatureVector> rows);

/// Wall time of one call of `fn`, in seconds.  Set-up is timed this way
/// several times through a run, so its median spans the same stretch of
/// time as the passes.
template <typename Fn>
double time_seconds(Fn&& fn) {
  const std::int64_t t0 = now_ns();
  fn();
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

}  // namespace perfbench
