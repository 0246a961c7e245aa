// Shared plumbing of the PERF gates (bench_perf_pipeline, bench_ml):
// wall timing, the flat BENCH_*.json reader, the --baseline speedup
// writer and the --check rule.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <ostream>
#include <span>
#include <string>

namespace dnsbs::bench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0);

/// Extracts `"key": <number>` from a JSON text (flat schema, no escapes);
/// 0 when the key is absent.
double json_number(const std::string& text, const std::string& key);

/// Best rate (items per second) over `repeat` timed runs of fn, so
/// scheduler noise shrinks a committed baseline instead of inflating it.
template <typename Fn>
double best_of(int repeat, std::size_t items, Fn&& fn) {
  double best = 0.0;
  for (int r = 0; r < repeat; ++r) {
    const auto t0 = Clock::now();
    fn();
    const double rate = static_cast<double>(items) / seconds_since(t0);
    best = std::max(best, rate);
  }
  return best;
}

/// One throughput axis: a JSON key and the freshly measured rate.
struct Axis {
  const char* key;
  double live;
};

/// --baseline: appends "baseline_<key>"/"speedup_<key>" entries for each
/// axis to an open JSON object stream (caller closes the object).
void append_baseline(std::ostream& os, const std::string& baseline_path,
                     std::span<const Axis> axes);

/// --check: >10% below the committed number on any axis fails the gate
/// (returns 1; 0 when it passes).  Axes missing from the committed file
/// (or <= 0) are skipped, so new axes can be introduced before their
/// baseline is refreshed.
int check_axes(const std::string& check_path, std::span<const Axis> axes);

}  // namespace dnsbs::bench
