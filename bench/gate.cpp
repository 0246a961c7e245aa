#include "gate.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace dnsbs::bench {

namespace {
/// Whole file into `out`; false (and `out` untouched) when it cannot be
/// opened.
bool read_file(const std::string& path, std::string& out) {
  std::ifstream is(path);
  if (!is) return false;
  std::stringstream buffer;
  buffer << is.rdbuf();
  out = buffer.str();
  return true;
}
}  // namespace

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double json_number(const std::string& text, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t pos = text.find(needle);
  if (pos == std::string::npos) return 0.0;
  return std::atof(text.c_str() + pos + needle.size());
}

void append_baseline(std::ostream& os, const std::string& baseline_path,
                     std::span<const Axis> axes) {
  std::string base;
  read_file(baseline_path, base);
  for (const auto& axis : axes) {
    const double before = json_number(base, axis.key);
    os << ",\n  \"baseline_" << axis.key << "\": " << before;
    if (before > 0.0) {
      os << ",\n  \"speedup_" << axis.key << "\": " << axis.live / before;
      std::printf("speedup %-26s %.2fx (%.0f -> %.0f)\n", axis.key, axis.live / before,
                  before, axis.live);
    }
  }
}

int check_axes(const std::string& check_path, std::span<const Axis> axes) {
  std::string committed;
  if (!read_file(check_path, committed)) {
    std::fprintf(stderr, "check: cannot read %s\n", check_path.c_str());
    return 1;
  }
  bool ok = true;
  for (const auto& axis : axes) {
    const double want = json_number(committed, axis.key);
    if (want <= 0.0) continue;
    const double ratio = axis.live / want;
    std::printf("check %-26s %12.0f vs committed %12.0f  (%.2fx)%s\n", axis.key,
                axis.live, want, ratio, ratio < 0.9 ? "  REGRESSION" : "");
    if (ratio < 0.9) ok = false;
  }
  if (!ok) {
    std::fprintf(stderr, "\nperf check FAILED: >10%% regression vs %s\n",
                 check_path.c_str());
    return 1;
  }
  std::printf("\nperf check passed (within 10%% of %s)\n", check_path.c_str());
  return 0;
}

}  // namespace dnsbs::bench
