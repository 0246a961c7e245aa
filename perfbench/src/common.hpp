// Shared pieces of the dnsbs benchmark: clocks, order statistics, the
// span recorder used by traced runs, result reporting and small helpers
// for reading the process table and the daemon's JSON replies.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Command-line arguments shared by every workload.
struct Args {
  std::string workload;
  std::string log_path;    ///< jp_ditl query log (text, one record per line)
  std::string cli_path;    ///< dnsbs_cli binary (analyze reference, live daemon)
  std::string work_dir;    ///< directory for this run's files
  std::uint64_t seed = 1;  ///< world seed the log was generated with
  double scale = 0.4;      ///< world scale the log was generated with
  double seconds = 10;     ///< measured time budget
  bool trace = false;      ///< per-layer run instead of end-to-end
  // live_reference child mode only:
  std::size_t reference_records = 0;  ///< how many input records the daemon got
  std::string reference_stats;        ///< file holding the daemon's STATS reply
  std::string reference_windows;      ///< the daemon's --windows-out file
};

/// Percentile by nearest rank over a copy of `samples` (q in [0, 1]).
double quantile(std::vector<double> samples, double q);

/// Arithmetic mean (0 for no samples).
double mean(const std::vector<double>& samples);

/// The median of each run of `block` consecutive samples; a short last run
/// joins the one before it.
std::vector<double> stretch_medians(const std::vector<double>& samples, std::size_t block);

/// The stretch medians averaged: the as-measured counterpart of
/// normalized_seconds(), printed beside it.
double mean_of_medians(const std::vector<double>& samples, std::size_t block);

/// Seconds one fixed calibration loop takes: random probes into a 32 MB
/// table, and numbers formatted and parsed back.  It calls no dnsbs code,
/// so a change to the program cannot move it; it slows and speeds up with
/// the machine (timed with twice the iterations beside replay_cold passes
/// on a box whose speed swung 1.6x, its 2.5 s medians correlated 0.91 with
/// the passes').  The
/// table is freed afterwards and this process's peak-RSS mark reset, so
/// peak_rss_mb() does not count it.
double calibrate();

/// The calibration time normalized figures are scaled to: they read as if
/// measured on a box where calibrate() takes this long.
inline constexpr double kReferenceCalibrationS = 0.05;

/// Times at the reference speed: for each stretch of `block` consecutive
/// samples, the median of `seconds` over the median of the calibrations
/// `calibration_s` made beside them (one per sample), averaged over the
/// stretches and scaled by kReferenceCalibrationS.
double normalized_seconds(const std::vector<double>& seconds,
                          const std::vector<double>& calibration_s, std::size_t block);

/// The highest percentile with at least ten samples beyond it: the value
/// at sorted index n-11, reported with its percentile.  With fewer than
/// eleven samples there is no such percentile and the maximum is used.
struct Tail {
  double value = 0;
  double percentile = 100;
  std::size_t samples = 0;
};
Tail tail_of(std::vector<double> samples);

/// 64-bit FNV-1a, the digest every output check uses.
struct Digest {
  std::uint64_t h = 1469598103934665603ULL;
  void bytes(const void* data, std::size_t n);
  template <typename T>
  void value(const T& v) {
    bytes(&v, sizeof(v));
  }
};

/// One recorded span: the benchmark wraps each public call it makes into
/// a layer in one of these.  Spans nest on the benchmark's own thread.
struct Span {
  const char* name;
  std::int64_t start;
  std::int64_t end;
  std::int32_t parent;
};

/// In-memory span recorder.  Disabled recorders hand out inert scopes
/// that read no clock, so untraced runs pay nothing.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::int32_t id_ = -1;
  };

  bool enabled = false;

  Scope span(const char* name) { return Scope(enabled ? this : nullptr, name); }

  /// Self time (duration minus the time its child spans cover), summed
  /// per span name.
  std::map<std::string, double> self_seconds() const;
  /// Summed duration of the spans named `name`.
  double total_seconds(std::string_view name) const;
  /// Writes the spans as Chrome trace_event JSON.
  bool write_chrome(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// Metrics printed in the final result line, in insertion order.
class Report {
 public:
  void add(std::string name, double value, std::string unit);
  /// The last line of stdout the benchmark contract asks for.
  std::string result_line(bool correct, std::uint64_t attempted, std::uint64_t failed) const;
  /// Human-readable table of the same values (printed before the result).
  void print_table(const std::string& title) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Self time measured outside the span tree that belongs to `to` but was
/// spent inside `from`'s spans (a layer the benchmark can only time in a
/// separate pass).
struct Carve {
  const char* from = nullptr;
  const char* to = nullptr;
  double seconds = 0;
};

/// Prints the per-layer self-time table of a traced run and adds each
/// layer's share of the pass (<layer>.self_frac) to the report.  `root`
/// names the span that brackets one pass: its self time is the time no
/// layer covers (trace.unattributed_frac).
void report_layers(const Tracer& tracer, const char* root, Report& report, Carve carve = {});

/// Peak resident set (VmHWM) of `pid` (0 = this process) in MB; 0 when
/// unreadable.
double peak_rss_mb(pid_t pid = 0);
/// CPU time consumed so far by every thread of `pid`, in seconds, from the
/// per-thread scheduler statistics (nanosecond resolution).
double process_cpu_seconds(pid_t pid);

std::string read_file(const std::string& path);
bool write_file(const std::string& path, std::string_view data);

/// Integer following `"key":` (optional space) at or after `from`; -1 when
/// absent.  Enough JSON for the daemon's STATS/HISTORY replies.
std::int64_t json_int(std::string_view json, std::string_view key, std::size_t from = 0);
/// Value of the registry series `name` inside a STATS/metrics JSON blob.
std::int64_t json_metric(std::string_view json, std::string_view name);

/// Throws std::runtime_error with `what` when `ok` is false: every output
/// check goes through here so a wrong output ends the run.
void require(bool ok, const std::string& what);

/// Registry counter value by name (0 when unregistered).
std::uint64_t registry_count(std::string_view name);

/// Runs `argv` to completion with stdout/stderr sent to `output_path`
/// (or /dev/null when empty); returns the exit status (-1 on spawn error).
int run_process(const std::vector<std::string>& argv, const std::string& output_path);
/// Starts `argv` in the background with output to `output_path`.
pid_t spawn_process(const std::vector<std::string>& argv, const std::string& output_path);

}  // namespace perfbench
