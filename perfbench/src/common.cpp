#include "common.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/metrics.hpp"

extern char** environ;

namespace perfbench {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const std::size_t i = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return samples[std::min(i, samples.size() - 1)];
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  double sum = 0;
  for (const double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

std::vector<double> stretch_medians(const std::vector<double>& samples, std::size_t block) {
  block = std::max<std::size_t>(block, 1);
  const std::size_t runs = std::max<std::size_t>(samples.size() / block, 1);
  std::vector<double> medians;
  for (std::size_t r = 0; r < runs; ++r) {
    const auto first =
        samples.begin() + static_cast<std::ptrdiff_t>(std::min(r * block, samples.size()));
    const auto last = r + 1 == runs ? samples.end() : first + static_cast<std::ptrdiff_t>(block);
    medians.push_back(quantile(std::vector<double>(first, last), 0.5));
  }
  return medians;
}

double mean_of_medians(const std::vector<double>& samples, std::size_t block) {
  return mean(stretch_medians(samples, block));
}

namespace {

double vm_hwm_mb(const std::string& status_path) {
  const std::string status = read_file(status_path);
  const auto pos = status.find("VmHWM:");
  if (pos == std::string::npos) return 0;
  return std::strtod(status.c_str() + pos + 6, nullptr) / 1024.0;
}

/// This process's peak RSS before the last calibration reset its mark.
double self_peak_before_reset_mb = 0;

}  // namespace

double calibrate() {
  self_peak_before_reset_mb = std::max(self_peak_before_reset_mb, vm_hwm_mb("/proc/self/status"));
  double seconds = 0;
  {
    std::vector<std::uint64_t> table(std::size_t{1} << 22);  // zeroed, so resident before t0
    std::uint64_t x = 88172645463325252ULL;
    std::uint64_t sink = 0;
    char buf[24];
    const std::int64_t t0 = now_ns();
    for (int k = 0; k < 200000; ++k) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::size_t j = static_cast<std::size_t>(x >> 42);
      for (int probe = 0; probe < 4 && table[j] != 0 && table[j] != x; ++probe) {
        j = (j + 1) & (table.size() - 1);
      }
      table[j] = x;
      const int len = std::snprintf(buf, sizeof(buf), "%llu",
                                    static_cast<unsigned long long>(x % 1000003));
      sink += j + std::strtoull(buf, nullptr, 10) + static_cast<std::uint64_t>(len);
    }
    seconds = static_cast<double>(now_ns() - t0) * 1e-9;
    static volatile std::uint64_t keep;
    keep = sink;
  }
  // "5" resets the peak-RSS mark to the current RSS, which no longer holds
  // the table.
  const bool reset = write_file("/proc/self/clear_refs", "5");
  require(reset, "cannot reset the peak-RSS mark (/proc/self/clear_refs)");
  return seconds;
}

double normalized_seconds(const std::vector<double>& seconds,
                          const std::vector<double>& calibration_s, std::size_t block) {
  require(seconds.size() == calibration_s.size(), "one calibration per timed sample");
  const std::vector<double> s = stretch_medians(seconds, block);
  const std::vector<double> c = stretch_medians(calibration_s, block);
  std::vector<double> ratios;
  for (std::size_t i = 0; i < s.size(); ++i) ratios.push_back(s[i] / c[i]);
  return mean(ratios) * kReferenceCalibrationS;
}

Tail tail_of(std::vector<double> samples) {
  Tail t;
  t.samples = samples.size();
  if (samples.empty()) return t;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  if (n < 11) {
    t.value = samples.back();
    return t;
  }
  t.value = samples[n - 11];
  t.percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return t;
}

void Digest::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
}

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (!tracer_) return;
  const std::int32_t parent = tracer_->stack_.empty() ? -1 : tracer_->stack_.back();
  id_ = static_cast<std::int32_t>(tracer_->spans_.size());
  tracer_->spans_.push_back(Span{name, now_ns(), 0, parent});
  tracer_->stack_.push_back(id_);
}

Tracer::Scope::~Scope() {
  if (!tracer_) return;
  tracer_->spans_[static_cast<std::size_t>(id_)].end = now_ns();
  tracer_->stack_.pop_back();
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].end - spans_[i].start;
  // Children nest inside their parent, so the covered part of a parent is
  // the sum of its children's durations.
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] += static_cast<double>(self[i]) * 1e-9;
  }
  return out;
}

double Tracer::total_seconds(std::string_view name) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (name == s.name) ns += s.end - s.start;
  }
  return static_cast<double>(ns) * 1e-9;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  const std::int64_t base = spans_.empty() ? 0 : spans_.front().start;
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}%s\n",
                  s.name, static_cast<double>(s.start - base) / 1e3,
                  static_cast<double>(s.end - s.start) / 1e3, i, s.parent,
                  i + 1 < spans_.size() ? "," : "");
    out << line;
  }
  out << "],\"displayTimeUnit\":\"ms\"}\n";
  return static_cast<bool>(out);
}

void Report::add(std::string name, double value, std::string unit) {
  entries_.push_back(Entry{std::move(name), value, std::move(unit)});
}

std::string Report::result_line(bool correct, std::uint64_t attempted,
                                std::uint64_t failed) const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(e.value) ? e.value : 0.0);
    out << (i ? ", " : "") << "\"" << e.name << "\": {\"value\": " << value
        << ", \"unit\": \"" << e.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

void Report::print_table(const std::string& title) const {
  std::printf("%s\n", title.c_str());
  for (const Entry& e : entries_) {
    std::printf("  %-34s %16.6g %s\n", e.name.c_str(), e.value, e.unit.c_str());
  }
}

void report_layers(const Tracer& tracer, const char* root, Report& report, Carve carve) {
  const auto self = tracer.self_seconds();
  const double pass = tracer.total_seconds(root);
  std::map<std::string, double> layers;
  for (const auto& [name, secs] : self) {
    const std::string n(name);
    layers[n == root ? std::string("unattributed") : n.substr(0, n.find('.'))] += secs;
  }
  if (carve.from) {
    const double moved = std::min(carve.seconds, layers[carve.from]);
    layers[carve.from] -= moved;
    layers[carve.to] += moved;
  }
  std::printf("per-layer self time over %.3f s of '%s' spans\n", pass, root);
  std::printf("  %-24s %12s %8s\n", "span", "self_s", "share");
  for (const auto& [name, secs] : self) {
    std::printf("  %-24s %12.6f %7.2f%%\n", name.c_str(), secs,
                pass > 0 ? 100.0 * secs / pass : 0.0);
  }
  std::printf("  %-24s %12s %8s\n", "layer", "self_s", "share");
  for (const auto& [name, secs] : layers) {
    std::printf("  %-24s %12.6f %7.2f%%\n", name.c_str(), secs,
                pass > 0 ? 100.0 * secs / pass : 0.0);
  }
  for (const char* layer : {"dns", "serve", "analysis", "core", "ml"}) {
    const auto it = layers.find(layer);
    const double secs = it == layers.end() ? 0.0 : it->second;
    report.add(std::string(layer) + ".self_frac", pass > 0 ? secs / pass : 0.0, "ratio");
  }
  const auto un = layers.find("unattributed");
  report.add("trace.unattributed_frac",
             pass > 0 && un != layers.end() ? un->second / pass : 0.0, "ratio");
}

double peak_rss_mb(pid_t pid) {
  if (pid == 0) return std::max(self_peak_before_reset_mb, vm_hwm_mb("/proc/self/status"));
  return vm_hwm_mb("/proc/" + std::to_string(pid) + "/status");
}

double process_cpu_seconds(pid_t pid) {
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  double total = 0;
  if (DIR* d = ::opendir(dir.c_str())) {
    while (const dirent* e = ::readdir(d)) {
      if (e->d_name[0] == '.') continue;
      const std::string stat = read_file(dir + "/" + e->d_name + "/schedstat");
      total += std::strtod(stat.c_str(), nullptr) * 1e-9;
    }
    ::closedir(d);
  }
  return total;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

bool write_file(const std::string& path, std::string_view data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  out.flush();
  return static_cast<bool>(out);
}

std::int64_t json_int(std::string_view json, std::string_view key, std::size_t from) {
  std::string needle = "\"";
  needle.append(key).append("\":");
  const auto pos = json.find(needle, from);
  if (pos == std::string_view::npos) return -1;
  std::size_t i = pos + needle.size();
  while (i < json.size() && json[i] == ' ') ++i;
  return std::strtoll(std::string(json.substr(i, 24)).c_str(), nullptr, 10);
}

std::int64_t json_metric(std::string_view json, std::string_view name) {
  const std::string needle = "\"name\": \"" + std::string(name) + "\"";
  const auto pos = json.find(needle);
  if (pos == std::string_view::npos) return -1;
  return json_int(json, "value", pos);
}

void require(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error("output check failed: " + what);
}

std::uint64_t registry_count(std::string_view name) {
  const auto snap = dnsbs::util::metrics_snapshot();
  const auto* v = snap.find(name);
  return v ? v->count : 0;
}

int run_process(const std::vector<std::string>& argv, const std::string& output_path) {
  const pid_t pid = spawn_process(argv, output_path);
  if (pid <= 0) return -1;
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

pid_t spawn_process(const std::vector<std::string>& argv, const std::string& output_path) {
  std::vector<char*> cargv;
  for (const auto& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  const std::string out = output_path.empty() ? "/dev/null" : output_path;
  posix_spawn_file_actions_addopen(&actions, 1, out.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, 1, 2);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, cargv[0], &actions, nullptr, cargv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  return rc == 0 ? pid : -1;
}

}  // namespace perfbench
