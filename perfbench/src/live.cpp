// live_udp: the daemon path end to end.
//
// Each step spawns `dnsbs_cli serve --stamped --window 600` as its own
// process and replays a prefix of the log to it as stamped PTR datagrams
// from one thread and one UDP socket, on an open-loop schedule at a fixed
// rate: record i is due at t0 + i/rate whatever the daemon does, and a
// window's latency runs from the due time of its last record to the moment
// its block appears in the daemon's --windows-out file.  After the step the
// benchmark FLUSHes, reads STATS and HISTORY, checks the windows file
// against an in-process StreamingWindowDriver fed the same records
// (live_reference child mode) and shuts the daemon down.
//
// A traced run adds an in-process replica of the daemon's drive path —
// record_from_packet -> BoundedQueue -> StreamingWindowDriver::offer —
// whose spans give the layer split, plus a per-record Sensor::ingest pass
// for the core share inside offer.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <set>

#include "analysis/streaming.hpp"
#include "dns/capture.hpp"
#include "net/socket.hpp"
#include "serve/daemon.hpp"
#include "serve/intake.hpp"
#include "util/jobs.hpp"
#include "util/metrics.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace dnsbs;

namespace {

constexpr std::int64_t kWindowSecs = 600;
/// Drains of the whole input over TCP per run; records_per_s is their median.
constexpr int kDrains = 8;
/// Fixed offered rates (records/s), one daemon per rate.  The top rate
/// stays below what this daemon absorbs on one core, so no step loses
/// records; sustained_rps reports the highest step that also met the
/// latency limit.  The lower steps each get kLowStepShare of the run; the
/// top step sends the whole input and gives the end-to-end numbers.
constexpr double kRates[] = {5000, 10000, 20000};
constexpr double kLowStepShare = 0.1;
/// Extra daemons per step that are only started and shut down, so setup_s
/// is a median over more spawns.
constexpr int kSetupOnlySpawns = 2;
constexpr double kLatencyLimitMs = 250;
/// The sender sleeps until a datagram is due and spins only the last
/// stretch, so it leaves the CPU to the daemon between sends.
constexpr std::int64_t kSpinNs = 20'000;
constexpr std::int64_t kPollNs = 250'000;
constexpr std::size_t kStampHeader = 12;

/// All datagrams of the log, built once before any timing: the daemon's
/// --stamped framing ([8B LE secs][4B LE querier][PTR query]).
struct Frames {
  std::vector<std::uint8_t> bytes;
  std::vector<std::size_t> offsets;  ///< frame i is [offsets[i], offsets[i+1])

  explicit Frames(std::span<const dns::QueryRecord> records) {
    offsets.push_back(0);
    for (std::size_t i = 0; i < records.size(); ++i) {
      const auto& r = records[i];
      const auto secs = static_cast<std::uint64_t>(r.time.secs());
      for (int b = 0; b < 8; ++b) bytes.push_back(static_cast<std::uint8_t>(secs >> (8 * b)));
      const std::uint32_t q = r.querier.value();
      for (int b = 0; b < 4; ++b) bytes.push_back(static_cast<std::uint8_t>(q >> (8 * b)));
      const auto packet =
          dns::make_ptr_query_packet(static_cast<std::uint16_t>(i & 0xffff), r.originator);
      bytes.insert(bytes.end(), packet.begin(), packet.end());
      offsets.push_back(bytes.size());
    }
  }
  std::size_t size() const noexcept { return offsets.size() - 1; }
  std::span<const std::uint8_t> operator[](std::size_t i) const {
    return {bytes.data() + offsets[i], offsets[i + 1] - offsets[i]};
  }
};

std::uint64_t read_le(const std::uint8_t* p, int n) {
  std::uint64_t v = 0;
  for (int i = 0; i < n; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

/// The daemon's drive-thread handling of one datagram (process_packet):
/// count it, strip the stamp, decode.
std::optional<dns::QueryRecord> decode_frame(std::span<const std::uint8_t> frame,
                                             dns::CaptureStats& stats) {
  static util::MetricCounter& packets = util::metrics_counter("dnsbs.serve.packets");
  packets.inc();
  if (frame.size() < kStampHeader) return std::nullopt;
  const auto time = util::SimTime::seconds(static_cast<std::int64_t>(read_le(frame.data(), 8)));
  const net::IPv4Addr querier(static_cast<std::uint32_t>(read_le(frame.data() + 8, 4)));
  return dns::record_from_packet(frame.subspan(kStampHeader), time, querier, stats);
}

/// The daemon's streaming configuration as `dnsbs_cli serve --stamped
/// --window 600` sets it, with the pipeline on a job system like the
/// daemon's (two workers, close/train/export queues).
struct ServeReplica {
  std::shared_ptr<util::JobSystem> jobs;
  std::unique_ptr<analysis::WindowedPipeline> pipeline;
  std::unique_ptr<analysis::StreamingWindowDriver> driver;

  ServeReplica(const sim::Scenario& world, std::uint64_t seed) {
    jobs = std::make_shared<util::JobSystem>(
        util::JobSystemConfig{.threads = 2, .metric_prefix = "dnsbs.serve.jobs"});
    analysis::WindowedPipelineConfig pc;
    pc.seed = seed;
    pc.history_limit = 64;
    pc.jobs = jobs;
    jobs->queue("export");
    pipeline = std::make_unique<analysis::WindowedPipeline>(pc, world.plan().as_db(),
                                                            world.plan().geo_db(), world.naming());
    analysis::StreamingConfig sc;
    sc.window = util::SimTime::seconds(kWindowSecs);
    sc.async_windows = true;
    driver = std::make_unique<analysis::StreamingWindowDriver>(
        sc, *pipeline, world.plan().as_db(), world.plan().geo_db(), world.naming());
  }
};

/// A spawned daemon; the destructor makes sure it has exited.
class DaemonProcess {
 public:
  DaemonProcess(const Args& args, const std::string& tag, bool tcp = false) {
    const std::string ready = args.work_dir + "/ready_" + tag;
    windows_path = args.work_dir + "/windows_" + tag + ".txt";
    ::unlink(ready.c_str());
    ::unlink(windows_path.c_str());
    const std::int64_t t0 = now_ns();
    std::vector<std::string> argv = {
        args.cli_path, "serve", "--stamped", "--window", std::to_string(kWindowSecs),
        "--scenario", "jp", "--scale", std::to_string(args.scale), "--seed",
        std::to_string(args.seed), "--windows-out", windows_path, "--ready-file", ready};
    if (tcp) argv.push_back("--tcp");
    pid_ = spawn_process(argv, args.work_dir + "/daemon_" + tag + ".log");
    require(pid_ > 0, "cannot spawn " + args.cli_path);
    // Ready once the ready file holds the bound ports.
    while (true) {
      const std::string text = read_file(ready);
      if (text.find('\n') != std::string::npos) {
        std::sscanf(text.c_str(), "udp=%hu tcp=%hu status=%hu", &udp_port, &tcp_port,
                    &status_port);
        break;
      }
      int status = 0;
      require(::waitpid(pid_, &status, WNOHANG) == 0, "daemon exited before it was ready");
      require(now_ns() - t0 < 120'000'000'000LL, "daemon not ready after 120 s");
      ::usleep(200);
    }
    setup_s = static_cast<double>(now_ns() - t0) * 1e-9;
    require(udp_port != 0 && status_port != 0 && (!tcp || tcp_port != 0), "unreadable ready file");
  }

  ~DaemonProcess() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  /// One control-socket command and its one-line reply.
  std::string control(const std::string& command) const {
    auto stream = net::TcpStream::connect("127.0.0.1", status_port);
    require(stream.has_value(), "cannot reach the daemon's status port");
    const std::string line = command + "\n";
    require(stream->write_all(line.data(), line.size()), "control write failed");
    auto reply = stream->read_line(60000, std::size_t{1} << 24);
    require(reply.has_value(), "no reply to " + command);
    return *reply;
  }

  /// SHUTDOWN and wait for the process to exit cleanly.
  void shutdown() {
    require(control("SHUTDOWN").rfind("OK", 0) == 0, "SHUTDOWN refused");
    int status = 0;
    require(::waitpid(pid_, &status, 0) == pid_ && WIFEXITED(status) &&
                WEXITSTATUS(status) == 0,
            "daemon did not exit cleanly");
    pid_ = -1;
  }

  pid_t pid() const noexcept { return pid_; }

  std::string windows_path;
  std::uint16_t udp_port = 0;
  std::uint16_t tcp_port = 0;
  std::uint16_t status_port = 0;
  double setup_s = 0;

 private:
  pid_t pid_ = -1;
};

/// Follows the daemon's --windows-out file and notes when each block's
/// closing "end" line first becomes visible.
class WindowsWatcher {
 public:
  explicit WindowsWatcher(std::string path) : path_(std::move(path)) {}
  ~WindowsWatcher() {
    if (fd_ >= 0) ::close(fd_);
  }
  WindowsWatcher(const WindowsWatcher&) = delete;
  WindowsWatcher& operator=(const WindowsWatcher&) = delete;

  struct Block {
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::int64_t seen_ns = 0;
  };

  void poll(std::int64_t now) {
    if (fd_ < 0) fd_ = ::open(path_.c_str(), O_RDONLY);
    if (fd_ < 0) return;
    char chunk[65536];
    ssize_t n = 0;
    while ((n = ::read(fd_, chunk, sizeof(chunk))) > 0) pending_.append(chunk, static_cast<std::size_t>(n));
    std::size_t line_start = 0;
    for (std::size_t nl; (nl = pending_.find('\n', line_start)) != std::string::npos;
         line_start = nl + 1) {
      const std::string_view line(pending_.data() + line_start, nl - line_start);
      long long s = 0, e = 0;
      if (line.rfind("window ", 0) == 0 &&
          std::sscanf(std::string(line).c_str(), "window %*u start=%lld end=%lld", &s, &e) == 2) {
        current_ = Block{s, e, 0};
      } else if (line == "end") {
        current_.seen_ns = now;
        blocks.push_back(current_);
      }
    }
    pending_.erase(0, line_start);
  }

  std::vector<Block> blocks;

 private:
  std::string path_;
  int fd_ = -1;
  std::string pending_;
  Block current_;
};

void sleep_until_ns(std::int64_t t) {
  const timespec ts{static_cast<time_t>(t / 1'000'000'000), static_cast<long>(t % 1'000'000'000)};
  ::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr);
}

struct Step {
  double rate = 0;
  std::size_t sent = 0;
  std::int64_t packets = 0;
  std::int64_t accepted = 0;
  std::int64_t udp_datagrams = 0;
  std::int64_t queue_dropped = 0;
  std::int64_t dedup_admitted = 0;
  std::int64_t queue_depth_peak = 0;
  std::int64_t close_depth_peak = 0;
  std::int64_t export_depth_peak = 0;
  std::vector<double> setup_s;
  double cpu_s = 0;
  double rss_mb = 0;
  bool drained = false;
  std::vector<double> window_ms;
  std::vector<double> late_ms;
};

std::string self_exe() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  require(n > 0, "cannot locate the benchmark binary");
  return std::string(buf, static_cast<std::size_t>(n));
}

/// Runs the live_reference child over the first `n` records and fails the
/// run unless the daemon's windows file matches it byte for byte.
void check_windows(const Args& args, const std::string& tag, const std::string& stats,
                   const std::string& windows_path, std::size_t n) {
  const std::string stats_path = args.work_dir + "/stats_" + tag + ".json";
  require(write_file(stats_path, stats), "cannot write " + stats_path);
  const std::string log = args.work_dir + "/reference_" + tag + ".log";
  const int rc = run_process({self_exe(), "--workload", "live_reference", "--log", args.log_path,
                              "--seed", std::to_string(args.seed), "--scale",
                              std::to_string(args.scale), "--work-dir", args.work_dir,
                              "--reference-records", std::to_string(n), "--reference-stats",
                              stats_path, "--reference-windows", windows_path},
                             log);
  require(rc == 0, "daemon windows file differs from the in-process driver (see " + log + ")");
}

Step run_step(const Args& args, const std::vector<dns::QueryRecord>& records,
              const Frames& frames, double rate, std::size_t n, int index) {
  Step st;
  st.rate = rate;
  st.sent = n;
  const std::string tag = std::to_string(index);
  for (int k = 0; k < kSetupOnlySpawns; ++k) {
    DaemonProcess idle(args, tag + "_setup" + std::to_string(k));
    st.setup_s.push_back(idle.setup_s);
    idle.shutdown();
  }
  DaemonProcess daemon(args, tag);
  st.setup_s.push_back(daemon.setup_s);
  WindowsWatcher watcher(daemon.windows_path);

  net::UdpSocket sock;
  // Wake from sleeps on time rather than up to 50 us late.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const double cpu0 = process_cpu_seconds(daemon.pid());
  const double interval_ns = 1e9 / rate;
  const std::int64_t t0 = now_ns() + 2'000'000;
  std::int64_t last_poll = 0;
  st.late_ms.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t due = t0 + static_cast<std::int64_t>(static_cast<double>(i) * interval_ns);
    // The windows file is polled every kPollNs, also while the sender runs
    // behind its schedule, so an emission is never seen late.
    std::int64_t now = now_ns();
    while (true) {
      if (now - last_poll >= kPollNs) {
        watcher.poll(now);
        last_poll = now;
        now = now_ns();
      }
      if (now >= due) break;
      if (due - now > kSpinNs) sleep_until_ns(std::min(due, last_poll + kPollNs));
      now = now_ns();
    }
    st.late_ms.push_back(static_cast<double>(now - due) * 1e-6);
    const auto frame = frames[i];
    require(sock.send_to("127.0.0.1", daemon.udp_port, frame.data(), frame.size()),
            "send failed: " + sock.last_error());
  }

  // Windows that stream time has closed: every grid window ending at or
  // before the last record sent.  Wait (bounded) for the last of them.
  const std::int64_t last_time = records[n - 1].time.secs();
  const std::int64_t natural_end = last_time / kWindowSecs * kWindowSecs;
  const std::int64_t deadline = now_ns() + 20'000'000'000LL;
  while (now_ns() < deadline) {
    watcher.poll(now_ns());
    if (!watcher.blocks.empty() && watcher.blocks.back().end >= natural_end) break;
    ::usleep(250);
  }
  st.drained = !watcher.blocks.empty() && watcher.blocks.back().end >= natural_end;
  st.cpu_s = process_cpu_seconds(daemon.pid()) - cpu0;

  for (const auto& b : watcher.blocks) {
    // Index of the last record of [start, end): records are time-ordered.
    const auto it = std::lower_bound(records.begin(), records.begin() + static_cast<std::ptrdiff_t>(n),
                                     b.end, [](const dns::QueryRecord& r, std::int64_t end) {
                                       return r.time.secs() < end;
                                     });
    if (it == records.begin() || (it - 1)->time.secs() < b.start) continue;
    const auto last = static_cast<std::size_t>(it - records.begin()) - 1;
    const std::int64_t due = t0 + static_cast<std::int64_t>(static_cast<double>(last) * interval_ns);
    st.window_ms.push_back(static_cast<double>(b.seen_ns - due) * 1e-6);
  }

  require(daemon.control("FLUSH").rfind("OK", 0) == 0, "FLUSH refused");
  const std::string stats = daemon.control("STATS");
  const std::string history = daemon.control("HISTORY");
  st.rss_mb = peak_rss_mb(daemon.pid());
  daemon.shutdown();

  st.packets = json_int(stats, "packets");
  st.accepted = json_int(stats, "accepted");
  st.udp_datagrams = json_metric(stats, "dnsbs.serve.udp_datagrams");
  st.queue_dropped = json_metric(stats, "dnsbs.serve.queue_dropped");
  st.dedup_admitted = json_metric(stats, "dnsbs.dedup.admitted");
  for (std::size_t pos = 0; (pos = history.find("\"queue_depth_peak\":", pos)) != std::string::npos; ++pos) {
    st.queue_depth_peak = std::max(st.queue_depth_peak, json_int(history, "queue_depth_peak", pos));
  }
  const auto depth_peak = [&stats](const std::string& queue) -> std::int64_t {
    const auto pos = stats.find("{\"queue\":\"" + queue + "\"");
    return pos == std::string::npos ? 0 : json_int(stats, "depth_peak", pos);
  };
  st.close_depth_peak = depth_peak("close");
  st.export_depth_peak = depth_peak("export");
  require(st.packets >= 0 && st.accepted >= 0, "unreadable STATS reply");

  // Lossless steps must reproduce the in-process driver byte for byte.
  if (static_cast<std::size_t>(st.accepted) == n) check_windows(args, tag, stats, daemon.windows_path, n);
  return st;
}

/// One drain: a fresh daemon gets the whole input over its lossless TCP
/// intake as fast as the connection takes it, then FLUSH.  Records over the time from connect to the FLUSH reply is
/// the rate the live path drains a backlog at.
struct Drain {
  double records_per_s = 0;
  double setup_s = 0;
  std::string windows;
};

/// The input as one TCP byte stream: each frame behind a u16 big-endian
/// length, as `dnsbs_cli sendlog --tcp` sends it.
std::vector<std::uint8_t> tcp_stream(const Frames& frames) {
  std::vector<std::uint8_t> wire;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const auto f = frames[i];
    wire.push_back(static_cast<std::uint8_t>(f.size() >> 8));
    wire.push_back(static_cast<std::uint8_t>(f.size() & 0xff));
    wire.insert(wire.end(), f.begin(), f.end());
  }
  return wire;
}

Drain run_drain(const Args& args, const std::vector<std::uint8_t>& wire, std::size_t n,
                int index) {
  const std::string tag = "tcp" + std::to_string(index);
  DaemonProcess daemon(args, tag, /*tcp=*/true);
  Drain d;
  d.setup_s = daemon.setup_s;
  const std::int64_t t0 = now_ns();
  {
    auto stream = net::TcpStream::connect("127.0.0.1", daemon.tcp_port);
    require(stream.has_value(), "cannot reach the daemon's TCP intake");
    require(stream->write_all(wire.data(), wire.size()), "TCP intake write failed");
  }
  require(daemon.control("FLUSH").rfind("OK", 0) == 0, "FLUSH refused");
  d.records_per_s = static_cast<double>(n) / (static_cast<double>(now_ns() - t0) * 1e-9);
  const std::string stats = daemon.control("STATS");
  daemon.shutdown();
  require(json_int(stats, "accepted") == static_cast<std::int64_t>(n),
          "TCP intake lost records");
  d.windows = read_file(daemon.windows_path);
  if (index == 0) check_windows(args, tag, stats, daemon.windows_path, n);
  return d;
}

/// In-process replica of the daemon's drive path, staged per 256-packet
/// batch like the daemon's pop_batch: push into a BoundedQueue, pop,
/// decode, offer.  Traced, it records one span per stage per batch and
/// times each push-to-pop wait and each offer call.
struct ReplicaResult {
  double seconds = 0;
  std::vector<double> wait_ns;
  std::vector<double> offer_ns;
  std::vector<double> close_ms;
  double decode_s = 0;
  std::uint64_t packets = 0;
  std::uint64_t accepted = 0;
};

ReplicaResult run_replica(const Frames& frames, std::size_t n, const sim::Scenario& world,
                          std::uint64_t seed, Tracer& tracer) {
  struct Packet {
    std::vector<std::uint8_t> bytes;
    std::int64_t pushed_ns = 0;
  };
  ReplicaResult out;
  // Declared before the replica: its close callback writes them.
  std::mutex close_mutex;
  std::vector<std::int64_t> close_done;
  ServeReplica replica(world, seed);
  replica.driver->set_window_close_callback(
      [&](const analysis::WindowResult&, const labeling::WindowObservation&) {
        std::lock_guard<std::mutex> lock(close_mutex);
        close_done.push_back(now_ns());
      });
  std::vector<std::int64_t> close_enqueued;
  serve::BoundedQueue<Packet> queue(65536);
  dns::CaptureStats stats;
  std::vector<Packet> batch;
  const bool timed = tracer.enabled;
  const std::int64_t t0 = now_ns();
  {
    auto pass = tracer.span("bench.pass");
    for (std::size_t i = 0; i < n; i += 256) {
      const std::size_t end = std::min(n, i + 256);
      {
        auto s = tracer.span("serve.intake.push");
        for (std::size_t k = i; k < end; ++k) {
          const auto f = frames[k];
          Packet p{std::vector<std::uint8_t>(f.begin(), f.end()), timed ? now_ns() : 0};
          queue.try_push(std::move(p));
        }
      }
      batch.clear();
      {
        auto s = tracer.span("serve.intake.pop");
        queue.pop_batch(batch, 256, 50);
      }
      if (timed) {
        const std::int64_t popped = now_ns();
        for (const Packet& p : batch) out.wait_ns.push_back(static_cast<double>(popped - p.pushed_ns));
      }
      std::vector<dns::QueryRecord> decoded;
      {
        auto s = tracer.span("dns.decode");
        for (const Packet& p : batch) {
          if (auto r = decode_frame(p.bytes, stats)) decoded.push_back(*r);
        }
      }
      {
        auto s = tracer.span("analysis.offer");
        for (const auto& r : decoded) {
          const std::uint64_t closed = replica.driver->windows_closed();
          const std::int64_t a = timed ? now_ns() : 0;
          replica.driver->offer(r);
          if (timed) {
            const std::int64_t b = now_ns();
            out.offer_ns.push_back(static_cast<double>(b - a));
            if (replica.driver->windows_closed() != closed) close_enqueued.push_back(b);
          }
        }
      }
    }
    auto s = tracer.span("analysis.flush");
    replica.driver->flush();
  }
  out.seconds = static_cast<double>(now_ns() - t0) * 1e-9;
  out.decode_s = tracer.total_seconds("dns.decode");
  out.packets = stats.packets;
  out.accepted = stats.accepted;
  std::lock_guard<std::mutex> lock(close_mutex);
  for (std::size_t w = 0; w < close_enqueued.size() && w < close_done.size(); ++w) {
    out.close_ms.push_back(static_cast<double>(close_done[w] - close_enqueued[w]) * 1e-6);
  }
  return out;
}

}  // namespace

Outcome run_live_udp(const Args& args) {
  Outcome out;
  const std::vector<dns::QueryRecord> records = parse_log(load_input(args.log_path));
  require(records.size() == kInputRecords, "unparsable records in " + args.log_path);
  require(std::is_sorted(records.begin(), records.end(),
                         [](const auto& a, const auto& b) { return a.time < b.time; }),
          "log is not time-ordered");
  const Frames frames(records);

  std::vector<Step> steps;
  for (std::size_t i = 0; i < std::size(kRates); ++i) {
    const bool top = i + 1 == std::size(kRates);
    const auto low = static_cast<std::size_t>(kRates[i] * args.seconds * kLowStepShare);
    steps.push_back(run_step(args, records, frames, kRates[i],
                             top ? records.size() : std::min(records.size(), low),
                             static_cast<int>(i)));
  }
  const std::vector<std::uint8_t> wire = tcp_stream(frames);
  std::vector<Drain> drains;
  for (int i = 0; i < kDrains; ++i) {
    drains.push_back(run_drain(args, wire, frames.size(), i));
    require(drains.back().windows == drains.front().windows,
            "TCP drains produced different windows files");
  }

  std::vector<double> setup, late_ms;
  double rss = 0, sustained = 0;
  std::int64_t accepted = 0, udp = 0, dropped = 0, packets = 0, admitted = 0, depth = 0,
               close_peak = 0, export_peak = 0;
  std::printf("live_udp: %zu records; open loop, one sender thread, one UDP socket; "
              "latency limit %.0f ms\n", records.size(), kLatencyLimitMs);
  std::printf("  %10s %9s %9s %8s %10s %10s %10s %12s %8s\n", "rate/s", "sent", "accepted",
              "windows", "p50_ms", "tail_ms", "late_tail", "records/cpu_s", "drained");
  for (const Step& st : steps) {
    setup.insert(setup.end(), st.setup_s.begin(), st.setup_s.end());
    late_ms.insert(late_ms.end(), st.late_ms.begin(), st.late_ms.end());
    rss = std::max(rss, st.rss_mb);
    out.attempted += st.sent;
    out.failed += st.sent - static_cast<std::size_t>(std::max<std::int64_t>(0, st.accepted));
    accepted += st.accepted;
    packets += st.packets;
    udp += st.udp_datagrams;
    dropped += st.queue_dropped;
    admitted += st.dedup_admitted;
    depth = std::max(depth, st.queue_depth_peak);
    close_peak = std::max(close_peak, st.close_depth_peak);
    export_peak = std::max(export_peak, st.export_depth_peak);
    const Tail tail = tail_of(st.window_ms);
    std::printf("  %10.0f %9zu %9lld %8zu %10.3f %10.3f %10.3f %12.0f %8s\n", st.rate, st.sent,
                static_cast<long long>(st.accepted), st.window_ms.size(),
                quantile(st.window_ms, 0.5), tail.value, tail_of(st.late_ms).value,
                static_cast<double>(st.accepted) / st.cpu_s, st.drained ? "yes" : "no");
    if (static_cast<std::size_t>(st.accepted) == st.sent && st.drained &&
        tail.value <= kLatencyLimitMs) {
      sustained = std::max(sustained, st.rate);
    }
  }
  std::vector<double> drain_rps;
  for (const Drain& d : drains) {
    setup.push_back(d.setup_s);
    drain_rps.push_back(d.records_per_s);
    std::printf("  TCP drain of %zu records: %.0f records/s\n", records.size(), d.records_per_s);
  }
  const Step& top = steps.back();
  const Tail tail = tail_of(top.window_ms);
  std::printf("  window figures from the %.0f records/s step: window_ms_tail = p%.2f of %zu "
              "windows = %.3f ms; sustained_rps %.0f; records_per_s = median of %d TCP drains\n",
              top.rate, tail.percentile, tail.samples, tail.value, sustained, kDrains);

  if (!args.trace) {
    out.report.add("setup_s", quantile(setup, 0.5), "s");
    out.report.add("records_per_s", quantile(drain_rps, 0.5), "records/s");
    out.report.add("window_ms_p50", quantile(top.window_ms, 0.5), "ms");
    out.report.add("peak_rss_mb", rss, "MB");
    return out;
  }

  // Layer split from the in-process replica over the whole input, untraced
  // and traced runs alternating.
  std::unique_ptr<sim::Scenario> world = make_world(args);
  Tracer tracer;
  tracer.enabled = true;
  std::vector<double> untraced_s, traced_s;
  ReplicaResult traced;
  for (int i = 0; i < 2; ++i) {
    Tracer off;
    untraced_s.push_back(run_replica(frames, records.size(), *world, args.seed, off).seconds);
    Tracer on;
    on.enabled = true;
    ReplicaResult r = run_replica(frames, records.size(), *world, args.seed, i == 1 ? tracer : on);
    traced_s.push_back(r.seconds);
    if (i == 1) traced = std::move(r);
  }
  require(traced.accepted == records.size(), "replica rejected records the input holds");

  // The core share inside offer: the same records through Sensor::ingest,
  // one fresh sensor per 600 s window as StreamingWindowDriver keeps them.
  std::vector<std::span<const dns::QueryRecord>> windows;
  for (std::size_t i = 0; i < records.size();) {
    const std::int64_t end = (records[i].time.secs() / kWindowSecs + 1) * kWindowSecs;
    std::size_t j = i;
    while (j < records.size() && records[j].time.secs() < end) ++j;
    windows.emplace_back(records.data() + i, j - i);
    i = j;
  }
  Tracer ingest_tracer;
  ingest_tracer.enabled = true;
  for (const auto& window : windows) {
    core::Sensor sensor(core::SensorConfig{}, world->plan().as_db(), world->plan().geo_db(),
                        world->naming());
    auto s = ingest_tracer.span("core.ingest");
    for (const auto& r : window) sensor.ingest(r);
  }

  LayerMetrics m;
  const double n = static_cast<double>(records.size());
  m.decode_ns_per_packet = ratio(traced.decode_s * 1e9, static_cast<double>(traced.packets));
  m.decode_accepted_frac = ratio(static_cast<double>(accepted), static_cast<double>(packets));
  m.udp_received_frac = ratio(static_cast<double>(udp), static_cast<double>(out.attempted));
  m.queue_dropped = static_cast<double>(dropped);
  m.queue_depth_peak = static_cast<double>(depth);
  m.wait_ns_p50 = quantile(traced.wait_ns, 0.5);
  m.offer_ns_p50 = quantile(traced.offer_ns, 0.5);
  m.offer_ns_tail = tail_of(traced.offer_ns).value;
  m.close_ms_p50 = quantile(traced.close_ms, 0.5);
  m.close_depth_peak = static_cast<double>(close_peak);
  m.export_depth_peak = static_cast<double>(export_peak);
  m.ingest_busy_s = ingest_tracer.total_seconds("core.ingest");
  m.ingest_ns_per_record = ratio(m.ingest_busy_s * 1e9, n);
  m.admitted_frac = ratio(static_cast<double>(admitted), static_cast<double>(accepted));
  m.window_ms_tail = tail.value;
  m.late_ms_tail = tail_of(late_ms).value;
  m.sustained_rps = sustained;
  m.overhead_frac = quantile(traced_s, 0.5) / quantile(untraced_s, 0.5) - 1.0;
  std::printf("live_udp replica: %zu records, offer tail = p%.3f of %zu calls; the core "
              "layer is the per-record Sensor::ingest pass, carved out of analysis.offer\n",
              records.size(), tail_of(traced.offer_ns).percentile, traced.offer_ns.size());
  report_layers(tracer, "bench.pass", out.report, {"analysis", "core", m.ingest_busy_s});
  double close_s = 0;
  for (const double ms : traced.close_ms) close_s += ms * 1e-3;
  std::printf("  %-24s %12.6f   (window close on the job system's workers, beside the "
              "pass: %zu windows)\n", "util.jobs", close_s, traced.close_ms.size());
  add_layer_metrics(m, out.report);
  tracer.write_chrome(args.work_dir + "/trace_live_udp.json");
  return out;
}

int run_live_reference(const Args& args) {
  std::vector<dns::QueryRecord> records = parse_log(load_input(args.log_path));
  require(args.reference_records > 0 && args.reference_records <= records.size(),
          "bad --reference-records");
  records.resize(args.reference_records);
  const Frames frames(records);
  const std::string stats = read_file(args.reference_stats);
  std::unique_ptr<sim::Scenario> world = make_world(args);

  // The daemon's registry holds every series its binary links in.  Register
  // the ones this binary lacks (all zero there too) so window metric blocks
  // list the same names; names only this binary has are a real mismatch.
  std::set<std::string> daemon_names;
  for (std::size_t pos = 0; (pos = stats.find("{\"name\": \"", pos)) != std::string::npos;) {
    pos += 10;
    const std::string name = stats.substr(pos, stats.find('"', pos) - pos);
    const auto obj_end = stats.find('}', pos);
    const std::string obj = stats.substr(pos, obj_end - pos);
    const bool sched = obj.find("\"sched\": true") != std::string::npos;
    daemon_names.insert(name);
    if (obj.find("\"kind\": \"counter\"") != std::string::npos) util::metrics_counter(name, sched);
    if (obj.find("\"kind\": \"gauge\"") != std::string::npos) util::metrics_gauge(name, sched);
  }

  // Declared before the replica: its close callback writes them.
  std::mutex mutex;
  serve::WindowSummarySequencer sequencer;
  std::string expected;
  ServeReplica replica(*world, args.seed);
  replica.driver->set_window_close_callback(
      [&](const analysis::WindowResult& r, const labeling::WindowObservation& obs) {
        std::lock_guard<std::mutex> lock(mutex);
        for (const auto& block : sequencer.push(r.index, serve::render_window_summary(r, obs))) {
          expected += block;
        }
      });
  dns::CaptureStats capture;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (auto r = decode_frame(frames[i], capture)) replica.driver->offer(*r);
  }
  replica.driver->flush();
  replica.jobs->drain_all();

  for (const auto& v : util::metrics_snapshot().deterministic_view().values) {
    if (!daemon_names.count(v.name)) {
      std::fprintf(stderr, "series %s exists only in the reference process\n", v.name.c_str());
    }
  }
  const std::string actual = read_file(args.reference_windows);
  if (actual == expected) return 0;
  std::size_t at = 0;
  while (at < actual.size() && at < expected.size() && actual[at] == expected[at]) ++at;
  const std::size_t from = actual.rfind('\n', at) == std::string::npos ? 0 : actual.rfind('\n', at) + 1;
  std::fprintf(stderr, "windows differ at byte %zu of %zu (expected %zu bytes)\n  daemon:    %s\n"
               "  reference: %s\n",
               at, actual.size(), expected.size(), actual.substr(from, 160).c_str(),
               expected.substr(std::min(from, expected.size()), 160).c_str());
  return 1;
}

}  // namespace perfbench
