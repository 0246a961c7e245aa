#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/strings.hpp"

namespace dnsbs::util {
namespace {

// Scheduler-shaped telemetry (sched: excluded from the determinism
// contract).  jobs/tasks count every parallel_for, pooled or inline;
// dispatches counts only jobs that actually reached the worker pool.
MetricCounter& g_jobs = metrics_counter("dnsbs.threadpool.jobs", /*sched=*/true);
MetricCounter& g_tasks = metrics_counter("dnsbs.threadpool.tasks", /*sched=*/true);
MetricCounter& g_dispatches = metrics_counter("dnsbs.threadpool.pool_dispatches", /*sched=*/true);
MetricHistogram& g_queue_wait = metrics_histogram("dnsbs.threadpool.queue_wait_ns");
MetricHistogram& g_busy = metrics_histogram("dnsbs.threadpool.busy_ns");

thread_local bool tls_in_parallel_region = false;
thread_local const ThreadPool* tls_worker_pool = nullptr;

/// RAII for the in-parallel-region flag (exception-safe restore).
struct RegionGuard {
  RegionGuard() : prev(tls_in_parallel_region) { tls_in_parallel_region = true; }
  ~RegionGuard() { tls_in_parallel_region = prev; }
  bool prev;
};

/// Marks the calling thread as currently executing a job of `pool`, so a
/// nested for_each_index on the same pool is rejected instead of
/// deadlocking on the submit lock (the caller thread is slot 0 of the
/// running job).
struct PoolMarkGuard {
  explicit PoolMarkGuard(const ThreadPool* pool) : prev(tls_worker_pool) {
    tls_worker_pool = pool;
  }
  ~PoolMarkGuard() { tls_worker_pool = prev; }
  const ThreadPool* prev;
};

std::size_t env_thread_count() noexcept {
  if (const char* env = std::getenv("DNSBS_THREADS")) {
    if (const auto n = parse_thread_count(env)) return *n;
    log_warn("threads", format("ignoring DNSBS_THREADS='%s': not a whole number in 1..%zu; "
                               "using the hardware thread count",
                               env, kMaxThreadCount));
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::atomic<std::size_t> g_thread_override{0};

}  // namespace

std::optional<std::size_t> parse_thread_count(std::string_view text) noexcept {
  std::uint64_t n = 0;
  if (!parse_u64(text, n) || n == 0 || n > kMaxThreadCount) return std::nullopt;
  return static_cast<std::size_t>(n);
}

std::size_t configured_thread_count() noexcept {
  const std::size_t override = g_thread_override.load(std::memory_order_relaxed);
  if (override != 0) return override;
  static const std::size_t from_env = env_thread_count();
  return from_env;
}

void set_thread_count(std::size_t n) noexcept {
  g_thread_override.store(n, std::memory_order_relaxed);
}

bool in_parallel_region() noexcept { return tls_in_parallel_region; }

std::size_t detail::resolve_threads(std::size_t requested) noexcept {
  return requested != 0 ? requested : configured_thread_count();
}

void detail::note_parallel(std::size_t n, bool pooled) noexcept {
  g_jobs.inc();
  g_tasks.add(n);
  if (pooled) g_dispatches.inc();
}

ThreadPool::ThreadPool(std::size_t threads) {
  std::size_t n = threads != 0 ? threads : configured_thread_count();
  if (n == 0) n = 1;
  slots_.resize(n);
  workers_.reserve(n - 1);
  for (std::size_t s = 1; s < n; ++s) {
    workers_.emplace_back([this, s] { worker_loop(s); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::run_slot(std::size_t slot) {
  // Static chunking: slot s owns [s*n/W, (s+1)*n/W).  Slots >= job_slots_
  // own nothing (a job may use fewer slots than the pool has).
  const std::size_t n = job_n_;
  const std::size_t w = job_slots_;
  if (slot >= w) return;
  const std::size_t begin = slot * n / w;
  const std::size_t end = (slot + 1) * n / w;
  if (begin >= end) return;
  const std::uint64_t t0 = metrics_now_ns();
  try {
    RegionGuard region;
    PoolMarkGuard mark(this);
    for (std::size_t i = begin; i < end; ++i) (*job_fn_)(i);
  } catch (...) {
    slots_[slot].error = std::current_exception();
  }
  g_busy.record(metrics_now_ns() - t0);
}

void ThreadPool::worker_loop(std::size_t slot) {
  tls_worker_pool = this;
  set_thread_name("worker-" + std::to_string(slot));
  std::uint64_t seen = 0;
  for (;;) {
    std::uint64_t submitted_ns = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      submitted_ns = submit_ns_;
    }
    // Time from job submission to this worker picking it up: the queue
    // wait operators watch for oversubscription.
    g_queue_wait.record(metrics_now_ns() - submitted_ns);
    run_slot(slot);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--pending_ == 0) done_.notify_all();
    }
  }
}

void ThreadPool::for_each_index(std::size_t n,
                                const std::function<void(std::size_t)>& fn,
                                std::size_t use_threads) {
  if (n == 0) return;
  if (tls_worker_pool == this) {
    throw std::logic_error(
        "ThreadPool::for_each_index called from one of the pool's own workers");
  }
  std::size_t w = use_threads == 0 ? size() : std::min(use_threads, size());
  w = std::min(w, n);
  if (w <= 1 || workers_.empty()) {
    RegionGuard guard;
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // One job at a time; concurrent submitters queue here.
  std::lock_guard<std::mutex> submit(submit_mutex_);
  for (auto& s : slots_) s.error = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_n_ = n;
    job_slots_ = w;
    job_fn_ = &fn;
    pending_ = workers_.size();
    submit_ns_ = metrics_now_ns();
    ++generation_;
  }
  wake_.notify_all();
  run_slot(0);  // the caller is slot 0
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [&] { return pending_ == 0; });
    job_fn_ = nullptr;
  }
  for (const auto& s : slots_) {
    if (s.error) std::rethrow_exception(s.error);
  }
}

ThreadPool& ThreadPool::shared() {
  // At least 4 slots even on 1-2 core machines: thread-count sweeps and
  // the serial-vs-parallel determinism tests need real multithreading
  // everywhere; parallel_for limits the slots a job actually uses.
  static ThreadPool pool(std::max<std::size_t>(4, configured_thread_count()));
  return pool;
}

}  // namespace dnsbs::util
