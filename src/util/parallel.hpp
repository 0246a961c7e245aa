// Deterministic parallel execution: a fixed-size worker pool plus
// parallel_for / parallel_map helpers with an ordered-result guarantee.
//
// The repo's determinism contract (DESIGN.md §6) requires that every
// experiment produce byte-identical output run-to-run and regardless of
// how many threads execute it.  The primitives here make that cheap to
// uphold:
//
//   * Work is split by *index*, with chunked static partitioning: slot s
//     of W processes the contiguous range [s*n/W, (s+1)*n/W).  No work
//     stealing, no completion-order dependence.
//   * parallel_map writes result i to out[i]; the returned vector is
//     ordered by input index no matter which thread computed what.
//   * Callers derive any per-item randomness from (seed, index), never
//     from shared sequential RNG state.
//
// Nesting: parallel_for / parallel_map called from inside a parallel
// region degrade to serial inline execution (so e.g. a parallel
// cross-validation rep can call RandomForest::fit, which is itself
// parallel-capable, without oversubscription or deadlock).  Direct
// recursive use of ThreadPool::for_each_index from one of its own
// workers is a programming error and throws std::logic_error.
//
// Thread count resolution order: explicit argument > set_thread_count()
// override > DNSBS_THREADS environment variable > hardware concurrency.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <span>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/metrics.hpp"

namespace dnsbs::util {

/// Largest DNSBS_THREADS value accepted.
inline constexpr std::size_t kMaxThreadCount = 1024;

/// Parses a DNSBS_THREADS value: a whole decimal number in
/// 1..kMaxThreadCount with nothing around it, else nullopt.
std::optional<std::size_t> parse_thread_count(std::string_view text) noexcept;

/// Effective thread count for parallel sections: the set_thread_count()
/// override if present, else DNSBS_THREADS, else hardware concurrency.
/// A DNSBS_THREADS value parse_thread_count() rejects is logged once as a
/// WARN and ignored.  Always >= 1.
std::size_t configured_thread_count() noexcept;

/// Programmatic override (benches, tests).  0 restores the default
/// (DNSBS_THREADS / hardware concurrency) resolution.
void set_thread_count(std::size_t n) noexcept;

/// True while the calling thread is executing inside a parallel region
/// (either a pool worker or the caller thread running its own share).
bool in_parallel_region() noexcept;

/// Fixed-size worker pool.  One job runs at a time; the submitting thread
/// participates as slot 0, so a pool of size W uses W-1 workers.
class ThreadPool {
 public:
  /// threads == 0 resolves to configured_thread_count().  The pool keeps
  /// threads-1 workers (the caller is the remaining slot).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution slots (workers + the submitting caller).
  std::size_t size() const noexcept { return workers_.size() + 1; }

  /// Runs fn(i) for every i in [0, n), splitting the index space into
  /// min(use_threads, size()) contiguous static chunks (use_threads == 0
  /// means all slots).  Blocks until every chunk has finished.  If chunks
  /// threw, the exception from the lowest-indexed chunk is rethrown.
  /// Throws std::logic_error when called from one of this pool's own
  /// workers (the job would deadlock waiting for its own slot).
  void for_each_index(std::size_t n, const std::function<void(std::size_t)>& fn,
                      std::size_t use_threads = 0);

  /// Process-wide pool, lazily created.  Sized generously (at least 4
  /// slots even on small machines) so thread-count sweeps and the
  /// serial-vs-parallel determinism tests work everywhere; individual
  /// jobs restrict themselves via the use_threads argument.
  static ThreadPool& shared();

 private:
  struct Slot {
    std::exception_ptr error;
  };

  void worker_loop(std::size_t slot);
  void run_slot(std::size_t slot);

  // Current job (guarded by mutex_).
  std::size_t job_n_ = 0;
  std::size_t job_slots_ = 0;
  const std::function<void(std::size_t)>* job_fn_ = nullptr;
  std::uint64_t generation_ = 0;
  std::uint64_t submit_ns_ = 0;  // job submission time (queue-wait telemetry)
  std::size_t pending_ = 0;
  bool stop_ = false;

  std::vector<Slot> slots_;
  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  std::mutex submit_mutex_;
};

namespace detail {

/// Serial fallback shared by the helpers.
template <typename Fn>
void serial_for(std::size_t n, Fn&& fn) {
  for (std::size_t i = 0; i < n; ++i) fn(i);
}

std::size_t resolve_threads(std::size_t requested) noexcept;

/// Telemetry for one parallel_for call (n items, pooled or inline).  The
/// threadpool layer is scheduler-shaped by nature — whether a call takes
/// the pooled or inline path can depend on DNSBS_THREADS — so its series
/// are registered sched and sit outside the determinism contract.
void note_parallel(std::size_t n, bool pooled) noexcept;

}  // namespace detail

/// Runs fn(i) for i in [0, n) across up to `threads` slots of the shared
/// pool (0 = configured).  Executes serially inline when only one thread
/// is effective, when n < 2, or when already inside a parallel region.
/// fn must be safe to call concurrently for distinct indices.
template <typename Fn>
void parallel_for(std::size_t n, Fn&& fn, std::size_t threads = 0) {
  const std::size_t use = detail::resolve_threads(threads);
  if (use <= 1 || n < 2 || in_parallel_region()) {
    detail::note_parallel(n, false);
    detail::serial_for(n, fn);
    return;
  }
  detail::note_parallel(n, true);
  const std::function<void(std::size_t)> wrapped = std::ref(fn);
  ThreadPool::shared().for_each_index(n, wrapped, use);
}

/// Ordered map over the index space: returns {fn(0), fn(1), ..., fn(n-1)}
/// with out[i] computed from index i regardless of thread assignment.
/// R must be default-constructible and movable.
template <typename Fn>
auto parallel_map(std::size_t n, Fn&& fn, std::size_t threads = 0)
    -> std::vector<std::decay_t<std::invoke_result_t<Fn&, std::size_t>>> {
  using R = std::decay_t<std::invoke_result_t<Fn&, std::size_t>>;
  std::vector<R> out(n);
  parallel_for(
      n, [&](std::size_t i) { out[i] = fn(i); }, threads);
  return out;
}

/// Ordered map over a span of items: out[i] = fn(items[i]).
template <typename T, typename Fn>
auto parallel_map(std::span<const T> items, Fn&& fn, std::size_t threads = 0)
    -> std::vector<std::decay_t<std::invoke_result_t<Fn&, const T&>>> {
  return parallel_map(
      items.size(), [&](std::size_t i) { return fn(items[i]); }, threads);
}

}  // namespace dnsbs::util
