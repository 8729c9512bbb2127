#ifndef SSJOIN_EXEC_PARALLEL_FOR_H_
#define SSJOIN_EXEC_PARALLEL_FOR_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <limits>
#include <mutex>
#include <utility>

#include "exec/exec_context.h"
#include "exec/metrics.h"
#include "exec/thread_pool.h"

namespace ssjoin::exec {

/// Number of morsels ParallelFor splits [0, n) into: size per-morsel output
/// slots with it.
inline size_t NumMorsels(const ExecContext& ctx, size_t n) {
  const size_t morsel = std::max<size_t>(1, ctx.morsel_size);
  return (n + morsel - 1) / morsel;
}

/// Upper bound (at least one) on the worker ids ParallelFor hands out for
/// [0, n): size per-worker scratch with it.
inline size_t NumWorkers(const ExecContext& ctx, size_t n) {
  return std::max<size_t>(1, std::min(ctx.resolved_threads(), NumMorsels(ctx, n)));
}

/// \brief Morsel-driven parallel loop over the index range [0, n).
///
/// The range is split into contiguous morsels of `ctx.morsel_size` indices;
/// workers pull morsels from a shared atomic cursor (classic work stealing by
/// oversubscription: fast workers simply take more morsels). For each morsel
/// the body is invoked as
///
///   fn(worker_id, morsel_index, begin, end)
///
/// with `worker_id` dense in [0, workers) — use it to index per-worker
/// scratch — and `morsel_index` dense in [0, num_morsels) — use it to index
/// per-morsel output slots, whose concatenation in morsel order is then
/// independent of scheduling (the determinism guarantee the SSJoin executors
/// rely on). With one worker the morsels run in order on the caller, which
/// is the plain serial loop.
///
/// Blocks until every morsel has run. `ctx.resolved_threads() - 1` helper
/// workers are borrowed from ThreadPool::Shared(); the calling thread
/// participates as worker 0, so progress is guaranteed even when the shared
/// pool is saturated. If one or more morsel bodies throw, the exception of
/// the lowest-numbered failing morsel is rethrown (deterministically) after
/// all workers have stopped; remaining unclaimed morsels are abandoned.
///
/// Calling ParallelFor from inside a pool task runs the loop inline on the
/// caller (nested parallelism would deadlock a fixed-size pool).
template <typename Fn>
void ParallelFor(const ExecContext& ctx, size_t n, Fn&& fn) {
  if (n == 0) return;
  const size_t morsel = std::max<size_t>(1, ctx.morsel_size);
  const size_t num_morsels = NumMorsels(ctx, n);
  // Morsel accounting is independent of thread count and scheduling: the
  // split depends only on (n, morsel_size), so these counters stay
  // deterministic across 1/2/8-thread runs of the same workload.
  internal::ParallelForCallsCounter().Add(1);
  internal::MorselsDispatchedCounter().Add(num_morsels);
  size_t workers = ThreadPool::InWorkerThread() ? 1 : NumWorkers(ctx, n);

  if (workers <= 1) {
    for (size_t m = 0; m < num_morsels; ++m) {
      fn(size_t{0}, m, m * morsel, std::min(n, (m + 1) * morsel));
    }
    return;
  }

  struct State {
    std::atomic<size_t> next_morsel{0};
    std::atomic<bool> failed{false};
    std::mutex mu;
    std::condition_variable cv;
    size_t helpers_running = 0;
    std::exception_ptr error;
    size_t error_morsel = std::numeric_limits<size_t>::max();
  } state;

  auto run_worker = [&](size_t worker_id) {
    for (;;) {
      size_t m = state.next_morsel.fetch_add(1, std::memory_order_relaxed);
      if (m >= num_morsels) return;
      if (state.failed.load(std::memory_order_relaxed)) return;
      try {
        fn(worker_id, m, m * morsel, std::min(n, (m + 1) * morsel));
      } catch (...) {
        std::lock_guard<std::mutex> lock(state.mu);
        if (m < state.error_morsel) {
          state.error_morsel = m;
          state.error = std::current_exception();
        }
        state.failed.store(true, std::memory_order_relaxed);
      }
    }
  };

  {
    std::lock_guard<std::mutex> lock(state.mu);
    state.helpers_running = workers - 1;
  }
  size_t started = 0;
  for (size_t w = 1; w < workers; ++w) {
    bool ok = ThreadPool::Shared().Submit([&, w] {
      run_worker(w);
      // Notify while holding the mutex: the caller destroys `state` as soon
      // as its wait returns, and the wait cannot return before the unlock, so
      // the condvar is guaranteed alive for the whole notify call.
      std::lock_guard<std::mutex> lock(state.mu);
      if (--state.helpers_running == 0) state.cv.notify_one();
    });
    if (ok) ++started;
  }
  if (started < workers - 1) {
    // Shared pool rejected tasks (shut down): absorb the missing helpers.
    std::lock_guard<std::mutex> lock(state.mu);
    state.helpers_running -= (workers - 1) - started;
  }

  run_worker(0);

  std::unique_lock<std::mutex> lock(state.mu);
  state.cv.wait(lock, [&] { return state.helpers_running == 0; });
  if (state.error) std::rethrow_exception(state.error);
}

}  // namespace ssjoin::exec

#endif  // SSJOIN_EXEC_PARALLEL_FOR_H_
