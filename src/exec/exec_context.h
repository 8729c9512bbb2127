#ifndef SSJOIN_EXEC_EXEC_CONTEXT_H_
#define SSJOIN_EXEC_EXEC_CONTEXT_H_

#include <cstddef>
#include <thread>

namespace ssjoin::exec {

/// \brief Knobs of the morsel-driven runtime, threaded through
/// core::SSJoinContext into every SSJoin executor's ParallelFor loops.
///
/// The runtime sits below core; one thread runs every morsel inline on the
/// calling thread, so the same executor serves serial and parallel joins.
struct ExecContext {
  /// Worker threads to use (the calling thread counts as one of them).
  /// 1 = inline on the caller, 0 = one per hardware thread.
  size_t num_threads = 1;
  /// Target work-unit size of the morsel scheduler: number of groups
  /// (candidate generation) or candidate pairs (verification) per morsel.
  /// Small enough for load balancing, large enough to amortize dispatch.
  size_t morsel_size = 2048;

  /// `num_threads` with 0 resolved to the hardware concurrency.
  size_t resolved_threads() const {
    if (num_threads != 0) return num_threads;
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<size_t>(hw);
  }
};

/// What a null `const ExecContext*` stands for: one thread, default morsels.
inline const ExecContext& OrDefault(const ExecContext* ctx) {
  static const ExecContext kDefault;
  return ctx != nullptr ? *ctx : kDefault;
}

}  // namespace ssjoin::exec

#endif  // SSJOIN_EXEC_EXEC_CONTEXT_H_
