#ifndef SKUTE_CHAOS_FAULT_STATE_H_
#define SKUTE_CHAOS_FAULT_STATE_H_

#include <atomic>
#include <cstdint>

namespace skute {
namespace chaos {

/// The armed fault windows shared between the `ChaosDirector` (writer,
/// on the epoch thread) and every `FaultyBackend` (readers, possibly on
/// IoPool workers). All fields are atomics with relaxed semantics: the
/// director only mutates them at epoch boundaries, which are separated
/// from worker activity by the engine's stage barriers, so readers
/// always observe a stable window for the whole epoch.
struct StorageFaultState {
  /// The scenario seed every deterministic draw mixes in.
  std::atomic<uint64_t> seed{0};
  /// The current epoch, published by the director each Step before any
  /// stage runs.
  std::atomic<uint64_t> epoch{0};
  /// kFsyncFail window: probability (per mille) that a Flush fails.
  std::atomic<uint32_t> fsync_fail_pm{0};
  std::atomic<uint64_t> fsync_salt{0};
  /// kTornTransfer window: probability (per mille) that a snapshot
  /// export is truncated.
  std::atomic<uint32_t> torn_pm{0};
  std::atomic<uint64_t> torn_salt{0};
  /// kSlowDisk window: emulated latency per flush (0 = off).
  std::atomic<uint32_t> slow_us{0};

  bool any_armed() const {
    return fsync_fail_pm.load(std::memory_order_relaxed) != 0 ||
           torn_pm.load(std::memory_order_relaxed) != 0 ||
           slow_us.load(std::memory_order_relaxed) != 0;
  }
};

/// Cross-plane chaos tallies, incremented wherever a fault actually
/// fires. Snapshot with `Snapshot()` for metrics export.
struct ChaosCounters {
  std::atomic<uint64_t> fsync_failures{0};
  std::atomic<uint64_t> torn_transfers{0};
  std::atomic<uint64_t> slow_flushes{0};
  std::atomic<uint64_t> throttle_us{0};
  std::atomic<uint64_t> partitions_applied{0};
  std::atomic<uint64_t> partitions_healed{0};
};

/// Plain-value snapshot of `ChaosCounters` (metrics/report friendly).
struct ChaosStats {
  uint64_t fsync_failures = 0;
  uint64_t torn_transfers = 0;
  uint64_t slow_flushes = 0;
  uint64_t throttle_us = 0;
  uint64_t partitions_applied = 0;
  uint64_t partitions_healed = 0;

  uint64_t total_fired() const {
    return fsync_failures + torn_transfers + slow_flushes +
           partitions_applied;
  }
};

inline ChaosStats SnapshotCounters(const ChaosCounters& c) {
  ChaosStats s;
  s.fsync_failures = c.fsync_failures.load(std::memory_order_relaxed);
  s.torn_transfers = c.torn_transfers.load(std::memory_order_relaxed);
  s.slow_flushes = c.slow_flushes.load(std::memory_order_relaxed);
  s.throttle_us = c.throttle_us.load(std::memory_order_relaxed);
  s.partitions_applied =
      c.partitions_applied.load(std::memory_order_relaxed);
  s.partitions_healed = c.partitions_healed.load(std::memory_order_relaxed);
  return s;
}

}  // namespace chaos
}  // namespace skute

#endif  // SKUTE_CHAOS_FAULT_STATE_H_
