#ifndef SKUTE_BACKEND_FACTORY_H_
#define SKUTE_BACKEND_FACTORY_H_

#include <cstdint>
#include <memory>
#include <utility>

#include "skute/backend/backend.h"
#include "skute/backend/config.h"
#include "skute/chaos/fault_state.h"

namespace skute {

/// \brief Creates the configured StorageBackend for one partition
/// replica. A copyable value type: ReplicaStore holds one, the store
/// derives per-server factories from the cluster-wide config with
/// ForServer() (which scopes the file backend's data_dir).
class BackendFactory {
 public:
  /// Default: memory backend (the seed behaviour).
  BackendFactory() = default;
  explicit BackendFactory(BackendConfig config)
      : config_(std::move(config)) {}

  /// Creates (kMemory/kDurable) or opens-with-recovery (kFileSegment)
  /// the backend for `partition_id`. File-segment state lives under
  /// `<data_dir>/p<partition_id>/`.
  Result<std::unique_ptr<StorageBackend>> Create(
      uint64_t partition_id) const;

  /// A copy whose file-segment state nests under `<data_dir>/s<id>/` —
  /// one subtree per server, so per-server ReplicaStores never collide.
  BackendFactory ForServer(uint32_t server_id) const;

  /// Every backend this factory creates gets the I/O offload pool
  /// attached with flush watermark 0 (submit on every write, so all of an
  /// epoch's submissions for one backend collapse into one fsync at the
  /// drain). Copies (ForServer) inherit the attachment, so one call on
  /// the cluster-wide factory covers the fleet.
  void AttachIoPool(IoPool* pool) { io_pool_ = pool; }

  IoPool* io_pool() const { return io_pool_; }

  /// Every backend this factory creates is wrapped in a FaultyBackend
  /// reading the armed windows from `state` and tallying into
  /// `counters`. The IoPool is attached to the wrapper (so pool-driven
  /// flushes pass the injection point); the inner backend gets no pool.
  /// Copies (ForServer) inherit the chaos attachment.
  void EnableChaos(const chaos::StorageFaultState* state,
                   chaos::ChaosCounters* counters) {
    fault_state_ = state;
    chaos_counters_ = counters;
  }

  bool chaos_enabled() const { return fault_state_ != nullptr; }

  const BackendConfig& config() const { return config_; }

 private:
  BackendConfig config_;
  IoPool* io_pool_ = nullptr;
  const chaos::StorageFaultState* fault_state_ = nullptr;
  chaos::ChaosCounters* chaos_counters_ = nullptr;
  /// Recorded by ForServer: the identity word chaos draws mix in.
  uint32_t server_id_ = 0;
};

}  // namespace skute

#endif  // SKUTE_BACKEND_FACTORY_H_
