#ifndef SKUTE_STORAGE_REPLICA_STORE_H_
#define SKUTE_STORAGE_REPLICA_STORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>

#include "skute/backend/factory.h"
#include "skute/common/result.h"

namespace skute {

/// What one replication/migration transfer actually moved: the snapshot
/// bytes that crossed the "wire".
struct TransferResult {
  uint64_t bytes = 0;
  /// True when the transfer was attempted but did not complete (torn
  /// stream, import rejection) — distinct from "nothing real to move"
  /// (synthetic partitions), which is ok with 0 bytes. The executor
  /// treats a failed transfer as blocked, never as applied.
  bool failed = false;
};

/// \brief All real-data partition replicas hosted by one server: a map of
/// partition id -> StorageBackend, created by the server's BackendFactory.
///
/// Partition ids are globally unique (allocated by the RingCatalog), so no
/// ring qualifier is needed. Transfer operations mirror what the network
/// layer of a deployment would do: Copy for replication, Move for
/// migration, Drop for suicide/failure. Copies and moves stream the
/// backend-agnostic snapshot format, so a memory-backed server can
/// replicate onto a file-segment-backed one and vice versa.
class ReplicaStore {
 public:
  /// Default: memory backends (the seed behaviour).
  ReplicaStore() = default;
  explicit ReplicaStore(BackendFactory factory)
      : factory_(std::move(factory)) {}

  ReplicaStore(const ReplicaStore&) = delete;
  ReplicaStore& operator=(const ReplicaStore&) = delete;
  ReplicaStore(ReplicaStore&&) noexcept = default;
  ReplicaStore& operator=(ReplicaStore&&) noexcept = default;

  /// The backend for a partition, created on first use. Backend creation
  /// failures (e.g. an unwritable file-segment dir) fall back to a memory
  /// backend with a logged warning — the data plane must keep serving.
  StorageBackend* OpenOrCreate(uint64_t partition_id);

  /// The backend for a partition, or nullptr when this server hosts none.
  StorageBackend* Find(uint64_t partition_id);
  const StorageBackend* Find(uint64_t partition_id) const;

  /// Drops a partition's data (including persistent artifacts); NotFound
  /// when not hosted.
  Status Drop(uint64_t partition_id);

  /// Replication: ships a full snapshot of `partition_id` from `src` into
  /// this store. A warm destination is wiped first so the copy is exact.
  Result<TransferResult> CopyFrom(const ReplicaStore& src,
                                  uint64_t partition_id);

  /// Migration: moves `partition_id` from `src` into this store (a
  /// snapshot stream; 0 bytes for the in-memory handoff path).
  Result<TransferResult> MoveFrom(ReplicaStore* src, uint64_t partition_id);

  size_t partition_count() const { return stores_.size(); }
  uint64_t TotalBytes() const;

  /// Visits every hosted backend (unspecified order — callers must only
  /// perform per-backend work, e.g. the durability stage's flush sweep).
  void ForEachBackend(const std::function<void(StorageBackend*)>& fn);

  /// Lifetime I/O counters: every hosted backend plus everything retired
  /// by Drop/MoveFrom/Clear — dropping a replica never un-counts the I/O
  /// it already performed.
  IoStats AggregateIo() const;

  const BackendFactory& factory() const { return factory_; }

  /// Forgets every partition, wiping persistent artifacts (a cleared
  /// server must not resurrect old segment files on a later create).
  void Clear();

 private:
  /// Folds a backend's counters into retired_io_ before it is destroyed.
  void Retire(StorageBackend* backend);

  std::unordered_map<uint64_t, std::unique_ptr<StorageBackend>> stores_;
  BackendFactory factory_;
  IoStats retired_io_;
};

/// \brief The store's per-server replica data: server id -> ReplicaStore,
/// each created with the factory the provider derives for that server
/// (how per-server backend selection reaches the data plane). The
/// provider is optional — without one every server gets memory backends.
class ReplicaDataMap {
 public:
  /// Derives a server's BackendFactory (uint32_t matches ServerId; this
  /// layer does not depend on the cluster headers).
  using FactoryProvider = std::function<BackendFactory(uint32_t)>;

  ReplicaDataMap() = default;
  explicit ReplicaDataMap(FactoryProvider provider)
      : provider_(std::move(provider)) {}

  void set_provider(FactoryProvider provider) {
    provider_ = std::move(provider);
  }

  /// The server's ReplicaStore, created on first use.
  ReplicaStore& For(uint32_t server);

  /// Visits every backend of every server (unspecified order).
  void ForEachBackend(const std::function<void(StorageBackend*)>& fn);

  ReplicaStore* Find(uint32_t server);
  const ReplicaStore* Find(uint32_t server) const;

  /// Removes a server's replica data, wiping persistent backend state (a
  /// hard-failed server's disks are gone; recreating it must start
  /// empty). Its lifetime I/O counters are folded into AggregateIo().
  void Erase(uint32_t server);
  size_t server_count() const { return map_.size(); }
  void Clear();

  /// Lifetime I/O counters over every server, including erased ones.
  IoStats AggregateIo() const;

 private:
  std::unordered_map<uint32_t, ReplicaStore> map_;
  FactoryProvider provider_;
  IoStats retired_io_;
};

}  // namespace skute

#endif  // SKUTE_STORAGE_REPLICA_STORE_H_
