#include "skute/storage/replica_store.h"

#include "skute/backend/memory_backend.h"
#include "skute/common/logging.h"

namespace skute {

StorageBackend* ReplicaStore::OpenOrCreate(uint64_t partition_id) {
  auto it = stores_.find(partition_id);
  if (it != stores_.end()) return it->second.get();

  auto backend = factory_.Create(partition_id);
  if (!backend.ok()) {
    SKUTE_LOG(kWarning) << "backend create failed for partition "
                        << partition_id << " ("
                        << backend.status().message()
                        << "); falling back to memory";
    it = stores_
             .emplace(partition_id,
                      std::make_unique<MemoryBackend>(partition_id))
             .first;
  } else {
    it = stores_.emplace(partition_id, std::move(backend).value()).first;
  }
  return it->second.get();
}

StorageBackend* ReplicaStore::Find(uint64_t partition_id) {
  auto it = stores_.find(partition_id);
  return it == stores_.end() ? nullptr : it->second.get();
}

const StorageBackend* ReplicaStore::Find(uint64_t partition_id) const {
  auto it = stores_.find(partition_id);
  return it == stores_.end() ? nullptr : it->second.get();
}

void ReplicaStore::Retire(StorageBackend* backend) {
  retired_io_.Accumulate(backend->io());
}

Status ReplicaStore::Drop(uint64_t partition_id) {
  auto it = stores_.find(partition_id);
  if (it == stores_.end()) {
    return Status::NotFound("partition not hosted here");
  }
  // Wipe before erasing: a dropped replica must not leave segment files
  // behind for a future OpenOrCreate of the same partition to resurrect.
  (void)it->second->Wipe();
  Retire(it->second.get());
  stores_.erase(it);
  return Status::OK();
}

void ReplicaStore::Clear() {
  for (auto& [id, store] : stores_) {
    (void)store->Wipe();
    Retire(store.get());
  }
  stores_.clear();
}

Result<TransferResult> ReplicaStore::CopyFrom(const ReplicaStore& src,
                                              uint64_t partition_id) {
  const StorageBackend* from = src.Find(partition_id);
  if (from == nullptr) {
    return Status::NotFound("source does not host the partition");
  }
  StorageBackend* dst = OpenOrCreate(partition_id);
  // A warm destination is wiped first: replication means "make the
  // destination this replica", and replaying a snapshot over diverged
  // state could leave stray keys behind.
  const std::string snapshot = from->ExportSnapshot();
  if (dst->Count() > 0) (void)dst->Wipe();
  SKUTE_RETURN_IF_ERROR(dst->ImportSnapshot(snapshot));
  return TransferResult{snapshot.size()};
}

Result<TransferResult> ReplicaStore::MoveFrom(ReplicaStore* src,
                                              uint64_t partition_id) {
  if (src == this) {
    return Status::InvalidArgument("cannot move a partition onto itself");
  }
  auto it = src->stores_.find(partition_id);
  if (it == src->stores_.end()) {
    return Status::NotFound("source does not host the partition");
  }
  // In-memory fast path: the backend owns no external state, so handing
  // over the object is the move (no bytes cross a wire in this model).
  if (it->second->kind() == BackendKind::kMemory &&
      factory_.config().kind == BackendKind::kMemory) {
    // Mirror the general path: a pre-existing destination replica is
    // retired first, so its lifetime I/O counters survive the overwrite.
    if (Find(partition_id) != nullptr) (void)Drop(partition_id);
    stores_[partition_id] = std::move(it->second);
    src->stores_.erase(it);
    return TransferResult{};
  }
  // General path: ship a full snapshot, then drop the source replica.
  // The destination's backend may be a different kind than the source's.
  const std::string snapshot = it->second->ExportSnapshot();
  if (Find(partition_id) != nullptr) (void)Drop(partition_id);
  StorageBackend* dst = OpenOrCreate(partition_id);
  SKUTE_RETURN_IF_ERROR(dst->ImportSnapshot(snapshot));
  (void)it->second->Wipe();
  src->Retire(it->second.get());
  src->stores_.erase(it);
  return TransferResult{snapshot.size()};
}

void ReplicaStore::ForEachBackend(
    const std::function<void(StorageBackend*)>& fn) {
  for (auto& [id, store] : stores_) fn(store.get());
}

uint64_t ReplicaStore::TotalBytes() const {
  uint64_t total = 0;
  for (const auto& [id, store] : stores_) {
    total += store->ApproximateBytes();
  }
  return total;
}

IoStats ReplicaStore::AggregateIo() const {
  IoStats total = retired_io_;
  for (const auto& [id, store] : stores_) total.Accumulate(store->io());
  return total;
}

ReplicaStore& ReplicaDataMap::For(uint32_t server) {
  auto it = map_.find(server);
  if (it == map_.end()) {
    it = map_
             .emplace(server, provider_ ? ReplicaStore(provider_(server))
                                        : ReplicaStore())
             .first;
  }
  return it->second;
}

void ReplicaDataMap::ForEachBackend(
    const std::function<void(StorageBackend*)>& fn) {
  for (auto& [server, store] : map_) store.ForEachBackend(fn);
}

ReplicaStore* ReplicaDataMap::Find(uint32_t server) {
  auto it = map_.find(server);
  return it == map_.end() ? nullptr : &it->second;
}

const ReplicaStore* ReplicaDataMap::Find(uint32_t server) const {
  auto it = map_.find(server);
  return it == map_.end() ? nullptr : &it->second;
}

void ReplicaDataMap::Erase(uint32_t server) {
  auto it = map_.find(server);
  if (it == map_.end()) return;
  retired_io_.Accumulate(it->second.AggregateIo());
  it->second.Clear();  // wipes persistent backend state
  map_.erase(it);
}

void ReplicaDataMap::Clear() {
  for (auto& [server, store] : map_) {
    retired_io_.Accumulate(store.AggregateIo());
    store.Clear();
  }
  map_.clear();
}

IoStats ReplicaDataMap::AggregateIo() const {
  IoStats total = retired_io_;
  for (const auto& [server, store] : map_) {
    total.Accumulate(store.AggregateIo());
  }
  return total;
}

}  // namespace skute
