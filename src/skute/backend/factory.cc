#include "skute/backend/factory.h"

#include <string>

#include "skute/backend/durable_backend.h"
#include "skute/backend/faulty_backend.h"
#include "skute/backend/file_segment_backend.h"
#include "skute/backend/memory_backend.h"
#include "skute/backend/mmap_segment_backend.h"

namespace skute {

Result<std::unique_ptr<StorageBackend>> BackendFactory::Create(
    uint64_t partition_id) const {
  std::unique_ptr<StorageBackend> backend;
  switch (config_.kind) {
    case BackendKind::kMemory:
      backend = std::make_unique<MemoryBackend>(partition_id);
      break;
    case BackendKind::kDurable:
      backend = std::make_unique<DurableBackend>(partition_id);
      break;
    case BackendKind::kFileSegment: {
      if (config_.data_dir.empty()) {
        return Status::InvalidArgument(
            "file-segment backend needs a data_dir");
      }
      const std::string dir =
          config_.data_dir + "/p" + std::to_string(partition_id);
      SKUTE_ASSIGN_OR_RETURN(
          std::unique_ptr<FileSegmentBackend> file_backend,
          FileSegmentBackend::Open(dir, config_.segment_bytes,
                                   config_.fsync_every_append));
      file_backend->ConfigureCompaction(config_.compact_dead_ratio);
      backend = std::move(file_backend);
      break;
    }
    case BackendKind::kMmap: {
      if (config_.data_dir.empty()) {
        return Status::InvalidArgument("mmap backend needs a data_dir");
      }
      const std::string dir =
          config_.data_dir + "/p" + std::to_string(partition_id);
      SKUTE_ASSIGN_OR_RETURN(
          std::unique_ptr<MmapSegmentBackend> mmap_backend,
          MmapSegmentBackend::Open(dir, config_.segment_bytes,
                                   config_.fsync_every_append));
      mmap_backend->ConfigureCompaction(config_.compact_dead_ratio);
      backend = std::move(mmap_backend);
      break;
    }
  }
  if (backend == nullptr) {
    return Status::InvalidArgument("unknown backend kind");
  }
  if (fault_state_ != nullptr) {
    // The wrapper takes the pool attachment below, so every pool-driven
    // flush crosses the injection point; the inner backend keeps no pool
    // (its inline MaybeSubmitFlush stays dormant).
    backend = std::make_unique<FaultyBackend>(
        std::move(backend), fault_state_, chaos_counters_, server_id_,
        partition_id);
  }
  if (io_pool_ != nullptr) {
    backend->AttachIoPool(io_pool_, /*flush_watermark=*/0);
  }
  return backend;
}

BackendFactory BackendFactory::ForServer(uint32_t server_id) const {
  BackendFactory scoped(*this);
  scoped.server_id_ = server_id;
  // A forgotten data_dir stays empty (rejected by Create) rather than
  // becoming the absolute path "/s<id>" at the filesystem root.
  if ((scoped.config_.kind == BackendKind::kFileSegment ||
       scoped.config_.kind == BackendKind::kMmap) &&
      !scoped.config_.data_dir.empty()) {
    scoped.config_.data_dir += "/s" + std::to_string(server_id);
  }
  return scoped;
}

}  // namespace skute
