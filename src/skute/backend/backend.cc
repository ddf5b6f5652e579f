#include "skute/backend/backend.h"

#include "skute/io/io_pool.h"
#include "skute/obs/trace.h"
#include "skute/storage/wal.h"

namespace skute {

namespace {

/// The replay loop behind ImportSnapshot: applies the intact prefix,
/// reports consumed bytes, kInternal on a damaged record.
Status ReplayFrames(StorageBackend* backend, std::string_view bytes,
                    uint64_t* consumed) {
  WalReader reader(bytes);
  for (;;) {
    auto record = reader.Next();
    if (!record.ok()) {
      *consumed = reader.offset();
      if (record.status().IsNotFound()) return Status::OK();  // clean end
      return Status::Internal("corrupt stream: intact prefix applied");
    }
    switch (record->op) {
      case WalOp::kPut:
        SKUTE_RETURN_IF_ERROR(backend->Put(record->key, record->value));
        break;
      case WalOp::kDelete: {
        const Status st = backend->Delete(record->key);
        if (!st.ok() && !st.IsNotFound()) return st;
        break;
      }
    }
  }
}

}  // namespace

const char* BackendKindName(BackendKind kind) {
  switch (kind) {
    case BackendKind::kMemory:
      return "memory";
    case BackendKind::kDurable:
      return "durable";
    case BackendKind::kFileSegment:
      return "file";
    case BackendKind::kMmap:
      return "mmap";
  }
  return "unknown";
}

Result<BackendKind> ParseBackendKind(std::string_view name) {
  if (name == "memory" || name == "mem") return BackendKind::kMemory;
  if (name == "durable" || name == "wal") return BackendKind::kDurable;
  if (name == "file" || name == "file-segment" || name == "segment") {
    return BackendKind::kFileSegment;
  }
  if (name == "mmap") return BackendKind::kMmap;
  return Status::InvalidArgument("unknown backend: " + std::string(name));
}

StorageBackend::~StorageBackend() {
  if (io_pool_ != nullptr) io_pool_->Forget(this);
}

void StorageBackend::AttachIoPool(IoPool* pool, uint64_t flush_watermark) {
  if (io_pool_ != nullptr && io_pool_ != pool) io_pool_->Forget(this);
  io_pool_ = pool;
  flush_watermark_ = flush_watermark;
}

bool StorageBackend::MaybeSubmitFlush() {
  if (io_pool_ == nullptr) return false;
  if (UnflushedBytes() < flush_watermark_) return false;
  io_pool_->SubmitFlush(this);
  return true;
}

std::string StorageBackend::ExportSnapshot() const {
  obs::TraceSpan span("io", "snapshot.export");
  std::string out;
  uint64_t sequence = 0;
  // Full key-ordered dump: every live pair as one Put record. Count()
  // bounds the scan; the snapshot replays to the exporter's exact state.
  for (const auto& [key, value] : Scan("", Count())) {
    EncodeWalRecord(&out, WalOp::kPut, ++sequence, key, value);
  }
  io_.snapshot_bytes_out += out.size();
  return out;
}

Status StorageBackend::ImportSnapshot(std::string_view bytes) {
  obs::TraceSpan span("io", "snapshot.import", bytes.size());
  uint64_t consumed = 0;
  const Status st = ReplayFrames(this, bytes, &consumed);
  io_.snapshot_bytes_in += consumed;
  if (st.IsInternal()) {
    return Status::Internal("corrupt snapshot: intact prefix applied");
  }
  return st;
}

}  // namespace skute
