#include "skute/backend/durable_backend.h"

#include "skute/obs/trace.h"
#include "skute/storage/wal.h"

namespace skute {

Status DurableBackend::Put(std::string_view key, std::string_view value) {
  ++io_.puts;
  const size_t record = EncodedWalRecordSize(key, value);
  io_.log_bytes_written += record;
  unflushed_ += record;
  wal_.Append(WalOp::kPut, key, value);
  const Status st = table_.Put(key, value);
  MaybeSubmitFlush();
  return st;
}

Status DurableBackend::Delete(std::string_view key) {
  ++io_.deletes;
  // Uniform backend contract: a missing key is NotFound and nothing is
  // logged (the log holds only applied mutations, so it replays exactly).
  if (!table_.Contains(key)) return Status::NotFound("key not found");
  const size_t record = EncodedWalRecordSize(key, {});
  io_.log_bytes_written += record;
  unflushed_ += record;
  wal_.Append(WalOp::kDelete, key, {});
  const Status st = table_.Delete(key);
  MaybeSubmitFlush();
  return st;
}

std::string DurableBackend::ExportSnapshot() const {
  // Ship the log verbatim (no scan) only while it both covers the whole
  // history *and* is no larger than a key-ordered dump of the live set —
  // a long write history of overwrites/deletes must not inflate transfer
  // cost without bound.
  const uint64_t dump_estimate =
      ApproximateBytes() +
      static_cast<uint64_t>(Count()) * EncodedWalRecordSize({}, {});
  if (!checkpointed_ && wal_.data().size() <= dump_estimate) {
    io_.snapshot_bytes_out += wal_.data().size();
    return wal_.data();
  }
  return StorageBackend::ExportSnapshot();
}

Status DurableBackend::Flush() {
  obs::TraceSpan span("io", "wal.fsync", unflushed_);
  io_.bytes_flushed += unflushed_;
  unflushed_ = 0;
  ++io_.fsyncs;
  return Status::OK();
}

Status DurableBackend::Wipe() {
  table_ = KvStore();
  wal_.Clear();
  unflushed_ = 0;
  checkpointed_ = false;
  return Status::OK();
}

Result<size_t> DurableBackend::Recover(std::string_view log_bytes) {
  obs::TraceSpan span("io", "wal.recover", log_bytes.size());
  // Recovered records are applied to the memtable without re-logging, so
  // from here on the local log no longer covers the whole history.
  checkpointed_ = true;
  WalReader reader(log_bytes);
  size_t applied = 0;
  // Stops at the clean end (NotFound) or a corrupt tail (kInternal):
  // everything before it is recovered.
  for (auto record = reader.Next(); record.ok(); record = reader.Next()) {
    switch (record->op) {
      case WalOp::kPut:
        SKUTE_RETURN_IF_ERROR(table_.Put(record->key, record->value));
        break;
      case WalOp::kDelete:
        (void)table_.Delete(record->key);
        break;
    }
    ++applied;
  }
  return applied;
}

void DurableBackend::Checkpoint() {
  obs::TraceSpan span("io", "wal.checkpoint", wal_.data().size());
  wal_.Clear();
  unflushed_ = 0;
  checkpointed_ = true;
}

}  // namespace skute
