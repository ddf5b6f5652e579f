#ifndef SKUTE_BACKEND_BACKEND_H_
#define SKUTE_BACKEND_BACKEND_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "skute/backend/config.h"
#include "skute/backend/io_stats.h"
#include "skute/common/result.h"

namespace skute {

class IoPool;

/// \brief The storage engine behind one partition replica.
///
/// ReplicaStore holds one backend per hosted partition; the factory picks
/// the implementation per server. The contract every implementation must
/// honour (enforced by the parameterized conformance suite in
/// tests/backend/):
///
///  - Put upserts; Get returns NotFound for absent keys; Delete returns
///    NotFound for absent keys and OK after removing a present one.
///  - Scan returns up to `limit` pairs with key >= start_key, key-ordered.
///  - ApproximateBytes is the sum of live key+value sizes (the footprint
///    the placement economy accounts).
///  - ExportSnapshot/ImportSnapshot use one backend-agnostic wire format
///    (WAL-framed records), so replication and migration work across
///    heterogeneous backends.
///  - Every operation bumps the IoStats block; persistence-free backends
///    simply leave the log/flush/fsync counters at zero.
class StorageBackend {
 public:
  virtual ~StorageBackend();

  virtual BackendKind kind() const = 0;

  virtual Status Put(std::string_view key, std::string_view value) = 0;
  virtual Result<std::string> Get(std::string_view key) const = 0;
  virtual Status Delete(std::string_view key) = 0;
  virtual bool Contains(std::string_view key) const = 0;
  virtual size_t Count() const = 0;

  /// Sum of live key+value sizes — the storage-accounting footprint.
  virtual uint64_t ApproximateBytes() const = 0;

  /// Up to `limit` (key, value) pairs with key >= start_key, in key order.
  virtual std::vector<std::pair<std::string, std::string>> Scan(
      std::string_view start_key, size_t limit) const = 0;

  /// Serializes the live state as a WAL-framed byte stream (key order).
  /// This is what replication ships between servers; the default walks
  /// Scan, implementations may stream their log instead.
  virtual std::string ExportSnapshot() const;

  /// Replays a snapshot over the current state. Damaged input applies the
  /// intact prefix and returns kInternal (mirrors the WAL contract).
  virtual Status ImportSnapshot(std::string_view bytes);

  /// Pushes buffered writes to stable media; no-op for volatile backends.
  virtual Status Flush() { return Status::OK(); }

  /// Removes all state *including* persistent artifacts (segment files).
  /// The backend stays usable (empty) afterwards.
  virtual Status Wipe() = 0;

  // --- async durability plane ----------------------------------------------

  /// Bytes written since the last flush/fsync — what the durability stage
  /// sweeps into the IoPool at epoch end. Volatile backends report 0.
  virtual uint64_t UnflushedBytes() const { return 0; }

  /// Attaches the I/O offload pool. A backend with a pool stops fsyncing
  /// inline past `flush_watermark` unflushed bytes and submits to the
  /// pool instead (coalescing into group commits at the next drain).
  /// Detached automatically on destruction.
  void AttachIoPool(IoPool* pool, uint64_t flush_watermark);

  /// Called by the IoPool when a drain covered this backend's pending
  /// flush requests with one fsync: `coalesced` is how many requests were
  /// absorbed beyond the first. Virtual so decorators (FaultyBackend)
  /// can forward the accounting to the wrapped backend.
  virtual void NoteGroupCommit(uint64_t coalesced) {
    ++io_.group_commits;
    io_.coalesced_fsyncs += coalesced;
  }

  /// Meters emulated disk latency (chaos slow-disk fault) into this
  /// backend's IoStats.
  void NoteThrottle(uint64_t us) { io_.throttle_us += us; }

  /// Virtual so decorators can surface the wrapped backend's counters.
  virtual const IoStats& io() const { return io_; }

 protected:
  /// True when the watermark says it's time to hand the accumulated
  /// unflushed bytes to the pool; implementations call this after
  /// metering a write and skip their inline fsync when it returns true.
  bool MaybeSubmitFlush();

  IoPool* io_pool() const { return io_pool_; }

  /// Reads (Get/Scan) are const but still metered.
  mutable IoStats io_;

 private:
  IoPool* io_pool_ = nullptr;
  uint64_t flush_watermark_ = 0;
};

}  // namespace skute

#endif  // SKUTE_BACKEND_BACKEND_H_
