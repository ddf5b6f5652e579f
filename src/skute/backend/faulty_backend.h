#ifndef SKUTE_BACKEND_FAULTY_BACKEND_H_
#define SKUTE_BACKEND_FAULTY_BACKEND_H_

#include <atomic>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "skute/backend/backend.h"
#include "skute/chaos/fault_state.h"

namespace skute {

/// \brief Chaos decorator: wraps any StorageBackend and injects the
/// armed storage faults (fsync failures, torn snapshot exports,
/// slow-disk throttling) at the interface boundary.
///
/// Injection is bit-for-bit deterministic: every draw is a pure hash of
/// (scenario seed, current epoch, server id, per-backend call nonce) —
/// see chaos::FaultFires — never of wall clock or shared RNG state. The
/// nonce sequence is deterministic because each backend's flushes and
/// exports are already serialized by the engine (conflict groups own a
/// source server exclusively; the durability drain flushes a backend
/// from exactly one job), so the N-thread schedule replays the 1-thread
/// draw sequence exactly.
///
/// The wrapper, not the inner backend, is what ReplicaStore holds: the
/// IoPool is attached to the wrapper (so pool-driven flushes pass
/// through the injection point), and io()/NoteGroupCommit forward to the
/// inner backend so accounting is unchanged. The inner backend is
/// created without a pool; its inline MaybeSubmitFlush stays dormant and
/// background compaction is disabled under chaos (it requires a pool on
/// the inner backend).
class FaultyBackend : public StorageBackend {
 public:
  FaultyBackend(std::unique_ptr<StorageBackend> inner,
                const chaos::StorageFaultState* state,
                chaos::ChaosCounters* counters, uint32_t server_id,
                uint64_t partition_id);

  StorageBackend* inner() { return inner_.get(); }
  const StorageBackend* inner() const { return inner_.get(); }

  // --- forwarded interface ------------------------------------------------
  BackendKind kind() const override { return inner_->kind(); }
  Status Put(std::string_view key, std::string_view value) override {
    return inner_->Put(key, value);
  }
  Result<std::string> Get(std::string_view key) const override {
    return inner_->Get(key);
  }
  Status Delete(std::string_view key) override { return inner_->Delete(key); }
  bool Contains(std::string_view key) const override {
    return inner_->Contains(key);
  }
  size_t Count() const override { return inner_->Count(); }
  uint64_t ApproximateBytes() const override {
    return inner_->ApproximateBytes();
  }
  std::vector<std::pair<std::string, std::string>> Scan(
      std::string_view start_key, size_t limit) const override {
    return inner_->Scan(start_key, limit);
  }
  Status ImportSnapshot(std::string_view bytes) override {
    return inner_->ImportSnapshot(bytes);
  }
  Status Wipe() override { return inner_->Wipe(); }
  uint64_t UnflushedBytes() const override {
    return inner_->UnflushedBytes();
  }
  const IoStats& io() const override { return inner_->io(); }
  void NoteGroupCommit(uint64_t coalesced) override {
    inner_->NoteGroupCommit(coalesced);
  }

  // --- injection points ---------------------------------------------------
  /// Slow-disk throttle (metered + slept), then the fsync-fail draw:
  /// kInternal without touching the inner backend when it fires,
  /// otherwise the inner flush.
  Status Flush() override;
  /// Inner export, torn to a deterministic prefix when the draw fires.
  std::string ExportSnapshot() const override;

 private:
  /// Epoch-scoped draw nonce: resets when the published epoch advances,
  /// increments per draw. Atomics only to satisfy TSan — per-backend
  /// calls are serialized by the engine's stage/group structure.
  uint64_t NextNonce() const;

  std::unique_ptr<StorageBackend> inner_;
  const chaos::StorageFaultState* state_;
  chaos::ChaosCounters* counters_;
  const uint32_t server_id_;
  const uint64_t partition_id_;

  mutable std::atomic<uint64_t> draw_epoch_{~0ull};
  mutable std::atomic<uint64_t> nonce_{0};
};

}  // namespace skute

#endif  // SKUTE_BACKEND_FAULTY_BACKEND_H_
