#include "skute/backend/faulty_backend.h"

#include <unistd.h>

#include "skute/chaos/fault.h"
#include "skute/chaos/torn.h"

namespace skute {

namespace {

constexpr uint64_t kFlushWord = 0x464c5553ull;   // "FLUS"
constexpr uint64_t kExportWord = 0x4558504full;  // "EXPO"

}  // namespace

FaultyBackend::FaultyBackend(std::unique_ptr<StorageBackend> inner,
                             const chaos::StorageFaultState* state,
                             chaos::ChaosCounters* counters,
                             uint32_t server_id, uint64_t partition_id)
    : inner_(std::move(inner)),
      state_(state),
      counters_(counters),
      server_id_(server_id),
      partition_id_(partition_id) {}

uint64_t FaultyBackend::NextNonce() const {
  const uint64_t e = state_->epoch.load(std::memory_order_relaxed);
  if (draw_epoch_.load(std::memory_order_relaxed) != e) {
    draw_epoch_.store(e, std::memory_order_relaxed);
    nonce_.store(0, std::memory_order_relaxed);
  }
  return nonce_.fetch_add(1, std::memory_order_relaxed);
}

Status FaultyBackend::Flush() {
  const uint64_t seed = state_->seed.load(std::memory_order_relaxed);
  const uint64_t epoch = state_->epoch.load(std::memory_order_relaxed);
  const uint64_t id =
      (static_cast<uint64_t>(server_id_) << 32) ^ partition_id_;

  const uint32_t slow = state_->slow_us.load(std::memory_order_relaxed);
  if (slow != 0) {
    // Emulated disk latency: metered deterministically, slept for real
    // so IoPool::Drain wall time actually degrades under the fault.
    counters_->slow_flushes.fetch_add(1, std::memory_order_relaxed);
    counters_->throttle_us.fetch_add(slow, std::memory_order_relaxed);
    inner_->NoteThrottle(slow);
    usleep(slow);
  }

  const uint32_t fail_pm =
      state_->fsync_fail_pm.load(std::memory_order_relaxed);
  if (fail_pm != 0) {
    const uint64_t salt =
        state_->fsync_salt.load(std::memory_order_relaxed) ^ kFlushWord;
    if (chaos::FaultFires(seed, epoch, salt, id, NextNonce(), fail_pm)) {
      counters_->fsync_failures.fetch_add(1, std::memory_order_relaxed);
      return Status::Internal("chaos: injected fsync failure");
    }
  }
  return inner_->Flush();
}

std::string FaultyBackend::ExportSnapshot() const {
  std::string out = inner_->ExportSnapshot();
  const uint32_t torn_pm = state_->torn_pm.load(std::memory_order_relaxed);
  if (torn_pm == 0 || out.empty()) return out;
  const uint64_t seed = state_->seed.load(std::memory_order_relaxed);
  const uint64_t epoch = state_->epoch.load(std::memory_order_relaxed);
  const uint64_t salt =
      state_->torn_salt.load(std::memory_order_relaxed) ^ kExportWord;
  const uint64_t id =
      (static_cast<uint64_t>(server_id_) << 32) ^ partition_id_;
  const uint64_t nonce = NextNonce();
  if (chaos::FaultFires(seed, epoch, salt, id, nonce, torn_pm)) {
    counters_->torn_transfers.fetch_add(1, std::memory_order_relaxed);
    return chaos::TornTail(
        out, chaos::TornKeepLength(seed, epoch, salt, id, nonce, out.size()));
  }
  return out;
}

}  // namespace skute
