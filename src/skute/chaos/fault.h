#ifndef SKUTE_CHAOS_FAULT_H_
#define SKUTE_CHAOS_FAULT_H_

#include <cstdint>

namespace skute {
namespace chaos {

/// The fault taxonomy. Every kind is armed/disarmed by a scheduled
/// `SimEvent` (Kind::kChaos) and fires deterministically from a pure
/// hash of (seed, epoch, identity, nonce) — never from shared mutable
/// RNG state — so `threads=1 ≡ threads=N` holds with chaos enabled.
enum class FaultKind : uint8_t {
  kNone = 0,
  /// Storage: `Flush()` on faulted backends fails with probability
  /// `per_mille` (returns kInternal instead of fsyncing). Exercises the
  /// IoPool's bounded retry path.
  kFsyncFail,
  /// Storage: snapshot exports are torn — truncated at a
  /// deterministic byte offset — with probability `per_mille`.
  /// Exercises CRC-guarded import rejection and the executor's
  /// blocked-transfer handling.
  kTornTransfer,
  /// Storage: every flush on faulted backends is throttled by
  /// `slow_us` microseconds of emulated disk latency, metered into
  /// `IoStats::throttle_us`.
  kSlowDisk,
  /// Network: each server is cut from the client routing plane
  /// (mix-unreachable) with probability `per_mille`. Routing skips
  /// partitioned replicas exactly like zero-proximity ones.
  kNetPartition,
  /// Network: clear every partition applied by kNetPartition.
  kHealPartition,
};

/// One scheduled fault transition. `per_mille = 0` disarms the window
/// for the storage kinds.
struct Fault {
  FaultKind kind = FaultKind::kNone;
  /// Firing probability in 1/1000ths (1000 = always).
  uint32_t per_mille = 0;
  /// kSlowDisk only: emulated latency per flush, microseconds.
  uint32_t slow_us = 0;
  /// Distinguishes draws of independent windows sharing a seed.
  uint64_t salt = 0;
};

const char* FaultKindName(FaultKind kind);

/// Deterministic fault draw: a SplitMix64-style avalanche over the
/// scenario seed, the epoch the window is evaluated in, the fault salt,
/// and two identity words (e.g. server id + per-backend nonce). Pure —
/// safe to call from any thread, bit-identical at any thread count.
inline uint64_t FaultHash(uint64_t seed, uint64_t epoch, uint64_t salt,
                          uint64_t a, uint64_t b) {
  uint64_t x = seed;
  x += 0x9e3779b97f4a7c15ull * (epoch + 1);
  x ^= salt * 0xc2b2ae3d27d4eb4full;
  x += a * 0xd6e8feb86659fd93ull;
  x ^= b * 0xa0761d6478bd642full;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

inline bool FaultFires(uint64_t seed, uint64_t epoch, uint64_t salt,
                       uint64_t a, uint64_t b, uint32_t per_mille) {
  if (per_mille == 0) return false;
  if (per_mille >= 1000) return true;
  return FaultHash(seed, epoch, salt, a, b) % 1000 < per_mille;
}

}  // namespace chaos
}  // namespace skute

#endif  // SKUTE_CHAOS_FAULT_H_
