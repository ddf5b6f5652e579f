#ifndef SKUTE_WORKLOAD_INSERTGEN_H_
#define SKUTE_WORKLOAD_INSERTGEN_H_

#include <vector>

#include "skute/common/random.h"
#include "skute/core/store.h"
#include "skute/workload/popularity.h"

namespace skute {

/// Insert workload parameters (Section III-E: 2000 inserts/epoch of 500 KB
/// each, Pareto-skewed across the key space).
struct InsertWorkloadOptions {
  uint64_t inserts_per_epoch = 2000;
  uint32_t object_bytes = 500 * kKB;
  /// When nonzero, inserts carry real values of this many bytes (via
  /// SkuteStore::PutSized) instead of synthetic size-only records. Real
  /// values flow through the storage backends, which is what exercises
  /// the durability plane (WAL appends, group commit, snapshot repair);
  /// synthetic inserts only move accounting counters. The store must be
  /// built with track_real_data = true for the bytes to materialize.
  uint32_t real_value_bytes = 0;
};

/// Uniform random key hash inside a key range (handles wrapping arcs).
uint64_t SampleHashInRange(const KeyRange& range, Rng* rng);

/// \brief Storage-saturation workload (Fig. 5): streams fixed-size inserts
/// into the store, skewed toward popular partitions (the partitions'
/// Pareto weights double as the insert skew, matching the paper's
/// "requests are Pareto(1,50)-distributed").
class InsertGenerator {
 public:
  InsertGenerator(const InsertWorkloadOptions& options, uint64_t seed)
      : options_(options), rng_(seed) {}

  struct EpochResult {
    uint64_t attempted = 0;
    uint64_t failed = 0;       // rejected for lack of storage/replicas
    uint64_t bytes_accepted = 0;
  };

  /// Issues one epoch of inserts, spread equally across `rings` and
  /// weighted by partition popularity within each ring.
  EpochResult GenerateEpoch(SkuteStore* store,
                            const std::vector<RingId>& rings);

  const InsertWorkloadOptions& options() const { return options_; }

 private:
  InsertWorkloadOptions options_;
  Rng rng_;
  uint64_t real_seq_ = 0;  // unique suffix for real-mode keys
};

/// Result of a synthetic bulk load.
struct BulkLoadResult {
  uint64_t objects = 0;
  uint64_t failures = 0;
  uint64_t bytes = 0;
};

/// \brief Loads `total_bytes` of synthetic objects (each `object_bytes`)
/// into a ring, uniformly over the hash space — the paper's initial
/// "Data (500 GB)" state. Splits happen along the way as partitions cross
/// the cap.
BulkLoadResult BulkLoadSynthetic(SkuteStore* store, RingId ring,
                                 uint64_t total_bytes, uint32_t object_bytes,
                                 Rng* rng);

}  // namespace skute

#endif  // SKUTE_WORKLOAD_INSERTGEN_H_
