// Shared pieces of the skute end-to-end benchmark binary: run totals,
// the metric sink, small statistics helpers, the independent output
// checks (checks.cc), the wire client (wire.cc) and the trace report
// (trace_report.cc).
#ifndef SKUTEBENCH_BENCH_H_
#define SKUTEBENCH_BENCH_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "skute/core/store.h"
#include "skute/engine/epoch_stage.h"

namespace skutebench {

double NowSeconds();

/// Median and nearest-rank quantile of a sample (the input is copied).
double Quantile(std::vector<double> values, double q);
inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

/// One reported metric, printed as {"value": v, "unit": u}.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Operations attempted and failed, plus every output-check failure.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> check_failures;

  void Check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
  bool correct() const { return check_failures.empty(); }
};

// --- Independent output checks (checks.cc) --------------------------------

/// Eq. 2 recomputed from the replicas' Location ids and confidences with
/// the benchmark's own diversity mask: sum over replica pairs of
/// conf_a * conf_b * (2^(6 - common levels) - 1).
double IndependentAvailability(const skute::Partition& p,
                               const skute::Cluster& cluster);

/// Walks every partition: replicas on distinct, existing, online servers;
/// no partition without a replica; and (when `require_sla`) every
/// partition's recomputed Eq. 2 availability at or above its ring's
/// threshold. Failures are appended to `out` prefixed by `when`.
void CheckPlacement(const skute::SkuteStore& store, bool require_sla,
                    const std::string& when, Outcome* out);

/// Sum of every partition's logical (one-copy) bytes in the catalog.
uint64_t CatalogLogicalBytes(const skute::SkuteStore& store);

/// \brief kEnd stage appended after the store's own stages. When armed it
/// compares, once, every live replica's contents with the partition's
/// primary (the first live replica holding data, the same rule the
/// durability stage ships from): same keys, same values.
class ReplicaOracle : public skute::EpochStage {
 public:
  struct Result {
    bool ran = false;
    uint64_t partitions = 0;
    uint64_t replicas_compared = 0;
    uint64_t mismatches = 0;
    /// Key + value bytes and key count held by the primaries.
    uint64_t primary_bytes = 0;
    uint64_t primary_keys = 0;
    std::string first_mismatch;
  };

  const char* name() const override { return "bench.replica_oracle"; }
  skute::EpochPhase phase() const override { return skute::EpochPhase::kEnd; }
  void Run(skute::EpochContext& ctx) override;

  void Arm() { armed_ = true; }
  const Result& result() const { return result_; }

 private:
  bool armed_ = false;
  Result result_;
};

// --- Wire clients (wire.cc) -------------------------------------------------

/// Zipf-distributed key draws over one client's own key range, with the
/// GET/PUT mix; shared by the wire clients and the in-process probe.
class KeyMix {
 public:
  KeyMix(uint64_t seed, int client);
  struct Op {
    uint32_t key_index = 0;
    bool put = false;
  };
  Op Next();
  /// Fixed-width key of this client, e.g. "c1-k00042".
  std::string Key(uint32_t index) const;
  /// Fixed-width (kValueBytes) value for the client's `seq`-th write.
  std::string Value(uint64_t seq) const;

  static constexpr uint32_t kKeys = 1000;
  static constexpr double kZipf = 0.99;
  static constexpr double kPutFraction = 0.2;
  static constexpr size_t kKeyBytes = 9;
  static constexpr size_t kValueBytes = 64;

 private:
  uint64_t state_;
  int client_;
  std::vector<double> cdf_;
};

/// Closed-loop wire clients per serve phase, one request in flight each.
constexpr int kWireClients = 2;

struct WireOptions {
  int port = 0;
  uint64_t ops_per_client = 0;
  uint64_t seed = 1;
  size_t rings = 1;
};

/// What one closed-loop client saw.
struct WireClientResult {
  std::vector<double> get_us;
  std::vector<double> put_us;
  uint64_t ops = 0;
  uint64_t stored = 0;
  uint64_t error_replies = 0;
  uint64_t transport_errors = 0;
  uint64_t ryw_violations = 0;
  uint64_t not_attempted = 0;
  std::string first_failure;
  /// The last value this client wrote, per key index.
  std::unordered_map<uint32_t, std::string> last_written;
  double first_send = 0.0;
  double last_reply = 0.0;
};

/// \brief kWireClients threads, each with one connection and one request in
/// flight: GET/PUT over its own Zipf key range, checking read-your-writes
/// on every GET.
class WireLoad {
 public:
  explicit WireLoad(WireOptions options);
  ~WireLoad();
  WireLoad(const WireLoad&) = delete;
  WireLoad& operator=(const WireLoad&) = delete;

  void Start();
  bool Done() const {
    return done_.load(std::memory_order_acquire) ==
           static_cast<int>(threads_.size());
  }
  /// Joins every client; results are then stable.
  void Join();
  const std::vector<WireClientResult>& results() const { return results_; }

 private:
  void RunClient(int index);

  WireOptions options_;
  std::vector<WireClientResult> results_;
  std::vector<std::thread> threads_;
  std::atomic<int> done_{0};
};

// --- Trace report (trace_report.cc) ----------------------------------------

/// Per-category self time (span time minus the time its same-thread child
/// spans cover) and a few named span totals, from the global tracer.
struct TraceReport {
  std::unordered_map<std::string, double> self_ms;      // by category
  double Total(const char* name) const;
  double CategoryTotal(const char* category) const;
  std::unordered_map<std::string, double> span_ms;      // by span name
  std::unordered_map<std::string, double> category_ms;  // by category
  uint64_t spans = 0;
};
TraceReport AnalyzeTrace();

/// Wall cost of recording one span with tracing on, in nanoseconds.
double MeasureSpanCostNs();

}  // namespace skutebench

#endif  // SKUTEBENCH_BENCH_H_
