// Output checks that do not trust the program's own bookkeeping: Eq. 2
// is recomputed here from raw Location ids, placement is re-walked, and
// replica contents are compared byte for byte.

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "bench.h"
#include "skute/engine/epoch_context.h"
#include "skute/ring/catalog.h"
#include "skute/storage/replica_store.h"

namespace skutebench {

namespace {

/// The paper's diversity value between two locations, written out from
/// its definition: levels are compared most significant first and the
/// first mismatch decides; k shared leading levels give 2^(6-k) - 1
/// (63 for different continents, 0 for the same server).
double Diversity(const skute::Location& a, const skute::Location& b) {
  int common = 0;
  while (common < skute::Location::kLevels &&
         a.ids[common] == b.ids[common]) {
    ++common;
  }
  return static_cast<double>((1u << (skute::Location::kLevels - common)) - 1);
}

}  // namespace

double IndependentAvailability(const skute::Partition& p,
                               const skute::Cluster& cluster) {
  std::vector<const skute::Server*> live;
  for (const skute::ReplicaInfo& r : p.replicas()) {
    const skute::Server* s = cluster.server(r.server);
    if (s != nullptr && s->online()) live.push_back(s);
  }
  double avail = 0.0;
  for (size_t a = 0; a < live.size(); ++a) {
    for (size_t b = a + 1; b < live.size(); ++b) {
      avail += live[a]->economics().confidence *
               live[b]->economics().confidence *
               Diversity(live[a]->location(), live[b]->location());
    }
  }
  return avail;
}

void CheckPlacement(const skute::SkuteStore& store, bool require_sla,
                    const std::string& when, Outcome* out) {
  const skute::Cluster& cluster = store.cluster();
  uint64_t duplicate = 0, offline = 0, lost = 0, below = 0;
  double worst_gap = 0.0;
  store.catalog().ForEachPartition([&](const skute::Partition* p) {
    std::set<skute::ServerId> seen;
    for (const skute::ReplicaInfo& r : p->replicas()) {
      if (!seen.insert(r.server).second) ++duplicate;
      const skute::Server* s = cluster.server(r.server);
      if (s == nullptr || !s->online()) ++offline;
    }
    if (p->replicas().empty()) ++lost;
    if (require_sla) {
      const skute::SlaLevel* sla = store.sla_of_ring(p->ring());
      const double th = sla == nullptr ? 0.0 : sla->min_availability;
      const double avail = IndependentAvailability(*p, cluster);
      if (avail < th * (1.0 - 1e-12)) {
        ++below;
        worst_gap = std::max(worst_gap, th - avail);
      }
    }
  });
  out->Check(duplicate == 0, when + ": " + std::to_string(duplicate) +
                                 " replicas share a server with a sibling");
  out->Check(offline == 0, when + ": " + std::to_string(offline) +
                               " replicas sit on offline or unknown servers");
  out->Check(lost == 0, when + ": " + std::to_string(lost) +
                            " partitions have no replica");
  out->Check(below == 0, when + ": " + std::to_string(below) +
                             " partitions below their ring's threshold by "
                             "recomputed Eq. 2 (worst gap " +
                             std::to_string(worst_gap) + ")");
}

uint64_t CatalogLogicalBytes(const skute::SkuteStore& store) {
  uint64_t bytes = 0;
  store.catalog().ForEachPartition(
      [&](const skute::Partition* p) { bytes += p->bytes(); });
  return bytes;
}

void ReplicaOracle::Run(skute::EpochContext& ctx) {
  if (!armed_ || ctx.replica_data == nullptr) return;
  armed_ = false;
  result_ = Result{};
  result_.ran = true;
  using Contents = std::vector<std::pair<std::string, std::string>>;
  const auto contents_of = [&](skute::ServerId server,
                               skute::PartitionId pid) -> Contents {
    const skute::ReplicaStore* rs = ctx.replica_data->Find(server);
    const skute::StorageBackend* b = rs == nullptr ? nullptr : rs->Find(pid);
    if (b == nullptr) return {};
    return b->Scan("", std::numeric_limits<size_t>::max());
  };
  ctx.catalog->ForEachPartition([&](const skute::Partition* p) {
    ++result_.partitions;
    std::vector<skute::ServerId> live;
    for (const skute::ReplicaInfo& r : p->replicas()) {
      const skute::Server* s = ctx.cluster->server(r.server);
      if (s != nullptr && s->online()) live.push_back(r.server);
    }
    // Primary: the first live replica whose server holds a backend for
    // the partition.
    size_t primary = live.size();
    for (size_t i = 0; i < live.size(); ++i) {
      const skute::ReplicaStore* rs = ctx.replica_data->Find(live[i]);
      if (rs != nullptr && rs->Find(p->id()) != nullptr) {
        primary = i;
        break;
      }
    }
    if (primary == live.size()) return;  // no real data anywhere
    const Contents reference = contents_of(live[primary], p->id());
    for (const auto& kv : reference) {
      result_.primary_bytes += kv.first.size() + kv.second.size();
    }
    result_.primary_keys += reference.size();
    for (size_t i = 0; i < live.size(); ++i) {
      if (i == primary) continue;
      ++result_.replicas_compared;
      const Contents other = contents_of(live[i], p->id());
      if (other != reference) {
        ++result_.mismatches;
        if (result_.first_mismatch.empty()) {
          result_.first_mismatch =
              "partition " + std::to_string(p->id()) + ": server " +
              std::to_string(live[i]) + " holds " +
              std::to_string(other.size()) + " keys, primary server " +
              std::to_string(live[primary]) + " holds " +
              std::to_string(reference.size());
        }
      }
    }
  });
}

}  // namespace skutebench
