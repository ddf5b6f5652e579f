#include "skute/core/store.h"

#include <algorithm>

#include "skute/common/hash.h"
#include "skute/economy/availability.h"
#include "skute/io/io_pool.h"
#include "skute/obs/clock.h"

namespace skute {

SkuteStore::SkuteStore(Cluster* cluster, const SkuteOptions& options)
    : cluster_(cluster),
      options_(options),
      vnodes_(options.decision.balance_window),
      policy_(std::make_unique<EconomicPolicy>(options.decision)),
      io_pool_(options.durability.io_threads > 0
                   ? std::make_unique<IoPool>(options.durability.io_threads)
                   : nullptr),
      executor_(cluster, &catalog_, &vnodes_,
                options.track_real_data ? &replica_data_ : nullptr),
      rng_(options.seed),
      pipeline_(options.epoch) {
  // Per-server backend selection reaches the data plane here: a server's
  // ReplicaStore is created with the factory derived from its config.
  replica_data_.set_provider(
      [this](uint32_t id) { return FactoryForServer(id); });
}

// Out-of-line so ~IoPool (and its final drain) instantiates here, where
// the type is complete; replica_data_ is destroyed first (reverse
// declaration order), so no backend outlives the pool.
SkuteStore::~SkuteStore() = default;

BackendFactory SkuteStore::FactoryForServer(ServerId id) const {
  const Server* s = cluster_->server(id);
  BackendFactory factory(s != nullptr ? s->backend() : BackendConfig{});
  if (io_pool_ != nullptr) factory.AttachIoPool(io_pool_.get());
  if (fault_state_ != nullptr) {
    factory.EnableChaos(fault_state_, chaos_counters_);
  }
  return factory.ForServer(id);
}

void SkuteStore::SetPlacementPolicy(
    std::unique_ptr<PlacementPolicy> policy) {
  policy_ = std::move(policy);
}

AppId SkuteStore::CreateApplication(std::string name) {
  Application app;
  app.id = static_cast<AppId>(apps_.size());
  app.name = std::move(name);
  apps_.push_back(std::move(app));
  return apps_.back().id;
}

Result<RingId> SkuteStore::AttachRing(AppId app, const SlaLevel& sla,
                                      uint32_t initial_partitions) {
  if (app >= apps_.size()) {
    return Status::NotFound("unknown application");
  }
  const std::vector<ServerId> online = cluster_->OnlineServers();
  if (online.empty()) {
    return Status::Unavailable("no online servers for initial placement");
  }
  SKUTE_ASSIGN_OR_RETURN(RingId ring,
                         catalog_.CreateRing(app, initial_partitions));
  apps_[app].rings.push_back(ring);
  RingInfo info;
  info.app = app;
  info.sla = sla;
  ring_info_.push_back(std::move(info));

  // Startup state: one replica per partition on a random online server.
  VirtualRing* r = catalog_.ring(ring);
  for (const auto& p : r->partitions()) {
    const ServerId target =
        online[static_cast<size_t>(rng_.UniformInt(0, online.size() - 1))];
    const VNodeId vid = catalog_.AllocateVNodeId();
    (void)p->AddReplica(target, vid, epoch_);
    vnodes_.Create(vid, p->id(), ring, target, epoch_);
  }

  policies_.clear();  // force rebuild
  ++placement_version_;
  ring_queries_epoch_.resize(catalog_.ring_count(), 0);
  ring_spend_epoch_.resize(catalog_.ring_count(), 0.0);
  ring_spend_total_.resize(catalog_.ring_count(), 0.0);
  return ring;
}

Status SkuteStore::SetClientMix(RingId ring, ClientMix mix) {
  if (ring >= ring_info_.size()) {
    return Status::NotFound("unknown ring");
  }
  ring_info_[ring].mix = std::move(mix);
  policies_.clear();
  return Status::OK();
}

const Application* SkuteStore::application(AppId id) const {
  if (id >= apps_.size()) return nullptr;
  return &apps_[id];
}

const SlaLevel* SkuteStore::sla_of_ring(RingId ring) const {
  if (ring >= ring_info_.size()) return nullptr;
  return &ring_info_[ring].sla;
}

const ClientMix* SkuteStore::MixOf(RingId ring) const {
  if (ring >= ring_info_.size()) return nullptr;
  const ClientMix& mix = ring_info_[ring].mix;
  return mix.empty() ? nullptr : &mix;
}

const std::vector<RingPolicy>& SkuteStore::policies() {
  if (policies_.size() != catalog_.ring_count()) {
    policies_.clear();
    policies_.reserve(catalog_.ring_count());
    for (RingId r = 0; r < catalog_.ring_count(); ++r) {
      RingPolicy p;
      p.min_availability = ring_info_[r].sla.min_availability;
      p.mix = MixOf(r);
      policies_.push_back(p);
    }
  }
  return policies_;
}

// --- Data plane -------------------------------------------------------------

Status SkuteStore::ReserveOnReplicas(Partition* p, int64_t delta) {
  if (delta == 0) return Status::OK();
  std::vector<Server*> reserved;
  for (const ReplicaInfo& r : p->replicas()) {
    Server* s = cluster_->server(r.server);
    if (s == nullptr || !s->online()) continue;
    if (delta > 0) {
      const Status st = s->ReserveStorage(static_cast<uint64_t>(delta));
      if (!st.ok()) {
        for (Server* undo : reserved) {
          (void)undo->ReleaseStorage(static_cast<uint64_t>(delta));
        }
        return st;
      }
      reserved.push_back(s);
    } else {
      (void)s->ReleaseStorage(static_cast<uint64_t>(-delta));
    }
  }
  return Status::OK();
}

Status SkuteStore::ApplyUpsert(RingId ring, uint64_t key_hash,
                               uint32_t size_bytes, std::string_view key,
                               const std::string* value) {
  Partition* p = catalog_.FindPartition(ring, key_hash);
  if (p == nullptr) return Status::NotFound("unknown ring or empty ring");
  if (p->replica_count() == 0) {
    ++insert_failures_;
    return Status::Unavailable("partition lost (no replicas)");
  }
  // Live replica check: a partition whose every replica is offline cannot
  // accept writes.
  bool any_live = false;
  for (const ReplicaInfo& r : p->replicas()) {
    const Server* s = cluster_->server(r.server);
    if (s != nullptr && s->online()) {
      any_live = true;
      break;
    }
  }
  if (!any_live) {
    ++insert_failures_;
    return Status::Unavailable("all replicas offline");
  }

  const auto existing = p->FindObject(key_hash);
  const int64_t delta =
      static_cast<int64_t>(size_bytes) -
      (existing.ok() ? static_cast<int64_t>(existing.value()) : 0);
  const Status reserve = ReserveOnReplicas(p, delta);
  if (!reserve.ok()) {
    ++insert_failures_;
    return reserve;
  }
  (void)p->UpsertObject(key_hash, size_bytes);

  const bool materialize = value != nullptr && options_.track_real_data;
  size_t live_replicas = 0;
  for (const ReplicaInfo& r : p->replicas()) {
    const Server* s = cluster_->server(r.server);
    if (s == nullptr || !s->online()) continue;
    ++live_replicas;
    if (materialize) {
      (void)replica_data_.For(r.server)
          .OpenOrCreate(p->id())
          ->Put(key, *value);
    }
  }
  // Consistency fan-out: the write's bytes travel to every live replica.
  comm_epoch_.consistency_msgs += live_replicas;
  comm_epoch_.consistency_bytes +=
      static_cast<uint64_t>(size_bytes) * live_replicas;

  stats_[p->id()].write_bytes += size_bytes;
  MaybeSplit(p);
  return Status::OK();
}

Status SkuteStore::Put(RingId ring, std::string_view key,
                       std::string_view value) {
  const std::string v(value);
  return ApplyUpsert(ring, Hash64(key),
                     static_cast<uint32_t>(key.size() + value.size()), key,
                     &v);
}

Status SkuteStore::PutSynthetic(RingId ring, uint64_t key_hash,
                                uint32_t size_bytes) {
  return ApplyUpsert(ring, key_hash, size_bytes, {}, nullptr);
}

Status SkuteStore::PutSized(RingId ring, std::string_view key,
                            uint32_t value_bytes) {
  // Deterministic filler derived from the key, so repeated runs (and
  // replicas) hold byte-identical values.
  const std::string v(
      value_bytes, static_cast<char>('a' + (Hash64(key) % 26)));
  return ApplyUpsert(ring, Hash64(key),
                     static_cast<uint32_t>(key.size()) + value_bytes, key,
                     &v);
}

Server* SkuteStore::BestLiveReplica(const Partition& p, RingId ring,
                                    VNodeId* vnode_out) {
  // Replica choice: best proximity, then least loaded this epoch.
  const ClientMix* mix = MixOf(ring);
  Server* best = nullptr;
  VNodeId best_vnode = kInvalidVNode;
  double best_score = 0.0;
  for (const ReplicaInfo& r : p.replicas()) {
    Server* s = cluster_->server(r.server);
    if (s == nullptr || !s->online()) continue;
    // Chaos net-partitions zero the proximity term (mix-unreachable);
    // the replica only wins if no reachable one exists.
    const double g =
        s->net_partitioned()
            ? 0.0
            : (mix == nullptr ? 1.0
                              : NormalizedProximity(*mix, s->location()));
    const double load =
        static_cast<double>(s->queries_served_this_epoch() + 1);
    const double score = g / load;
    if (best == nullptr || score > best_score) {
      best = s;
      best_vnode = r.vnode;
      best_score = score;
    }
  }
  *vnode_out = best_vnode;
  return best;
}

Result<std::string> SkuteStore::Get(RingId ring, std::string_view key) {
  const uint64_t h = Hash64(key);
  Partition* p = catalog_.FindPartition(ring, h);
  if (p == nullptr) return Status::NotFound("unknown ring");
  if (!p->FindObject(h).ok()) return Status::NotFound("key not found");

  VNodeId best_vnode = kInvalidVNode;
  Server* best = BestLiveReplica(*p, ring, &best_vnode);
  if (best == nullptr) return Status::Unavailable("all replicas offline");

  VirtualNode* v = vnodes_.Find(best_vnode);
  if (v != nullptr) ++v->queries_routed;
  ++ring_queries_epoch_[ring];
  ++comm_epoch_.query_msgs;
  stats_[p->id()].queries += 1;
  if (best->ServeQueries(1) == 0) {
    return Status::ResourceExhausted("replica server saturated");
  }
  if (v != nullptr) ++v->queries_served;

  if (options_.track_real_data) {
    const ReplicaStore* rs = replica_data_.Find(best->id());
    const StorageBackend* store =
        rs == nullptr ? nullptr : rs->Find(p->id());
    if (store != nullptr) {
      auto value = store->Get(key);
      if (value.ok()) return value;
    }
  }
  return Status::FailedPrecondition(
      "object exists but value is synthetic (size-only)");
}

Result<std::string> SkuteStore::ServeGet(RingId ring,
                                         std::string_view key) {
  const uint64_t h = Hash64(key);
  Partition* p = catalog_.FindPartition(ring, h);
  if (p == nullptr) return Status::NotFound("unknown ring");

  // The routing contract: every live request is requested; it becomes
  // routed (capacity debited) or lost, exactly like a synthetic batch
  // query. This happens before the object lookup — a replica answers a
  // miss with work, so the miss consumes routed capacity too.
  ++last_route_.requested;
  VNodeId best_vnode = kInvalidVNode;
  Server* best = BestLiveReplica(*p, ring, &best_vnode);
  if (best == nullptr) {
    ++last_route_.lost;
    return Status::Unavailable("all replicas offline");
  }
  ++last_route_.routed;

  VirtualNode* v = vnodes_.Find(best_vnode);
  if (v != nullptr) ++v->queries_routed;
  ++ring_queries_epoch_[ring];
  ++comm_epoch_.query_msgs;
  stats_[p->id()].queries += 1;
  if (best->ServeQueries(1) == 0) {
    return Status::ResourceExhausted("replica server saturated");
  }
  if (v != nullptr) ++v->queries_served;

  if (!p->FindObject(h).ok()) return Status::NotFound("key not found");
  if (options_.track_real_data) {
    const ReplicaStore* rs = replica_data_.Find(best->id());
    const StorageBackend* store =
        rs == nullptr ? nullptr : rs->Find(p->id());
    if (store != nullptr) {
      auto value = store->Get(key);
      if (value.ok()) return value;
    }
  }
  return Status::FailedPrecondition(
      "object exists but value is synthetic (size-only)");
}

Status SkuteStore::Delete(RingId ring, std::string_view key) {
  const uint64_t h = Hash64(key);
  Partition* p = catalog_.FindPartition(ring, h);
  if (p == nullptr) return Status::NotFound("unknown ring");
  SKUTE_ASSIGN_OR_RETURN(uint32_t size, p->RemoveObject(h));
  (void)ReserveOnReplicas(p, -static_cast<int64_t>(size));
  if (options_.track_real_data) {
    for (const ReplicaInfo& r : p->replicas()) {
      ReplicaStore* rs = replica_data_.Find(r.server);
      StorageBackend* store = rs == nullptr ? nullptr : rs->Find(p->id());
      if (store != nullptr) (void)store->Delete(key);
    }
  }
  return Status::OK();
}

// --- Splits -------------------------------------------------------------------

void SkuteStore::MaybeSplit(Partition* p) {
  while (p->NeedsSplit(options_.max_partition_bytes)) {
    auto sibling_or = catalog_.SplitPartition(p->id());
    if (!sibling_or.ok()) return;  // range exhausted: give up quietly
    ++placement_version_;
    Partition* sibling = *sibling_or;
    if (options_.track_real_data) SplitRealData(*p, *sibling);
    PlaceSiblingReplicas(p, sibling);
    // Loop: in the pathological case where all bytes fell on one side the
    // parent may still exceed the cap; split again (or stop at min range).
    if (sibling->NeedsSplit(options_.max_partition_bytes)) {
      MaybeSplit(sibling);
    }
  }
}

void SkuteStore::MoveSiblingData(PartitionId sibling, ServerId from,
                                 ServerId to) {
  if (!options_.track_real_data) return;
  ReplicaStore* src = replica_data_.Find(from);
  if (src == nullptr || src->Find(sibling) == nullptr) {
    return;
  }
  // When the target is another parent-replica server it already holds an
  // identical copy from SplitRealData: keep that one, drop the source's.
  if (replica_data_.For(to).Find(sibling) != nullptr) {
    (void)src->Drop(sibling);
    return;
  }
  (void)replica_data_.For(to).MoveFrom(src, sibling);
}

void SkuteStore::PlaceSiblingReplicas(Partition* parent,
                                      Partition* sibling) {
  // A split's upper half is re-placed through Eq. 3 rather than mirrored
  // onto the parent's servers. Mirroring is free but pins a hot
  // partition's whole growing lineage to the same few servers — they hit
  // 100% while the cluster is half empty (insert failures at 57% cluster
  // utilization in the Fig. 5 scenario). Re-placement exports half the
  // bytes per split through the normal admission/bandwidth machinery,
  // which is what makes the paper's "balances the used storage
  // efficiently" claim come out. When no transfer is possible this epoch
  // (budgets, admission), the replica falls back to mirroring in place
  // and later pressure-driven splits retry.
  const uint64_t bytes = sibling->bytes();
  const ClientMix* mix = MixOf(sibling->ring());
  // Snapshot: AddReplica below must not affect the iteration source.
  const std::vector<ReplicaInfo> parent_replicas = parent->replicas();
  for (const ReplicaInfo& parent_rep : parent_replicas) {
    Server* origin = cluster_->server(parent_rep.server);
    ServerId chosen = parent_rep.server;  // fallback: mirror in place
    if (bytes > 0 && origin != nullptr && origin->online() &&
        origin->CanStartReplication()) {
      auto choice = SelectTargetForSet(
          *cluster_, ReplicaServerSet(*sibling), bytes, mix,
          options_.decision.candidate, /*exclude=*/{},
          /*surcharge=*/nullptr, /*tie_break_salt=*/sibling->id());
      if (choice.ok() && choice->server != parent_rep.server) {
        Server* target = cluster_->server(choice->server);
        if (target != nullptr && target->CanStartReplication() &&
            target->ReserveStorage(bytes).ok()) {
          (void)origin->ReleaseStorage(bytes);
          origin->ChargeReplication(bytes);
          target->ChargeReplication(bytes);
          MoveSiblingData(sibling->id(), parent_rep.server,
                          choice->server);
          ++comm_epoch_.transfer_msgs;
          comm_epoch_.transfer_bytes += bytes;
          chosen = choice->server;
        }
      }
    }
    if (sibling->HasReplicaOn(chosen)) {
      // Rare collision, only possible on the mirror fallback: Eq. 3
      // already placed a sibling replica on this very server (it was a
      // transfer target earlier in this loop). Release this copy's bytes
      // — they were reserved under the parent, and the live replica's
      // bytes were reserved separately by the transfer. The KvStore slot
      // now belongs to the live replica, so the data stays. The repair
      // pass restores the replica count next epoch if the SLA needs it.
      if (origin != nullptr && bytes > 0) {
        (void)origin->ReleaseStorage(bytes);
      }
      continue;
    }
    const VNodeId vid = catalog_.AllocateVNodeId();
    (void)sibling->AddReplica(chosen, vid, epoch_);
    vnodes_.Create(vid, sibling->id(), sibling->ring(), chosen, epoch_);
  }
}

void SkuteStore::SplitRealData(const Partition& lower,
                               const Partition& upper) {
  for (const ReplicaInfo& r : lower.replicas()) {
    ReplicaStore* rs = replica_data_.Find(r.server);
    if (rs == nullptr) continue;
    StorageBackend* src = rs->Find(lower.id());
    if (src == nullptr) continue;
    StorageBackend* dst = rs->OpenOrCreate(upper.id());
    // Move every key whose hash now belongs to the upper range.
    std::vector<std::string> moved;
    for (const auto& [key, value] : src->Scan("", src->Count())) {
      if (upper.range().Contains(Hash64(key))) {
        (void)dst->Put(key, value);
        moved.push_back(key);
      }
    }
    for (const std::string& key : moved) (void)src->Delete(key);
  }
}

// --- Query plane -----------------------------------------------------------------

RouteResult SkuteStore::RouteQueryBatch(const QueryBatch& batch) {
  EpochContext ctx = MakeEpochContext(&policies());
  ctx.query_batch = &batch;
  const obs::StopWatch watch;
  pipeline_.Run(EpochPhase::kRoute, ctx);
  ctx.route_result.route_ms = watch.ElapsedMs();
  last_route_.Accumulate(ctx.route_result);
  return ctx.route_result;
}

void SkuteStore::RouteQueriesToPartition(Partition* partition,
                                         uint64_t count) {
  if (partition == nullptr || count == 0) return;
  RouteAccum accum;
  ComputePartitionRoute(cluster_, &vnodes_, *partition, count,
                        MixOf(partition->ring()), &accum);
  ApplyRouteAccum(accum, &stats_, &ring_queries_epoch_, &comm_epoch_,
                  &last_route_);
}

void SkuteStore::RouteQueries(RingId ring, uint64_t key_hash,
                              uint64_t count) {
  RouteQueriesToPartition(catalog_.FindPartition(ring, key_hash), count);
}

// --- Epoch lifecycle -----------------------------------------------------------
//
// All pass logic lives in the EpochPipeline's stages (skute/engine): the
// store only assembles the context over its own members.

EpochContext SkuteStore::MakeEpochContext(
    const std::vector<RingPolicy>* policies) {
  EpochContext ctx;
  ctx.cluster = cluster_;
  ctx.catalog = &catalog_;
  ctx.vnodes = &vnodes_;
  ctx.policy = policy_.get();
  ctx.executor = &executor_;
  ctx.rng = &rng_;
  ctx.decision = &options_.decision;
  ctx.policies = policies;
  ctx.epoch = &epoch_;
  ctx.seed = options_.seed;
  ctx.stats = &stats_;
  ctx.ring_queries_epoch = &ring_queries_epoch_;
  ctx.ring_spend_epoch = &ring_spend_epoch_;
  ctx.ring_spend_total = &ring_spend_total_;
  ctx.comm_epoch = &comm_epoch_;
  ctx.comm_total = &comm_total_;
  ctx.net_epoch = &net_epoch_;
  ctx.net_total = &net_total_;
  ctx.last_stats = &last_stats_;
  ctx.last_route = &last_route_;
  ctx.placement_version = &placement_version_;
  ctx.replica_data = options_.track_real_data ? &replica_data_ : nullptr;
  ctx.io_pool = io_pool_.get();
  return ctx;
}

void SkuteStore::BeginEpoch() {
  EpochContext ctx = MakeEpochContext(/*policies=*/nullptr);
  pipeline_.Run(EpochPhase::kBegin, ctx);
}

ExecutorStats SkuteStore::EndEpoch() {
  EpochContext ctx = MakeEpochContext(&policies());
  pipeline_.Run(EpochPhase::kEnd, ctx);
  // The service plane's between-epochs serve window: live connections
  // get pumped here, after the epoch's stages but before the caller
  // snapshots metrics — so every served op lands in the epoch whose
  // capacity it debited. A no-op unless a NetService registered itself.
  pipeline_.RunServeWindow();
  return last_stats_;
}

// --- Failures ---------------------------------------------------------------------

void SkuteStore::HandleServerFailure(ServerId id) {
  ++placement_version_;
  for (Partition* p : catalog_.PartitionsWithReplicaOn(id)) {
    const auto replica = p->ReplicaOn(id);
    if (replica.ok()) {
      (void)vnodes_.Remove(replica->vnode);
    }
    (void)p->RemoveReplica(id);
    if (p->replica_count() == 0) ++lost_partitions_;
  }
  replica_data_.Erase(id);
}

// --- Introspection ------------------------------------------------------------------

std::vector<uint32_t> SkuteStore::VNodesPerServer() const {
  std::vector<uint32_t> counts(cluster_->size(), 0);
  catalog_.ForEachPartition([&](const Partition* p) {
    for (const ReplicaInfo& r : p->replicas()) {
      if (r.server < counts.size()) ++counts[r.server];
    }
  });
  return counts;
}

std::vector<std::vector<uint64_t>>
SkuteStore::QueriesServedPerRingPerServer() const {
  std::vector<std::vector<uint64_t>> out(
      catalog_.ring_count(), std::vector<uint64_t>(cluster_->size(), 0));
  catalog_.ForEachPartition([&](const Partition* p) {
    for (const ReplicaInfo& r : p->replicas()) {
      const VirtualNode* v = vnodes_.Find(r.vnode);
      if (v == nullptr || r.server >= cluster_->size()) continue;
      out[p->ring()][r.server] += v->queries_served;
    }
  });
  return out;
}

RingReport SkuteStore::ReportRing(RingId ring) const {
  RingReport report;
  const VirtualRing* r = catalog_.ring(ring);
  if (r == nullptr) return report;
  const double th = ring_info_[ring].sla.min_availability;
  double sum_avail = 0.0;
  bool first = true;
  for (const auto& p : r->partitions()) {
    ++report.partitions;
    report.vnodes += p->replica_count();
    report.logical_bytes += p->bytes();
    report.replicated_bytes += p->bytes() * p->replica_count();
    const double avail = AvailabilityModel::OfPartition(*p, *cluster_);
    sum_avail += avail;
    if (first || avail < report.min_availability) {
      report.min_availability = avail;
      first = false;
    }
    if (avail < th) ++report.below_threshold;
    bool any_live = false;
    for (const ReplicaInfo& rep : p->replicas()) {
      const Server* s = cluster_->server(rep.server);
      if (s != nullptr && s->online()) {
        any_live = true;
        break;
      }
    }
    if (!any_live) ++report.lost;
  }
  if (report.partitions > 0) {
    report.mean_availability =
        sum_avail / static_cast<double>(report.partitions);
  }
  if (ring < ring_queries_epoch_.size()) {
    report.queries_this_epoch = ring_queries_epoch_[ring];
    report.rent_paid_this_epoch = ring_spend_epoch_[ring];
    report.rent_paid_total = ring_spend_total_[ring];
  }
  return report;
}

}  // namespace skute
