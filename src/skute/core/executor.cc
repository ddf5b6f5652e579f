#include "skute/core/executor.h"

#include <algorithm>
#include <functional>
#include <numeric>
#include <unordered_map>

#include "skute/economy/availability.h"
#include "skute/economy/candidate.h"

namespace skute {

void ExecutorStats::Accumulate(const ExecutorStats& other) {
  replications += other.replications;
  migrations += other.migrations;
  suicides += other.suicides;
  blocked_bandwidth += other.blocked_bandwidth;
  blocked_storage += other.blocked_storage;
  aborted_stale += other.aborted_stale;
  bytes_replicated += other.bytes_replicated;
  bytes_migrated += other.bytes_migrated;
  snapshot_bytes += other.snapshot_bytes;
  delta_bytes += other.delta_bytes;
}

TransferResult ActionExecutor::CopyRealData(ServerId from, ServerId to,
                                            PartitionId pid) {
  if (replica_data_ == nullptr) return {};
  ReplicaStore* src = replica_data_->Find(from);
  if (src == nullptr || src->Find(pid) == nullptr) {
    return {};  // synthetic partition: sizes only, nothing to copy
  }
  // The planner pre-created every transfer target's store; Find (a pure
  // lookup) keeps this path safe on a worker thread.
  ReplicaStore* dst = replica_data_->Find(to);
  if (dst == nullptr) return {};
  auto streamed = dst->CopyFrom(*src, pid);
  if (streamed.ok()) return *streamed;
  TransferResult failed;
  failed.failed = true;  // source fault / torn stream: action must block
  return failed;
}

TransferResult ActionExecutor::MoveRealData(ServerId from, ServerId to,
                                            PartitionId pid) {
  if (replica_data_ == nullptr) return {};
  ReplicaStore* src = replica_data_->Find(from);
  if (src == nullptr || src->Find(pid) == nullptr) {
    return {};
  }
  ReplicaStore* dst = replica_data_->Find(to);
  if (dst == nullptr) return {};
  auto streamed = dst->MoveFrom(src, pid);
  if (streamed.ok()) return *streamed;
  TransferResult failed;
  failed.failed = true;
  return failed;
}

void ActionExecutor::DropRealData(ServerId server, PartitionId pid) {
  if (replica_data_ == nullptr) return;
  ReplicaStore* store = replica_data_->Find(server);
  if (store == nullptr) return;
  (void)store->Drop(pid);
}

ActionExecutor::Outcome ActionExecutor::ApplyReplicate(
    const Action& a, VNodeId vid, Epoch epoch, ExecGroupResult* out) {
  Partition* p = catalog_->partition(a.partition);
  if (p == nullptr) return Outcome::kStale;
  Server* target = cluster_->server(a.target);
  if (target == nullptr || !target->online()) return Outcome::kStale;
  if (p->HasReplicaOn(a.target)) return Outcome::kStale;

  // Pick the replication source: the proposed one when still usable,
  // otherwise any live replica with replication budget.
  Server* source = nullptr;
  if (a.source != kInvalidServer && p->HasReplicaOn(a.source)) {
    Server* s = cluster_->server(a.source);
    if (s != nullptr && s->online() && s->CanStartReplication()) source = s;
  }
  if (source == nullptr) {
    for (const ReplicaInfo& r : p->replicas()) {
      Server* s = cluster_->server(r.server);
      if (s != nullptr && s->online() && s->CanStartReplication()) {
        source = s;
        break;
      }
    }
  }
  if (source == nullptr) return Outcome::kBlockedBandwidth;
  if (!target->CanStartReplication()) return Outcome::kBlockedBandwidth;

  const uint64_t bytes = p->bytes();
  if (!target->ReserveStorage(bytes).ok()) return Outcome::kBlockedStorage;

  source->ChargeReplication(bytes);
  target->ChargeReplication(bytes);

  // Stream the real bytes BEFORE registering the replica: a faulted
  // source (torn snapshot, failed import) must leave the catalog
  // untouched — the action blocks and is re-proposed next epoch, it
  // never yields a registered-but-corrupt replica. The partial
  // destination data is dropped; both servers keep the bandwidth charge
  // for the attempt, the storage reservation is returned.
  const TransferResult copied = CopyRealData(source->id(), a.target, p->id());
  if (copied.failed) {
    DropRealData(a.target, p->id());
    (void)target->ReleaseStorage(bytes);
    return Outcome::kBlockedBandwidth;
  }
  out->stats.snapshot_bytes += copied.bytes;

  // AddReplica cannot fail: HasReplicaOn was checked above. The vnode id
  // was pre-allocated by the planner; the registry insert is deferred to
  // the serial commit (nothing this epoch reads a vnode born this epoch).
  (void)p->AddReplica(a.target, vid, epoch);
  out->creates.push_back(
      PendingVNodeCreate{vid, p->id(), p->ring(), a.target, epoch});

  ++out->stats.replications;
  out->stats.bytes_replicated += bytes;
  return Outcome::kApplied;
}

ActionExecutor::Outcome ActionExecutor::ApplyMigrate(
    const Action& a, const std::vector<RingPolicy>& policies, Epoch epoch,
    ExecGroupResult* out) {
  VirtualNode* v = vnodes_->Find(a.vnode);
  if (v == nullptr || v->server != a.source) return Outcome::kStale;
  Partition* p = catalog_->partition(a.partition);
  if (p == nullptr || !p->HasReplicaOn(a.source)) return Outcome::kStale;
  Server* source = cluster_->server(a.source);
  Server* target = cluster_->server(a.target);
  if (source == nullptr || !source->online()) return Outcome::kStale;
  if (target == nullptr || !target->online()) return Outcome::kStale;
  if (p->HasReplicaOn(a.target)) return Outcome::kStale;

  // Re-validate availability against live state: the move must not take
  // the partition below its threshold (or worsen an already-low state).
  const RingPolicy& policy = policies[p->ring()];
  const double avail_now = AvailabilityModel::OfPartition(*p, *cluster_);
  const double avail_after = AvailabilityModel::OfServerIdsWith(
      *cluster_, ReplicaServerSet(*p, /*moving_from=*/a.source), a.target);
  const double required = std::min(policy.min_availability, avail_now);
  if (avail_after < required) return Outcome::kStale;

  if (!source->CanStartMigration() || !target->CanStartMigration()) {
    return Outcome::kBlockedBandwidth;
  }
  const uint64_t bytes = p->bytes();
  if (!target->ReserveStorage(bytes).ok()) return Outcome::kBlockedStorage;

  source->ChargeMigration(bytes);
  target->ChargeMigration(bytes);

  // Move the real bytes BEFORE touching the catalog: a faulted transfer
  // leaves the source replica intact and authoritative (MoveFrom only
  // wipes the source after a successful import), so the action simply
  // blocks. Partial destination data is dropped; the bandwidth charge
  // for the attempt stands, the reservation is returned.
  const TransferResult moved = MoveRealData(a.source, a.target, p->id());
  if (moved.failed) {
    DropRealData(a.target, p->id());
    (void)target->ReleaseStorage(bytes);
    return Outcome::kBlockedBandwidth;
  }
  (void)source->ReleaseStorage(bytes);

  (void)p->RemoveReplica(a.source);
  (void)p->AddReplica(a.target, v->id, epoch);
  v->server = a.target;
  v->balance.Reset();
  out->stats.snapshot_bytes += moved.bytes;

  ++out->stats.migrations;
  out->stats.bytes_migrated += bytes;
  return Outcome::kApplied;
}

ActionExecutor::Outcome ActionExecutor::ApplySuicide(
    const Action& a, const std::vector<RingPolicy>& policies,
    ExecGroupResult* out) {
  VirtualNode* v = vnodes_->Find(a.vnode);
  if (v == nullptr || v->server != a.source) return Outcome::kStale;
  Partition* p = catalog_->partition(a.partition);
  if (p == nullptr || !p->HasReplicaOn(a.source)) return Outcome::kStale;
  if (p->replica_count() <= 1) return Outcome::kStale;

  // Re-validate: the partition must stay available without this replica
  // (two concurrent suicides may have individually looked safe).
  const RingPolicy& policy = policies[p->ring()];
  const double avail_without = AvailabilityModel::OfPartitionWithout(
      *p, *cluster_, a.source);
  if (avail_without < policy.min_availability) return Outcome::kStale;

  Server* server = cluster_->server(a.source);
  if (server != nullptr && server->online()) {
    (void)server->ReleaseStorage(p->bytes());
  }
  // The replica set mutates eagerly (it carries re-validation for the
  // rest of the group); the registry erase is deferred to the commit.
  (void)p->RemoveReplica(a.source);
  out->removes.push_back(a.vnode);
  DropRealData(a.source, p->id());

  ++out->stats.suicides;
  return Outcome::kApplied;
}

void ActionExecutor::ApplyIndexed(const ExecutionPlan& plan, size_t index,
                                  const std::vector<RingPolicy>& policies,
                                  Epoch epoch, ExecGroupResult* out) {
  const Action& a = plan.actions[index];
  Outcome outcome = Outcome::kStale;
  switch (a.type) {
    case ActionType::kNone:
      return;
    case ActionType::kReplicate:
      outcome =
          ApplyReplicate(a, plan.replicate_vids[index], epoch, out);
      break;
    case ActionType::kMigrate:
      outcome = ApplyMigrate(a, policies, epoch, out);
      break;
    case ActionType::kSuicide:
      outcome = ApplySuicide(a, policies, out);
      break;
  }
  switch (outcome) {
    case Outcome::kApplied:
      break;
    case Outcome::kBlockedBandwidth:
      ++out->stats.blocked_bandwidth;
      break;
    case Outcome::kBlockedStorage:
      ++out->stats.blocked_storage;
      break;
    case Outcome::kStale:
      ++out->stats.aborted_stale;
      break;
  }
}

ExecutionPlan ActionExecutor::Plan(std::vector<Action> actions, Rng* rng) {
  ExecutionPlan plan;
  rng->Shuffle(&actions);
  plan.actions = std::move(actions);
  const size_t n = plan.actions.size();
  plan.replicate_vids.assign(n, kInvalidVNode);
  if (n == 0) return plan;

  // Union-find over action indices. Two actions conflict when their
  // footprints — source + target + every server hosting a replica of the
  // touched partition — intersect, or when they touch the same partition
  // (belt and braces for partitions whose replica set is empty at plan
  // time).
  std::vector<size_t> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  std::function<size_t(size_t)> find = [&](size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  auto unite = [&](size_t a, size_t b) {
    const size_t ra = find(a);
    const size_t rb = find(b);
    // Root at the lower index so group numbering stays first-touch.
    if (ra < rb) {
      parent[rb] = ra;
    } else if (rb < ra) {
      parent[ra] = rb;
    }
  };

  std::unordered_map<ServerId, size_t> server_owner;
  std::unordered_map<PartitionId, size_t> partition_owner;
  std::vector<char> in_residual(n, 0);
  std::vector<char> skip(n, 0);

  for (size_t i = 0; i < n; ++i) {
    const Action& a = plan.actions[i];
    if (a.type == ActionType::kNone) {
      skip[i] = 1;
      continue;
    }
    if (a.type == ActionType::kReplicate) {
      // Ids allocate in shuffled order whatever the thread count; a
      // replication that later fails admission just wastes its id.
      plan.replicate_vids[i] = catalog_->AllocateVNodeId();
    }

    bool any_footprint = false;
    const auto touch_server = [&](ServerId s) {
      if (s == kInvalidServer) return;
      any_footprint = true;
      const auto [it, inserted] = server_owner.try_emplace(s, i);
      if (!inserted) unite(i, it->second);
    };
    const auto touch_partition = [&](PartitionId pid) {
      const Partition* p = catalog_->partition(pid);
      if (p == nullptr) return;
      any_footprint = true;
      const auto [it, inserted] = partition_owner.try_emplace(p->id(), i);
      if (!inserted) unite(i, it->second);
      for (const ReplicaInfo& r : p->replicas()) touch_server(r.server);
    };
    touch_server(a.source);
    touch_server(a.target);
    touch_partition(a.partition);
    // A malformed proposal may name a vnode whose live server/partition
    // disagree with a.source/a.partition; ApplyMigrate/ApplySuicide read
    // that vnode's state regardless, so its real home joins the
    // footprint too (no-op for well-formed proposals).
    if (a.vnode != kInvalidVNode &&
        (a.type == ActionType::kMigrate ||
         a.type == ActionType::kSuicide)) {
      if (const VirtualNode* v = vnodes_->Find(a.vnode)) {
        touch_server(v->server);
        touch_partition(v->partition);
      }
    }
    if (!any_footprint) {
      // No partition, no server: nothing to key concurrency on. The
      // residual serial group applies these on the commit thread.
      in_residual[i] = 1;
      plan.residual.push_back(i);
    }
  }

  // Groups in first-touch order: the group index is the order of its
  // lowest member, and members stay in shuffled order.
  std::unordered_map<size_t, size_t> root_to_group;
  for (size_t i = 0; i < n; ++i) {
    if (skip[i] || in_residual[i]) continue;
    const size_t root = find(i);
    const auto [it, inserted] =
        root_to_group.try_emplace(root, plan.groups.size());
    if (inserted) plan.groups.emplace_back();
    plan.groups[it->second].push_back(i);
  }
  for (const std::vector<size_t>& g : plan.groups) {
    plan.largest_group = std::max(plan.largest_group, g.size());
  }

  // Pre-create the ReplicaStore of every transfer target on this (serial)
  // thread: workers may then only Find — the per-server hash map is never
  // grown concurrently.
  if (replica_data_ != nullptr) {
    for (const Action& a : plan.actions) {
      if (a.type != ActionType::kReplicate &&
          a.type != ActionType::kMigrate) {
        continue;
      }
      if (a.target == kInvalidServer ||
          cluster_->server(a.target) == nullptr) {
        continue;
      }
      (void)replica_data_->For(a.target);
    }
  }
  return plan;
}

ExecGroupResult ActionExecutor::ApplyGroup(
    const ExecutionPlan& plan, size_t group,
    const std::vector<RingPolicy>& policies, Epoch epoch) {
  ExecGroupResult out;
  for (const size_t index : plan.groups[group]) {
    ApplyIndexed(plan, index, policies, epoch, &out);
  }
  return out;
}

ExecutorStats ActionExecutor::Commit(const ExecutionPlan& plan,
                                     std::vector<ExecGroupResult> results,
                                     const std::vector<RingPolicy>& policies,
                                     Epoch epoch) {
  // Residual serial group first computes like any other (it conflicts
  // with nothing by construction), then everything merges in group order.
  ExecGroupResult residual;
  for (const size_t index : plan.residual) {
    ApplyIndexed(plan, index, policies, epoch, &residual);
  }
  results.push_back(std::move(residual));

  ExecutorStats total;
  for (const ExecGroupResult& r : results) {
    total.Accumulate(r.stats);
    for (const PendingVNodeCreate& c : r.creates) {
      vnodes_->Create(c.id, c.partition, c.ring, c.server, c.epoch);
    }
    for (const VNodeId id : r.removes) {
      (void)vnodes_->Remove(id);
    }
  }
  return total;
}

ExecutorStats ActionExecutor::Apply(std::vector<Action> actions,
                                    const std::vector<RingPolicy>& policies,
                                    Epoch epoch, Rng* rng) {
  const ExecutionPlan plan = Plan(std::move(actions), rng);
  std::vector<ExecGroupResult> results(plan.groups.size());
  for (size_t g = 0; g < plan.groups.size(); ++g) {
    results[g] = ApplyGroup(plan, g, policies, epoch);
  }
  return Commit(plan, std::move(results), policies, epoch);
}

}  // namespace skute
