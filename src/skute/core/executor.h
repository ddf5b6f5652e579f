#ifndef SKUTE_CORE_EXECUTOR_H_
#define SKUTE_CORE_EXECUTOR_H_

#include <cstddef>
#include <vector>

#include "skute/cluster/cluster.h"
#include "skute/common/random.h"
#include "skute/core/decision.h"
#include "skute/core/vnode.h"
#include "skute/ring/catalog.h"
#include "skute/storage/replica_store.h"

namespace skute {

/// Outcome counters of one epoch's action execution.
struct ExecutorStats {
  uint64_t replications = 0;
  uint64_t migrations = 0;
  uint64_t suicides = 0;
  /// Actions deferred because a transfer budget was exhausted (the agent
  /// will re-propose next epoch).
  uint64_t blocked_bandwidth = 0;
  /// Actions deferred because the target ran out of storage between
  /// proposal and execution.
  uint64_t blocked_storage = 0;
  /// Actions dropped because re-validation against live state failed
  /// (another agent's action landed first).
  uint64_t aborted_stale = 0;
  uint64_t bytes_replicated = 0;
  uint64_t bytes_migrated = 0;
  /// Full-snapshot bytes actually streamed between storage backends for
  /// the epoch's transfers (0 when real data is off or for in-memory
  /// moves) — the persistence-layer cost behind the catalog's logical
  /// byte counts.
  uint64_t snapshot_bytes = 0;
  /// Always 0: every transfer streams a full snapshot. Kept so the
  /// metrics CSV (`delta_bytes` column) keeps its schema.
  uint64_t delta_bytes = 0;

  uint64_t applied() const { return replications + migrations + suicides; }

  void Accumulate(const ExecutorStats& other);
};

/// \brief The deterministic output of the planning pass: the epoch's
/// shuffled actions partitioned into **conflict groups**.
///
/// Two actions land in the same group iff their server footprints — the
/// source, the target, and every server hosting a replica of the touched
/// partition (the set re-validation consults) — are transitively
/// connected, or they touch the same partition. Disjoint groups therefore
/// share no Server, Partition, ReplicaStore, or VirtualNode object and
/// can be applied concurrently; within a group the shuffled order is
/// preserved, so a group's execution is exactly the serial executor's.
///
/// Actions whose footprint cannot be computed at all (no valid partition
/// and no valid server — possible only for malformed proposals) fall into
/// the `residual` serial group, applied on the commit thread.
struct ExecutionPlan {
  /// The epoch's actions in shuffled (execution) order.
  std::vector<Action> actions;
  /// Pre-allocated vnode id per action (kInvalidVNode unless kReplicate).
  /// Allocation happens in shuffled order during planning so the id
  /// sequence is a pure function of the plan, never of which worker
  /// applies a group first. Ids of replications that later fail admission
  /// are discarded — ids are never reused, so gaps are harmless.
  std::vector<VNodeId> replicate_vids;
  /// Conflict groups: indices into `actions`, each group in shuffled
  /// order. Groups are numbered by their lowest member index, which is
  /// also the commit (merge) order.
  std::vector<std::vector<size_t>> groups;
  /// Footprint-less actions, applied serially during Commit (after every
  /// group), in shuffled order.
  std::vector<size_t> residual;
  /// Diagnostics: size of the largest conflict group (1000-server runs
  /// should see many small groups; one giant group means the epoch
  /// degenerated to serial execution).
  size_t largest_group = 0;
};

/// A vnode-registry insert recorded by a worker and replayed serially at
/// commit (the registry's hash map must never be mutated concurrently).
struct PendingVNodeCreate {
  VNodeId id = kInvalidVNode;
  PartitionId partition = kInvalidPartition;
  RingId ring = 0;
  ServerId server = kInvalidServer;
  Epoch epoch = 0;
};

/// \brief One conflict group's execution outcome: its counters plus the
/// vnode-registry mutations it deferred to the serial commit.
///
/// Deferral is invisible to execution semantics: a vnode created this
/// epoch is never referenced by this epoch's actions (they were proposed
/// before it existed), and a suicided vnode's staleness is re-detected
/// through the partition's replica set (mutated eagerly in the worker),
/// so later in-group actions reach the same outcome either way.
struct ExecGroupResult {
  ExecutorStats stats;
  std::vector<PendingVNodeCreate> creates;
  std::vector<VNodeId> removes;
};

/// \brief Applies proposed actions under live-state re-validation and the
/// servers' transfer/storage constraints.
///
/// Actions are shuffled before application: the paper's agents act
/// concurrently without coordination, so no agent may rely on proposal
/// order. Re-validation makes concurrent proposals safe — e.g. two
/// replicas of one partition both deciding to suicide will result in only
/// the first being applied if the second would break the SLA.
///
/// Execution is a two-phase plan/commit protocol:
///
///   ExecutionPlan plan = exec.Plan(std::move(actions), rng);   // serial
///   std::vector<ExecGroupResult> results(plan.groups.size());
///   parallel_for(g) results[g] = exec.ApplyGroup(plan, g, ...);  // pool
///   ExecutorStats st = exec.Commit(plan, std::move(results), ...);
///
/// ApplyGroup is safe to call concurrently for *distinct* groups of one
/// plan: groups touch disjoint servers/partitions/stores by construction,
/// the vnode registry is only read (mutations are deferred into the
/// result), and the planner pre-creates any ReplicaStore a transfer
/// target needs so the per-server map is never grown on a worker. Because
/// the grouping, the in-group order, and the commit order are functions
/// of the shuffle alone, a run with 1 thread and a run with N threads
/// produce bit-for-bit identical stores (tests/engine/
/// execute_determinism_test.cc).
class ActionExecutor {
 public:
  /// `replica_data` may be nullptr (synthetic/simulation mode); when
  /// given, replicate/migrate/suicide also copy/move/drop the real
  /// key-value bytes by streaming backend snapshots.
  ActionExecutor(Cluster* cluster, RingCatalog* catalog,
                 VNodeRegistry* vnodes, ReplicaDataMap* replica_data)
      : cluster_(cluster),
        catalog_(catalog),
        vnodes_(vnodes),
        replica_data_(replica_data) {}

  /// Serial convenience: Plan + ApplyGroup over every group in order +
  /// Commit, all on the calling thread. Bit-identical to the parallel
  /// protocol above.
  ExecutorStats Apply(std::vector<Action> actions,
                      const std::vector<RingPolicy>& policies, Epoch epoch,
                      Rng* rng);

  /// Phase 1 (serial): shuffles `actions` with `rng`, pre-allocates vnode
  /// ids for replications, groups the actions into conflict groups, and
  /// pre-creates the ReplicaStores of transfer targets.
  ExecutionPlan Plan(std::vector<Action> actions, Rng* rng);

  /// Phase 2 (parallel-safe across distinct groups): applies group
  /// `group` of `plan` — re-validation, bandwidth/storage admission, and
  /// real-data snapshot streaming — against only that group's servers.
  ExecGroupResult ApplyGroup(const ExecutionPlan& plan, size_t group,
                             const std::vector<RingPolicy>& policies,
                             Epoch epoch);

  /// Phase 3 (serial): merges group results in group order — counters and
  /// the deferred vnode creates/removes — then applies the residual
  /// serial group. `results` must hold one entry per plan group.
  ExecutorStats Commit(const ExecutionPlan& plan,
                       std::vector<ExecGroupResult> results,
                       const std::vector<RingPolicy>& policies, Epoch epoch);

 private:
  enum class Outcome {
    kApplied,
    kBlockedBandwidth,
    kBlockedStorage,
    kStale
  };

  /// Applies plan.actions[index] into `out`, tallying the outcome.
  void ApplyIndexed(const ExecutionPlan& plan, size_t index,
                    const std::vector<RingPolicy>& policies, Epoch epoch,
                    ExecGroupResult* out);

  Outcome ApplyReplicate(const Action& a, VNodeId vid, Epoch epoch,
                         ExecGroupResult* out);
  Outcome ApplyMigrate(const Action& a,
                       const std::vector<RingPolicy>& policies, Epoch epoch,
                       ExecGroupResult* out);
  Outcome ApplySuicide(const Action& a,
                       const std::vector<RingPolicy>& policies,
                       ExecGroupResult* out);

  /// Copy/Move return what was streamed (0 bytes when nothing real was
  /// transferred). Worker-safe: they only Find stores (the planner
  /// pre-created every transfer target's store).
  TransferResult CopyRealData(ServerId from, ServerId to, PartitionId pid);
  TransferResult MoveRealData(ServerId from, ServerId to, PartitionId pid);
  void DropRealData(ServerId server, PartitionId pid);

  Cluster* cluster_;
  RingCatalog* catalog_;
  VNodeRegistry* vnodes_;
  ReplicaDataMap* replica_data_;
};

}  // namespace skute

#endif  // SKUTE_CORE_EXECUTOR_H_
