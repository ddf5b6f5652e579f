#ifndef SKUTE_ENGINE_STAGES_H_
#define SKUTE_ENGINE_STAGES_H_

#include "skute/engine/epoch_stage.h"

namespace skute {

/// \brief Opens the epoch (BeginEpoch): rolls every server's counters,
/// publishes the Eq. 1 virtual rents at the board, resets the per-epoch
/// counters, and accounts the board's publication messages.
class PublishPricesStage : public EpochStage {
 public:
  const char* name() const override { return "publish_prices"; }
  EpochPhase phase() const override { return EpochPhase::kBegin; }
  void Run(EpochContext& ctx) override;
};

/// \brief The parallel query-routing plane: routes the epoch's QueryBatch
/// (partition -> requested count) by sharding it with the decision
/// plane's shard layout and fanning the share computation — live-replica
/// selection, proximity weights, largest-remainder apportionment — out
/// over the worker pool. Per-shard accumulators (partition stats, ring
/// queries, query messages, replica shares) are merged on the calling
/// thread in shard order; capacity admission happens only in that merge
/// and is batched per server (one Server::ServeQueries debit per server
/// per batch, the grant split greedily over the shares), so routed/served
/// counters and drop placement are bit-for-bit identical for any thread
/// count — and identical to per-share admission.
class RouteStage : public EpochStage {
 public:
  const char* name() const override { return "route_queries"; }
  EpochPhase phase() const override { return EpochPhase::kRoute; }
  void Run(EpochContext& ctx) override;
};

/// \brief Eq. 5: records utility - rent for every live vnode, sharded by
/// partition. Per-ring rent spend is accumulated into per-shard partials
/// and merged in shard order, so the floating-point sum order — and hence
/// the reported rents — is identical for every thread count. As a side
/// product it fills EpochContext::streak_flags (post-record per-partition
/// balance-streak bits) for the proposal stage's dirty check.
class RecordBalancesStage : public EpochStage {
 public:
  const char* name() const override { return "record_balances"; }
  EpochPhase phase() const override { return EpochPhase::kEnd; }
  void Run(EpochContext& ctx) override;
};

/// \brief Runs the placement policy. Policies that support sharding
/// (EconomicPolicy) first get a BeginProposalEpoch prepare step — building
/// the per-epoch candidate scoring context and availability-cache epoch
/// once, fanned over the pool — then are invoked once per shard,
/// concurrently, each shard with its own rent-surcharge ledger; per-shard
/// action lists are concatenated in shard order and EndProposalEpoch
/// releases the borrowed per-epoch state. Legacy policies fall back to
/// the single whole-catalog call.
class ProposeActionsStage : public EpochStage {
 public:
  const char* name() const override { return "propose_actions"; }
  EpochPhase phase() const override { return EpochPhase::kEnd; }
  void Run(EpochContext& ctx) override;
};

/// \brief Applies the epoch's proposed actions through the
/// ActionExecutor's plan/commit protocol: a serial planning pass groups
/// the shuffled actions into conflict groups (disjoint server/partition
/// footprints), the groups apply concurrently on the worker pool — each
/// worker re-validating and admitting against only its group's servers,
/// snapshot streaming included — and a serial commit merges counters and
/// deferred vnode-registry mutations in group order. Grouping, in-group
/// order, and merge order are functions of the shuffle alone, so
/// threads=1 and threads=N stay bit-for-bit identical (the epoch's former
/// serialization point now scales with the pool).
class ExecuteStage : public EpochStage {
 public:
  const char* name() const override { return "execute"; }
  EpochPhase phase() const override { return EpochPhase::kEnd; }
  void Run(EpochContext& ctx) override;
};

/// \brief The epoch's durability quiesce point, between execution and
/// accounting: sweeps backends with unflushed bytes into the IoPool and
/// drains it, so concurrent flush submissions for one backend collapse
/// into a single group-committed fsync. The sweep is driven by
/// per-backend byte counts — a pure function of the epoch's writes — so
/// threads=1 and threads=N stay bit-for-bit identical.
class DurabilityStage : public EpochStage {
 public:
  const char* name() const override { return "durability"; }
  EpochPhase phase() const override { return EpochPhase::kEnd; }
  void Run(EpochContext& ctx) override;
};

/// \brief Closes the epoch's books: transfer/communication accounting,
/// lifetime totals, and the epoch counter increment.
class AccountingStage : public EpochStage {
 public:
  const char* name() const override { return "accounting"; }
  EpochPhase phase() const override { return EpochPhase::kEnd; }
  void Run(EpochContext& ctx) override;
};

}  // namespace skute

#endif  // SKUTE_ENGINE_STAGES_H_
