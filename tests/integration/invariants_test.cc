// Cross-module property tests: whole-system invariants that must hold at
// every epoch of any simulation, across seeds. These are the safety net
// for the economy's concurrent-agent semantics.

#include <limits>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "skute/economy/availability.h"
#include "skute/engine/epoch_context.h"
#include "skute/engine/epoch_stage.h"
#include "skute/sim/simulation.h"

namespace skute {
namespace {

class InvariantsTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    SimConfig config = SimConfig::Tiny();
    config.seed = GetParam();
    sim_ = std::make_unique<Simulation>(config);
    ASSERT_TRUE(sim_->Initialize().ok());
  }

  /// Sum over partitions of bytes * live replicas == sum of server
  /// used_storage: no leaked or phantom reservations, ever.
  void CheckStorageAccounting() {
    uint64_t expected = 0;
    sim_->store().catalog().ForEachPartition([&](const Partition* p) {
      for (const ReplicaInfo& r : p->replicas()) {
        const Server* s = sim_->cluster().server(r.server);
        ASSERT_NE(s, nullptr);
        EXPECT_TRUE(s->online())
            << "replica on offline server " << r.server;
        expected += p->bytes();
      }
    });
    EXPECT_EQ(sim_->cluster().TotalUsedStorage(), expected);
  }

  /// Every replica has a live agent, every agent has a replica, and no
  /// partition holds two replicas on one server.
  void CheckReplicaVNodeConsistency() {
    size_t replica_count = 0;
    sim_->store().catalog().ForEachPartition([&](const Partition* p) {
      std::unordered_set<ServerId> servers;
      for (const ReplicaInfo& r : p->replicas()) {
        EXPECT_TRUE(servers.insert(r.server).second)
            << "duplicate replica on server " << r.server;
        const VirtualNode* v = sim_->store().vnodes().Find(r.vnode);
        ASSERT_NE(v, nullptr) << "replica without agent";
        EXPECT_EQ(v->server, r.server);
        EXPECT_EQ(v->partition, p->id());
        EXPECT_EQ(v->ring, p->ring());
        ++replica_count;
      }
    });
    EXPECT_EQ(sim_->store().vnodes().size(), replica_count);
  }

  /// Ring ranges stay a contiguous cover (routing never loses keys).
  void CheckRingCover() {
    for (RingId r : sim_->rings()) {
      const VirtualRing* ring = sim_->store().catalog().ring(r);
      const auto& parts = ring->partitions();
      ASSERT_FALSE(parts.empty());
      EXPECT_EQ(parts.front()->range().begin, 0u);
      for (size_t i = 1; i < parts.size(); ++i) {
        EXPECT_EQ(parts[i]->range().begin, parts[i - 1]->range().end);
      }
      EXPECT_EQ(parts.back()->range().end, 0u);
    }
  }

  /// Partitions never exceed the split cap (beyond one in-flight put).
  void CheckPartitionCap() {
    const uint64_t cap = sim_->store().options().max_partition_bytes;
    sim_->store().catalog().ForEachPartition([&](const Partition* p) {
      EXPECT_LE(p->bytes(), cap + sim_->config().object_bytes);
    });
  }

  void CheckAll() {
    CheckStorageAccounting();
    CheckReplicaVNodeConsistency();
    CheckRingCover();
    CheckPartitionCap();
  }

  std::unique_ptr<Simulation> sim_;
};

TEST_P(InvariantsTest, HoldAtEveryEpochOfNormalOperation) {
  CheckAll();
  for (int i = 0; i < 25; ++i) {
    sim_->Step();
    CheckAll();
  }
}

TEST_P(InvariantsTest, HoldThroughFailuresAndArrivals) {
  sim_->Run(10);
  sim_->ScheduleEvent(SimEvent::FailRandom(sim_->run_epoch(), 2));
  sim_->ScheduleEvent(SimEvent::AddServers(sim_->run_epoch() + 5, 4));
  sim_->ScheduleEvent(SimEvent::FailRandom(sim_->run_epoch() + 10, 2));
  for (int i = 0; i < 25; ++i) {
    sim_->Step();
    CheckAll();
  }
}

TEST_P(InvariantsTest, HoldUnderInsertPressure) {
  InsertWorkloadOptions inserts;
  inserts.inserts_per_epoch = 100;
  inserts.object_bytes = 512 * 1024;
  sim_->EnableInserts(inserts);
  for (int i = 0; i < 20; ++i) {
    sim_->Step();
    CheckAll();
  }
}

TEST_P(InvariantsTest, SlaHoldsAfterStabilization) {
  sim_->Run(40);
  for (RingId r : sim_->rings()) {
    const VirtualRing* ring = sim_->store().catalog().ring(r);
    const double th =
        sim_->store().sla_of_ring(r)->min_availability;
    for (const auto& p : ring->partitions()) {
      EXPECT_GE(AvailabilityModel::OfPartition(*p, sim_->cluster()), th)
          << "ring " << r << " partition " << p->id();
    }
  }
}

TEST_P(InvariantsTest, NoLostPartitionsInNormalOperation) {
  sim_->Run(40);
  EXPECT_EQ(sim_->store().lost_partitions(), 0u);
  EXPECT_EQ(sim_->store().insert_failures(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, InvariantsTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 42));

/// Appended after the accounting stage: audits the real replica data at
/// the end of every epoch — after the durability stage's drain, with
/// the epoch's writes and transfers all applied.
class ReplicaAudit : public EpochStage {
 public:
  const char* name() const override { return "test.replica_audit"; }
  EpochPhase phase() const override { return EpochPhase::kEnd; }

  void Run(EpochContext& ctx) override {
    keys = 0;
    mismatches = 0;
    first_mismatch.clear();
    if (ctx.replica_data == nullptr) return;
    using Contents = std::vector<std::pair<std::string, std::string>>;
    ctx.catalog->ForEachPartition([&](const Partition* p) {
      bool have_reference = false;
      Contents reference;
      ServerId reference_server = kInvalidServer;
      for (const ReplicaInfo& r : p->replicas()) {
        const Server* s = ctx.cluster->server(r.server);
        if (s == nullptr || !s->online()) continue;
        const ReplicaStore* rs = ctx.replica_data->Find(r.server);
        const StorageBackend* b = rs == nullptr ? nullptr : rs->Find(p->id());
        // A live replica without a backend holds no keys (synthetic-only
        // partitions have none anywhere).
        Contents contents;
        if (b != nullptr) {
          contents = b->Scan("", std::numeric_limits<size_t>::max());
        }
        if (!have_reference) {
          have_reference = true;
          reference = std::move(contents);
          reference_server = r.server;
          keys += reference.size();
        } else if (contents != reference) {
          ++mismatches;
          if (first_mismatch.empty()) {
            first_mismatch = "partition " + std::to_string(p->id()) +
                             ": server " + std::to_string(r.server) +
                             " holds " + std::to_string(contents.size()) +
                             " keys, server " +
                             std::to_string(reference_server) + " holds " +
                             std::to_string(reference.size());
          }
        }
      }
    });
  }

  uint64_t keys = 0;
  uint64_t mismatches = 0;
  std::string first_mismatch;
};

/// Replica convergence on the durability plane: a small durable fleet
/// taking real 512-byte inserts through the I/O pool, a server join and
/// a rack failure. After every epoch every live replica of a partition
/// holds the same key/value set, and the fleet holds exactly the keys
/// whose inserts were accepted — no accepted write is ever lost.
class ReplicaConvergenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReplicaConvergenceTest, LiveReplicasAgreeAndKeepEveryAcceptedWrite) {
  SimConfig config = SimConfig::Tiny();
  config.seed = GetParam();
  config.backend.kind = BackendKind::kDurable;
  config.store.track_real_data = true;
  config.store.durability.io_threads = 2;
  Simulation sim(config);
  ASSERT_TRUE(sim.Initialize().ok());

  auto audit_owner = std::make_unique<ReplicaAudit>();
  ReplicaAudit* audit = audit_owner.get();
  sim.store().epoch_pipeline().AddStage(std::move(audit_owner));

  InsertWorkloadOptions inserts;
  inserts.inserts_per_epoch = 200;
  inserts.real_value_bytes = 512;
  sim.EnableInserts(inserts);
  const Epoch start = sim.run_epoch();
  sim.ScheduleEvent(SimEvent::AddServers(start + 10, 4));
  sim.ScheduleEvent(SimEvent::FailScope(
      start + 20, Location::Of(0, 0, 0, 0, 0, 0), GeoLevel::kRack));

  uint64_t accepted = 0;
  for (int i = 0; i < 40; ++i) {
    sim.Step();
    const EpochSnapshot& snap = sim.metrics().last();
    accepted += snap.insert_attempted - snap.insert_failed;
    ASSERT_EQ(audit->mismatches, 0u)
        << "epoch " << i << ": " << audit->first_mismatch;
    ASSERT_EQ(audit->keys, accepted) << "epoch " << i;
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(sim.cluster().OnlineServers().size(), sim.cluster().size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplicaConvergenceTest,
                         ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace skute
