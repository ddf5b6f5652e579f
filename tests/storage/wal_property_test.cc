// Property sweep: for any random operation sequence, replaying the
// DurableBackend's WAL into a fresh backend reproduces exactly the state
// of a reference model — and replaying any truncated prefix reproduces
// the reference model of the corresponding operation prefix. Deletes of
// missing keys are NotFound and unlogged (the backend contract), so
// they leave both the log and the model untouched.

#include <map>
#include <string>

#include <gtest/gtest.h>

#include "skute/common/random.h"
#include "skute/backend/durable_backend.h"

namespace skute {
namespace {

struct Op {
  bool is_put;
  std::string key;
  std::string value;
};

std::vector<Op> RandomOps(uint64_t seed, int count) {
  Rng rng(seed);
  std::vector<Op> ops;
  ops.reserve(count);
  for (int i = 0; i < count; ++i) {
    Op op;
    op.is_put = rng.Bernoulli(0.7);
    // Built with += (not operator+) to sidestep GCC 12's -Wrestrict
    // false positive on small-string concatenation.
    op.key = "k";
    op.key += std::to_string(rng.UniformInt(0, 49));
    if (op.is_put) {
      op.value = std::string(rng.UniformInt(0, 100), 'v');
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

std::map<std::string, std::string> Reference(const std::vector<Op>& ops,
                                             size_t prefix) {
  std::map<std::string, std::string> model;
  for (size_t i = 0; i < prefix && i < ops.size(); ++i) {
    if (ops[i].is_put) {
      model[ops[i].key] = ops[i].value;
    } else {
      model.erase(ops[i].key);
    }
  }
  return model;
}

/// Applies one op; returns whether it appended a log record (a Delete of
/// a missing key is NotFound and logs nothing).
bool Apply(DurableBackend* store, const Op& op) {
  if (op.is_put) {
    EXPECT_TRUE(store->Put(op.key, op.value).ok());
    return true;
  }
  const Status st = store->Delete(op.key);
  EXPECT_TRUE(st.ok() || st.IsNotFound()) << op.key;
  return st.ok();
}

void ExpectMatches(const DurableBackend& store,
                   const std::map<std::string, std::string>& model) {
  ASSERT_EQ(store.Count(), model.size());
  for (const auto& [key, value] : model) {
    auto v = store.Get(key);
    ASSERT_TRUE(v.ok()) << key;
    EXPECT_EQ(*v, value);
  }
}

class WalPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WalPropertyTest, FullReplayEqualsReferenceModel) {
  const std::vector<Op> ops = RandomOps(GetParam(), 300);
  DurableBackend original;
  size_t logged = 0;
  for (const Op& op : ops) logged += Apply(&original, op) ? 1 : 0;
  DurableBackend rebuilt;
  auto applied = rebuilt.Recover(original.log());
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, logged);
  ExpectMatches(rebuilt, Reference(ops, ops.size()));
  // Idempotence-of-state: recovering the same log again converges to the
  // same state (every op replays LWW-style).
  ASSERT_TRUE(rebuilt.Recover(original.log()).ok());
  ExpectMatches(rebuilt, Reference(ops, ops.size()));
}

TEST_P(WalPropertyTest, AnyRecordPrefixEqualsOperationPrefix) {
  const std::vector<Op> ops = RandomOps(GetParam() ^ 0xabcd, 60);
  DurableBackend original;
  // Record the log length and record count after every operation.
  std::vector<size_t> boundaries;
  std::vector<size_t> records;
  size_t logged = 0;
  for (const Op& op : ops) {
    logged += Apply(&original, op) ? 1 : 0;
    boundaries.push_back(original.log().size());
    records.push_back(logged);
  }
  // Every clean prefix replays to the matching reference model.
  for (size_t i = 0; i < boundaries.size(); i += 7) {
    DurableBackend rebuilt;
    auto applied = rebuilt.Recover(
        std::string_view(original.log()).substr(0, boundaries[i]));
    ASSERT_TRUE(applied.ok());
    EXPECT_EQ(*applied, records[i]);
    ExpectMatches(rebuilt, Reference(ops, i + 1));
  }
  // A torn cut inside the last logged record recovers the state before
  // the op that logged it (later ops are unlogged, state-neutral deletes).
  size_t k = ops.size() - 1;  // the op that appended the last record
  while (k > 0 && records[k] == records[k - 1]) --k;
  ASSERT_GE(k, 1u);
  const size_t cut = boundaries[k - 1] + 3;
  DurableBackend rebuilt;
  auto applied =
      rebuilt.Recover(std::string_view(original.log()).substr(0, cut));
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, records[k] - 1);
  ExpectMatches(rebuilt, Reference(ops, k));
}

INSTANTIATE_TEST_SUITE_P(Seeds, WalPropertyTest,
                         ::testing::Values(7, 14, 21, 28, 35));

}  // namespace
}  // namespace skute
