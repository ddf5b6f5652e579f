#include "skute/chaos/fault_plan.h"

#include <utility>

namespace skute {
namespace chaos {

namespace {

Fault Make(FaultKind kind, uint32_t per_mille, uint32_t slow_us = 0) {
  Fault f;
  f.kind = kind;
  f.per_mille = per_mille;
  f.slow_us = slow_us;
  return f;
}

}  // namespace

void FaultPlan::AddWindow(FaultWindow window) {
  window.fault.salt = (windows_.size() + 1) * 0x9e3779b9ull ^
                      static_cast<uint64_t>(window.fault.kind);
  windows_.push_back(window);
}

std::vector<SimEvent> FaultPlan::Compile() const {
  std::vector<SimEvent> events;
  for (const FaultWindow& w : windows_) {
    events.push_back(SimEvent::Chaos(w.from, w.fault));
    if (w.to > w.from) {
      Fault off = w.fault;
      if (off.kind == FaultKind::kNetPartition) {
        off.kind = FaultKind::kHealPartition;
        off.per_mille = 1000;
      } else {
        off.per_mille = 0;
        off.slow_us = 0;
      }
      events.push_back(SimEvent::Chaos(w.to, off));
    }
  }
  return events;
}

std::vector<std::string> FaultPlan::BuiltinNames() {
  return {"none",           "disk_flaky", "disk_slow", "torn_transfer",
          "ring_partition", "net_chaos",  "kitchen_sink"};
}

Result<FaultPlan> FaultPlan::Named(std::string_view name) {
  FaultPlan plan;
  plan.name_ = std::string(name);
  if (name == "none") {
    return plan;
  }
  if (name == "disk_flaky") {
    // ~1 in 40 flushes fails from epoch 2 on: the IoPool's bounded
    // retry absorbs almost all of them (each retry re-draws), and the
    // rare triple failure surfaces as a loud failed_flush. Hot enough
    // to fire thousands of times per run, cold enough that the error
    // log stays readable.
    plan.AddWindow({Make(FaultKind::kFsyncFail, 25), 2, 0});
    return plan;
  }
  if (name == "disk_slow") {
    // ~1 in 20 flushes pays 200us of emulated seek latency — enough to
    // meter real throttle time through IoStats without stretching a
    // full-fleet run by minutes (every backend flushes every epoch).
    plan.AddWindow({Make(FaultKind::kSlowDisk, 50, 200), 1, 0});
    return plan;
  }
  if (name == "torn_transfer") {
    // ~1 in 4 snapshot exports is torn mid-record; imports reject
    // via CRC, the executor treats the transfer as blocked (source kept
    // intact) and the decision plane re-proposes.
    plan.AddWindow({Make(FaultKind::kTornTransfer, 250), 2, 0});
    return plan;
  }
  if (name == "ring_partition") {
    // A quarter of the fleet drops off the client routing plane at
    // epoch 3 and heals at epoch 12.
    plan.AddWindow({Make(FaultKind::kNetPartition, 250), 3, 12});
    return plan;
  }
  if (name == "net_chaos") {
    // Pure client-plane chaos: connection resets + stalls. No storage
    // windows, so it composes with any serve-mode scenario.
    plan.conn_reset_per_mille = 150;
    plan.client_stall_ms = 5;
    return plan;
  }
  if (name == "kitchen_sink") {
    plan.AddWindow({Make(FaultKind::kFsyncFail, 20), 2, 0});
    plan.AddWindow({Make(FaultKind::kTornTransfer, 150), 3, 0});
    plan.AddWindow({Make(FaultKind::kSlowDisk, 25, 100), 4, 0});
    plan.AddWindow({Make(FaultKind::kNetPartition, 150), 5, 10});
    plan.conn_reset_per_mille = 100;
    return plan;
  }
  std::string known;
  for (const std::string& n : BuiltinNames()) {
    if (!known.empty()) known += ", ";
    known += n;
  }
  return Status::InvalidArgument("unknown fault plan '" +
                                 std::string(name) + "' (known: " + known +
                                 ")");
}

}  // namespace chaos
}  // namespace skute
